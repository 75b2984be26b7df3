"""Acceptance gate: nine exact finite-scale claims, one test per claim.

Each test prints one summary line (visible with -s; pytest -v shows the
pass/fail verdict per criterion) and fails loudly on any violation. The
frozen enumeration counts in criterion 1 were derived independently of
the suite implementation, by per-vertex incidence popcounts over all
2^20 adjacency masks.
"""

import random
import time
from collections import Counter

import pytest

from hamorient import (CyclePattern, Digraph, decompose,
                       distinct_path_patterns, embed_hamilton_orientation,
                       exact_embed, fit_decomposition_params,
                       gen_bipartite_extremal, gen_blowup_tt,
                       gen_random_min_degree, gen_split_cliques,
                       necklace_classes,
                       reverse_for_embedding, sparse_or_expander,
                       tt_embed_path, two_factor, validate_embedding)
from hamorient.bitset import bit_list, int_floor
from hamorient.digraph import degree_profile
from hamorient.patterns import classify_case, switches
from hamorient.workbench import suite_ghouila_houri

from conftest import has_directed_window

# Independently derived enumeration counts for 5 labeled vertices (see
# module docstring): adjacency masks whose min total degree reaches the
# path threshold, the cycle degree threshold, and — of the latter — how
# many are strongly connected.
N5_MASKS_DEGREE_GE_4 = 205801
N5_MASKS_DEGREE_GE_5 = 37990
N5_MASKS_DEGREE_GE_5_STRONG = 37850


def _report(tag, ok, msg):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, f"[{tag}] {msg}"


def _nondirected_patterns(n, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        o = tuple(rng.random() < 0.5 for _ in range(n))
        c = CyclePattern(o)
        if not c.is_directed():
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# shared planted corpus (criteria 5 and 6 run on the same 50 instances)


@pytest.fixture(scope="module")
def planted_corpus():
    combos = [(2, 60), (3, 60), (2, 72), (3, 72)]
    corpus = []
    for i in range(50):
        t, n = combos[i % len(combos)]
        sizes = [n // t] * t
        g = gen_blowup_tt(sizes, intra=0.95, forward_noise=0.001,
                          seed=1000 + i)
        blocks, at = [], 0
        for s in sizes:
            blocks.append(frozenset(range(at, at + s)))
            at += s
        entry = {"g": g, "blocks": blocks, "sp": None, "error": None}
        try:
            entry["sp"] = decompose(g, fit_decomposition_params(g))
        except Exception as e:          # a failed decomposition is a miss
            entry["error"] = str(e)
        corpus.append(entry)
    return corpus


def _symdiff_per_class(classes_masks, blocks):
    found = [set(bit_list(m)) for m in classes_masks]
    remaining = list(blocks)
    worst = 0
    for cls in found:
        best_i = min(range(len(remaining)),
                     key=lambda i: len(cls ^ remaining[i]))
        worst = max(worst, len(cls ^ remaining.pop(best_i)))
    return worst


# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c1_exhaustive_small_digraph_thresholds():
    t0 = time.monotonic()
    records = list(suite_ghouila_houri(5, negative_controls=False))
    outcomes = Counter(r.outcome for r in records)
    claims = Counter(r.params["claim"] for r in records)
    bad = outcomes["fail"] + outcomes["timeout"] + outcomes["inconclusive"]
    coverage_ok = (claims["path"] == N5_MASKS_DEGREE_GE_4
                   and claims["cycle"] == N5_MASKS_DEGREE_GE_5_STRONG
                   and claims["cycle"] <= N5_MASKS_DEGREE_GE_5)
    dt = time.monotonic() - t0
    _report("C1", bad == 0 and coverage_ok,
            f"all 2^20 digraphs on 5 vertices: {claims['path']} path claims, "
            f"{claims['cycle']} strongly-connected cycle claims, "
            f"{bad} violations ({dt:.0f}s)")


@pytest.mark.slow
def test_c2_extremal_witnesses_have_no_spanning_orientation():
    t0 = time.monotonic()
    violations = []
    cells = 0
    for n in range(6, 13):
        g = gen_bipartite_extremal(n)
        for c in necklace_classes(n):
            cells += 1
            res = exact_embed(g, c)
            if res.status != "none":
                violations.append(("bipartite", n, c.to_string(), res.status))
        h = gen_split_cliques(n)
        for p in distinct_path_patterns(n):
            cells += 1
            res = exact_embed(h, p)
            if res.status != "none":
                violations.append(("split", n, p.to_string(), res.status))
    dt = time.monotonic() - t0
    _report("C2", not violations,
            f"extremal witnesses n=6..12: {cells} orientation cells, "
            f"{len(violations)} unexpected embeddings {violations[:3]} "
            f"({dt:.0f}s)")


def test_c3_blowup_degree_and_cycle_length_tightness():
    t0 = time.monotonic()
    checked = 0
    violations = []
    for k in (1, 2, 3):
        for m in range(2, 15 // (k + 1) + 1):
            sizes = [m] * (k + 1)
            n = m * (k + 1)
            g = gen_blowup_tt(sizes, intra=1.0, forward_noise=0.0, seed=0)
            want = n + n // (k + 1) - 2
            got = degree_profile(g).min_total
            if got != want:
                violations.append(("degree", k, m, got, want))
            for length in range(m + 1, n + 1):
                checked += 1
                res = exact_embed(g, CyclePattern.directed(length))
                if res.status != "none":
                    violations.append(("cycle", k, m, length, res.status))
    dt = time.monotonic() - t0
    _report("C3", not violations,
            f"balanced blowups k=1..3, n<=15: exact degree formula and "
            f"{checked} longer-cycle absences, {len(violations)} violations "
            f"{violations[:3]} ({dt:.0f}s)")


def test_c4_cut_or_expander_dichotomy_never_neither():
    t0 = time.monotonic()
    eta, alpha, tau = 0.3, 0.3, 0.25
    kinds = Counter()
    neither = []
    for i in range(1000):
        g = gen_random_min_degree(12, 16, seed=i)
        assert degree_profile(g).min_total >= 16
        res = sparse_or_expander(g, eta, alpha, tau, seed=i)
        assert res.exact, "n=12 must resolve in exact mode"
        assert abs(res.nu - alpha * tau * eta / 4) < 1e-12
        kinds[res.kind] += 1
        if res.kind not in ("cut", "expander"):
            neither.append(i)
    dt = time.monotonic() - t0
    _report("C4", not neither,
            f"1000 seeded n=12 digraphs, delta>=16: {kinds['cut']} cuts, "
            f"{kinds['expander']} exact expanders, {len(neither)} neither "
            f"({dt:.0f}s)")


def test_c5_planted_class_recovery(planted_corpus):
    t0 = time.monotonic()
    passed = 0
    misses = []
    for idx, entry in enumerate(planted_corpus):
        sp = entry["sp"]
        if sp is None:
            misses.append((idx, entry["error"]))
            continue
        rep = sp.report
        worst = _symdiff_per_class(sp.classes, entry["blocks"])
        ok = (worst <= 2 and rep is not None and rep.clause1[0]
              and rep.clause2[0] and rep.clause3[0] and rep.clause4[0])
        if ok:
            passed += 1
        else:
            misses.append((idx, f"symdiff {worst}", rep and [
                rep.clause1[0], rep.clause2[0], rep.clause3[0],
                rep.clause4[0]]))
    dt = time.monotonic() - t0
    _report("C5", passed >= 48,
            f"planted recovery on 50 instances (t in 2,3; n in 60,72): "
            f"{passed}/50 recovered within symdiff 2 with all clauses, "
            f"misses {misses[:3]} ({dt:.0f}s)")


def test_c6_end_to_end_orientation_embedding(planted_corpus):
    t0 = time.monotonic()
    cells = valid = 0
    for idx, entry in enumerate(planted_corpus):
        if entry["sp"] is None:
            cells += 100        # unembeddable cells count against the rate
            continue
        g, rsp = entry["g"], reverse_for_embedding(entry["sp"])
        for c in _nondirected_patterns(g.n, 100, seed=9000 + idx):
            cells += 1
            res = embed_hamilton_orientation(g, rsp, c)
            if res.ok and validate_embedding(
                    g, c, res.embedding.mapping, spanning=True).valid:
                valid += 1
    rate = valid / cells

    control_bad = []
    for j, sizes in enumerate(([6, 6], [7, 7], [6, 6], [7, 7])):
        g = gen_blowup_tt(sizes, intra=1.0, forward_noise=0.0, seed=20 + j)
        rsp = reverse_for_embedding(decompose(g, fit_decomposition_params(g)))
        for c in _nondirected_patterns(g.n, 100, seed=500 + j):
            res = embed_hamilton_orientation(g, rsp, c)
            if not (res.ok and validate_embedding(
                    g, c, res.embedding.mapping, spanning=True).valid):
                control_bad.append((sizes, c.to_string()))
    dt = time.monotonic() - t0
    _report("C6", rate >= 0.95 and not control_bad,
            f"embedding 100 random non-directed orientations per planted "
            f"instance: {valid}/{cells} valid ({100 * rate:.1f}%, need 95%); "
            f"small controls {400 - len(control_bad)}/400 (need 100%) "
            f"({dt:.0f}s)")


def test_c7_bounded_cycle_covers():
    t0 = time.monotonic()
    trials = 0
    violations = []
    for n in (10, 12, 14):
        for k in (1, 2, 3):
            target = n + n // (k + 1) - 1
            for i in range(500):
                trials += 1
                g = gen_random_min_degree(n, target,
                                          seed=(n * 10 + k) * 100_000 + i)
                assert degree_profile(g).min_total >= target
                try:
                    cycles = two_factor(g, k)
                except Exception as e:
                    violations.append((n, k, i, f"error: {e}"))
                    continue
                covered = set()
                ok = len(cycles) <= k
                for cyc in cycles:
                    if not validate_embedding(
                            g, CyclePattern.directed(len(cyc)), cyc).valid:
                        ok = False
                    if covered & set(cyc):
                        ok = False
                    covered |= set(cyc)
                if covered != set(range(n)):
                    ok = False
                if not ok:
                    violations.append((n, k, i, f"{len(cycles)} cycles"))
    dt = time.monotonic() - t0
    _report("C7", not violations,
            f"{trials} trials over (n,k) in (10,12,14)x(1,2,3): cycle covers "
            f"with <=k directed cycles, {len(violations)} violations "
            f"{violations[:3]} ({dt:.0f}s)")


def test_c8_pattern_calculus_exhaustive():
    t0 = time.monotonic()
    n = 16
    classes = necklace_classes(n)
    violations = []
    for c in classes:
        src, snk = switches(c)
        if len(src) != len(snk):
            violations.append(("parity", c.to_string()))
        for beta in (0.2, 0.25, 0.5):
            bar = int_floor(beta * n)
            case, ell = classify_case(c, beta)
            window = has_directed_window(c, bar)
            if (case == "case1") != window:
                violations.append(("dichotomy", beta, c.to_string()))
            if case == "case2" and window:
                violations.append(("case2-window", beta, c.to_string()))

    ranks_checked = 0
    from hamorient import PathPattern
    for length in range(2, 13):
        for bits in range(1 << (length - 1)):
            o = tuple(bool(bits >> i & 1) for i in range(length - 1))
            ranks = tt_embed_path(PathPattern(o), length)
            ranks_checked += 1
            if sorted(ranks) != list(range(length)):
                violations.append(("ranks-range", o))
                continue
            for i, fwd in enumerate(o):
                if (ranks[i] < ranks[i + 1]) != fwd:
                    violations.append(("ranks-order", o))
                    break
    dt = time.monotonic() - t0
    _report("C8", not violations,
            f"{len(classes)} rotation classes at n=16: switch parity and the "
            f"long-run/switch-window dichotomy for beta in 0.2,0.25,0.5; "
            f"{ranks_checked} ordered-rank placements up to length 12; "
            f"{len(violations)} violations {violations[:3]} ({dt:.0f}s)")


def test_c9_full_oriented_cycle_spectrum():
    t0 = time.monotonic()
    patterns = {L: necklace_classes(L) for L in range(3, 11)}
    cells = 0
    violations = []
    for i in range(50):
        g = gen_random_min_degree(10, 14, seed=7000 + i)
        assert degree_profile(g).min_total >= 14
        for L, pats in patterns.items():
            for c in pats:
                cells += 1
                res = exact_embed(g, c)
                if not res.found or not validate_embedding(
                        g, c, res.mapping).valid:
                    violations.append((i, L, c.to_string(), res.status))
    dt = time.monotonic() - t0
    _report("C9", not violations,
            f"50 seeded n=10 digraphs, delta>=14: every oriented cycle of "
            f"every length 3..10 ({cells} cells), {len(violations)} "
            f"violations {violations[:3]} ({dt:.0f}s)")


def _thinned_complete(n, delta, rng):
    """K_n minus random edges: each edge, in shuffled order, is deleted
    while both its ends keep total degree above delta, so every vertex
    ends with total degree at least delta and no edge is left deletable."""
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(edges)
    deg = [2 * (n - 1)] * n
    kept = []
    for u, v in edges:
        if deg[u] > delta and deg[v] > delta:
            deg[u] -= 1
            deg[v] -= 1
        else:
            kept.append((u, v))
    return Digraph.from_edge_list(n, kept)


def test_cycle_spectrum_on_thinned_complete_hosts():
    """C9's spectrum on hosts that are not complete: C9's hosts are all
    K10, since gen_random_min_degree(10, 14, s) samples every edge. Here
    50 hosts keep about 70 of K10's 90 edges, with total degree >= 14 =
    3n/2 - 1 at every vertex."""
    t0 = time.monotonic()
    patterns = [c for L in range(3, 11) for c in necklace_classes(L)]
    edges = []
    violations = []
    for i in range(50):
        g = _thinned_complete(10, 14, random.Random(7000 + i))
        assert degree_profile(g).min_total >= 14
        edges.append(g.edge_count())
        for c in patterns:
            res = exact_embed(g, c)
            if not res.found or not validate_embedding(g, c, res.mapping).valid:
                violations.append((i, c.to_string(), res.status))
    dt = time.monotonic() - t0
    assert max(edges) < 90
    _report("C9-thinned", not violations,
            f"50 thinned K10 hosts ({min(edges)}-{max(edges)} edges), "
            f"delta>=14: {50 * len(patterns)} cells, {len(violations)} "
            f"violations {violations[:3]} ({dt:.1f}s)")
