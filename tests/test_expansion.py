import hashlib
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from hamorient import (CutSearchResult, Digraph, ExpansionVerdict,
                       PreconditionError, certify_expander, cross_counts,
                       degree_profile, find_sparse_cut, fit_decomposition_params,
                       gen_blowup_tt, gen_complete_digraph,
                       gen_random_min_degree, gen_split_cliques,
                       gen_tournament, robust_out_neighborhood,
                       sparse_or_expander, strongly_connected_components)
from hamorient import expansion
from hamorient.bitset import bit_list, bits_of, int_ceil, mask_of
from hamorient.digraph import induced
from hamorient.expansion import (_adjacency, _degree_bound_certifies,
                                 _exact_cut_sweep, _exact_expander_sweep,
                                 _hill_climbs, _prefixes, _sampled_verdict,
                                 _size_bounds)

from conftest import (brute_hill_climb, brute_robust_outnbhd,
                      brute_sampled_verdict, digraph)


def rand_digraph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return Digraph.from_edge_list(n, edges)


# --- robust out-neighborhood -----------------------------------------------


def test_robust_outnbhd_hand_value():
    # star into vertex 3: only 3 collects enough in-edges
    g = digraph(4, (0, 3), (1, 3), (2, 3), (3, 0))
    s = mask_of([0, 1, 2])
    # nu = 0.5 -> threshold ceil(2) = 2
    assert robust_out_neighborhood(g, s, 0.5) == mask_of([3])
    # nu = 0.8 -> threshold 4 > 3 available
    assert robust_out_neighborhood(g, s, 0.9) == 0


def test_robust_outnbhd_matches_brute_force():
    for seed in range(30):
        g = rand_digraph(8, 0.4, seed)
        rng = random.Random(seed + 1)
        s = mask_of(rng.sample(range(8), rng.randint(1, 7)))
        for nu in (0.1, 0.25, 0.4):
            assert robust_out_neighborhood(g, s, nu) == \
                brute_robust_outnbhd(g, s, nu)


def test_robust_outnbhd_monotone_in_nu():
    g = rand_digraph(10, 0.5, 3)
    s = mask_of([0, 2, 4, 6, 8])
    prev = g.vertex_mask
    for nu in (0.1, 0.2, 0.3, 0.5, 0.7):
        cur = robust_out_neighborhood(g, s, nu)
        assert cur & ~prev == 0      # shrinks as nu grows
        prev = cur


# --- expander certification -------------------------------------------------


def brute_expander_check(g, nu, tau):
    """Reference: test every subset in the size window directly."""
    n = g.n
    lo = max(1, int_ceil(tau * n))
    hi = int((1 - tau) * n + 1e-9)
    need = nu * n
    for size in range(lo, hi + 1):
        for sub in combinations(range(n), size):
            s = mask_of(sub)
            rn = brute_robust_outnbhd(g, s, nu)
            if rn.bit_count() < size + need - 1e-9:
                return False, s
    return True, None


def test_certify_expander_matches_brute_force():
    for seed in range(12):
        g = rand_digraph(8, 0.55, seed + 50)
        for nu, tau in ((0.1, 0.25), (0.2, 0.3)):
            verdict = certify_expander(g, nu, tau)
            ok, witness = brute_expander_check(g, nu, tau)
            assert (verdict.outcome == "expander") == ok, seed
            if not ok:
                assert verdict.outcome == "violator"
                # the engine's violator must actually violate
                rn = brute_robust_outnbhd(g, verdict.violator, nu)
                assert rn.bit_count() < \
                    verdict.violator.bit_count() + nu * g.n - 1e-9


def brute_expander_sweep(g, nu, tau):
    """Reference verdict: every S in the size window in ascending mask
    order; the first violator wins, and checked_sets counts the window's
    sets up to the end of the violator's high half (the bits from
    ceil(n/2) up), as the exact sweep reports them."""
    n = g.n
    thr = max(1, math.ceil(nu * n - 1e-9))
    lo = max(1, math.ceil(tau * n - 1e-9))
    hi = math.floor((1 - tau) * n + 1e-9)
    n1 = (n + 1) // 2
    checked = 0
    found = None
    for s in range(1 << n):
        if found is not None and s >> n1 != found[0] >> n1:
            break
        if not lo <= s.bit_count() <= hi:
            continue
        checked += 1
        if found is None:
            rn = brute_robust_outnbhd(g, s, nu).bit_count()
            if rn < s.bit_count() + thr:
                found = (s, rn)
    if found is None:
        return ExpansionVerdict("expander", "exact", nu, tau, checked)
    s, rn = found
    return ExpansionVerdict("violator", "exact", nu, tau, checked,
                            violator=s, rn_size=rn, set_size=s.bit_count())


def test_exact_expander_sweep_matches_brute_force():
    # thr = ceil(nu*n) from 1 up to n - 1 and lo = ceil(tau*n) from 1 up
    seen = Counter()
    for n in range(1, 11):
        for seed, p in enumerate((0.3, 0.7, 0.95)):
            g = rand_digraph(n, p, seed + 700 + 10 * n)
            for nu, tau in ((0.02, 0.05), (0.15, 0.25), (0.3, 0.3),
                            (0.55, 0.2), (0.9, 0.45)):
                want = brute_expander_sweep(g, nu, tau)
                assert _exact_expander_sweep(g, nu, tau) == want, (n, p, nu, tau)
                thr = max(1, int_ceil(nu * n))
                seen[want.outcome, thr > 1, int_ceil(tau * n) > 1] += 1
                if want.violator is not None and want.violator >> (n + 1) // 2:
                    seen["violator in a later high half"] += 1
    # (outcome, thr > 1, lo > 1); with thr > 1 every singleton violates,
    # so an expander with thr > 1 needs lo > 1
    for key in (("expander", False, False), ("expander", False, True),
                ("expander", True, True), ("violator", False, False),
                ("violator", True, False), ("violator", True, True),
                ("violator", False, True)):
        assert seen[key], key
    assert seen["violator in a later high half"]


def test_degree_bound_matches_brute_force():
    # certify_expander tries the degree bound before the exact sweep. A
    # bound certificate checks no set, and brute force finds no violator
    # where it holds; otherwise the verdict, checked_sets included, is the
    # set-by-set sweep's
    rng = random.Random(16)
    seen = Counter()
    for _ in range(1000):
        n = rng.randint(2, 12)
        p = rng.choice((0.5, 0.7, 0.85, 0.95, 1.0))
        nu, tau = rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.4)
        g = rand_digraph(n, p, rng.randrange(1 << 30))
        v = certify_expander(g, nu, tau)
        want = brute_expander_sweep(g, nu, tau)
        if v.mode == "degree":
            assert v == ExpansionVerdict("expander", "degree", nu, tau, 0)
            assert want.outcome == "expander", (n, p, nu, tau)
        else:
            assert v == want, (n, p, nu, tau)
        seen[v.mode, v.outcome, int_ceil(nu * n) > 1, int_ceil(tau * n) > 1] += 1
    # the bound certifies with thr > 1 and with lo > 1
    for key in (("degree", "expander", False, False),
                ("degree", "expander", False, True),
                ("degree", "expander", True, True),
                ("exact", "expander", False, False),
                ("exact", "violator", True, True)):
        assert seen[key], key


def _reversed_labels(g):
    n = g.n
    return Digraph.from_edge_list(n, [(n - 1 - u, n - 1 - v) for u in range(n)
                                      for v in bit_list(g.out_adj[u])])


# Values the exact sweeps gave before they were blocked, at sizes brute
# force cannot reach. Planted classes of gen_blowup_tt(sizes, 0.95, 0.001,
# seed): (sizes, seed, first vertex of the class, cut (mask, e_forward),
# checked_sets of the expander verdict at the fitted nu and tau, violator
# (checked_sets, mask, rn_size, set_size) at nu = tau = 0.3).
GOLDEN_PLANTED = [
    ((24, 24), 3, 0, (524288, 20), 16777214, (794, 255, 12, 8)),
    ((24, 24), 3, 24, (256, 20), 16777214, (794, 255, 9, 8)),
    ((22, 22), 2, 0, (524289, 36), 4194302, (562, 127, 13, 7)),
    ((22, 22), 2, 22, (4063231, 18), 4194302, (562, 127, 9, 7)),
    ((21, 21), 5, 0, (1835007, 17), 2097150, (562, 127, 10, 7)),
    ((21, 21), 5, 21, (33792, 34), 2097150, (562, 127, 11, 7)),
]
# Whole hosts whose closed block is the high half, so the first violator
# lies in a later high half: (sizes, seed, cut (mask, e_forward), then
# (nu, tau, checked_sets, mask, rn_size, set_size) twice).
GOLDEN_REVERSED = [
    ((12, 12), 4, (16773120, 0), (0.1, 0.25, 1026855, 1044483, 12, 10),
     (0.2, 0.2, 30827, 28675, 9, 5)),
    ((11, 12), 6, (8384512, 0), (0.1, 0.25, 507604, 520195, 11, 9),
     (0.2, 0.2, 14913, 12295, 9, 5)),
    ((10, 10), 1, (1047552, 0), (0.1, 0.25, 257924, 261121, 10, 9),
     (0.2, 0.2, 3797, 3075, 7, 4)),
]


def _cut_triple(n, mask, e):
    k = mask.bit_count()
    return mask, e, e / (k * (n - k))


def test_exact_sweeps_golden_planted_classes():
    for sizes, seed, start, (mask, e), checked, viol in GOLDEN_PLANTED:
        g = gen_blowup_tt(list(sizes), 0.95, 0.001, seed)
        p = fit_decomposition_params(g, exact_threshold=24)
        size = sizes[0] if start == 0 else sizes[1]
        sub, _ = induced(g, mask_of(range(start, start + size)))
        assert _exact_cut_sweep(sub) == _cut_triple(size, mask, e)
        v = _exact_expander_sweep(sub, p.nu, p.tau)
        assert v == ExpansionVerdict("expander", "exact", p.nu, p.tau, checked)
        v = certify_expander(sub, p.nu, p.tau)
        assert v == ExpansionVerdict("expander", "degree", p.nu, p.tau, 0)
        v = certify_expander(sub, 0.3, 0.3)
        c, m, rn, sz = viol
        assert v == ExpansionVerdict("violator", "exact", 0.3, 0.3, c,
                                     violator=m, rn_size=rn, set_size=sz)


def test_exact_sweeps_golden_large_threshold():
    g = gen_random_min_degree(24, 32, seed=3)
    assert _exact_cut_sweep(g) == (1, 23, 1.0)
    v = _exact_expander_sweep(g, 0.15, 0.3)
    assert v == ExpansionVerdict("expander", "exact", 0.15, 0.3, 15704906)
    for sizes, seed, (mask, e), *viols in GOLDEN_REVERSED:
        g = _reversed_labels(gen_blowup_tt(list(sizes), 0.95, 0.001, seed))
        assert _exact_cut_sweep(g) == _cut_triple(g.n, mask, e)
        for nu, tau, c, m, rn, sz in viols:
            v = certify_expander(g, nu, tau)
            assert v == ExpansionVerdict("violator", "exact", nu, tau, c,
                                         violator=m, rn_size=rn, set_size=sz)


def test_exact_sweeps_peak_memory():
    # each sweep's largest temporaries are 2**_BLOCK_BITS rows of one
    # entry per low half
    g = gen_blowup_tt([24, 24], 0.95, 0.001, 3)
    p = fit_decomposition_params(g, exact_threshold=24)
    sub, _ = induced(g, mask_of(range(24)))
    for sweep in (lambda: _exact_expander_sweep(sub, p.nu, p.tau),
                  lambda: _exact_cut_sweep(sub)):
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20, peak


def test_complete_digraph_is_expander():
    g = gen_complete_digraph(12)
    v = certify_expander(g, 0.2, 0.25)
    assert v == ExpansionVerdict("expander", "degree", 0.2, 0.25, 0)
    # the sweep agrees, having checked every set of 3 to 9 vertices
    v = _exact_expander_sweep(g, 0.2, 0.25)
    assert v == ExpansionVerdict("expander", "exact", 0.2, 0.25,
                                 sum(math.comb(12, s) for s in range(3, 10)))


def test_degree_certificate_is_the_same_in_every_mode():
    # the bound's verdict does not depend on whether a host it cannot
    # settle would be swept or probed
    for g, nu, tau in ((gen_complete_digraph(12), 0.2, 0.25),
                       (gen_random_min_degree(24, 32, seed=3), 0.15, 0.3)):
        assert {certify_expander(g, nu, tau, exact_threshold=cap)
                for cap in (0, 24)} \
            == {ExpansionVerdict("expander", "degree", nu, tau, 0)}


def test_planted_backward_blocks_are_violators(planted_two_block):
    # all cross edges point block 2 -> block 1, so block 2 has no robust
    # out-neighbors beyond itself
    g = planted_two_block
    v = certify_expander(g, 0.1, 0.25)
    assert v.outcome == "violator"
    assert v.violator is not None
    assert v.set_size == v.violator.bit_count()


def test_sampled_mode_on_planted_violator():
    g = gen_blowup_tt([16, 16], intra=1.0, forward_noise=0.0, seed=1)
    v = certify_expander(g, 0.1, 0.25, exact_threshold=0)
    # the prefix probe tries the condensation prefixes first; the planted
    # half is among them, so the violator is found
    assert v.outcome == "violator"
    assert v.mode == "sampled"


def test_verdict_json_shape():
    g = gen_blowup_tt([6, 6], intra=1.0, forward_noise=0.0, seed=0)
    v = certify_expander(g, 0.1, 0.25)
    d = v.to_json_dict()
    assert d["outcome"] == "violator"
    assert set(d["params"]) == {"nu", "tau"}
    assert "checked_sets" in d["counts"]
    assert isinstance(d["set"], list)


# --- sparse cut search -------------------------------------------------------


def brute_min_ratio_cut(g):
    best = None
    n = g.n
    for m in range(1, 1 << n):
        if m == (1 << n) - 1:
            continue
        x2 = g.vertex_mask & ~m
        e = sum((g.out_adj[u] & x2).bit_count()
                for u in range(n) if m >> u & 1)
        ratio = e / (m.bit_count() * x2.bit_count())
        if best is None or ratio < best[0]:
            best = (ratio, m, e)
    return best


def _cliques(*parts):
    return Digraph.from_edge_list(
        sum(map(len, parts)),
        [(u, v) for part in parts for u in part for v in part if u != v])


def test_exact_cut_matches_brute_force(monkeypatch):
    # odd n splits into unequal halves, even n into equal ones; the dense
    # and complete hosts have many tied cuts, where the smallest mask wins.
    # Complete and edgeless hosts tie every cut, and disjoint cliques tie
    # the cuts that split them at more than one size.
    hosts = [rand_digraph(n, p, seed + 500 + 10 * n)
             for n in range(2, 17)
             for seed, p in enumerate((0.15, 0.5, 0.9, 1.0))]
    for n in (2, 7, 12, 15, 16):
        hosts += [gen_complete_digraph(n), Digraph.from_edge_list(n, [])]
    for n in (8, 13, 16):
        hosts += [_cliques(range(n // 2), range(n // 2, n)),
                  _cliques(range(0, n, 2), range(1, n, 2)),
                  _cliques(range(3), range(3, n)),
                  _cliques(range(1, n, 3), [v for v in range(n) if v % 3 != 1])]
    # {2} and {0, 1} both have ratio 0: the larger size has the smaller mask
    hosts += [_cliques(range(2), [2], range(3, n)) for n in (5, 12, 16)]
    hosts.append(_cliques(range(4), range(4, 8), range(8, 12), range(12, 14)))
    for g in hosts:
        ratio, mask, e = brute_min_ratio_cut(g)
        assert _exact_cut_sweep(g) == (mask, e, ratio), g.n
        with monkeypatch.context() as m:
            m.setattr(expansion, "_BLOCK_BITS", 1)
            assert _exact_cut_sweep(g) == (mask, e, ratio), g.n
    for seed in range(10):
        g = rand_digraph(7, 0.5, seed + 500)
        res = find_sparse_cut(g, alpha=0.3)
        assert res.mode == "exact"
        ratio, mask, e = brute_min_ratio_cut(g)
        assert res.best is not None
        assert abs(res.best.alpha_achieved - ratio) < 1e-12
        assert res.found == (ratio <= 0.3 + 1e-12)
        if res.found:
            assert res.certificate.e_forward == \
                _eval_forward(g, res.certificate.side1)


def _eval_forward(g, x1):
    x2 = g.vertex_mask & ~x1
    return sum((g.out_adj[u] & x2).bit_count()
               for u in range(g.n) if x1 >> u & 1)


def test_planted_cut_found_exact(planted_two_block):
    g = planted_two_block
    res = find_sparse_cut(g, alpha=0.01)
    assert res.found and res.mode == "exact"
    # the planted forward cut has zero forward edges
    assert res.certificate.e_forward == 0
    assert res.certificate.side1 in (mask_of(range(6)),
                                     mask_of(range(6, 12)))


def test_planted_cut_found_heuristic():
    # n = 40 forces the local-search path
    g = gen_blowup_tt([20, 20], intra=1.0, forward_noise=0.0, seed=2)
    res = find_sparse_cut(g, alpha=0.01)
    assert res.found and res.mode == "heuristic"
    assert res.certificate.e_forward == 0


def _hidden_cut_host(seed):
    """Two or three blocks of 20-45 vertices under shuffled labels, with
    per-block double-edge densities in [0.6, 1], backward cross edges at
    one density in [0.9, 1] and forward ones in [0, 0.03]. Returns the
    host and the planted cuts: the unions of the first j blocks."""
    rng = random.Random(seed)
    sizes = [rng.randint(20, 45) for _ in range(rng.choice((2, 3)))]
    intra = [rng.uniform(0.6, 1.0) for _ in sizes]
    back, fwd = rng.uniform(0.9, 1.0), rng.uniform(0.0, 0.03)
    block = [b for b, m in enumerate(sizes) for _ in range(m)]
    n = len(block)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if block[u] == block[v]:
                if rng.random() < intra[block[u]]:
                    edges += [(u, v), (v, u)]
                else:
                    edges.append((u, v) if rng.random() < 0.5 else (v, u))
                continue
            if rng.random() < back:
                edges.append((v, u))
            if rng.random() < fwd:
                edges.append((u, v))
    g = Digraph.from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
    planted = [mask_of(perm[u] for u in range(n) if block[u] < j)
               for j in range(1, len(sizes))]
    return g, planted


def test_hidden_cut_found_above_min_degree_n():
    """Above minimum degree n a sparse cut shows in the degrees, so the
    prefix and climb starts find one no sparser than the planted cuts
    under shuffled labels; hosts below 1.1n are skipped."""
    tested = 0
    for seed in range(40):
        g, planted = _hidden_cut_host(seed)
        if degree_profile(g).min_total < 1.1 * g.n:
            continue
        tested += 1
        best = min(cross_counts(g, x1, g.vertex_mask & ~x1)[0]
                   / (x1.bit_count() * (g.n - x1.bit_count()))
                   for x1 in planted)
        res = find_sparse_cut(g, best)
        assert res.mode == "heuristic" and res.found, seed
        assert res.certificate.alpha_achieved <= best + 1e-12, seed
    assert tested >= 25



# Above the exact cap: (host, sampled verdicts as (nu, tau, outcome,
# checked_sets, violator), heuristic cuts as (alpha, found, best side1,
# best e_forward, near-miss side1 masks in report order)).
# checked_sets counts the prefixes probed, so it pins their order and the
# size filter; the near misses pin the order in which cut search visits
# its starts. The degree bound certifies the random host at both
# parameter pairs, with mode degree and no set checked.
GOLDEN_ABOVE_CAP = (
    (("random", 40, 56, 3),
     ((0.05, 0.2, "expander", 0, None),
      (0.2, 0.3, "expander", 0, None)),
     ((0.05, False, 16777216, 33, ()),
      (0.4, False, 16777216, 33, ()))),
    (("blowup", (30, 30), None, 11),
     ((0.05, 0.2, "violator", 54, 801112063),
      (0.2, 0.3, "violator", 27, 110328815)),
     ((0.05, True, 1073741823, 1,
       (801079295, 801112063, 1125905275551743, 1125939635290111,
        889192447, 905969663, 297237576480194559, 297238126236008447)),
      (0.4, True, 1073741823, 1,
       (1, 9, 41, 105, 233, 489, 16873, 82409)))),
    (("blowup", (34, 33, 33), None, 12),
     ((0.05, 0.2, "violator", 72, 8555593727),
      (0.2, 0.3, "violator", 42, 8555593727)),
     ((0.05, True, 17179869183, 1,
       (3186884575, 4260626399, 8555593695, 8555593727, 25323127177215,
        60507499266047, 130876243443711, 271613731799039)),
      (0.4, True, 17179869183, 1, ()))),
)


def _golden_above_cap_hosts():
    for (kind, a, b, seed), _, _ in GOLDEN_ABOVE_CAP:
        if kind == "random":
            yield gen_random_min_degree(a, b, seed=seed)
        else:
            yield gen_blowup_tt(list(a), 0.95, 0.001, seed)


def test_sampled_certification_and_cut_search_golden():
    for g, (_, verdicts, cuts) in zip(_golden_above_cap_hosts(),
                                      GOLDEN_ABOVE_CAP):
        for nu, tau, outcome, checked, violator in verdicts:
            v = certify_expander(g, nu, tau, exact_threshold=0)
            assert (v.outcome, v.checked_sets, v.violator) \
                == (outcome, checked, violator), (g.n, nu, tau)
            assert v.mode == ("degree" if outcome == "expander" else "sampled")
        for alpha, found, side1, e, near in cuts:
            res = find_sparse_cut(g, alpha)
            assert res.mode == "heuristic"
            assert (res.found, res.best.side1, res.best.e_forward) \
                == (found, side1, e), (g.n, alpha)
            assert tuple(c.side1 for c in res.near_misses) == near


def _two_communities(n, seed):
    """Two shuffled dense halves joined by one out-edge per vertex: the
    degree and condensation prefixes mix the halves, although either half
    is a violator for small nu."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    h = n // 2
    edges = set()
    for u in range(n):
        for v in range(n):
            if u != v and (u < h) == (v < h) and rng.random() < 0.9:
                edges.add((perm[u], perm[v]))
        v = rng.choice([w for w in range(n) if (w < h) != (u < h)])
        edges.add((perm[u], perm[v]))
    return Digraph.from_edge_list(n, sorted(edges))


def test_climbs_reach_the_planted_cut_below_minimum_degree_n(monkeypatch):
    # below minimum degree n no prefix start is the planted cut (ratio
    # 2/n: n/2 forward edges across two halves); the climbs reach it on
    # all hosts but two
    hosts = [(n, seed) for n in (40, 60, 100, 150, 200) for seed in range(3)]
    found = set()
    for n, seed in hosts:
        res = find_sparse_cut(_two_communities(n, seed), 0.1)
        if res.found:
            found.add((n, seed))
            cut = res.certificate
            assert (cut.e_forward, cut.side1.bit_count()) == (n // 2, n // 2)
    assert found == set(hosts) - {(60, 2), (200, 1)}
    # with climbs that take no move, the prefix starts alone find none
    monkeypatch.setattr(expansion, "_CLIMB_STEP_CAP", 0)
    assert not any(find_sparse_cut(_two_communities(n, seed), 0.1).found
                   for n, seed in hosts)


def test_hill_climb_matches_reference(monkeypatch):
    hosts = []
    for n in (25, 40, 70, 130):
        hosts += [gen_random_min_degree(n, int(1.3 * n), seed=n),
                  gen_blowup_tt([n // 2, n - n // 2], 0.95, 0.01, seed=n),
                  # identical blocks: many moves tie on every step
                  gen_blowup_tt([n // 3, n // 3, n - 2 * (n // 3)], 1.0, 0.0,
                                seed=n)]
    hosts += [gen_complete_digraph(25), gen_complete_digraph(40)]
    moved = capped = 0
    for g in hosts:
        n = g.n
        adj = _adjacency(g)
        rng = random.Random(n)
        starts = [1 << rng.randrange(n), 1 << (n - 1),
                  g.vertex_mask ^ (1 << rng.randrange(n)),
                  g.vertex_mask ^ 1]
        starts += [mask_of(rng.sample(range(n), rng.randint(1, n - 1)))
                   for _ in range(5)]
        # a duplicate, and a local minimum that takes no move
        starts += [starts[-1], brute_hill_climb(g, starts[-2])[0]]
        for cap in (10_000, 3):
            monkeypatch.setattr(expansion, "_CLIMB_STEP_CAP", cap)
            got, steps = _hill_climbs(adj, starts)
            want = [brute_hill_climb(g, x1, max_steps=cap) for x1 in starts]
            assert got == want, (n, cap)
            assert got[-1][3] == 0 and got[-2] == got[-3]
            # a climb that stops takes one more step to find no move
            assert steps == max(min(m + 1, cap) for *_, m in got)
            if cap == 3:
                capped += sum(m == cap for *_, m in got)
            else:
                moved += sum(m > 0 for *_, m in got)
    assert moved > 50 and capped > 30
    assert _hill_climbs(_adjacency(hosts[0]), []) == ([], 0)


def _reference_prefixes(g, orders):
    """The proper prefixes, in order, of the condensation order, then of
    out-degree descending, in-degree descending, out-degree ascending and
    in-degree ascending, the first `orders` of those four, ties to the
    smaller vertex."""
    masks, acc = [], 0
    for comp in strongly_connected_components(g)[:-1]:
        acc |= comp
        masks.append(acc)
    outs = [m.bit_count() for m in g.out_adj]
    ins = [m.bit_count() for m in g.in_adj]
    keys = (lambda v: (-outs[v], v), lambda v: (-ins[v], v),
            lambda v: (outs[v], v), lambda v: (ins[v], v))
    for key in keys[:orders]:
        acc = 0
        for v in sorted(range(g.n), key=key)[:-1]:
            acc |= 1 << v
            masks.append(acc)
    return masks


def test_prefix_walk_matches_direct_count():
    hosts = [gen_blowup_tt([100, 100, 100], 1.0, 0.0, 0),
             gen_blowup_tt([40, 60, 30, 20], 0.7, 0.0, 3),
             gen_tournament(120, "transitive"), gen_split_cliques(51),
             gen_random_min_degree(200, 220, 1),
             gen_blowup_tt([60, 60], 0.95, 0.001, 7), _reversed_labels(
                 gen_blowup_tt([25, 35, 30], 1.0, 0.0, 0))]
    assert [len(strongly_connected_components(g)) for g in hosts] == \
        [3, 4, 120, 2, 1, 1, 3]
    for g in hosts:
        for orders in range(5):
            walked = _prefixes(g, orders)
            assert [s for s, _ in walked] == _reference_prefixes(g, orders)
        for s, e in walked:
            assert e == sum((g.out_adj[u] & ~s).bit_count() for u in bits_of(s))


def test_sampled_mode_certifies_exactly_when_the_degree_bound_holds(monkeypatch):
    # the bound settles a class before any set is probed; where it fails,
    # the sampling stage's verdict is returned as it is
    drawn = []
    stage = expansion._sampled_verdict

    def spy(*args):
        drawn.append((args, stage(*args)))
        return drawn[-1][1]

    monkeypatch.setattr(expansion, "_sampled_verdict", spy)
    hosts = [gen_random_min_degree(40, 48, seed=1),
             gen_random_min_degree(50, 60, seed=2),
             gen_blowup_tt([30, 30], 0.95, 0.001, 11),
             gen_complete_digraph(30)]
    seen = Counter()
    for g in hosts:
        for nu in (0.05, 0.1, 0.2, 0.3):
            for tau in (0.1, 0.2, 0.3, 0.4):
                calls = len(drawn)
                v = certify_expander(g, nu, tau, exact_threshold=0)
                bound = _degree_bound_certifies(g, nu, tau)
                if bound:
                    assert v == ExpansionVerdict("expander", "degree", nu, tau, 0)
                    assert len(drawn) == calls
                else:
                    assert drawn[calls:] == [((g, nu, tau), v)]
                    assert v.mode == "sampled"
                seen[bound, v.outcome] += 1
    assert seen[True, "expander"] >= 20
    assert seen[False, "violator"] >= 8 and seen[False, "inconclusive"] >= 4


def test_sampling_finds_no_violator_where_the_degree_bound_certifies():
    # the bound is sound: on the hosts above the cap, the sampling stage
    # run on its own finds a violator only where the bound fails
    seen = Counter()
    for g in _golden_above_cap_hosts():
        for nu in (0.02, 0.05, 0.1, 0.2):
            for tau in (0.15, 0.2, 0.25, 0.3):
                bound = _degree_bound_certifies(g, nu, tau)
                outcome = _sampled_verdict(g, nu, tau).outcome
                assert not (bound and outcome == "violator"), (g.n, nu, tau)
                seen[bound, outcome] += 1
    assert seen[True, "inconclusive"] >= 12 and seen[False, "violator"] >= 12


def test_sampled_certification_matches_reference():
    # the sampling stage itself: through certify_expander the degree bound
    # settles the random hosts and K30 first. The probe is the in-window
    # prefixes of the condensation order and the first three degree
    # orders; the transitive tournament has a condensation prefix of every
    # size, and the two-community host hides its violator from all of them.
    comm = _two_communities(40, 8)
    hosts = [gen_random_min_degree(40, 56, seed=3),
             gen_random_min_degree(70, 100, seed=4),
             gen_blowup_tt([30, 30], 0.95, 0.001, 11),
             gen_blowup_tt([20, 20, 20], 0.95, 0.001, 5),
             gen_complete_digraph(30), gen_tournament(40, "transitive"), comm]
    outcomes = Counter()
    for g in hosts:
        n = g.n
        for nu, tau in ((0.05, 0.2), (0.2, 0.3), (0.1, 0.25), (0.3, 0.4)):
            lo, hi = _size_bounds(n, tau)
            cands = [s for s in _reference_prefixes(g, 3)
                     if lo <= s.bit_count() <= hi]
            v = _sampled_verdict(g, nu, tau)
            got = (v.outcome, v.checked_sets, v.violator, v.rn_size,
                   v.set_size)
            assert got == brute_sampled_verdict(g, cands, nu), (n, nu, tau)
            assert v.mode == "sampled"
            outcomes[v.outcome] += 1
    assert outcomes["violator"] >= 8 and outcomes["inconclusive"] >= 8


def test_climb_moves_sum_over_climbs(monkeypatch):
    calls = []

    def spy(adj, starts):
        out = _hill_climbs(adj, starts)
        calls.append((len(starts), [m for *_, m in out[0]], out[1]))
        return out

    monkeypatch.setattr(expansion, "_hill_climbs", spy)
    g = gen_blowup_tt([30, 30], 0.95, 0.001, 11)
    res = find_sparse_cut(g, 0.05)
    [(climbs, moves, steps)] = calls
    assert climbs == 8                    # the best prefix starts
    assert res.mode == "heuristic" and res.climb_moves == sum(moves) > 0
    # climb_steps counts the longest climb's steps: one per move, and one
    # to find that it has no move left
    assert res.climb_steps == steps == max(moves) + 1
    exact = find_sparse_cut(gen_blowup_tt([10, 10], 0.95, 0.001, 1), 0.05)
    assert exact.mode == "exact" and exact.climb_moves == exact.climb_steps == 0


# sha256 of find_sparse_cut's results (certificate, best cut, near misses
# in order, climb moves) above the exact cap, with and without hints; the
# last call of each host climbs from the hints sparse_or_expander's retry
# builds from a sampled violator. Recorded with one climb at a time and
# unchanged by the lockstep batch of climbs that replaced it; re-recorded
# when sampled certification's random sets began to be drawn as rows
# (only the climb moves of the retry calls moved), again when the random
# restarts were deleted (found, certificate and best cut unchanged on all
# 42 calls; the climb moves changed, and so did the uncapped near-miss
# list of n = 60), and when sampled certification dropped its random sets
# (the retry hints come from a prefix violator: only the climb moves of
# the 7 retry calls moved). Going back to one climb at a time left it
# unchanged.
GOLDEN_CUT_SEARCH = \
    "aa592668ea4d98e830d801544a0a2c7f1259db87633b2a29815513afed192220"


def _cut_text(c):
    return "-" if c is None else f"{c.side1:x}/{c.e_forward}/{c.alpha_achieved!r}"


def test_cut_search_golden(monkeypatch):
    hosts = [gen_random_min_degree(n, int(1.3 * n), seed=n)
             for n in (30, 60, 120)]
    hosts += [gen_blowup_tt(sizes, 0.95, 0.001, seed)
              for sizes, seed in (([15, 15], 3), ([50, 50], 5),
                                  ([30, 30, 30], 9), ([150, 150], 11))]
    lines = []
    for g in hosts:
        n = g.n
        rng = random.Random(n)
        # the empty and the full hint are skipped; the last one is cut to
        # the single vertex 0
        hints = (rng.getrandbits(n), mask_of(rng.sample(range(n), n // 3)),
                 0, g.vertex_mask, 1 << n | 1)
        s = certify_expander(g, 0.3, 0.25, exact_threshold=0).violator
        rn = robust_out_neighborhood(g, s, 0.3)
        retry = (s, s | rn, g.vertex_mask & ~rn)
        # an uncapped near-miss list records the climbs' results in order
        for alpha, cap, h in ((0.05, 8, ()), (0.05, 8, hints), (0.3, 8, ()),
                              (0.3, 8, hints), (0.4, 100, hints),
                              (0.02, 8, retry)):
            monkeypatch.setattr(expansion, "_NEAR_MISS_CAP", cap)
            r = find_sparse_cut(g, alpha, hints=h)
            assert r.mode == "heuristic"
            lines.append(" ".join([str(n), str(r.found), _cut_text(r.certificate),
                                   _cut_text(r.best),
                                   ",".join(map(_cut_text, r.near_misses)),
                                   str(r.climb_moves), str(len(h))]))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CUT_SEARCH


def test_complete_digraph_has_no_sparse_cut():
    g = gen_complete_digraph(10)
    res = find_sparse_cut(g, alpha=0.5)
    assert not res.found          # every ordered cut has ratio exactly 1
    assert res.best.alpha_achieved == pytest.approx(1.0)


def test_cut_requires_two_vertices():
    with pytest.raises(PreconditionError):
        find_sparse_cut(digraph(1), alpha=0.5)


# --- dichotomy ---------------------------------------------------------------


def test_dichotomy_exact_planted(planted_two_block):
    res = sparse_or_expander(planted_two_block, eta=0.3, alpha=0.3, tau=0.25)
    assert res.kind == "cut"
    assert res.cut is not None


def test_dichotomy_exact_expander():
    g = gen_complete_digraph(12)
    res = sparse_or_expander(g, eta=0.3, alpha=0.05, tau=0.25)
    assert res.kind == "expander"
    assert res.verdict is not None and res.verdict.outcome == "expander"
    # nu derived from the inputs
    assert res.nu == pytest.approx(0.05 * 0.25 * 0.3 / 4)


def test_dichotomy_never_neither_small():
    """On exact-mode sizes the two arms are exhaustive: a missing cut
    forces an expander certificate."""
    for seed in range(25):
        g = gen_random_min_degree(10, 13, seed=seed + 900)
        res = sparse_or_expander(g, eta=0.3, alpha=0.3, tau=0.25)
        assert res.kind in ("cut", "expander")
        assert res.exact


def _missed_cut():
    return CutSearchResult(False, None, None, (), "heuristic")


def test_dichotomy_retry_from_violator(monkeypatch):
    # above the exact cap, a first cut search that misses sends
    # sparse_or_expander to sampled certification; its violator seeds a
    # second search, whose cut comes back with the verdict attached
    g = gen_blowup_tt([20, 20], intra=0.95, forward_noise=0.001, seed=3)
    real = expansion.find_sparse_cut
    calls = []

    def first_misses(g, alpha, hints=()):
        calls.append(hints)
        if len(calls) == 1:
            return _missed_cut()
        return real(g, alpha, hints=hints)

    monkeypatch.setattr(expansion, "find_sparse_cut", first_misses)
    res = sparse_or_expander(g, eta=0.3, alpha=0.05, tau=0.25)
    assert len(calls) == 2 and calls[0] == ()
    assert res.kind == "cut" and not res.exact
    assert res.verdict is not None and res.verdict.outcome == "violator"
    assert calls[1][0] == res.verdict.violator      # retried from the violator
    assert res.cut.alpha_achieved <= 0.05
    assert res.cut.e_forward == cross_counts(g, res.cut.side1, res.cut.side2)[0]


def test_dichotomy_unresolved_when_retry_misses(monkeypatch):
    g = gen_blowup_tt([20, 20], intra=0.95, forward_noise=0.001, seed=3)
    calls = []

    def always_misses(g, alpha, hints=()):
        calls.append(hints)
        return _missed_cut()

    monkeypatch.setattr(expansion, "find_sparse_cut", always_misses)
    res = sparse_or_expander(g, eta=0.3, alpha=0.05, tau=0.25)
    assert len(calls) == 2
    assert res.kind == "unresolved" and not res.exact and res.cut is None
    assert res.verdict is not None and res.verdict.outcome == "violator"


def test_dichotomy_degree_precondition():
    g = rand_digraph(10, 0.3, 1)
    with pytest.raises(PreconditionError):
        sparse_or_expander(g, eta=0.3, alpha=0.3, tau=0.25)
