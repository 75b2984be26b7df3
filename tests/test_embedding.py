import hashlib
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hamorient import (CyclePattern, EmbedResult, InputError, PathPattern,
                       PreconditionError, ResourceError, decompose,
                       double_edge_graph, embed_hamilton_orientation,
                       exact_embed, fit_decomposition_params,
                       gen_blowup_tt, gen_complete_digraph,
                       gen_random_min_degree, pancyclic_suite,
                       reverse_for_embedding, select_connectors,
                       tt_embed_path, two_factor, validate_embedding)
from hamorient import embedding, patterns
from hamorient.bitset import mask_of
from hamorient.embedding import _Ledger, _PlanError, _plan_case1a
from hamorient.patterns import reflect, rotate, run_frame
from hamorient.workbench import _validate_two_factor

from conftest import cycle_digraph


def embedding_partition(sizes, seed=0, intra=1.0, noise=0.0):
    g = gen_blowup_tt(sizes, intra=intra, forward_noise=noise, seed=seed)
    sp = reverse_for_embedding(decompose(g, fit_decomposition_params(g)))
    return g, sp


def rand_pattern(n, seed):
    rng = random.Random(seed)
    while True:
        o = tuple(rng.random() < 0.5 for _ in range(n))
        if any(o) and not all(o):
            return CyclePattern(o)


# --- transitive-tournament path ranks ----------------------------------------


def test_tt_embed_path_exhaustive():
    for length in range(2, 10):
        for bits in range(1 << (length - 1)):
            p = PathPattern(tuple(bool(bits >> i & 1) for i in range(length - 1)))
            for size in (length, length + 2):
                ranks = tt_embed_path(p, size)
                assert len(ranks) == length
                assert len(set(ranks)) == length
                assert all(0 <= r < size for r in ranks)
                for i, fwd in enumerate(p.orientation):
                    if fwd:
                        assert ranks[i] < ranks[i + 1]
                    else:
                        assert ranks[i] > ranks[i + 1]


def test_tt_embed_path_too_long():
    with pytest.raises(PreconditionError):
        tt_embed_path(PathPattern.directed(5), 4)


# --- connector selection -------------------------------------------------------


def test_select_connectors_disjoint(planted_two_block):
    g = planted_two_block
    b0, b1 = mask_of(range(6)), mask_of(range(6, 12))
    picks = select_connectors(g, b1, b0, 3)
    assert len(picks) == 3
    used = set()
    for u, v in picks:
        assert b1 >> u & 1 and b0 >> v & 1
        assert g.has_edge(u, v)
        assert u not in used and v not in used
        used.update((u, v))


def test_select_connectors_excluded(planted_two_block):
    g = planted_two_block
    b0, b1 = mask_of(range(6)), mask_of(range(6, 12))
    excluded = mask_of([6, 0])
    picks = select_connectors(g, b1, b0, 2, excluded=excluded)
    for u, v in picks:
        assert u not in (6,) and v not in (0,)


def test_select_connectors_skip_diversifies(planted_two_block):
    g = planted_two_block
    b0, b1 = mask_of(range(6)), mask_of(range(6, 12))
    first = select_connectors(g, b1, b0, 2, skip=0)
    other = select_connectors(g, b1, b0, 2, skip=1)
    assert first != other


def test_select_connectors_empty_pool(planted_two_block):
    g = planted_two_block
    b0, b1 = mask_of(range(6)), mask_of(range(6, 12))
    with pytest.raises(PreconditionError):
        select_connectors(g, b0, b1, 1)      # no forward edges block0 -> block1


@pytest.mark.parametrize("count", [0, -1])
def test_select_connectors_rejects_count_below_one(planted_two_block, count):
    # rejected before any search, although block1 -> block0 has 6
    # disjoint edges
    g = planted_two_block
    b0, b1 = mask_of(range(6)), mask_of(range(6, 12))
    with pytest.raises(InputError):
        select_connectors(g, b1, b0, count)


def test_select_connectors_exhaustion(planted_two_block):
    g = planted_two_block
    b0, b1 = mask_of(range(6)), mask_of(range(6, 12))
    with pytest.raises(ResourceError) as exc:
        select_connectors(g, b1, b0, 7)      # only 6 disjoint edges possible
    assert "found 6" in str(exc.value)


# --- the embedding pipeline -------------------------------------------------------


def test_pipeline_rejects_directed_on_multiclass():
    g, sp = embedding_partition([12, 12])
    res = embed_hamilton_orientation(g, sp, CyclePattern.directed(24))
    assert res.status == "rejected"
    assert not res.ok
    assert res.failure_step == "precondition:directed-cycle"


def test_pipeline_single_class_uses_oracle():
    g = gen_complete_digraph(14)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.t == 1
    res = embed_hamilton_orientation(g, sp, rand_pattern(14, 3))
    assert res.ok and res.method == "oracle" and res.case == "single-class"


def _bogus_oracle(calls):
    """exact_embed whose unpinned spanning searches claim an invalid
    mapping (every position on vertex 0); pinned stretch fills find none."""
    def fake(g, pattern, pins=None, **kwargs):
        calls.append(pins)
        if pins:
            return EmbedResult("none", None, 0, 0.0, "fake")
        return EmbedResult("found", (0,) * g.n, 0, 0.0, "fake")
    return fake


def test_oracle_mapping_is_checked_on_single_class(monkeypatch):
    g = gen_complete_digraph(10)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.t == 1
    calls = []
    monkeypatch.setattr(embedding, "exact_embed", _bogus_oracle(calls))
    res = embed_hamilton_orientation(g, sp, rand_pattern(10, 1))
    assert (res.status, res.case, res.method, res.attempts, res.failure_step) \
        == ("failed", "single-class", "oracle", 1, "oracle:checker")
    assert calls == [None]


def test_oracle_fallback_mapping_is_checked(monkeypatch):
    g, sp = embedding_partition([12, 12])
    calls = []
    monkeypatch.setattr(embedding, "exact_embed", _bogus_oracle(calls))
    res = embed_hamilton_orientation(g, sp, rand_pattern(24, 2))
    # every stretch fill fails, so all attempts run before the fallback
    assert (res.status, res.method, res.attempts, res.failure_step) \
        == ("failed", "oracle", embedding._CONNECTOR_ATTEMPTS,
            "oracle:checker")
    assert calls[-1] is None and all(calls[:-1])


def test_pipeline_case1a_long_run():
    # 23 forward edges and a backward wrap: the run covers everything, so
    # boundary cuts inside the run suffice
    g, sp = embedding_partition([12, 12])
    c = CyclePattern(tuple([True] * 23 + [False]))
    res = embed_hamilton_orientation(g, sp, c)
    assert res.ok
    assert res.case == "case1a"
    assert res.method == "pipeline"
    assert validate_embedding(g, c, res.embedding.mapping, spanning=True).valid


def test_pipeline_case2_antidirected():
    g, sp = embedding_partition([30, 30], seed=1)
    c = CyclePattern.antidirected(60)
    res = embed_hamilton_orientation(g, sp, c)
    assert res.ok
    assert res.case == "case2"
    assert res.method == "pipeline"
    assert validate_embedding(g, c, res.embedding.mapping, spanning=True).valid
    assert any(conn["kind"] == "wrap" for conn in res.audit["connectors"])


def test_pipeline_random_patterns_planted():
    g, sp = embedding_partition([12, 12], seed=2)
    for seed in range(15):
        c = rand_pattern(24, seed * 11 + 1)
        res = embed_hamilton_orientation(g, sp, c)
        assert res.ok, (seed, c.to_string(), res.failure_step)
        assert validate_embedding(g, c, res.embedding.mapping,
                                  spanning=True).valid
        assert res.case in ("case1a", "case1b", "case2")


def test_pipeline_three_classes():
    g, sp = embedding_partition([12, 12, 12], seed=4)
    assert sp.t == 3
    for seed in (0, 1, 2):
        c = rand_pattern(36, seed + 40)
        res = embed_hamilton_orientation(g, sp, c)
        assert res.ok, res.failure_step
        assert validate_embedding(g, c, res.embedding.mapping,
                                  spanning=True).valid


def test_pipeline_oracle_fallback_on_misordered_partition():
    # feeding the decomposition order (dense edges pointing backward)
    # starves every planner of forward connectors; the pipeline must fall
    # back to exact search and still return a valid embedding
    g, sp = embedding_partition([12, 12], seed=5)
    bad = reverse_for_embedding(sp)          # undo the reversal
    c = rand_pattern(24, 9)
    res = embed_hamilton_orientation(g, bad, c)
    assert res.ok
    assert res.method == "oracle"
    assert validate_embedding(g, c, res.embedding.mapping, spanning=True).valid


def test_pipeline_audit_contents():
    g, sp = embedding_partition([12, 12], seed=6)
    res = embed_hamilton_orientation(g, sp, rand_pattern(24, 2))
    assert res.ok
    for key in ("t", "sizes", "eta_eff", "beta_eff", "ell",
                "forward_density_ok", "connectors", "notes", "failures"):
        assert key in res.audit
    assert res.audit["t"] == 2
    assert res.audit["forward_density_ok"]


def _nondirected_patterns(n, rng, count):
    patterns = []
    while len(patterns) < count:
        c = CyclePattern(tuple(rng.random() < 0.5 for _ in range(n)))
        if not c.is_directed():
            patterns.append(c)
    return patterns


def _assert_all_embed(g, sp, patterns):
    for c in patterns:
        res = embed_hamilton_orientation(g, sp, c)
        assert res.ok, (c.to_string(), res.failure_step)
        assert validate_embedding(g, c, res.embedding.mapping,
                                  spanning=True).valid


def test_pipeline_classes_above_spanning_cap():
    # classes of 100 (n = 200): the last stretch of each class is a
    # spanning fill of 100 vertices, and every orientation embeds
    g, sp = embedding_partition([100, 100], seed=7, intra=0.95, noise=0.001)
    assert sp.sizes() == [100, 100]
    patterns = [rand_pattern(200, 1), rand_pattern(200, 2)] \
        + _nondirected_patterns(g.n, random.Random(5), 10)
    _assert_all_embed(g, sp, patterns + [CyclePattern.antidirected(200)])


def test_pipeline_three_classes_of_150():
    # n = 450, far above the whole-host oracle fallback
    g, sp = embedding_partition([150] * 3, seed=3, intra=0.95, noise=0.001)
    assert sp.sizes() == [150] * 3
    patterns = _nondirected_patterns(g.n, random.Random(5), 20)
    _assert_all_embed(g, sp, patterns + [CyclePattern.antidirected(g.n)])


# Generate -> decompose -> embed -> validate at n = 2000 in a fresh
# interpreter, which prints its sizes, verdict and peak RSS in MiB.
SCALE_CHILD = """
import random, resource, sys
sys.path.insert(0, {src!r})
from hamorient import (CyclePattern, decompose, embed_hamilton_orientation,
                       fit_decomposition_params, gen_blowup_tt,
                       reverse_for_embedding, validate_embedding)
g = gen_blowup_tt([1000, 1000], 0.95, 0.001, 3)
sp = reverse_for_embedding(decompose(g, fit_decomposition_params(g)))
rng = random.Random(5)
c = CyclePattern((True,) * g.n)
while c.is_directed():
    c = CyclePattern(tuple(rng.random() < 0.5 for _ in range(g.n)))
res = embed_hamilton_orientation(g, sp, c)
ok = res.ok and validate_embedding(g, c, res.embedding.mapping, spanning=True).valid
print(sp.sizes(), ok, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


@pytest.mark.slow
def test_pipeline_memory_at_2000_vertices():
    # generating this host as sets and an edge list peaked at 425 MiB
    # before decompose started; as masks the whole run stays far below
    src = str(Path(embedding.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", SCALE_CHILD.format(src=src)],
                         check=True, capture_output=True, text=True,
                         timeout=600).stdout.split()
    assert out[:3] == ["[1000,", "1000]", "True"], out
    assert int(out[3]) < 200, out


def _cycle_edges(c, mapping):
    """Host edges (tail, head) of the cycle a mapping embeds."""
    n = c.n
    return {(mapping[i], mapping[(i + 1) % n]) if c.orientation[i]
            else (mapping[(i + 1) % n], mapping[i]) for i in range(n)}


def test_pipeline_connectors_are_cycle_edges():
    # every host edge a plan records in the audit is an edge of the
    # returned cycle; rand_pattern(96, 5) overshoots one case-2 boundary by
    # two, which leaves a one-position hand-off window at a sink
    g, sp = embedding_partition([32, 32, 32], seed=2, intra=0.95, noise=0.001)
    for c in [rand_pattern(96, which) for which in (0, 1, 2, 5)] \
            + [CyclePattern.antidirected(96)]:
        res = embed_hamilton_orientation(g, sp, c)
        assert res.ok and res.method == "pipeline"
        edges = _cycle_edges(c, res.embedding.mapping)
        for conn in res.audit["connectors"]:
            for a, b in conn.get("edges", [conn.get("edge")]):
                assert (a, b) in edges, conn


def test_pin_ledger_refuses_a_second_pin():
    g = gen_complete_digraph(8)
    pools = [mask_of(range(4)), mask_of(range(4, 8))]
    for case in ("case1a", "case1b", "case2"):
        ledger = _Ledger(case, g, pools, 0)
        ledger.connect("wrap", 0, 1, 0, 7)
        for pin_again in (
                lambda: ledger.connect("matching", 0, 1, 3, 0),
                lambda: ledger.pin({"kind": "sink-gadget"}, (6, 5), (7, 6)),
                # a one-position hand-off window: both edges at position 3
                lambda: ledger.pin({"kind": "hand-off"}, (2, 1), (3, 4),
                                   (4, 2), (3, 5))):
            with pytest.raises(_PlanError) as exc:
                pin_again()
            assert exc.value.step == f"{case}:pins"
        assert list(ledger.pins) == [0, 7]
        assert ledger.used() == mask_of(ledger.pins.values())


def test_case1a_refuses_a_double_pin():
    # a one-vertex middle class puts both of its run boundaries on one
    # position; the plan must refuse it, not overwrite the first pin
    g = gen_complete_digraph(8)
    pools = [mask_of(range(3)), mask_of([3]), mask_of(range(4, 8))]
    c = CyclePattern(tuple([True] * 6 + [False, False]))
    with pytest.raises(_PlanError) as exc:
        _plan_case1a(g, c, pools, 7, 0.1, 0)
    assert exc.value.step == "case1a:pins"


def test_case2_sink_gadget_refuses_a_double_pin(monkeypatch):
    # sink gadgets pin through the same ledger as the connectors: a sink
    # search that returned a pinned position is refused
    g, sp = embedding_partition([30, 30], seed=1)
    monkeypatch.setattr(embedding, "_case2_sink_positions",
                        lambda sinks, lo, hi, want, taken, gap:
                        sorted(taken)[1:1 + want])
    res = embed_hamilton_orientation(g, sp, CyclePattern.antidirected(60))
    assert "attempt 0: case2:pins: sink-gadget would double-pin a position" \
        in res.audit["failures"]


def test_case1_embeds_never_call_the_case2_planner(monkeypatch):
    # the case-1 chain holds only the case-1 planners, so case 2 never
    # plans a pattern with a long run; with every stretch fill failing, all
    # attempts run both case-1 planners and then fall back to the oracle
    calls = []
    planner = embedding._plan_case2

    def spy(*args):
        calls.append(args[1].n)
        return planner(*args)

    monkeypatch.setattr(embedding, "_plan_case2", spy)
    g, sp = embedding_partition([30, 30], seed=1)
    assert embed_hamilton_orientation(g, sp, rand_pattern(60, 0)).case \
        == "case1b"
    assert embed_hamilton_orientation(
        g, sp, CyclePattern.antidirected(60)).case == "case2"
    assert calls and set(calls) == {60}
    calls.clear()
    monkeypatch.setattr(embedding, "exact_embed", _bogus_oracle([]))
    res = embed_hamilton_orientation(g, sp, rand_pattern(60, 0))
    assert (res.case, res.attempts) == ("case1", embedding._CONNECTOR_ATTEMPTS)
    assert calls == []


def test_embed_frames_the_runs_once_per_call(monkeypatch):
    # embed_hamilton_orientation reads the case from the run length it
    # framed, so a multi-class embed frames the longest run once, in
    # either case
    calls = []

    def spy(c):
        calls.append(c.n)
        return run_frame(c)

    monkeypatch.setattr(patterns, "run_frame", spy)
    monkeypatch.setattr(embedding, "run_frame", spy)
    g, sp = embedding_partition([30, 30], seed=1)
    for c, case in ((rand_pattern(60, 0), "case1b"),
                    (CyclePattern.antidirected(60), "case2")):
        calls.clear()
        res = embed_hamilton_orientation(g, sp, c)
        assert res.ok and res.case == case
        assert calls == [60]


_STEP = re.compile(r"[a-z0-9-]+(:[a-z0-9@-]+)+")


def test_pipeline_failure_step_is_a_bare_step_name(monkeypatch):
    # above the spanning cap a failed embed names the step that blocked
    # its first planner at the last attempt: no attempt prefix, no detail
    g, sp = embedding_partition([35, 35], seed=3, intra=0.95, noise=0.001)
    assert sp.sizes() == [35, 35]
    monkeypatch.setattr(embedding, "exact_embed", _bogus_oracle([]))
    for c in [rand_pattern(70, seed) for seed in range(3)] \
            + [CyclePattern.antidirected(70)]:
        res = embed_hamilton_orientation(g, sp, c)
        assert (res.status, res.method) == ("failed", "pipeline")
        step = res.failure_step
        assert _STEP.fullmatch(step) and step.startswith(res.case), step
        # the last attempt's failures are listed in chain order
        prefix = f"attempt {res.attempts - 1}: "
        last = [f for f in res.audit["failures"] if f.startswith(prefix)]
        assert last[0].startswith(prefix + step), (step, last)


def test_pipeline_length_mismatch():
    g, sp = embedding_partition([12, 12])
    with pytest.raises(InputError):
        embed_hamilton_orientation(g, sp, CyclePattern.directed(10))


@pytest.mark.parametrize("sizes", [[30, 30], [40, 40]])
def test_pipeline_rejects_classes_that_do_not_tile_the_host(sizes):
    # a vertex dropped from a class, a vertex in two classes, or an empty
    # class is an input error, not a planner step or a whole-host search
    g, sp = embedding_partition(sizes, seed=7, intra=0.95, noise=0.001)
    a, b = sp.classes
    low = a & -a
    for classes in ((a ^ low, b), (a, b | low), (a, 0, b)):
        broken = replace(sp, classes=classes)
        for seed in range(3):
            with pytest.raises(InputError):
                embed_hamilton_orientation(g, broken, rand_pattern(g.n, seed))



def test_pipeline_single_class_above_spanning_cap():
    # one class of 100 vertices goes to the exact spanning search
    g = gen_random_min_degree(100, 160, seed=1)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.t == 1
    c = CyclePattern.from_string("+-" * 50)
    res = embed_hamilton_orientation(g, sp, c)
    assert (res.status, res.case, res.method) == ("embedded", "single-class", "oracle")
    assert validate_embedding(g, c, res.embedding.mapping, spanning=True).valid


def test_pipeline_single_class_of_200():
    g = gen_random_min_degree(200, 220, seed=1)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.t == 1
    patterns = [CyclePattern.directed(200), CyclePattern.antidirected(200),
                CyclePattern((False,) + (True,) * 199)] \
        + _nondirected_patterns(200, random.Random(5), 3)
    _assert_all_embed(g, sp, patterns)


def _mapping_digest(mapping):
    return hashlib.sha256(",".join(map(str, mapping)).encode()).hexdigest()[:16]


# (host block sizes, host seed, partition order, orientation, case, method,
# mapping digest). "embedding" order is the one the planners expect; the
# decomposition order starves them of forward connectors, so those rows
# take the oracle fallback. Orientations: rand_pattern seeds, "long" (a
# run of n-2 vertices) and "anti" (antidirected).
GOLDEN_EMBEDDINGS = (
    ((30, 30), 1, "embedding", 0, "case1b", "pipeline", "ff6b0783cb127ddc"),
    ((30, 30), 1, "embedding", 1, "case1b", "pipeline", "61bbcf5e4e0624da"),
    ((30, 30), 1, "embedding", 2, "case1b", "pipeline", "8f5a4e223f6bd7b6"),
    ((30, 30), 1, "embedding", 3, "case1b", "pipeline", "eb30feff48dec487"),
    ((30, 30), 1, "embedding", "long", "case1a", "pipeline", "058013900020ab17"),
    ((30, 30), 1, "embedding", "anti", "case2", "pipeline", "a6bf53e0b225f1cc"),
    ((30, 30), 1, "decomposition", 0, "case1", "oracle", "52c55d087380f10a"),
    ((30, 30), 1, "decomposition", 1, "case1", "oracle", "d7e9434012484f7c"),
    ((32, 32, 32), 2, "embedding", 0, "case1b", "pipeline", "7a8541696cfffdcc"),
    ((32, 32, 32), 2, "embedding", 1, "case1b", "pipeline", "a568c470ac867f55"),
    ((32, 32, 32), 2, "embedding", 2, "case2", "pipeline", "3a449369535b8cb5"),
    ((32, 32, 32), 2, "embedding", 5, "case2", "pipeline", "378ed17c08e1887d"),
    ((32, 32, 32), 2, "embedding", "long", "case1a", "pipeline", "a7471e9ee4075107"),
    ((32, 32, 32), 2, "embedding", "anti", "case2", "pipeline", "b9f30253283cc872"),
)


def test_pipeline_golden_mappings():
    hosts = {}
    for sizes, seed, order, which, case, method, digest in GOLDEN_EMBEDDINGS:
        if (sizes, seed) not in hosts:
            g = gen_blowup_tt(list(sizes), intra=0.95, forward_noise=0.001,
                              seed=seed)
            hosts[sizes, seed] = g, decompose(g, fit_decomposition_params(g))
        g, sp = hosts[sizes, seed]
        part = reverse_for_embedding(sp) if order == "embedding" else sp
        n = g.n
        if which == "long":
            c = CyclePattern(tuple([True] * (n - 3) + [False, True, False]))
        elif which == "anti":
            c = CyclePattern.antidirected(n)
        else:
            c = rand_pattern(n, which)
        res = embed_hamilton_orientation(g, part, c)
        assert res.ok, (sizes, order, which, res.failure_step)
        assert (res.case, res.method, _mapping_digest(res.embedding.mapping)) \
            == (case, method, digest), (sizes, order, which)


def _perfbench_fixed_host(sizes, seed, count):
    """A fixed planted host of perfbench's planted-heuristic workload with
    its orientations, drawn the same way: random.Random("fixed:<sizes>:<seed>")
    gives non-directed cycles with each edge forward with probability 1/2."""
    rng = random.Random(f"fixed:{list(sizes)}:{seed}")
    g = gen_blowup_tt(list(sizes), intra=0.95, forward_noise=0.001, seed=seed)
    sp = decompose(g, fit_decomposition_params(g, exact_threshold=20))
    patterns = []
    while len(patterns) < count:
        c = CyclePattern(tuple(rng.random() < 0.5 for _ in range(g.n)))
        if not c.is_directed():
            patterns.append(c)
    return g, reverse_for_embedding(sp), patterns


# (block sizes, host seed, orientations, failures, digest of every result)
GOLDEN_OUTCOMES = (
    ((48, 48), 4848, 30, 0, "21c10056199e1847"),
    ((40, 40, 40), 1120, 100, 3, "45ae27cc2c6c5a97"),
)


def test_pipeline_golden_outcomes_above_spanning_cap():
    """Pin failures as well as successes above 64 vertices, where there is
    no oracle fallback: status, case, method, attempts, failure step and
    mapping of every orientation."""
    for sizes, seed, count, failures, digest in GOLDEN_OUTCOMES:
        g, sp, patterns = _perfbench_fixed_host(sizes, seed, count)
        rows = []
        for c in patterns:
            res = embed_hamilton_orientation(g, sp, c)
            if not res.ok:
                assert res.failure_step == "case1b:block-sizing", sizes
            mapping = res.embedding.mapping if res.ok else None
            rows.append(f"{res.status}|{res.case}|{res.method}|{res.attempts}|"
                        f"{res.failure_step}|{mapping}")
        assert sum(not row.startswith("embedded|") for row in rows) == failures
        got = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
        assert got == digest, sizes


def _maximal_runs(o):
    """(start, vertex count, forward?) of every maximal run of equally
    oriented edges of a non-directed cycle pattern."""
    n = len(o)
    runs = []
    for s in range(n):
        if o[s - 1] != o[s]:
            k = 1
            while o[(s + k) % n] == o[s]:
                k += 1
            runs.append((s, k + 1, o[s]))
    return runs


def test_frame_case1_brute_force():
    # run_frame puts a longest directed run forward on positions [0, ell);
    # a forward run beats an equally long backward one, and within one
    # direction the smallest start wins. Every non-directed pattern with
    # n = 3..14 is checked against runs found on an explicit reflection.
    for n in range(3, 15):
        for bits in range(1, (1 << n) - 1):
            o = tuple(bool(bits >> i & 1) for i in range(n))
            runs = _maximal_runs(o)
            ell = max(k for _, k, _ in runs)
            fw_starts = [s for s, k, fw in runs if fw and k == ell]
            if fw_starts:
                want = (False, min(fw_starts))
            else:
                r = tuple(not o[(n - 1 - j) % n] for j in range(n))
                want = (True, min(s for s, k, fw in _maximal_runs(r)
                                  if fw and k == ell))
            c = CyclePattern(o)
            offset, reflected, got_ell = run_frame(c)
            assert (reflected, offset, got_ell) == want + (ell,), o
            o2 = rotate(reflect(c) if reflected else c, offset).orientation
            assert all(o2[:ell - 1]) and not o2[ell - 1] and not o2[-1], o


# --- directed 2-factors ---------------------------------------------------------------


def _check_two_factor(g, cycles, k):
    assert 1 <= len(cycles) <= k
    seen = set()
    for cyc in cycles:
        assert len(cyc) >= 2
        for i, u in enumerate(cyc):
            assert u not in seen
            seen.add(u)
            assert g.has_edge(u, cyc[(i + 1) % len(cyc)])
    assert seen == set(range(g.n))


def test_two_factor_complete():
    g = gen_complete_digraph(10)
    cycles = two_factor(g, 1)
    _check_two_factor(g, cycles, 1)


def test_two_factor_two_blocks():
    # blocks are the strongly connected components; one cycle per block
    g = gen_blowup_tt([6, 6], intra=1.0, forward_noise=0.0, seed=0)
    cycles = two_factor(g, 2)
    _check_two_factor(g, cycles, 2)
    assert len(cycles) == 2


def test_two_factor_component_of_200():
    g = gen_random_min_degree(200, 299, seed=1)
    cycles = two_factor(g, 1)
    assert _validate_two_factor(g, cycles, 1) == ("pass", "1 cycles")


def test_two_factor_degree_tightness():
    # the blown-up witness sits exactly one below the k=1 threshold
    g = gen_blowup_tt([6, 6], intra=1.0, forward_noise=0.0, seed=0)
    with pytest.raises(PreconditionError):
        two_factor(g, 1)


def test_two_factor_small_n():
    g = gen_complete_digraph(10)
    with pytest.raises(PreconditionError):
        two_factor(g, 5)        # needs n >= 12
    with pytest.raises(InputError):
        two_factor(g, 0)


# --- oriented cycle spectrum -----------------------------------------------------------


def test_pancyclic_complete():
    g = gen_complete_digraph(8)
    report = pancyclic_suite(g, 1, 0.2, seed=0)
    assert report.found_all()
    assert set(report.outcomes()) == {"found"}
    lengths = {cell["length"] for cell in report.cells}
    assert lengths == set(range(3, 9))


def test_pancyclic_all_orientations_small():
    g = gen_blowup_tt([5, 5], intra=1.0, forward_noise=0.0, seed=0)
    report = pancyclic_suite(g, 1, -0.2, lengths=[3, 4, 5],
                             orientations_per_length=None)
    assert report.found_all()
    # every necklace class of each length got a cell
    from hamorient import necklace_classes

    for L in (3, 4, 5):
        want = len(necklace_classes(L))
        assert sum(1 for cell in report.cells if cell["length"] == L) == want


def test_pancyclic_reports_honest_none():
    # no spanning directed cycle exists across backward-only blocks
    g = gen_blowup_tt([6, 6], intra=1.0, forward_noise=0.0, seed=1)
    report = pancyclic_suite(g, 1, -0.2, lengths=[12],
                             orientations_per_length=1, seed=3)
    directed_cells = [cell for cell in report.cells
                      if cell["pattern"] == "+" * 12]
    assert directed_cells and directed_cells[0]["outcome"] == "none"
    assert not report.found_all()


def test_pancyclic_precondition():
    with pytest.raises(PreconditionError):
        pancyclic_suite(cycle_digraph(10), 1, 0.05)


@pytest.mark.parametrize("n, delta", [(70, 113), (100, 161)])
def test_pancyclic_spanning_lengths_above_cap_extend_odd(n, delta):
    # named for the odd extension that settled these cells while spanning
    # searches stopped at 64 vertices; the length-n double-edge ring
    # settles every length-n cell now
    g = gen_random_min_degree(n, delta, 1)
    report = pancyclic_suite(g, 1, 0.05, lengths=[n], orientations_per_length=3)
    assert [(c["outcome"], c["method"]) for c in report.cells] \
        == [("found", "double-edge")] * 5
    ring = exact_embed(double_edge_graph(g), CyclePattern.directed(n)).mapping
    for cell in report.cells:
        pattern = CyclePattern.from_string(cell["pattern"])
        assert validate_embedding(g, pattern, ring, spanning=True).valid


def test_pancyclic_cells_validated():
    g = gen_complete_digraph(9)
    report = pancyclic_suite(g, 1, 0.2, seed=2, lengths=[5, 7])
    for cell in report.cells:
        assert cell["outcome"] == "found"
        assert cell["method"] in ("double-edge", "oracle")
