"""Tests of the benchmark's own checks and of a reduced round per workload.

Run from the repository root:

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import workloads as wl  # noqa: E402
from checks import (check_embedding, check_partition,  # noqa: E402
                    check_refutation, edge_set, planted_blocks,
                    refutes_spanning)
from hamorient import (CyclePattern, Digraph, exact_embed,  # noqa: E402
                       gen_bipartite_extremal, gen_blowup_tt,
                       gen_split_cliques)


def test_embedding_check_rejects_two_swapped_vertices():
    n = 7
    g = Digraph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    edges = edge_set(g)
    forward = CyclePattern.directed(n).orientation
    identity = list(range(n))
    assert check_embedding(edges, n, forward, identity) is None
    swapped = [1, 0] + identity[2:]
    assert check_embedding(edges, n, forward, swapped) is not None
    assert check_embedding(edges, n, forward, identity[:-1] + [0]) is not None


def test_partition_check_needs_each_class_near_its_block():
    blocks = planted_blocks([5, 5])
    good = [0b0000011111, 0b1111100000]
    assert check_partition(10, good, blocks) is None
    two_off = [0b0001111111, 0b1110000000]
    assert check_partition(10, two_off, blocks) is None
    three_off = [0b0000000011, 0b1111111100]
    assert check_partition(10, three_off, blocks)
    assert check_partition(10, [0b1111111111], blocks)                # one class
    assert check_partition(10, [0b0000011111, 0b0111100000], blocks)  # cover
    assert check_partition(10, [0b0000111111, 0b1111100000], blocks)  # overlap


def test_refutation_check_rejects_a_found_answer():
    g = gen_bipartite_extremal(9)
    holds = refutes_spanning(edge_set(g), g.n, closed=True)
    assert holds
    assert check_refutation("none", holds) == ("ok", None)
    outcome, err = check_refutation("found", holds)
    assert outcome == "failed" and err
    assert check_refutation("timeout", holds) == ("failed", None)


def test_witness_properties():
    assert refutes_spanning(edge_set(gen_split_cliques(10)), 10, closed=False)
    assert refutes_spanning(edge_set(gen_bipartite_extremal(10)), 10, closed=False)
    # odd n: parts differ by one, which rules out cycles but not paths
    g9 = gen_bipartite_extremal(9)
    assert not refutes_spanning(edge_set(g9), 9, closed=False)
    dense = gen_blowup_tt([5], 1.0, 0.0, seed=0)
    assert not refutes_spanning(edge_set(dense), 5, closed=True)


def _reduced_planted(inputs, hosts, patterns):
    for h in inputs.hosts[:hosts]:
        h.patterns = h.patterns[:patterns]
    inputs.hosts = inputs.hosts[:hosts]
    return inputs


@pytest.mark.parametrize("workload", ["planted-exact", "planted-heuristic"])
def test_reduced_planted_round_completes(workload):
    inputs = _reduced_planted(wl.WORKLOADS[workload][0](0, wl.GenTimer()), 1, 4)
    r = wl.planted_round(inputs, wl.LIBRARY_API)
    assert r.errors == []
    assert r.attempted == 1 + 4 + 1
    assert r.failed == 0
    assert len(r.heavy_calls) == 1 and len(r.light_calls) == 4


def test_failed_embeddings_are_counted_not_checked():
    inputs = wl.build_planted_heuristic(0, wl.GenTimer())
    gap = next(h for h in inputs.hosts if h.label.endswith("seed=1120"))
    inputs.hosts = [gap]
    r = wl.planted_round(inputs, wl.LIBRARY_API)
    assert r.errors == []
    assert r.attempted == 1 + len(gap.patterns) + 1
    assert r.failed == len(r.failures) > 0
    assert len(r.light_calls) == len(gap.patterns)


def test_reduced_oracle_round_completes():
    inputs = wl.build_oracle(0, wl.GenTimer())
    inputs.refute_cells = inputs.refute_cells[:3] + inputs.refute_cells[-3:]
    inputs.found_cells = inputs.found_cells[:50]
    r = wl.oracle_round(inputs, wl.LIBRARY_API)
    assert r.errors == []
    assert (r.attempted, r.failed) == (56, 0)
    assert len(r.heavy_calls) == 6 and len(r.light_calls) == 50


def test_oracle_round_reports_a_wrong_answer():
    inputs = wl.build_oracle(0, wl.GenTimer())
    inputs.refute_cells = inputs.refute_cells[:2]
    inputs.found_cells = []

    def always_found(host, pattern, **kwargs):
        return exact_embed(gen_blowup_tt([pattern.n], 1.0, 0.0), pattern)

    r = wl.oracle_round(inputs, {"exact_embed": always_found})
    assert len(r.errors) == 2 and r.failed == 2


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_benchmark_json(monkeypatch, capsys, trace):
    import json
    import run

    build, oracle_round = wl.WORKLOADS["oracle"]

    def reduced(seed, gen):
        inputs = build(seed, gen)
        inputs.refute_cells = inputs.refute_cells[:4]
        inputs.found_cells = inputs.found_cells[:400]
        return inputs

    monkeypatch.setitem(wl.WORKLOADS, "oracle", (reduced, oracle_round))
    assert run.main(["--workload", "oracle", "--seed", "0", "--seconds", "0",
                     "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace == "1" else 1) * 404
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
