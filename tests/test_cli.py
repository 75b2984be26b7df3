import csv
import inspect
import json
import typing

import pytest

from hamorient import (DecompositionParams, GenSpec, InputError,
                       certify_expander, find_sparse_cut, gen_complete_digraph,
                       partition_from_json_dict, robust_out_neighborhood)
from hamorient.cli import main
from hamorient.io import read_edges, read_header_spec
from hamorient.workbench import SUITES


# the two planted blocks of the workdir host, as partition classes
BLOCKS_12_12 = json.dumps([list(range(12)), list(range(12, 24))])
# vertex 1 of the first block written as true, which equals 1 in Python
BOOL_VERTEX = BLOCKS_12_12.replace("[0, 1,", "[0, true,", 1)
# the flag of a partition searched above theorem scale
FLAT = "flat schedule: alpha above theorem scale zeta/(24(k+1))"
# an embedding of "+" * 23 + "-" in the workdir host (position p on vertex
# p + 12 mod 24) that lists position 11 twice and leaves out position 12,
# the one on vertex 0
POSITION_TWICE = json.dumps([[p, (p + 12) % 24] for p in range(24) if p != 12]
                            + [[11, 23]])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated two-block instance plus its partition artifact."""
    d = tmp_path_factory.mktemp("cli")
    graph = d / "graph.edges"
    part = d / "part.json"
    assert main(["generate", "--family", "blowup", "--sizes", "12,12",
                 "--intra", "1.0", "--noise", "0.0", "--seed", "0",
                 "--out", str(graph)]) == 0
    assert main(["partition", "--input", str(graph),
                 "--out", str(part)]) == 0
    return d


# --- generate ---------------------------------------------------------------


def test_generate_writes_readable_file(tmp_path):
    out = tmp_path / "k8.edges"
    assert main(["generate", "--family", "complete", "--n", "8",
                 "--out", str(out)]) == 0
    g = read_edges(out)
    assert g.n == 8 and g.edge_count() == 56
    spec = read_header_spec(out)
    assert spec["family"] == "complete"
    assert spec["params"] == {"n": 8}


@pytest.mark.parametrize("args", [
    ["complete", "--n", "7"],
    ["bipartite_extremal", "--n", "9"],
    ["split_cliques", "--n", "9"],
    ["blowup", "--sizes", "5,6", "--intra", "0.7", "--noise", "0.1",
     "--seed", "3"],
    ["random_min_degree", "--n", "12", "--delta", "12", "--seed", "5"],
    ["tournament", "--n", "9", "--kind", "random", "--seed", "4"],
], ids=lambda args: args[0])
def test_generated_file_rebuilds_its_host(tmp_path, args):
    out = tmp_path / "g.edges"
    assert main(["generate", "--family", *args, "--out", str(out)]) == 0
    assert GenSpec.from_json_dict(read_header_spec(out)).build() \
        == read_edges(out)


def test_generate_missing_param(tmp_path):
    assert main(["generate", "--family", "blowup",
                 "--out", str(tmp_path / "x.edges")]) == 2


def test_generate_rejects_extra_param(tmp_path):
    assert main(["generate", "--family", "complete", "--n", "6",
                 "--delta", "4", "--out", str(tmp_path / "x.edges")]) == 2


def test_generate_unknown_family(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "--family", "nonsense",
              "--out", str(tmp_path / "x.edges")])


# --- partition ----------------------------------------------------------------


def test_partition_artifact_reverifies(workdir):
    data = json.loads((workdir / "part.json").read_text())
    assert data["report"]["ok"] is True
    assert sorted(len(c) for c in data["classes"]) == [12, 12]
    sp = partition_from_json_dict(data)
    assert sp.t == 2
    # stale certificates are never trusted on reload; they are recomputed
    assert sp.report is None and sp.verdicts == ()


def test_partition_explicit_k(workdir, tmp_path):
    # an explicit alpha above theorem scale runs the flat schedule
    out = tmp_path / "p.json"
    rc = main(["partition", "--input", str(workdir / "graph.edges"),
               "--k", "8", "--zeta", "0.15", "--alpha", "0.05",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["params"]["k"] == 8
    assert FLAT in data["flags"]
    assert {a["search_alpha"] for a in data["audit"]} == {0.05 * 0.05}


def test_partition_explicit_k_without_alpha(workdir, tmp_path):
    # the defaulted alpha = zeta/(25(k+1)) is at theorem scale
    out = tmp_path / "p2.json"
    rc = main(["partition", "--input", str(workdir / "graph.edges"),
               "--k", "8", "--zeta", "0.15", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["params"]["alpha"] == 0.15 / (25 * 9)
    assert FLAT not in data["flags"]


def test_classes_only_partition_file_verifies(tmp_path):
    # without stored params, k is the class count, so clause 1's t <= k holds
    graph = str(tmp_path / "graph.edges")
    assert main(["generate", "--family", "blowup", "--sizes", "10,10",
                 "--intra", "0.95", "--noise", "0.001", "--seed", "1",
                 "--out", graph]) == 0
    part = tmp_path / "classes.json"
    part.write_text(json.dumps({"n": 20, "classes": [list(range(10)),
                                                      list(range(10, 20))]}))
    assert partition_from_json_dict(json.loads(part.read_text())).params.k == 2
    out = tmp_path / "report.json"
    assert main(["verify", "--input", graph, "--partition", str(part),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(report[f"clause{i}"]["ok"] for i in range(1, 5))


@pytest.fixture(scope="module")
def blowup40(tmp_path_factory):
    """gen_blowup_tt([20,20], 0.95, 0.001, 7), partitioned with an alpha
    override of the fitted parameters, with explicit parameters, and with
    explicit parameters and an alpha above theorem scale."""
    d = tmp_path_factory.mktemp("b40")
    graph = str(d / "graph.edges")
    assert main(["generate", "--family", "blowup", "--sizes", "20,20",
                 "--intra", "0.95", "--noise", "0.001", "--seed", "7",
                 "--out", graph]) == 0
    explicit = ["--k", "8", "--zeta", "0.15"]
    for name, flags in (("override", ["--alpha", "0.05"]),
                        ("explicit", explicit),
                        ("explicit_flat", [*explicit, "--alpha", "0.05"])):
        assert main(["partition", "--input", graph, *flags,
                     "--out", str(d / f"{name}.json")]) == 0
    return d


def test_partition_rejects_adaptive_flag(workdir):
    # parameters are fitted whenever --k is omitted; there is no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--input", str(workdir / "graph.edges"),
              "--adaptive"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--alpha-floor", "0.05"],
                                  ["--no-hierarchy"]],
                         ids=["alpha-floor", "no-hierarchy"])
def test_partition_rejects_schedule_flags(workdir, flag):
    # the cut-search schedule derives from (k, zeta, alpha)
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--input", str(workdir / "graph.edges"), *flag])
    assert exc.value.code == 2


def test_partition_alpha_override_derives_tau_and_nu(blowup40):
    data = json.loads((blowup40 / "override.json").read_text())
    p = data["params"]
    assert p["alpha"] == 0.05 and p["tau"] == 0.05 / 10
    assert p["nu"] == p["alpha"] * p["tau"] * p["zeta"] / 16
    assert data["verdicts"] and all(
        v["params"] == {"nu": p["nu"], "tau": p["tau"]} for v in data["verdicts"])
    # fitted zeta is far below 24(k+1) * 0.05: the flat schedule at 0.05
    assert FLAT in data["flags"]
    assert {a["search_alpha"] for a in data["audit"]} == {0.05 * 0.05}


def test_partition_explicit_k_schedule_follows_alpha(blowup40):
    # explicit parameters search the theorem's squared schedule when alpha
    # is at theorem scale, and the flat one above it
    data = json.loads((blowup40 / "explicit.json").read_text())
    p = data["params"]
    assert p["alpha"] == 0.15 / (25 * 9) and FLAT not in data["flags"]
    # every event falls in an early round, searched far below alpha^2
    assert all(a["round"] < 7 and a["search_alpha"] < p["alpha"] ** 2
               for a in data["audit"])
    data = json.loads((blowup40 / "explicit_flat.json").read_text())
    assert data["params"]["alpha"] == 0.05 and FLAT in data["flags"]
    assert {a["search_alpha"] for a in data["audit"]} == {0.05 * 0.05}


def test_partition_file_with_removed_schedule_keys_loads(workdir, tmp_path):
    # files written when alpha_floor and enforce_hierarchy were parameters
    data = json.loads((workdir / "part.json").read_text())
    data["params"].update(alpha_floor=0.1, enforce_hierarchy=False)
    part = tmp_path / "old.json"
    part.write_text(json.dumps(data))
    sp = partition_from_json_dict(data)
    assert sp.params.alpha == data["params"]["alpha"] and sp.t == 2
    assert main(["verify", "--input", str(workdir / "graph.edges"),
                 "--partition", str(part)]) == 0


# --- embed ----------------------------------------------------------------------


def test_embed_with_partition_artifact(workdir, tmp_path):
    out = tmp_path / "emb.json"
    pattern = "+" * 23 + "-"
    rc = main(["embed", "--input", str(workdir / "graph.edges"),
               "--pattern", pattern, "--partition", str(workdir / "part.json"),
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "embedded"
    assert data["method"] == "pipeline"
    assert data["checker"]["valid"] is True
    assert len(data["mapping"]) == 24
    (tmp_path / "emb_pattern.txt").write_text(pattern)


def test_embed_alias_computes_own_partition(workdir, tmp_path):
    out = tmp_path / "anti.json"
    rc = main(["embed", "--input", str(workdir / "graph.edges"),
               "--pattern", "antidirected", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["checker"]["valid"] is True


def test_embed_rejects_directed(workdir, tmp_path):
    out = tmp_path / "dir.json"
    rc = main(["embed", "--input", str(workdir / "graph.edges"),
               "--pattern", "directed", "--out", str(out)])
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["status"] == "rejected"
    assert data["failure_step"] == "precondition:directed-cycle"


def test_embed_oracle_mode(tmp_path):
    graph = tmp_path / "k10.edges"
    assert main(["generate", "--family", "complete", "--n", "10",
                 "--out", str(graph)]) == 0
    out = tmp_path / "emb.json"
    rc = main(["embed", "--input", str(graph), "--pattern", "++-+--++-+",
               "--mode", "oracle", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["method"] == "oracle" and data["checker"]["valid"] is True


def test_embed_classes_above_64_vertices_embeds(tmp_path):
    # each class spans 100 vertices, so its last stretch is a spanning fill
    graph = tmp_path / "b200.edges"
    assert main(["generate", "--family", "blowup", "--sizes", "100,100",
                 "--intra", "0.95", "--noise", "0.001", "--seed", "7",
                 "--out", str(graph)]) == 0
    out = tmp_path / "anti.json"
    rc = main(["embed", "--input", str(graph), "--pattern", "antidirected",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "embedded" and data["method"] == "pipeline"
    assert data["checker"]["valid"] is True


def test_embed_single_class_above_64_vertices_embeds(tmp_path):
    graph = tmp_path / "r100.edges"
    assert main(["generate", "--family", "random_min_degree", "--n", "100",
                 "--delta", "160", "--seed", "1", "--out", str(graph)]) == 0
    out = tmp_path / "anti.json"
    rc = main(["embed", "--input", str(graph), "--pattern", "antidirected",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "embedded" and data["case"] == "single-class"
    assert data["checker"]["valid"] is True


def test_embed_oracle_mode_above_64_vertices(tmp_path):
    graph = tmp_path / "r100.edges"
    assert main(["generate", "--family", "random_min_degree", "--n", "100",
                 "--delta", "110", "--seed", "1", "--out", str(graph)]) == 0
    out = tmp_path / "anti.json"
    rc = main(["embed", "--input", str(graph), "--pattern", "antidirected",
               "--mode", "oracle", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["method"] == "oracle" and data["checker"]["valid"] is True


def test_embed_pattern_length_mismatch(workdir):
    assert main(["embed", "--input", str(workdir / "graph.edges"),
                 "--pattern", "+-"]) == 2


def test_embed_oracle_mode_pattern_length_mismatch(tmp_path):
    # a 4-position pattern on 8 vertices is an input error in both modes,
    # not a 4-vertex embedding the spanning checker then rejects
    graph = tmp_path / "k8.edges"
    assert main(["generate", "--family", "complete", "--n", "8",
                 "--out", str(graph)]) == 0
    for mode in ("oracle", "pipeline"):
        assert main(["embed", "--input", str(graph), "--pattern", "+-+-",
                     "--mode", mode]) == 2


def test_embed_oracle_mode_negative_is_failed(tmp_path):
    graph = tmp_path / "b8.edges"
    assert main(["generate", "--family", "bipartite_extremal", "--n", "8",
                 "--out", str(graph)]) == 0
    out = tmp_path / "neg.json"
    rc = main(["embed", "--input", str(graph), "--pattern", "directed",
               "--mode", "oracle", "--out", str(out)])
    assert rc == 1
    data = json.loads(out.read_text())
    assert (data["status"], data["method"], data["failure_step"]) \
        == ("failed", "oracle", "oracle:none")
    assert data["audit"]["nodes"] > 0 and "elapsed" in data["audit"]


def test_empty_host_exits_2(tmp_path, capsys):
    graph = tmp_path / "empty.edges"
    graph.write_text("0 0\n")
    assert main(["partition", "--input", str(graph)]) == 2
    assert main(["embed", "--input", str(graph), "--pattern", "+-+"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# --- verify ---------------------------------------------------------------------


def test_verify_partition(workdir):
    assert main(["verify", "--input", str(workdir / "graph.edges"),
                 "--partition", str(workdir / "part.json")]) == 0


def test_verify_embedding_and_tamper(workdir, tmp_path):
    graph = str(workdir / "graph.edges")
    emb = tmp_path / "emb.json"
    pattern = "-" + "+" * 22 + "-"
    # leading-dash orientation strings go through --pattern=VALUE
    assert main(["embed", "--input", graph, f"--pattern={pattern}",
                 "--partition", str(workdir / "part.json"),
                 "--out", str(emb)]) == 0
    assert main(["verify", "--input", graph, "--embedding", str(emb),
                 f"--pattern={pattern}"]) == 0
    data = json.loads(emb.read_text())
    data["mapping"][0][1], data["mapping"][1][1] = \
        data["mapping"][1][1], data["mapping"][0][1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--input", graph, "--embedding", str(bad),
                 f"--pattern={pattern}"]) == 1


def test_main_theorem_artifact_passes_verify_embedding(tmp_path):
    # experiment artifacts and embed write one mapping format
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "main_theorem", "seed": 0, "n_grid": [14],
         "pattern_sample": 2, "intra": 1.0, "noise": 0.0},
    ]}))
    out = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    # the suite's n = 14 host: blocks [7, 7], seed + 7 * n
    graph = str(tmp_path / "host.edges")
    assert main(["generate", "--family", "blowup", "--sizes", "7,7",
                 "--intra", "1.0", "--noise", "0.0", "--seed", "98",
                 "--out", graph]) == 0
    artifacts = sorted((out / "artifacts").glob("main_theorem-*.json"))
    assert len(artifacts) == 2
    for art in artifacts:
        pattern = json.loads(art.read_text())["pattern"]
        assert main(["verify", "--input", graph, "--embedding", str(art),
                     f"--pattern={pattern}"]) == 0


def test_verify_expansion(tmp_path):
    graph = tmp_path / "k12.edges"
    assert main(["generate", "--family", "complete", "--n", "12",
                 "--out", str(graph)]) == 0
    out = tmp_path / "cert.json"
    rc = main(["verify", "--input", str(graph), "--nu", "0.05",
               "--tau", "0.25", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["outcome"] == "expander"


def test_verify_expansion_sampled_certifies_by_degrees(tmp_path):
    # above the exact cap a dense host is certified by the degree bound,
    # not left inconclusive by sampling
    graph = tmp_path / "k30.edges"
    assert main(["generate", "--family", "complete", "--n", "30",
                 "--out", str(graph)]) == 0
    out = tmp_path / "cert.json"
    rc = main(["verify", "--input", str(graph), "--nu", "0.05",
               "--tau", "0.25", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert (d["outcome"], d["mode"], d["counts"]["checked_sets"]) \
        == ("expander", "degree", 0)


def test_verify_rejects_seed_flag(workdir):
    # sampled certification draws nothing random, so it takes no seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", str(workdir / "graph.edges"),
              "--nu", "0.05", "--tau", "0.25", "--seed", "1"])
    assert exc.value.code == 2


def test_verify_rejects_mode_flag(workdir):
    # the host's size alone decides between sweep and prefix probe
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--input", str(workdir / "graph.edges"),
              "--nu", "0.05", "--tau", "0.25", "--mode", "sampled"])
    assert exc.value.code == 2


def test_verify_cut_found_and_absent(workdir, tmp_path):
    out = tmp_path / "cut.json"
    rc = main(["verify", "--input", str(workdir / "graph.edges"),
               "--alpha", "0.05", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["outcome"] == "cut"
    assert sorted(data["cut"]) == data["cut"] and len(data["cut"]) == 12
    assert data["counts"]["e_forward"] == 0
    assert data["mode"] == "exact"
    assert data["counts"]["climb_moves"] == data["counts"]["climb_steps"] == 0
    # alpha = 0 asks for a cut with no forward edge, which this host has
    assert main(["verify", "--input", str(workdir / "graph.edges"),
                 "--alpha", "0"]) == 0

    dense = tmp_path / "k12.edges"
    assert main(["generate", "--family", "complete", "--n", "12",
                 "--out", str(dense)]) == 0
    assert main(["verify", "--input", str(dense), "--alpha", "0.05"]) == 1


def test_verify_cut_reports_climb_moves(tmp_path):
    graph = tmp_path / "b60.edges"
    assert main(["generate", "--family", "blowup", "--sizes", "30,30",
                 "--seed", "11", "--out", str(graph)]) == 0
    out = tmp_path / "cut.json"
    main(["verify", "--input", str(graph), "--alpha", "0.05",
          "--out", str(out)])
    data = json.loads(out.read_text())
    res = find_sparse_cut(read_edges(graph), 0.05)
    assert data["mode"] == "heuristic"
    assert data["counts"]["climb_moves"] == res.climb_moves > 0
    # the climbs run in lockstep: fewer steps than moves
    assert 0 < data["counts"]["climb_steps"] == res.climb_steps < res.climb_moves


def test_verify_selector_errors(workdir):
    graph = str(workdir / "graph.edges")
    assert main(["verify", "--input", graph]) == 2
    assert main(["verify", "--input", graph, "--alpha", "0.1",
                 "--partition", str(workdir / "part.json")]) == 2
    assert main(["verify", "--input", graph, "--nu", "0.05"]) == 2
    assert main(["verify", "--input", graph,
                 "--embedding", str(workdir / "part.json")]) == 2


@pytest.mark.parametrize("command, text", [
    ("verify-embedding", "[[0, 1], [20, 2]]"),
    ("verify-embedding", '{"nomap": 1}'),
    ("verify-embedding", "[[0, 1], [1]]"),
    ("verify-embedding", "not json"),
    ("verify-embedding", "[[0, true], [1, 0]]"),
    ("verify-embedding", POSITION_TWICE),
    ("verify-partition", '{"n": 12}'),
    ("embed-partition", '{"n": 24, "classes": [[0, 99]]}'),
    ("embed-partition", '{"n": 24, "classes": [[0, 1]]}'),
    ("embed-partition",
     '{"n": 24, "classes": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], '
     '[0, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]]}'),
    ("embed-partition", '{"n": 12}'),
    ("embed-partition",
     '{"n": 24, "classes": %s, "flags": 5}' % BLOCKS_12_12),
    ("verify-partition",
     '{"n": 24, "classes": %s, "flags": "ab"}' % BLOCKS_12_12),
    ("embed-partition", '{"n": 24, "classes": %s}' % BOOL_VERTEX),
    ("embed-partition",
     '{"n": 24, "classes": %s, "params": {"k": 2.5}}' % BLOCKS_12_12),
    ("embed-partition",
     '{"n": 24, "classes": %s, "params": {"exact_threshold": true}}'
     % BLOCKS_12_12),
    ("verify-partition", '{"n": 24, "classes": %s, "params": 5}' % BLOCKS_12_12),
    ("verify-partition", '{"n": 4097, "classes": [[0]]}'),
    ("verify-partition", '{"n": %d, "classes": [[0]]}' % 10**30),
    ("embed-partition", '{"n": 4097, "classes": [[0]]}'),
    ("embed-partition", '{"n": %d, "classes": [[0]]}' % 10**30),
    ("experiment-config", "not json"),
    ("experiment-config", '{"suites": 5}'),
    ("experiment-config", '{"suites": [5]}'),
], ids=["position-out-of-range", "no-mapping", "not-a-pair",
        "embedding-not-json", "vertex-a-bool", "position-twice",
        "verify-no-classes", "vertex-out-of-range", "classes-miss-vertices",
        "classes-overlap", "embed-no-classes", "flags-not-a-list",
        "flags-a-string", "partition-vertex-a-bool",
        "k-a-float", "threshold-a-bool", "params-not-an-object",
        "verify-n-above-cap", "verify-n-huge",
        "embed-n-above-cap", "embed-n-huge",
        "config-not-json", "config-suites-not-a-list",
        "config-suite-not-an-object"])
def test_malformed_artifact_exits_2(workdir, tmp_path, capsys, command, text):
    artifact = tmp_path / "artifact.json"
    artifact.write_text(text)
    graph = str(workdir / "graph.edges")
    argv = {
        "verify-embedding": ["verify", "--input", graph, "--embedding",
                             str(artifact), "--pattern", "+" * 23 + "-"],
        "verify-partition": ["verify", "--input", graph, "--partition",
                             str(artifact)],
        "embed-partition": ["embed", "--input", graph, "--pattern",
                            "antidirected", "--partition", str(artifact)],
        "experiment-config": ["experiment", "--config", str(artifact),
                              "--out", str(tmp_path / "r")],
    }[command]
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("case", ["input-a-directory", "input-not-utf8",
                                  "partition-not-utf8", "out-a-directory"])
def test_unreadable_path_exits_2(workdir, tmp_path, capsys, case):
    # an unreadable or unwritable path is a usage error, not a failed check
    graph = str(workdir / "graph.edges")
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00\x80 not text")
    argv = {
        "input-a-directory": ["verify", "--input", str(tmp_path),
                              "--alpha", "0.1"],
        "input-not-utf8": ["verify", "--input", str(binary), "--alpha", "0.1"],
        "partition-not-utf8": ["verify", "--input", graph,
                               "--partition", str(binary)],
        "out-a-directory": ["partition", "--input", graph,
                            "--out", str(tmp_path)],
    }[case]
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err


def test_partition_for_another_host_exits_2(workdir, blowup40, capsys):
    graph = str(workdir / "graph.edges")           # 24 vertices
    part = str(blowup40 / "override.json")         # covers 40
    assert main(["embed", "--input", graph, "--pattern", "antidirected",
                 "--partition", part]) == 2
    assert main(["verify", "--input", graph, "--partition", part]) == 2
    assert capsys.readouterr().err.count("partition covers n=40, host has n=24") == 2


@pytest.mark.parametrize("call", [
    lambda graph: certify_expander(gen_complete_digraph(4), 0.0, 0.25),
    lambda graph: certify_expander(gen_complete_digraph(4), 1.0, 0.25),
    lambda graph: certify_expander(gen_complete_digraph(4), 0.05, 0.0),
    lambda graph: certify_expander(gen_complete_digraph(4), 0.05, 0.5),
    lambda graph: certify_expander(gen_complete_digraph(4), 0.05, 0.25,
                                   exact_threshold=-1),
    lambda graph: certify_expander(gen_complete_digraph(4), 0.05, 0.25,
                                   exact_threshold=25),
    lambda graph: robust_out_neighborhood(gen_complete_digraph(4), 0b11, 1.5),
    lambda graph: DecompositionParams(k=2, alpha=0.0),
    lambda graph: DecompositionParams(k=2, alpha=1.0),
    lambda graph: main(["verify", "--input", graph, "--nu", "1.5",
                        "--tau", "0.25"]),
    lambda graph: main(["verify", "--input", graph, "--alpha", "-1"]),
    lambda graph: main(["verify", "--input", graph, "--alpha", "nan"]),
], ids=["nu-0", "nu-1", "tau-0", "tau-half", "threshold-negative",
        "threshold-above-cap", "neighborhood-nu", "alpha-0", "alpha-1",
        "cli-verify-nu", "cli-verify-alpha-negative", "cli-verify-alpha-nan"])
def test_out_of_range_values_are_rejected(workdir, call):
    """The library raises InputError; the CLI reports it with exit code 2."""
    try:
        rc = call(str(workdir / "graph.edges"))
    except InputError:
        return
    assert rc == 2


def test_missing_input_file(tmp_path):
    assert main(["partition", "--input", str(tmp_path / "nope.edges")]) == 2


# --- experiment ------------------------------------------------------------------


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "dichotomy", "seed": 0, "n": 10, "trials": 2},
    ]}))
    out = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "dichotomy.csv").exists()
    assert (out / "summary.json").exists()
    assert "experiment:" in capsys.readouterr().out


def test_experiment_two_factor_above_64_vertices(tmp_path):
    # a 70-vertex component used to abort the whole run before any CSV
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "two_factor", "seed": 0, "n_grid": [70], "k_grid": [1],
         "trials": 1},
        {"suite": "dichotomy", "seed": 0, "n": 10, "trials": 1},
    ]}))
    out = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "dichotomy.csv").exists()
    with open(out / "two_factor.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["n"], r["outcome"]) for r in rows][0] == ("70", "pass")
    assert all(r["outcome"] == "pass" for r in rows)


def test_experiment_unknown_suite_parameter_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "dichotomy", "seed": 0, "n": 8, "trials": 2, "bogus": 1},
    ]}))
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r")]) == 2
    assert "suites[0].bogus: unknown parameter" in capsys.readouterr().err


def test_experiment_wrongly_typed_suite_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "dichotomy", "seed": 0, "n": "8", "trials": 2},
    ]}))
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error at suites[0].n: expected int, got '8'" in err
    assert "Traceback" not in err


def test_experiment_trial_requires_suite(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "dichotomy", "seed": 0, "n": 10, "trials": 1},
    ]}))
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r"), "--trial", "0"]) == 2
    assert main(["experiment", "--config", str(cfg),
                 "--out", str(tmp_path / "r2"), "--suite", "dichotomy",
                 "--trial", "0"]) == 0


# a small config of each suite, for the sweep below
SMALL_SUITES = {
    "ghouila_houri": {"max_n": 3, "trials": 1},
    "main_theorem": {"n_grid": [12], "pattern_sample": 1},
    "dichotomy": {"n": 8, "trials": 1},
    "pancyclicity": {"n_grid": [8], "k_grid": [1],
                     "orientations_per_length": 1},
    "two_factor": {"n_grid": [8], "k_grid": [1], "trials": 1},
}


def _edge_values():
    """(suite, parameter, value): -1 and 0 in every int or int-grid
    parameter of every suite."""
    for suite, fn in SUITES.items():
        hints = typing.get_type_hints(fn)
        for key in inspect.signature(fn).parameters:
            if hints[key] in (int, int | None):
                yield from ((suite, key, v) for v in (-1, 0))
            elif hints[key] == list[int]:
                yield from ((suite, key, [v]) for v in (-1, 0))


@pytest.mark.parametrize("suite, key, value", list(_edge_values()),
                         ids=lambda x: json.dumps(x).strip('"'))
def test_experiment_edge_values_end_in_an_exit_code(tmp_path, capsys, suite,
                                                   key, value):
    """-1 or 0 in any count, size, seed or grid ends in a result or a usage
    error, never in an uncaught exception."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": suite, "seed": 0, **SMALL_SUITES[suite], key: value}]}))
    rc = main(["experiment", "--config", str(cfg),
               "--out", str(tmp_path / "r")])
    assert rc in (0, 1, 2)
    if key == "k_grid":
        assert rc == 2
        assert "config error at suites[0].k_grid: levels must be at least 1" \
            in capsys.readouterr().err
