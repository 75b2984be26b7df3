import json

import pytest

from hamorient import find_sparse_cut, partition_from_json_dict
from hamorient.cli import main
from hamorient.io import read_edges, read_header_spec


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated two-block instance plus its partition artifact."""
    d = tmp_path_factory.mktemp("cli")
    graph = d / "graph.edges"
    part = d / "part.json"
    assert main(["generate", "--family", "blowup", "--sizes", "12,12",
                 "--intra", "1.0", "--noise", "0.0", "--seed", "0",
                 "--out", str(graph)]) == 0
    assert main(["partition", "--input", str(graph), "--adaptive",
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
    out = tmp_path / "p.json"
    rc = main(["partition", "--input", str(workdir / "graph.edges"),
               "--k", "8", "--zeta", "0.15", "--alpha", "0.05",
               "--no-hierarchy", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["params"]["k"] == 8


def test_partition_explicit_k_without_alpha(workdir, tmp_path):
    # the cut-sparsity floor must clamp itself to the defaulted alpha
    out = tmp_path / "p2.json"
    rc = main(["partition", "--input", str(workdir / "graph.edges"),
               "--k", "8", "--zeta", "0.15", "--no-hierarchy",
               "--out", str(out)])
    assert rc == 0
    params = json.loads(out.read_text())["params"]
    assert params["alpha_floor"] <= params["alpha"]


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


def test_embed_beyond_spanning_cap_exits_failed(tmp_path):
    graph = tmp_path / "b200.edges"
    assert main(["generate", "--family", "blowup", "--sizes", "100,100",
                 "--intra", "0.95", "--noise", "0.001", "--seed", "7",
                 "--out", str(graph)]) == 0
    out = tmp_path / "anti.json"
    rc = main(["embed", "--input", str(graph), "--pattern", "antidirected",
               "--out", str(out)])
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["status"] == "failed" and data["failure_step"]
    assert any(f.endswith(":capability") for f in data["audit"]["failures"])



def test_embed_single_class_beyond_spanning_cap_exits_failed(tmp_path):
    graph = tmp_path / "r100.edges"
    assert main(["generate", "--family", "random_min_degree", "--n", "100",
                 "--delta", "160", "--seed", "1", "--out", str(graph)]) == 0
    out = tmp_path / "anti.json"
    rc = main(["embed", "--input", str(graph), "--pattern", "antidirected",
               "--out", str(out)])
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["status"] == "failed" and data["case"] == "single-class"
    assert data["failure_step"] == "single-class:capability"


def test_embed_pattern_length_mismatch(workdir):
    assert main(["embed", "--input", str(workdir / "graph.edges"),
                 "--pattern", "+-"]) == 2


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


def test_verify_expansion(tmp_path):
    graph = tmp_path / "k12.edges"
    assert main(["generate", "--family", "complete", "--n", "12",
                 "--out", str(graph)]) == 0
    out = tmp_path / "cert.json"
    rc = main(["verify", "--input", str(graph), "--nu", "0.05",
               "--tau", "0.25", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["outcome"] == "expander"


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

    dense = tmp_path / "k12.edges"
    assert main(["generate", "--family", "complete", "--n", "12",
                 "--out", str(dense)]) == 0
    assert main(["verify", "--input", str(dense), "--alpha", "0.05"]) == 1


def test_verify_cut_reports_climb_moves(tmp_path):
    graph = tmp_path / "b60.edges"
    assert main(["generate", "--family", "blowup", "--sizes", "30,30",
                 "--seed", "11", "--out", str(graph)]) == 0
    out = tmp_path / "cut.json"
    main(["verify", "--input", str(graph), "--alpha", "0.05", "--seed", "1",
          "--out", str(out)])
    data = json.loads(out.read_text())
    res = find_sparse_cut(read_edges(graph), 0.05, seed=1)
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
    ("verify-partition", '{"n": 12}'),
    ("embed-partition", '{"n": 24, "classes": [[0, 99]]}'),
    ("embed-partition", '{"n": 24, "classes": [[0, 1]]}'),
    ("embed-partition",
     '{"n": 24, "classes": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], '
     '[0, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]]}'),
    ("embed-partition", '{"n": 12}'),
    ("experiment-config", "not json"),
], ids=["position-out-of-range", "no-mapping", "not-a-pair",
        "embedding-not-json", "verify-no-classes", "vertex-out-of-range",
        "classes-miss-vertices", "classes-overlap", "embed-no-classes",
        "config-not-json"])
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
