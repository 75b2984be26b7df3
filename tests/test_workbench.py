import csv
import json

import pytest

from hamorient import InputError, PreconditionError
from hamorient.workbench import (CSV_COLUMNS, OUTCOMES, ExperimentConfig,
                                 TrialRecord, run, suite_dichotomy,
                                 suite_ghouila_houri, suite_main_theorem,
                                 suite_pancyclicity, suite_two_factor)


def outcomes(records):
    return [r.outcome for r in records]


def assert_no_fail(records):
    bad = [r for r in records if r.outcome == "fail"]
    assert not bad, [(r.params, r.detail) for r in bad]


# --- records and configs ----------------------------------------------------


def test_trial_record_outcome_validation():
    with pytest.raises(InputError):
        TrialRecord("s", 5, {}, 0, "maybe")


def test_trial_record_csv_row():
    rec = TrialRecord("s", 5, {"b": 2, "a": 1}, 7, "pass", millis=12.3456)
    row = rec.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "s" and row[1] == 5 and row[3] == 7
    assert row[2] == '{"a":1,"b":2}'
    assert row[5] == 12.346


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(suites=())
    with pytest.raises(InputError):
        ExperimentConfig(suites=({"seed": 0},))
    with pytest.raises(InputError):
        ExperimentConfig(suites=({"suite": "nope", "seed": 0},))
    with pytest.raises(InputError):
        ExperimentConfig(suites=({"suite": "dichotomy"},))
    with pytest.raises(InputError):
        ExperimentConfig(suites=({"suite": "two_factor", "seed": 0,
                                  "n_grid": []},))
    with pytest.raises(InputError):
        ExperimentConfig.from_json_dict({})
    with pytest.raises(InputError, match=r"suites\[0\]\.trials: missing"):
        ExperimentConfig(suites=({"suite": "dichotomy", "seed": 0, "n": 8},))
    cfg = ExperimentConfig.from_json_dict(
        {"suites": [{"suite": "dichotomy", "seed": 0, "n": 10, "trials": 1}],
         "workers": 2})
    assert len(cfg.suites) == 1          # unknown top-level keys are ignored


@pytest.mark.parametrize("key", ["bogus", "deadline"])
def test_config_rejects_unknown_suite_parameter(key):
    spec = {"suite": "dichotomy", "seed": 0, "n": 8, "trials": 2, key: 1}
    with pytest.raises(InputError) as exc:
        ExperimentConfig(suites=({"suite": "two_factor", "seed": 0,
                                  "n_grid": [10], "k_grid": [1],
                                  "trials": 1}, spec))
    assert str(exc.value) == f"config error at suites[1].{key}: unknown parameter"


@pytest.mark.parametrize("key,value,expected", [
    ("n", "8", "int"),
    ("n", 8.0, "int"),
    ("trials", True, "int"),
    ("eta", "0.3", "float"),
    ("negative_controls", 1, "bool"),
])
def test_config_rejects_wrongly_typed_suite_value(key, value, expected):
    spec = {"suite": "dichotomy", "seed": 0, "n": 8, "trials": 2, key: value}
    with pytest.raises(InputError) as exc:
        ExperimentConfig(suites=(spec,))
    assert str(exc.value) == (f"config error at suites[0].{key}: "
                              f"expected {expected}, got {value!r}")


def test_config_type_check_covers_grids_floats_and_optionals():
    ok = ExperimentConfig(suites=(
        {"suite": "dichotomy", "seed": 0, "n": 8, "trials": 2, "eta": 1},
        {"suite": "pancyclicity", "seed": 0, "n_grid": [10], "k_grid": [1],
         "orientations_per_length": None},
        {"suite": "ghouila_houri", "seed": 0, "max_n": 3,
         "mode": "exhaustive", "negative_controls": False},
    ))
    assert len(ok.suites) == 3
    with pytest.raises(InputError, match=r"suites\[0\]\.n_grid: expected "
                                         r"list\[int\], got \[10, '12'\]"):
        ExperimentConfig(suites=({"suite": "two_factor", "seed": 0,
                                  "n_grid": [10, "12"], "k_grid": [1],
                                  "trials": 1},))
    with pytest.raises(InputError, match=r"suites\[0\]\.seed: expected int"):
        ExperimentConfig(suites=({"suite": "dichotomy", "seed": None, "n": 8,
                                  "trials": 2},))


# --- individual suites --------------------------------------------------------


def test_ghouila_houri_exhaustive_small():
    records = list(suite_ghouila_houri(3, seed=0))
    assert_no_fail(records)
    claims = {r.params.get("claim") for r in records}
    assert claims == {"cycle", "path"}
    # the split-cliques negative control is the final row
    assert records[-1].params.get("control") == "split-cliques"
    assert records[-1].outcome == "pass"


def test_ghouila_houri_sampled():
    records = list(suite_ghouila_houri(10, mode="sampled", trials=5, seed=1,
                                       negative_controls=False))
    assert records
    assert_no_fail(records)


def test_ghouila_houri_guards():
    with pytest.raises(PreconditionError):
        list(suite_ghouila_houri(6))
    with pytest.raises(InputError):
        list(suite_ghouila_houri(4, mode="bogus"))


def test_dichotomy_suite():
    records = list(suite_dichotomy(10, 5, seed=0))
    assert_no_fail(records)
    # trials + the negative control
    assert len(records) == 6
    assert records[-1].detail == "expected-precondition-reject"


def test_dichotomy_exact_cap():
    with pytest.raises(PreconditionError):
        list(suite_dichotomy(20, 1))


def test_two_factor_suite():
    records = list(suite_two_factor([12], [2], trials=3, seed=0))
    assert_no_fail(records)
    witness = [r for r in records if r.params.get("witness")]
    assert len(witness) == 1 and witness[0].outcome == "pass"


def test_main_theorem_suite():
    records = list(suite_main_theorem([14], pattern_sample=2, seed=0,
                                      intra=1.0, noise=0.0))
    assert_no_fail(records)
    control = [r for r in records if r.params.get("pattern") == "directed"]
    assert len(control) == 1 and control[0].outcome == "pass"
    embedded = [r for r in records if r.artifact_data is not None]
    assert len(embedded) == 2


def test_main_theorem_below_degree_is_inconclusive():
    records = list(suite_main_theorem([9], pattern_sample=1, seed=0,
                                      intra=1.0, noise=0.0))
    assert outcomes(records) == ["inconclusive"]


def test_pancyclicity_suite():
    records = list(suite_pancyclicity([10], [1], seed=0,
                                      orientations_per_length=2))
    assert_no_fail(records)
    witness = [r for r in records if r.params.get("witness")]
    assert len(witness) == 1 and witness[0].outcome == "pass"
    random_rows = [r for r in records if "delta" in r.params]
    assert all(r.artifact_data is not None for r in random_rows)


# --- the runner ------------------------------------------------------------------


def small_config():
    return ExperimentConfig.from_json_dict({
        "suites": [
            {"suite": "dichotomy", "seed": 0, "n": 10, "trials": 2},
            {"suite": "ghouila_houri", "seed": 0, "max_n": 3},
        ]})


def test_run_outputs(tmp_path):
    out = tmp_path / "results"
    summary = run(small_config(), str(out), config_path="cfg.json")
    assert not summary["failed"]
    assert summary["failures"] == []
    assert set(summary["suites"]) == {"dichotomy", "ghouila_houri"}
    for name, bucket in summary["suites"].items():
        assert set(bucket) == set(OUTCOMES) | {"records"}
        with open(out / f"{name}.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) - 1 == bucket["records"]
        assert bucket["fail"] == 0
    with open(out / "summary.json") as f:
        assert json.load(f) == summary


def test_run_only_suite_and_trial(tmp_path):
    out = tmp_path / "one"
    summary = run(small_config(), str(out), config_path="cfg.json",
                  only_suite="dichotomy", only_trial=1)
    assert list(summary["suites"]) == ["dichotomy"]
    assert summary["suites"]["dichotomy"]["records"] == 1
    assert not (out / "ghouila_houri.csv").exists()
    with pytest.raises(InputError):
        run(small_config(), str(tmp_path / "x"), only_suite="nope")
    with pytest.raises(InputError):
        run(small_config(), str(tmp_path / "y"), only_suite="dichotomy",
            only_trial=99)


def test_run_writes_artifacts(tmp_path):
    cfg = ExperimentConfig.from_json_dict({
        "suites": [{"suite": "pancyclicity", "seed": 0, "n_grid": [10],
                    "k_grid": [1], "orientations_per_length": 2}]})
    out = tmp_path / "arts"
    run(cfg, str(out))
    with open(out / "pancyclicity.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    refs = [r[6] for r in rows if r[6]]
    assert refs
    for rel in refs:
        with open(out / rel) as f:
            assert "cells" in json.load(f)


def test_run_appends_same_suite_once(tmp_path):
    cfg = ExperimentConfig.from_json_dict({
        "suites": [
            {"suite": "dichotomy", "seed": 0, "n": 10, "trials": 1},
            {"suite": "dichotomy", "seed": 5, "n": 10, "trials": 1},
        ]})
    out = tmp_path / "dup"
    summary = run(cfg, str(out))
    with open(out / "dichotomy.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert sum(1 for r in rows if r == CSV_COLUMNS) == 1
    assert len(rows) - 1 == summary["suites"]["dichotomy"]["records"]


def test_run_deterministic_modulo_timing(tmp_path):
    cfg = ExperimentConfig.from_json_dict({
        "suites": [{"suite": "dichotomy", "seed": 3, "n": 10, "trials": 3}]})

    def rows_without_millis(d):
        run(cfg, str(d))
        with open(d / "dichotomy.csv", newline="") as f:
            return [r[:5] + r[6:] for r in csv.reader(f)]

    assert rows_without_millis(tmp_path / "a") == \
        rows_without_millis(tmp_path / "b")
