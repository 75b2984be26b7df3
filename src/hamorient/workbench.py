"""Experiment orchestration: verification suites, CSV/JSON persistence.

Each suite is a generator of TrialRecords binding one structural claim to
runnable checks. Theorem-backed suites (degree thresholds met exactly,
oracle-verified) treat any failure as fatal; measurement rows only
record. The run() driver executes a config's suites, writes one CSV per
suite (fixed schema: suite, n, params, seed, outcome, millis, artifact),
JSON artifacts for notable trials, and a summary with per-suite counts.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import random
import time
import types
import typing
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, degree_profile, is_strongly_connected
from .decomposition import decompose, fit_decomposition_params, reverse_for_embedding
from .embedding import embed_hamilton_orientation, pancyclic_suite, two_factor
from .errors import InputError, PreconditionError, ResourceError
from .expansion import sparse_or_expander
from .generators import (
    gen_blowup_tt,
    gen_random_min_degree,
    gen_split_cliques,
)
from .oracle import exact_embed, validate_embedding
from .patterns import CyclePattern, PathPattern, canonical_rotation

CSV_COLUMNS = ["suite", "n", "params", "seed", "outcome", "millis", "artifact"]

OUTCOMES = ("pass", "fail", "inconclusive", "timeout")


@dataclass
class TrialRecord:
    suite: str
    n: int
    params: dict
    seed: int
    outcome: str
    millis: float = 0.0
    artifact: str = ""
    detail: str = ""
    reproducer: str = ""
    artifact_data: dict | None = None

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise InputError(f"outcome must be one of {OUTCOMES}, "
                             f"got {self.outcome!r}")

    def csv_row(self) -> list:
        return [self.suite, self.n,
                json.dumps(self.params, sort_keys=True, separators=(",", ":")),
                self.seed, self.outcome, round(self.millis, 3), self.artifact]


def _fits(value, hint) -> bool:
    """Whether a config value has a suite parameter's annotated type. A
    bool is not a number, an int is a float, a grid is a list or tuple."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_fits(value, h) for h in typing.get_args(hint))
    if origin is list:
        (item,) = typing.get_args(hint)
        return (isinstance(value, (list, tuple))
                and all(_fits(v, item) for v in value))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass(frozen=True)
class ExperimentConfig:
    suites: tuple[dict, ...]

    def __post_init__(self):
        if not self.suites:
            raise InputError("config error at suites: list must be non-empty")
        for i, spec in enumerate(self.suites):
            if "suite" not in spec:
                raise InputError(f"config error at suites[{i}]: missing 'suite'")
            name = spec["suite"]
            if name not in SUITES:
                raise InputError(f"config error at suites[{i}].suite: "
                                 f"unknown suite {name!r}")
            params = inspect.signature(SUITES[name]).parameters
            hints = typing.get_type_hints(SUITES[name])
            for key, value in spec.items():
                if key == "suite":
                    continue
                if key not in params:
                    raise InputError(f"config error at suites[{i}].{key}: "
                                     f"unknown parameter")
                if not _fits(value, hints[key]):
                    raise InputError(
                        f"config error at suites[{i}].{key}: expected "
                        f"{params[key].annotation}, got {value!r}")
            if "seed" not in spec:
                raise InputError(f"config error at suites[{i}].seed: "
                                 f"seeds must be explicit")
            for key, param in params.items():
                if param.default is param.empty and key not in spec:
                    raise InputError(f"config error at suites[{i}].{key}: "
                                     f"missing parameter")
            for key in ("n_grid", "k_grid"):
                if key in spec and not spec[key]:
                    raise InputError(f"config error at suites[{i}].{key}: "
                                     f"grid must be non-empty")
            if any(k < 1 for k in spec.get("k_grid", ())):
                raise InputError(f"config error at suites[{i}].k_grid: "
                                 f"levels must be at least 1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict) or "suites" not in d:
            raise InputError("config error at top level: missing 'suites'")
        if not isinstance(d["suites"], list) \
                or not all(isinstance(s, dict) for s in d["suites"]):
            raise InputError("config error at suites: expected a list of objects")
        return cls(suites=tuple(d["suites"]))


def _timed(fn, *args, **kw):
    t0 = time.monotonic()
    out = fn(*args, **kw)
    return out, 1000 * (time.monotonic() - t0)


# ---------------------------------------------------------------------------
# exhaustive small-digraph enumeration


def _pair_bits(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def _min_total_degrees(n: int) -> np.ndarray:
    """min total degree for every adjacency mask on n labeled vertices."""
    pairs = _pair_bits(n)
    bits = len(pairs)
    count = 1 << bits
    arr = np.arange(count, dtype=np.uint32)
    deg = np.zeros((n, count), dtype=np.uint8)
    for p, (u, v) in enumerate(pairs):
        b = ((arr >> np.uint32(p)) & np.uint32(1)).astype(np.uint8)
        deg[u] += b
        deg[v] += b
    return deg.min(axis=0)


def _graph_from_mask(n: int, mask: int, pairs) -> Digraph:
    edges = [pairs[p] for p in range(len(pairs)) if mask >> p & 1]
    return Digraph.from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# suites


def suite_ghouila_houri(max_n: int, mode: str = "exhaustive", trials: int = 0,
                        seed: int = 0, negative_controls: bool = True):
    """Every digraph with min total degree >= n is Hamiltonian when strongly
    connected, and >= n-1 yields a directed Hamilton path; assert the oracle
    confirms each qualifying instance. Exhaustive mode enumerates all
    digraphs on max_n <= 5 labeled vertices."""
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and max_n > 5:
        raise PreconditionError("exhaustive enumeration capped at n=5")
    n = max_n
    cyc = CyclePattern.directed(n)
    path = PathPattern.directed(n)

    def trial_rows(g: Digraph, degree: int, key: dict):
        strong = degree >= n and is_strongly_connected(g)
        claims = [("cycle", cyc)] if strong else []
        for claim, pattern in claims + [("path", path)]:
            res, ms = _timed(exact_embed, g, pattern)
            out = ("pass" if res.found else
                   "timeout" if res.status == "timeout" else "fail")
            yield TrialRecord("ghouila_houri", n, {"claim": claim, **key},
                              seed, out, ms, detail=res.status)

    if mode == "exhaustive":
        pairs = _pair_bits(n)
        mins = _min_total_degrees(n)
        for mask in np.flatnonzero(mins >= n - 1):
            mask = int(mask)
            yield from trial_rows(_graph_from_mask(n, mask, pairs),
                                  int(mins[mask]), {"mask": mask})
    else:
        for i in range(trials):
            g = gen_random_min_degree(n, n, seed=seed * 1_000_003 + i)
            degree = degree_profile(g).min_total
            if degree < n - 1:
                yield TrialRecord("ghouila_houri", n,
                                  {"claim": "path", "trial": i}, seed,
                                  "inconclusive",
                                  detail=f"degree {degree} below threshold")
                continue
            yield from trial_rows(g, degree, {"trial": i})
    if negative_controls:
        g = gen_split_cliques(8)
        res, ms = _timed(exact_embed, g, PathPattern.directed(8))
        out = "pass" if res.status == "none" else "fail"
        yield TrialRecord("ghouila_houri", 8,
                          {"claim": "path", "control": "split-cliques"},
                          seed, out, ms, detail="expected-absent")


def suite_main_theorem(n_grid: list[int], eta: float = 0.25,
                       pattern_sample: int = 6, seed: int = 0,
                       intra: float = 0.95, noise: float = 0.001):
    """Planted dense instances embed every sampled non-directed Hamilton
    orientation through the full partition + pipeline path; results are
    checker-validated and cross-checked against the oracle when n <= 14."""
    rng = random.Random(seed)
    for n in n_grid:
        t = 3 if n % 3 == 0 else 2
        sizes = [n // t] * t
        sizes[0] += n - sum(sizes)
        g = gen_blowup_tt(sizes, intra=intra, forward_noise=noise,
                          seed=seed + 7 * n)
        degree = degree_profile(g).min_total
        base = {"n": n, "t": t, "delta": degree}
        if degree < (1 + eta) * n - 1e-9:
            yield TrialRecord("main_theorem", n, base, seed, "inconclusive",
                              detail=f"degree {degree} below (1+eta)n")
            continue
        try:
            params = fit_decomposition_params(g)
            sp = decompose(g, params)
            rsp = reverse_for_embedding(sp)
        except (PreconditionError, InputError, ResourceError) as e:
            yield TrialRecord("main_theorem", n, base, seed, "fail",
                              detail=f"partition: {e}")
            continue
        # one directed-cycle control: must be rejected, never embedded blind
        ctrl, ms = _timed(embed_hamilton_orientation, g, rsp,
                          CyclePattern.directed(n))
        out = "pass" if ctrl.status == "rejected" else "fail"
        yield TrialRecord("main_theorem", n,
                          {**base, "pattern": "directed"}, seed, out, ms,
                          detail=f"control status {ctrl.status}")
        seen = set()
        attempts = 0
        while len(seen) < pattern_sample and attempts < 40 * pattern_sample:
            attempts += 1
            o = tuple(rng.random() < 0.5 for _ in range(n))
            c = CyclePattern(o)
            if c.is_directed():
                continue
            canon, _ = canonical_rotation(c)
            if canon.orientation in seen:
                continue
            seen.add(canon.orientation)
            res, ms = _timed(embed_hamilton_orientation, g, rsp, canon)
            if res.ok:
                out, detail = "pass", f"{res.case}/{res.method}"
                if n <= 14:
                    cross = exact_embed(g, canon)
                    if not cross.found:
                        out, detail = "fail", "oracle disagrees with pipeline"
            else:
                out, detail = "fail", f"{res.failure_step}"
            yield TrialRecord("main_theorem", n,
                              {**base, "pattern": canon.to_string()}, seed,
                              out, ms, detail=detail,
                              artifact_data=(res.embedding.to_json_dict()
                                             if res.embedding else None))


def suite_dichotomy(n: int, trials: int, eta: float = 0.3, alpha: float = 0.3,
                    tau: float = 0.25, seed: int = 0,
                    negative_controls: bool = True):
    """Qualifying instances always resolve to a sparse cut or an exact
    expander certificate; a 'neither' in exact mode is an implementation
    bug and fails the suite."""
    if n > 14:
        raise PreconditionError("dichotomy suite runs in exact mode, n <= 14")
    target = int(-(-(1 + eta) * n // 1))
    for i in range(trials):
        g = gen_random_min_degree(n, target, seed=seed * 1_000_003 + i)
        degree = degree_profile(g).min_total
        base = {"trial": i, "delta": degree, "alpha": alpha, "tau": tau}
        if degree < (1 + eta) * n - 1e-9:
            yield TrialRecord("dichotomy", n, base, seed, "inconclusive",
                              detail="degree below (1+eta)n")
            continue
        t0 = time.monotonic()
        try:
            res = sparse_or_expander(g, eta, alpha, tau)
            out = "pass" if res.kind in ("cut", "expander") else "fail"
            detail = res.kind
        except RuntimeError as e:
            out, detail = "fail", str(e)
        yield TrialRecord("dichotomy", n, base, seed, out,
                          1000 * (time.monotonic() - t0), detail=detail)
    if negative_controls:
        g = gen_split_cliques(n)          # degree far below (1+eta)n
        t0 = time.monotonic()
        try:
            sparse_or_expander(g, eta, alpha, tau)
            out, detail = "fail", "precondition should have rejected"
        except PreconditionError:
            out, detail = "pass", "expected-precondition-reject"
        yield TrialRecord("dichotomy", n, {"control": "split-cliques"},
                          seed, out, 1000 * (time.monotonic() - t0),
                          detail=detail)


def suite_pancyclicity(n_grid: list[int], k_grid: list[int],
                       gamma: float = 0.05, seed: int = 0,
                       orientations_per_length: int | None = 4):
    """Random dense instances: hunt every cycle length and orientation.
    Rows with min degree >= floor(3n/2)-1 (the k=1 spectrum threshold)
    assert full success; sparser rows only measure. Blown-up transitive
    tournament witnesses assert the absence side: no directed cycle longer
    than one block."""
    for n in n_grid:
        for k in k_grid:
            target = int(-(-(1 + 1 / (k + 1) + gamma) * n // 1))
            g = gen_random_min_degree(n, target, seed=seed + 101 * n + k)
            degree = degree_profile(g).min_total
            base = {"k": k, "gamma": gamma, "delta": degree}
            if degree < (1 + 1 / (k + 1) + gamma) * n - 1e-9:
                yield TrialRecord("pancyclicity", n, base, seed,
                                  "inconclusive", detail="degree below bound")
                continue
            gamma_eff = degree / n - 1 - 1 / (k + 1)
            report, ms = _timed(pancyclic_suite, g, k, min(gamma, gamma_eff),
                                seed=seed,
                                orientations_per_length=orientations_per_length)
            tally = report.outcomes()
            asserted = k == 1 and degree >= (3 * n) // 2 - 1
            if report.found_all():
                out = "pass"
            elif any(c["outcome"] == "timeout" for c in report.cells):
                out = "timeout"
            else:
                out = "fail" if asserted else "inconclusive"
            yield TrialRecord("pancyclicity", n, base, seed, out, ms,
                              detail=json.dumps(tally, sort_keys=True),
                              artifact_data={"cells": list(report.cells)})
    # absence side on blown-up transitive tournaments
    for k in k_grid:
        m = 5
        n = m * (k + 1)
        g = gen_blowup_tt([m] * (k + 1), intra=1.0, forward_noise=0.0, seed=0)
        bad = []
        t0 = time.monotonic()
        for length in range(m + 1, n + 1):
            res = exact_embed(g, CyclePattern.directed(length))
            if res.status != "none":
                bad.append((length, res.status))
        out = "pass" if not bad else "fail"
        yield TrialRecord("pancyclicity", n,
                          {"k": k, "witness": "blowup-tt", "block": m},
                          seed, out, 1000 * (time.monotonic() - t0),
                          detail=f"directed cycles beyond block: {bad}")


def suite_two_factor(n_grid: list[int], k_grid: list[int], trials: int,
                     seed: int = 0):
    """Qualifying instances decompose into at most k vertex-disjoint
    directed cycles covering every vertex; the blown-up tournament sitting
    just below the degree threshold must be rejected."""
    for n in n_grid:
        for k in k_grid:
            if n < 2 * (k + 1):
                continue
            target = n + n // (k + 1) - 1
            for i in range(trials):
                g = gen_random_min_degree(n, target,
                                          seed=seed * 257 + 31 * n + 7 * k + i)
                degree = degree_profile(g).min_total
                base = {"k": k, "trial": i, "delta": degree}
                if degree < target:
                    yield TrialRecord("two_factor", n, base, seed,
                                      "inconclusive",
                                      detail="degree below threshold")
                    continue
                t0 = time.monotonic()
                try:
                    cycles = two_factor(g, k)
                    out, detail = _validate_two_factor(g, cycles, k)
                except ResourceError as e:
                    out = "timeout" if "timed out" in str(e) else "fail"
                    detail = str(e)
                except PreconditionError as e:
                    out, detail = "fail", f"unexpected rejection: {e}"
                yield TrialRecord("two_factor", n, base, seed, out,
                                  1000 * (time.monotonic() - t0),
                                  detail=detail)
    # tightness: blown-up tournament sits exactly below the threshold
    for k in k_grid:
        m = 5
        n = m * (k + 1)
        g = gen_blowup_tt([m] * (k + 1), intra=1.0, forward_noise=0.0, seed=0)
        t0 = time.monotonic()
        try:
            two_factor(g, k)
            out, detail = "fail", "threshold witness was not rejected"
        except PreconditionError:
            out, detail = "pass", "expected-precondition-reject"
        yield TrialRecord("two_factor", n, {"k": k, "witness": "blowup-tt"},
                          seed, out, 1000 * (time.monotonic() - t0),
                          detail=detail)


def _validate_two_factor(g: Digraph, cycles, k: int) -> tuple[str, str]:
    if len(cycles) > k:
        return "fail", f"{len(cycles)} cycles exceed k={k}"
    used = 0
    for cyc in cycles:
        pattern = CyclePattern.directed(len(cyc))
        check = validate_embedding(g, pattern, cyc)
        if not check.valid:
            return "fail", f"invalid cycle: {check.errors}"
        mask = 0
        for v in cyc:
            mask |= 1 << v
        if mask & used:
            return "fail", "cycles overlap"
        used |= mask
    if used != g.vertex_mask:
        return "fail", "cycles do not cover every vertex"
    return "pass", f"{len(cycles)} cycles"


SUITES = {
    "ghouila_houri": suite_ghouila_houri,
    "main_theorem": suite_main_theorem,
    "dichotomy": suite_dichotomy,
    "pancyclicity": suite_pancyclicity,
    "two_factor": suite_two_factor,
}


# ---------------------------------------------------------------------------
# runner


def _run_suite(name: str, spec: dict) -> list[TrialRecord]:
    kwargs = {k: v for k, v in spec.items() if k != "suite"}
    for key in ("n_grid", "k_grid"):
        if key in kwargs:
            kwargs[key] = list(kwargs[key])
    return list(SUITES[name](**kwargs))


def run(config: ExperimentConfig, out_dir: str, config_path: str = "",
        only_suite: str | None = None, only_trial: int | None = None) -> dict:
    """Execute the config's suites and persist results under out_dir.

    Writes <suite>.csv per suite (fixed column schema), artifacts/*.json
    for records carrying data, and summary.json. Returns the summary dict;
    'failed' is True iff any record of any suite failed (timeouts and
    inconclusive rows never count)."""
    os.makedirs(out_dir, exist_ok=True)
    art_dir = os.path.join(out_dir, "artifacts")
    specs = [(i, s) for i, s in enumerate(config.suites)
             if only_suite is None or s["suite"] == only_suite]
    if only_suite is not None and not specs:
        raise InputError(f"config error: no suite named {only_suite!r}")
    summary: dict = {"suites": {}, "failures": [], "failed": False}
    for i, spec in specs:
        name = spec["suite"]
        records = _run_suite(name, spec)
        if only_trial is not None:
            if not 0 <= only_trial < len(records):
                raise InputError(f"config error: trial {only_trial} outside "
                                 f"0..{len(records) - 1} for suite {name}")
            records = [records[only_trial]]
        counts = {o: 0 for o in OUTCOMES}
        for idx, rec in enumerate(records):
            counts[rec.outcome] += 1
            rec.reproducer = (f"hamorient experiment --config "
                              f"{config_path or '<config>'} --suite {name} "
                              f"--trial {idx}")
            if rec.artifact_data is not None:
                os.makedirs(art_dir, exist_ok=True)
                rel = os.path.join("artifacts", f"{name}-{i}-{idx}.json")
                with open(os.path.join(out_dir, rel), "w") as f:
                    json.dump(rec.artifact_data, f, indent=1, sort_keys=True)
                rec.artifact = rel
            if rec.outcome == "fail":
                summary["failures"].append({
                    "suite": name, "trial": idx, "detail": rec.detail,
                    "reproducer": rec.reproducer,
                })
        path = os.path.join(out_dir, f"{name}.csv")
        mode = "a" if os.path.exists(path) and name in summary["suites"] else "w"
        with open(path, mode, newline="") as f:
            w = csv.writer(f)
            if mode == "w":
                w.writerow(CSV_COLUMNS)
            for rec in records:
                w.writerow(rec.csv_row())
        bucket = summary["suites"].setdefault(
            name, {o: 0 for o in OUTCOMES} | {"records": 0})
        for o in OUTCOMES:
            bucket[o] += counts[o]
        bucket["records"] += len(records)
    summary["failed"] = any(s["fail"] > 0 for s in summary["suites"].values())
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return summary
