"""Per-layer metrics, timed from outside the library.

A traced round replaces, for its duration, the public functions that each
module imports from another (``find_sparse_cut`` and ``certify_expander``
inside ``hamorient.decomposition``, ``exact_embed``, ``select_connectors``
and ``validate_embedding`` inside ``hamorient.embedding``) with wrappers
that open a span, and wraps the benchmark's own calls into the library
the same way. A span's self time is its duration minus the time of the
spans it encloses. Counters come from the values the wrapped calls
return. The originals are restored when the round ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import hamorient.decomposition as decomposition_mod
import hamorient.embedding as embedding_mod

# name -> unit; every traced run prints all of them.
PER_LAYER = {
    "expansion.cut_exact_s": "s",
    "expansion.cut_exact_calls": "count",
    "expansion.cut_heuristic_s": "s",
    "expansion.cut_heuristic_calls": "count",
    "expansion.certify_exact_s": "s",
    "expansion.certify_exact_sets": "count",
    "expansion.certify_sampled_s": "s",
    "expansion.certify_sampled_sets": "count",
    "decomposition.self_s": "s",
    "decomposition.verify_partition_s": "s",
    "decomposition.cut_fallbacks": "count",
    "embedding.self_s": "s",
    "embedding.connectors_s": "s",
    "embedding.fill_s": "s",
    "embedding.fill_calls": "count",
    "embedding.fill_nodes": "count",
    "embedding.validate_s": "s",
    "embedding.attempts": "count",
    "embedding.yield": "ratio",
    "embedding.oracle_fallbacks": "count",
    "embedding.fallback_s": "s",
    "oracle.refute_calls": "count",
    "oracle.refute_nodes": "count",
    "oracle.refute_dp_calls": "count",
    "oracle.found_calls": "count",
    "oracle.found_nodes": "count",
    "oracle.call_us": "us",
    "generators.gen_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span stack plus per-layer sums for one traced round."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.found_call_s: list[float] = []
        self._children: list[float] = []
        self.embedded = 0

    def timed(self, fn, record):
        """Wrap fn: time each call, hand (result, args, kwargs, duration,
        self time) to record, and charge the duration to the caller's span."""
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dt
            record(res, args, kwargs, dt, dt - child)
            return res
        return wrapper

    # -- records, one per wrapped function ---------------------------------

    def _cut(self, res, args, kwargs, dt, self_dt):
        self.sums[f"expansion.cut_{res.mode}_s"] += dt
        self.sums[f"expansion.cut_{res.mode}_calls"] += 1

    def _certify(self, res, args, kwargs, dt, self_dt):
        self.sums[f"expansion.certify_{res.mode}_s"] += dt
        self.sums[f"expansion.certify_{res.mode}_sets"] += res.checked_sets

    def _verify_partition(self, res, args, kwargs, dt, self_dt):
        self.sums["decomposition.verify_partition_s"] += dt

    def _decompose(self, res, args, kwargs, dt, self_dt):
        self.sums["decomposition.self_s"] += self_dt
        self.sums["decomposition.cut_fallbacks"] += sum(
            1 for f in res.flags if f.startswith("cleaning fell back"))

    def _connectors(self, res, args, kwargs, dt, self_dt):
        self.sums["embedding.connectors_s"] += dt

    def _embedding_search(self, res, args, kwargs, dt, self_dt):
        if kwargs.get("pins"):
            self.sums["embedding.fill_s"] += dt
            self.sums["embedding.fill_calls"] += 1
            self.sums["embedding.fill_nodes"] += res.nodes
        else:
            self.sums["embedding.fallback_s"] += dt
            self.sums["embedding.oracle_fallbacks"] += 1

    def _validate(self, res, args, kwargs, dt, self_dt):
        self.sums["embedding.validate_s"] += dt

    def _embed(self, res, args, kwargs, dt, self_dt):
        self.sums["embedding.self_s"] += self_dt
        self.sums["embedding.attempts"] += res.attempts
        self.embedded += res.status == "embedded"

    def _oracle(self, res, args, kwargs, dt, self_dt):
        if res.status == "found":
            self.sums["oracle.found_calls"] += 1
            self.sums["oracle.found_nodes"] += res.nodes
            self.found_call_s.append(dt)
        else:
            self.sums["oracle.refute_calls"] += 1
            self.sums["oracle.refute_nodes"] += res.nodes
            self.sums["oracle.refute_dp_calls"] += res.method.endswith("dp")

    @contextmanager
    def patched(self, api):
        """Yield a traced copy of api while the library's inner calls are
        wrapped; restore every original afterwards."""
        inner = [
            (decomposition_mod, "find_sparse_cut", self._cut),
            (decomposition_mod, "certify_expander", self._certify),
            (decomposition_mod, "verify_partition", self._verify_partition),
            (embedding_mod, "select_connectors", self._connectors),
            (embedding_mod, "exact_embed", self._embedding_search),
            (embedding_mod, "validate_embedding", self._validate),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in inner]
        try:
            for mod, name, record in inner:
                setattr(mod, name, self.timed(getattr(mod, name), record))
            yield {
                "decompose": self.timed(api["decompose"], self._decompose),
                "embed_hamilton_orientation": self.timed(
                    api["embed_hamilton_orientation"], self._embed),
                "exact_embed": self.timed(api["exact_embed"], self._oracle),
            }
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)


def layer_metrics(tracers: list[Tracer], gen_s: float, overhead_s: float) -> dict:
    """Per-round means over the traced rounds, in PER_LAYER order."""
    rounds = len(tracers)
    out = {}
    for name in PER_LAYER:
        out[name] = sum(t.sums[name] for t in tracers) / rounds
    attempts = sum(t.sums["embedding.attempts"] for t in tracers)
    embedded = sum(t.embedded for t in tracers)
    out["embedding.yield"] = embedded / attempts if attempts else 0.0
    calls = [dt for t in tracers for dt in t.found_call_s]
    out["oracle.call_us"] = statistics.median(calls) * 1e6 if calls else 0.0
    out["generators.gen_s"] = gen_s
    out["trace.overhead_s"] = overhead_s
    return out
