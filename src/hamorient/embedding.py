"""Embedding arbitrary Hamilton-cycle orientations across a class partition.

The pipeline turns a cycle orientation plus an ordered expander partition
into a plan: every cycle position is assigned a class, inter-class cycle
edges are realized by concrete host edges chosen up front (pinning their
endpoint positions), and each maximal same-class window of positions (a
"stretch") is then filled by an exact path search inside its class with
both endpoint vertices pinned. Three plan shapes exist:

  * long-run, nearly spanning: split the run at cumulative class sizes;
  * long-run, short of spanning: chop the non-run part into blocks,
    route the blocks by embedding an auxiliary path into a transitive
    tournament blueprint over per-class capacity slots, and thread the
    run through every class to cover the rest;
  * no long run (switches everywhere): cut the cycle at forward edges
    near cumulative class sizes, then repair each accumulated overshoot
    by relocating sink positions (two host edges into a shared head) and,
    for large overshoots, handing a short backward window to the next
    class between two extra edges (a one-position window is a sink, and
    is relocated like the others).

Runs are found in one place, `patterns.cyclic_runs`: the stretches of a
plan are the runs of its class assignment, `patterns.run_frame` frames a
longest directed run forward on [0, ell) for the long-run plans, and
`patterns.classify_case` reads its length for the case split. Each case
tries a fixed chain of (planner, frame, framed pattern) entries, and every
planner takes the same arguments. A failed plan raises a named step; an
embed that fails on a host too large for the whole-host oracle fallback
reports the step that blocked its first planner at the last attempt. The
no-long-run plan takes its sink positions from `patterns.switches` and
frames the pattern by its canonical rotation, whose position 0 is a
source.

Each planner owns its geometry (`_segment_cuts` for case 2, `_block_split`
for case 1b) and trusts what `embed_hamilton_orientation` guarantees: two
or more non-empty classes tiling the host, the case split, and
beta_eff <= min size / 3.5n.

Every plan pins positions through one ledger (`_Ledger`),
whose `pins` is the only record of what is pinned; pinning a position
twice fails the plan with `<case>:pins`. There is no tuning object:
beta = 0.1, rho = 0.0025, block cap 6 and 16 connector attempts are fixed
module constants.

Every produced embedding is re-validated by the independent checker
before being returned; failures are structured, never silent.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .bitset import bits_of, mask_of
from .digraph import (
    Digraph,
    degree_profile,
    double_edge_graph,
    strongly_connected_components,
)
from .errors import InputError, PreconditionError, ResourceError
from .oracle import exact_embed, validate_embedding
from .patterns import (
    CyclePattern,
    PathPattern,
    canonical_rotation,
    classify_case,
    cyclic_runs,
    necklace_classes,
    reflect,
    rotate,
    run_frame,
    switches,
)

_EPS = 1e-9

# Fixed pipeline constants. _BETA gates the long-run/switchy dichotomy
# (capped per host by the smallest class); _RHO * n positions per class are
# kept out of case 1b's block capacities; case 1b tries block caps around
# _BLOCK_CAP; an embed makes up to _CONNECTOR_ATTEMPTS connector selections
# before the oracle fallback. Every exact search (stretch fills, the oracle
# fallback) is bounded by the oracle's node budget, not by time.
_BETA = 0.1
_RHO = 0.0025
_BLOCK_CAP = 6
_CONNECTOR_ATTEMPTS = 16
# The whole-host oracle fallback runs only on hosts of at most this many
# vertices. Above it, planner failures stay visible as planner steps
# instead of being settled, or timed out, by one whole-host search.
_FALLBACK_MAX_N = 64


@dataclass(frozen=True)
class Embedding:
    """Position -> vertex map realizing a pattern in a host."""
    mapping: tuple[int, ...]
    pattern: str = ""

    def to_json_dict(self) -> dict:
        return {"mapping": [[pos, v] for pos, v in enumerate(self.mapping)],
                "pattern": self.pattern}


@dataclass(frozen=True)
class PipelineResult:
    status: str                      # embedded | failed | rejected
    embedding: Embedding | None
    case: str
    method: str                      # pipeline | oracle | none
    attempts: int
    failure_step: str | None
    audit: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "embedded"


class _PlanError(Exception):
    def __init__(self, step: str, detail: str = ""):
        super().__init__(f"{step}: {detail}" if detail else step)
        self.step = step


# ---------------------------------------------------------------------------
# transitive-tournament path embedding


def tt_embed_path(path: PathPattern, size: int) -> tuple[int, ...]:
    """Ranks realizing an oriented path inside a transitive tournament.

    The tournament on `size` ranks has an edge a -> b exactly when a < b.
    Two-pointer rule: a forward edge takes the lowest unused rank for the
    current vertex, a backward edge the highest; the final vertex takes
    the meeting point. Output ranks are distinct and satisfy the
    tournament relation for every path edge.
    """
    if path.length > size:
        raise PreconditionError(
            f"path on {path.length} vertices cannot fit {size} ranks")
    lo, hi = 0, size - 1
    ranks = []
    for fwd in path.orientation:
        if fwd:
            ranks.append(lo)
            lo += 1
        else:
            ranks.append(hi)
            hi -= 1
    ranks.append(lo)
    return tuple(ranks)


# ---------------------------------------------------------------------------
# connector selection


def _ranked(rows: list[int], pool: int, into: int) -> list[int]:
    """The vertices v of pool by descending |rows[v] & into|, ties to the
    smaller vertex."""
    return sorted(bits_of(pool),
                  key=lambda v: (-(rows[v] & into).bit_count(), v))


def _edge_candidates(g: Digraph, xm: int, ym: int):
    for u in _ranked(g.out_adj, xm, ym):
        for v in _ranked(g.in_adj, g.out_adj[u] & ym, xm):
            yield u, v


def select_connectors(g: Digraph, x_mask: int, y_mask: int, count: int,
                      excluded: int = 0, skip: int = 0) -> list[tuple[int, int]]:
    """Pick `count` pairwise-disjoint edges from X to Y avoiding excluded
    vertices, preferring endpoints of maximal cross-degree (ties to the
    smaller vertex). `skip` discards that many leading candidates, giving
    deterministic alternative selections for retry loops.
    """
    if count < 1:
        raise InputError(f"connector count must be at least 1, got {count}")
    xm = x_mask & ~excluded
    ym = y_mask & ~excluded
    if not any(g.out_adj[u] & ym for u in bits_of(xm)):
        raise PreconditionError("no edges available between the given sets")
    chosen: list[tuple[int, int]] = []
    burn = skip
    used = 0
    for u, v in _edge_candidates(g, xm, ym):
        if (used >> u & 1) or (used >> v & 1):
            continue
        if burn > 0:
            burn -= 1
            continue
        chosen.append((u, v))
        used |= (1 << u) | (1 << v)
        if len(chosen) == count:
            return chosen
    raise ResourceError(f"connector pool exhausted: found {len(chosen)} "
                        f"of {count} disjoint edges")


def _pick_gadget(g: Digraph, xm: int, ym: int, skip: int = 0) -> tuple[int, int, int]:
    """Two edges from X into one shared head in Y: (u1, u2, w)."""
    burn = skip
    for w in _ranked(g.in_adj, ym, xm):
        ins = g.in_adj[w] & xm
        if ins.bit_count() < 2:
            continue
        if burn > 0:
            burn -= 1
            continue
        us = _ranked(g.out_adj, ins, ym)
        return us[0], us[1], w
    raise _PlanError("case2:gadget", "no head with two available in-edges")


# ---------------------------------------------------------------------------
# frames: rotate/reflect a pattern into the shape a planner expects


@dataclass(frozen=True)
class _Frame:
    n: int
    offset: int
    reflected: bool

    def pattern(self, c: CyclePattern) -> CyclePattern:
        c1 = reflect(c) if self.reflected else c
        return rotate(c1, self.offset)

    def pull_back(self, mapping2) -> tuple[int, ...]:
        out = [0] * self.n
        for i, v in enumerate(mapping2):
            j = (i + self.offset) % self.n
            p = (self.n - j) % self.n if self.reflected else j
            out[p] = v
        return tuple(out)


# ---------------------------------------------------------------------------
# stretches


@dataclass(frozen=True)
class Stretch:
    start: int        # first cycle position (in the framed pattern)
    length: int       # positions covered; may wrap cyclically
    cls: int          # class whose pool fills it


@dataclass
class EmbedPlan:
    case: str
    class_at: list[int]              # per framed position, class index
    pins: dict[int, int]             # framed position -> host vertex
    connectors: list[dict]
    notes: list[str] = field(default_factory=list)

    def stretches(self) -> list[Stretch]:
        return [Stretch(*r) for r in cyclic_runs(self.class_at)]


def _check_plan(plan: EmbedPlan, sizes: list[int]) -> list[Stretch]:
    """Budget conservation + pinned-endpoint sanity; returns stretches."""
    n = len(plan.class_at)
    counts = [0] * len(sizes)
    for cls in plan.class_at:
        counts[cls] += 1
    if counts != list(sizes):
        raise _PlanError(f"{plan.case}:budget", f"class position counts "
                         f"{counts} != class sizes {list(sizes)}")
    sts = plan.stretches()
    for s in sts:
        first = s.start
        last = (s.start + s.length - 1) % n
        if s.length == 1:
            if first not in plan.pins:
                raise _PlanError(f"{plan.case}:pins",
                                 f"singleton stretch at {first} unpinned")
        else:
            if first not in plan.pins or last not in plan.pins:
                raise _PlanError(f"{plan.case}:pins",
                                 f"stretch at {first} (len {s.length}) "
                                 f"missing an endpoint pin")
    pinned = list(plan.pins.values())
    if len(set(pinned)) != len(pinned):
        raise _PlanError(f"{plan.case}:pins", "two positions pinned to one vertex")
    return sts


def _fill_stretches(g: Digraph, c2: CyclePattern, plan: EmbedPlan,
                    sts: list[Stretch], pools: list[int]) -> tuple[int, ...]:
    """Fill every stretch of the plan (sts, as _check_plan returns them) by
    exact in-class path search with pinned ends; a stretch that cannot be
    filled fails the plan with `<case>:fill:class<k>:<reason>`."""
    n = c2.n
    o = c2.orientation
    mapping: list[int | None] = [None] * n
    used = 0
    for pos, v in plan.pins.items():
        mapping[pos] = v
        used |= 1 << v
    by_class: dict[int, list[Stretch]] = {}
    for s in sts:
        by_class.setdefault(s.cls, []).append(s)
    for cls in sorted(by_class):
        group = sorted(by_class[cls], key=lambda s: (s.length, s.start))
        for s in group:
            if s.length == 1:
                continue
            first = s.start
            last = (s.start + s.length - 1) % n
            vstart = plan.pins[first]
            vend = plan.pins[last]
            pattern = PathPattern(tuple(o[(s.start + i) % n]
                                        for i in range(s.length - 1)))
            allowed = (pools[cls] & ~used) | (1 << vstart) | (1 << vend)
            step = f"{plan.case}:fill:class{cls}"
            if s is group[-1] and allowed.bit_count() != s.length:
                raise _PlanError(f"{step}:leftover", f"pool {allowed.bit_count()}"
                                                     f" != stretch {s.length}")
            if allowed.bit_count() < s.length:
                raise _PlanError(f"{step}:pool", f"pool {allowed.bit_count()}"
                                                 f" < stretch {s.length}")
            res = exact_embed(g, pattern,
                              pins={0: vstart, pattern.length - 1: vend},
                              allowed=allowed)
            if not res.found:
                raise _PlanError(f"{step}:{res.status}", f"stretch@{s.start}")
            for i, v in enumerate(res.mapping):
                mapping[(s.start + i) % n] = v
                used |= 1 << v
    if any(v is None for v in mapping):
        raise _PlanError(f"{plan.case}:fill:unassigned")
    return tuple(mapping)   # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# planners (all work on a framed pattern)


class _Ledger:
    """The pins of one plan and the connectors that placed them.

    `pins` (framed position -> host vertex) is the only record of what is
    pinned: the vertices in use are read from it, and pinning a position
    a second time raises `<case>:pins`. A connector selection that finds
    too few edges raises `<case>:connectors`."""

    def __init__(self, case: str, g: Digraph, pools: list[int], attempt: int):
        self.case = case
        self.g = g
        self.pools = pools
        self.attempt = attempt
        self.pins: dict[int, int] = {}
        self.connectors: list[dict] = []

    def used(self) -> int:
        return mask_of(self.pins.values())

    def _refuse_pinned(self, kind: str, positions: list[int]) -> None:
        if len(set(positions)) < len(positions) \
                or any(p in self.pins for p in positions):
            raise _PlanError(f"{self.case}:pins",
                             f"{kind} would double-pin a position")

    def pin(self, record: dict, *placed: tuple[int, int]) -> None:
        """Pin each (position, vertex) of placed and keep the record."""
        self._refuse_pinned(record["kind"], [p for p, _ in placed])
        self.pins.update(placed)
        self.connectors.append(record)

    def select(self, xc: int, yc: int, count: int) -> list[tuple[int, int]]:
        """`count` disjoint host edges from class xc into class yc between
        unpinned vertices, the attempt-th alternative selection."""
        try:
            return select_connectors(self.g, self.pools[xc], self.pools[yc],
                                     count, excluded=self.used(),
                                     skip=self.attempt)
        except (PreconditionError, ResourceError) as e:
            raise _PlanError(f"{self.case}:connectors", str(e)) from None

    def connect(self, kind: str, xc: int, yc: int, tail: int, head: int) -> None:
        """Realize the cycle edge tail -> head, from class xc into class yc,
        by a host edge between unpinned vertices."""
        self._refuse_pinned(kind, [tail, head])
        (a, b), = self.select(xc, yc, 1)
        self.pin({"kind": kind, "edge": [a, b]}, (tail, a), (head, b))


def _plan_case1a(g: Digraph, c2: CyclePattern, pools: list[int], ell: int,
                 beta_eff: float, attempt: int) -> EmbedPlan:
    n = c2.n
    t = len(pools)
    sizes = [m.bit_count() for m in pools]
    cum = [0]
    for m in sizes:
        cum.append(cum[-1] + m)
    if cum[t - 1] > ell - 1:
        raise _PlanError("case1a:boundaries",
                         f"cut {cum[t - 1]} beyond run end {ell - 1}")
    if c2.orientation[n - 1]:
        raise _PlanError("case1a:frame", "wrap edge not oriented off the source")
    ledger = _Ledger("case1a", g, pools, attempt)
    ledger.connect("wrap", 0, t - 1, 0, n - 1)
    for j in range(1, t):
        ledger.connect("run-boundary", j - 1, j, cum[j] - 1, cum[j])
    class_at = []
    for j in range(t):
        class_at.extend([j] * sizes[j])
    return EmbedPlan("case1a", class_at, ledger.pins, ledger.connectors)


def _block_split(o: tuple[bool, ...], ell: int,
                 d: int) -> tuple[list[int], list[int], PathPattern] | None:
    """(block_sizes, starts, aux): the positions [ell, n) after the framed
    run cut into q = ceil((n - ell)/d) blocks as equal as possible, block i
    at [starts[i], starts[i] + block_sizes[i]); aux edge i joins block i to
    block i+1. None if the run spans the cycle or a block has fewer than
    d/2 positions or one (its two end pins would collide)."""
    rest = len(o) - ell
    if rest == 0:
        return None
    q = -(-rest // d)
    base, extra = divmod(rest, q)
    sizes = [base + (i < extra) for i in range(q)]
    if sizes[-1] * 2 < d or sizes[-1] < 2:
        return None
    starts = [ell + base * i + min(i, extra) for i in range(q)]
    return sizes, starts, PathPattern(tuple(o[s - 1] for s in starts[1:]))


def _plan_case1b(g: Digraph, c2: CyclePattern, pools: list[int], ell: int,
                 beta_eff: float, attempt: int) -> EmbedPlan:
    n = c2.n
    t = len(pools)
    sizes = [m.bit_count() for m in pools]
    rho_n = _RHO * n

    d0 = _BLOCK_CAP
    for d in list(range(d0, 1, -1)) + list(range(d0 + 1, 2 * d0 + 1)):
        split = _block_split(c2.orientation, ell, d)
        if split is None:
            continue
        block_sizes, starts, aux = split
        caps = [max(0, int((sizes[j] - rho_n) // d)) for j in range(t)]
        if sum(caps) < len(block_sizes):
            continue
        ranks = tt_embed_path(aux, sum(caps))
        cls_of_rank = [j for j in range(t) for _ in range(caps[j])]
        blk_cls = [cls_of_rank[r] for r in ranks]
        residual = sizes[:]
        for j, sz in zip(blk_cls, block_sizes):
            residual[j] -= sz
        if all(r >= 2 for r in residual):
            break
    else:
        raise _PlanError("case1b:block-sizing",
                         "no block cap yields feasible capacities")
    q = len(block_sizes)

    run_cut = [0]
    for j in range(t):
        run_cut.append(run_cut[-1] + residual[j])
    # the run [0, ell) threads the classes in order; the blocks tiling
    # [ell, n) take their blueprint classes
    class_at = [j for j in range(t) for _ in range(residual[j])] \
        + [j for j, sz in zip(blk_cls, block_sizes) for _ in range(sz)]

    ledger = _Ledger("case1b", g, pools, attempt)
    # wrap edge: position 0 (class 0) <- position n-1 (last block's class)
    if class_at[n - 1] != 0:
        ledger.connect("wrap", 0, class_at[n - 1], 0, n - 1)
    # run end (class t-1) <- first block (its class)
    if blk_cls[0] != t - 1:
        ledger.connect("run-exit", blk_cls[0], t - 1, ell, ell - 1)
    for j in range(t - 1):
        ledger.connect("run-boundary", j, j + 1,
                       run_cut[j + 1] - 1, run_cut[j + 1])
    for i in range(q - 1):
        a_cls, b_cls = blk_cls[i], blk_cls[i + 1]
        if a_cls == b_cls:
            continue                       # merged into one stretch
        boundary = starts[i + 1]
        if aux.orientation[i]:             # edge: last of block i -> first of i+1
            ledger.connect("block-boundary", a_cls, b_cls, boundary - 1, boundary)
        else:                              # edge: first of block i+1 -> last of i
            ledger.connect("block-boundary", b_cls, a_cls, boundary, boundary - 1)
    return EmbedPlan("case1b", class_at, ledger.pins, ledger.connectors,
                     notes=[f"block_cap={d}", f"blocks={q}"])


def _case2_sink_positions(sinks: list[int], lo: int, hi: int, want: int,
                          taken: set[int], gap: int) -> list[int] | None:
    """The first `want` of the ascending sink positions in the open window
    (lo, hi) with pairwise distance at least gap, avoiding taken positions
    and their neighbors."""
    out: list[int] = []
    for p in sinks:
        if len(out) == want or p >= hi:
            break
        clash = {p - 1, p, p + 1} & taken
        if p > lo and not clash and (not out or p - out[-1] >= gap):
            out.append(p)
    return out if len(out) == want else None


def _segment_cuts(o: tuple[bool, ...], sizes: list[int],
                  bar: float) -> tuple[list[int], list[int]]:
    """(bounds, overshoots): o cut into consecutive segments, segment e at
    [bounds[e], bounds[e+1]). Cut e+1 is the first at or past the
    cumulative class size that ends its segment on a forward edge, and
    overshoots[e] is how far past it lies; the last segment takes the rest.
    Running off o, an overshoot above bar or an over-long last segment
    fails with case2:segments."""
    n = len(o)
    bounds, overshoots, target = [0], [], 0
    for s in range(len(sizes) - 1):
        target += sizes[s]
        cut = max(bounds[-1] + 1, target)
        while cut < n and not o[cut - 1]:   # segment ends on edge (cut-1, cut)
            cut += 1
        if cut >= n:
            raise _PlanError("case2:segments", "ran off the pattern hunting a forward edge")
        d = cut - target
        if d > bar + _EPS:
            raise _PlanError("case2:segments",
                             f"overshoot {d} at boundary {s} outside [0, beta*n]")
        bounds.append(cut)
        overshoots.append(d)
    if n - bounds[-1] > sizes[-1]:
        raise _PlanError("case2:segments", "final segment exceeds the last class size")
    return bounds + [n], overshoots


def _plan_case2(g: Digraph, c2: CyclePattern, pools: list[int], ell: int,
                beta_eff: float, attempt: int) -> EmbedPlan:
    n = c2.n
    t = len(pools)
    o = c2.orientation
    if o[n - 1]:
        raise _PlanError("case2:frame", "position 0 is not a source")
    bounds, overshoots = _segment_cuts(o, [m.bit_count() for m in pools],
                                       beta_eff * n)
    class_at = [e for e in range(t) for _ in range(bounds[e], bounds[e + 1])]

    ledger = _Ledger("case2", g, pools, attempt)
    notes: list[str] = []
    ledger.connect("wrap", 0, t - 1, 0, n - 1)
    for s in range(1, t):
        b = bounds[s]
        ledger.connect("matching", s - 1, s, b - 1, b)

    margin = int(2 * beta_eff * n)
    gap = max(1, int(beta_eff * n))
    _, all_sinks = switches(c2)

    for e in range(t - 1):
        d = overshoots[e]
        if d == 0:
            continue
        seg_lo, seg_hi = bounds[e], bounds[e + 1]
        src = seg_hi - 1                        # a source position
        qpos = src
        while qpos > seg_lo and not o[qpos - 1]:
            qpos -= 1
        pstar_len = src - qpos + 1
        if qpos <= seg_lo:
            raise _PlanError("case2:pstar", "backward run escapes its segment")

        # one sink relocation, and a hand-off window at the foot qpos of
        # the backward run ending the segment takes the rest of the
        # overshoot; a run too short for that leaves more to relocations
        n_gadget, handoff = 1, d - 1
        if handoff > 0 and handoff > pstar_len - 2:
            n_gadget = d - (pstar_len - 2)
            handoff = pstar_len - 2
            if handoff <= 0:
                raise _PlanError("case2:handoff",
                                 f"backward run too short ({pstar_len}) "
                                 f"for overshoot {d}")

        handoff_zone = set(range(qpos - 1, qpos + handoff + 1)) if handoff else set()
        if handoff_zone & ledger.pins.keys():
            raise _PlanError("case2:handoff",
                             "hand-off window collides with pinned positions")
        taken = ledger.pins.keys() | handoff_zone
        sinks = _case2_sink_positions(all_sinks, seg_lo + margin,
                                      seg_hi - 1 - margin, n_gadget, taken, gap)
        if sinks is None:
            sinks = _case2_sink_positions(all_sinks, seg_lo + 1, seg_hi - 2,
                                          n_gadget, taken, 3)
            if sinks is not None:
                notes.append(f"boundary {e}: sink spacing relaxed")
        if sinks is None:
            raise _PlanError("case2:sinks",
                             f"{n_gadget} relocatable sinks not found in "
                             f"segment {e}")
        if handoff == 1:        # the window is the sink at qpos: relocate it
            sinks.append(qpos)
            handoff = 0
        for p in sinks:
            used = ledger.used()
            u1, u2, w = _pick_gadget(g, pools[e] & ~used, pools[e + 1] & ~used,
                                     skip=attempt)
            ledger.pin({"kind": "sink-gadget", "position": p,
                        "edges": [[u1, w], [u2, w]]},
                       (p - 1, u1), (p, w), (p + 1, u2))
            class_at[p] = e + 1
        if handoff > 0:
            p2 = qpos + handoff - 1
            (x1, y1), (x2, y2) = ledger.select(e, e + 1, 2)
            ledger.pin({"kind": "hand-off", "window": [qpos, p2],
                        "edges": [[x1, y1], [x2, y2]]},
                       (qpos - 1, x1), (qpos, y1), (p2 + 1, x2), (p2, y2))
            for p in range(qpos, p2 + 1):
                class_at[p] = e + 1
    return EmbedPlan("case2", class_at, ledger.pins, ledger.connectors, notes)


# ---------------------------------------------------------------------------
# the pipeline driver


def embed_hamilton_orientation(g: Digraph, sp, c: CyclePattern) -> PipelineResult:
    """Embed an arbitrary Hamilton-cycle orientation using the ordered
    class partition (classes must be in embedding order: forward edge
    density from earlier to later classes).

    The directed cycle is rejected whenever the partition has two or more
    classes (it may genuinely be absent then). A single class goes
    straight to the exact spanning search. Otherwise each attempt draws a
    fresh connector selection; after _CONNECTOR_ATTEMPTS attempts, hosts
    of at most _FALLBACK_MAX_N vertices fall back to the exact spanning
    search. The returned embedding always passes the independent checker.
    Classes that are not non-empty, pairwise-disjoint vertex sets covering
    the host raise InputError.
    """
    if c.n != g.n:
        raise InputError(f"pattern spans {c.n} vertices, host has {g.n}")
    pools = list(sp.classes)
    t = len(pools)
    sizes = [m.bit_count() for m in pools]
    union = 0
    for m in pools:
        union |= m
    if not all(pools) or union != g.vertex_mask or sum(sizes) != g.n:
        raise InputError("partition classes must be non-empty, pairwise "
                         "disjoint vertex sets that cover the host")
    audit: dict = {"t": t, "sizes": sizes}

    if t >= 2 and c.is_directed():
        return PipelineResult("rejected", None, "directed", "none", 0,
                              "precondition:directed-cycle", audit)
    if t == 1:
        return _oracle_step(g, c, "single-class", 1, audit)

    n = g.n
    eta_eff = min(sizes) / n
    beta_eff = min(_BETA, min(sizes) / (3.5 * n))
    audit["eta_eff"] = eta_eff
    audit["beta_eff"] = beta_eff
    cross_ok = all(any(g.out_adj[u] & pools[j] for u in bits_of(pools[i]))
                   for i in range(t) for j in range(i + 1, t))
    audit["forward_density_ok"] = cross_ok

    # frame the longest directed run forward on [0, ell); case 1 iff it
    # spans at least floor(beta_eff * n) vertices. Each chain entry is
    # (planner, frame, framed pattern); case 2 plans on the canonical
    # rotation, whose position 0 is a source.
    offset, reflected, ell = run_frame(c)
    case, _ = classify_case(c, beta_eff)
    audit["ell"] = ell
    run = _Frame(n, offset, reflected)
    c_run = run.pattern(c)
    plan_1a = (_plan_case1a, run, c_run)
    plan_1b = (_plan_case1b, run, c_run)
    if case == "case1":
        chain = [plan_1a, plan_1b] if n - ell <= eta_eff * n / 2 \
            else [plan_1b, plan_1a]
    else:
        c_src, src_offset = canonical_rotation(c)
        chain = [(_plan_case2, _Frame(n, src_offset, False), c_src), plan_1b]

    # failure_step is the step that blocked the chain's first planner at
    # the last attempt; every failure's detail stays in audit["failures"]
    failures: list[str] = []
    attempts = 0
    step = ""
    for attempt in range(_CONNECTOR_ATTEMPTS):
        attempts = attempt + 1
        progressed = False
        for i, (planner, frame, c2) in enumerate(chain):
            try:
                plan = planner(g, c2, pools, ell, beta_eff, attempt)
                sts = _check_plan(plan, sizes)
                progressed = True
                mapping = frame.pull_back(
                    _fill_stretches(g, c2, plan, sts, pools))
                check = validate_embedding(g, c, mapping, spanning=True)
                if not check.valid:
                    raise _PlanError(f"{plan.case}:checker", str(check.errors))
            except _PlanError as e:
                failures.append(f"attempt {attempt}: {e}")
                if i == 0:
                    step = e.step
                continue
            audit["connectors"] = plan.connectors
            audit["notes"] = plan.notes
            audit["failures"] = failures
            return PipelineResult("embedded", Embedding(mapping, c.to_string()), plan.case,
                                  "pipeline", attempts, None, audit)
        if not progressed and attempt >= 2:
            break                    # plans fail before connector choice matters
    audit["failures"] = failures
    if n <= _FALLBACK_MAX_N:
        return _oracle_step(g, c, case, attempts, audit)
    return PipelineResult("failed", None, case, "pipeline", attempts,
                          step, audit)


def _oracle_step(g: Digraph, c: CyclePattern, case: str, attempts: int,
                 audit: dict) -> PipelineResult:
    """The exact spanning search's answer, held to the same checker as a
    planned embedding: a mapping the checker rejects fails with
    oracle:checker. The search's node count and time go into the audit."""
    res = exact_embed(g, c)
    audit["nodes"] = res.nodes
    audit["elapsed"] = res.elapsed
    if not res.found:
        return PipelineResult("failed", None, case, "oracle", attempts,
                              f"oracle:{res.status}", audit)
    if not validate_embedding(g, c, res.mapping, spanning=True).valid:
        return PipelineResult("failed", None, case, "oracle", attempts,
                              "oracle:checker", audit)
    return PipelineResult("embedded", Embedding(res.mapping, c.to_string()),
                          case, "oracle", attempts, None, audit)


# ---------------------------------------------------------------------------
# 2-factors, cycle spectrum


def two_factor(g: Digraph, k: int) -> list[tuple[int, ...]]:
    """Cover V(G) by at most k vertex-disjoint directed cycles.

    Requires min total degree at least n + floor(n/(k+1)) - 1 and
    n >= 2(k+1). Every strongly connected component then exceeds
    floor(n/(k+1)) vertices, there are at most k of them, and each one
    carries a directed Hamilton cycle found by exact search.
    """
    n = g.n
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    need = n + n // (k + 1) - 1
    prof = degree_profile(g)
    if prof.min_total < need:
        raise PreconditionError(f"min total degree {prof.min_total} < {need} "
                                f"= n + floor(n/(k+1)) - 1")
    if n < 2 * (k + 1):
        raise PreconditionError(f"need n >= 2(k+1) = {2 * (k + 1)}, got {n}")
    comps = strongly_connected_components(g)
    floor_bound = n // (k + 1)
    for comp in comps:
        if comp.bit_count() <= floor_bound:
            raise PreconditionError(
                f"a strongly connected component has {comp.bit_count()} "
                f"<= floor(n/(k+1)) = {floor_bound} vertices")
    if len(comps) > k:
        raise PreconditionError(f"{len(comps)} strongly connected components "
                                f"exceed the budget k={k}")
    cycles: list[tuple[int, ...]] = []
    for comp in comps:
        size = comp.bit_count()
        pattern = CyclePattern.directed(size)
        res = exact_embed(g, pattern, allowed=comp)
        if res.status == "timeout":
            raise ResourceError(f"search timed out on a component of {size}")
        if not res.found:
            raise ResourceError(
                f"no directed Hamilton cycle in a component of {size} "
                f"(degree hypothesis should force one)")
        cycles.append(res.mapping)
    return cycles


@dataclass(frozen=True)
class PancyclicReport:
    cells: tuple[dict, ...]

    def outcomes(self) -> dict:
        tally: dict[str, int] = {}
        for cell in self.cells:
            tally[cell["outcome"]] = tally.get(cell["outcome"], 0) + 1
        return tally

    def found_all(self) -> bool:
        return all(cell["outcome"] == "found" for cell in self.cells)


def pancyclic_suite(g: Digraph, k: int, gamma: float, seed: int = 0,
                    lengths=None,
                    orientations_per_length: int | None = 4) -> PancyclicReport:
    """Hunt an oriented cycle of every length and sampled orientation.

    Strategy chain per cell: (1) a cycle of that length in the
    double-edge graph realizes every orientation at once; (2) otherwise,
    exact search on the whole host. Both searches run at every length
    within the oracle's node budget. Positive cells are checker-validated;
    "none" cells are exact-search proofs and "timeout" cells ran out of
    budget.
    """
    n = g.n
    prof = degree_profile(g)
    need = (1 + 1 / (k + 1) + gamma) * n
    if prof.min_total < need - _EPS:
        raise PreconditionError(f"min total degree {prof.min_total} < "
                                f"{need:.2f} = (1 + 1/(k+1) + gamma) n")
    rng = random.Random(seed)
    gstar = double_edge_graph(g)
    lengths = list(lengths) if lengths is not None else list(range(3, n + 1))
    cells: list[dict] = []
    for length in lengths:
        patterns = _sample_patterns(length, orientations_per_length, rng)
        # a double-edge ring realizes every orientation of its length; the
        # first cell of a length carries the ring search in its millis
        t0 = time.monotonic()
        ring = exact_embed(gstar, CyclePattern.directed(length)).mapping
        for pat in patterns:
            if ring is not None:
                outcome, method, mapping = "found", "double-edge", ring
            else:
                res = exact_embed(g, pat)
                outcome, method, mapping = res.status, "oracle", res.mapping
            if mapping is not None:
                check = validate_embedding(g, pat, mapping)
                if not check.valid:
                    outcome, method = "failed", method + "+checker"
            t1 = time.monotonic()
            cells.append({
                "length": length,
                "pattern": pat.to_string(),
                "outcome": outcome,
                "method": method,
                "millis": round(1000 * (t1 - t0), 3),
            })
            t0 = t1
    return PancyclicReport(tuple(cells))


def _sample_patterns(length: int, count: int | None, rng: random.Random):
    if count is None:                # exhaustive up to rotation
        return necklace_classes(length)
    pats = [CyclePattern.directed(length)]
    if length % 2 == 0:
        pats.append(CyclePattern.antidirected(length))
    seen = {p.orientation for p in pats}
    guard = 0
    while len(pats) < count + 2 and guard < 50 * count:
        guard += 1
        o = tuple(rng.random() < 0.5 for _ in range(length))
        canon, _ = canonical_rotation(CyclePattern(o))
        if canon.orientation not in seen:
            seen.add(canon.orientation)
            pats.append(canon)
    return pats

