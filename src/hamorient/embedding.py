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

The longest directed run is framed once per embed, and its length picks
the plan order. Every plan pins positions through one ledger (`_Ledger`),
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

from .bitset import bit_list, bits_of, int_floor, mask_of
from .digraph import (
    Digraph,
    degree_profile,
    double_edge_graph,
    strongly_connected_components,
)
from .errors import (
    CapabilityError,
    InputError,
    PreconditionError,
    ResourceError,
)
from .oracle import (
    SPANNING_CAP,
    exact_embed,
    validate_embedding,
)
from .patterns import (
    CyclePattern,
    PathPattern,
    _case1b_blocks,
    _directed_runs,
    _framed_run_length,
    canonical_rotation,
    necklace_classes,
    partition_case2,
    reflect,
    rotate,
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


@dataclass(frozen=True)
class Embedding:
    """Position -> vertex map realizing a pattern in a host."""
    mapping: tuple[int, ...]
    pattern: str = ""

    def to_json_dict(self) -> dict:
        return {"mapping": list(self.mapping), "pattern": self.pattern}


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
        self.detail = detail


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


def _edge_candidates(g: Digraph, xm: int, ym: int):
    xs = sorted(bit_list(xm),
                key=lambda u: (-(g.out_adj[u] & ym).bit_count(), u))
    for u in xs:
        outs = sorted(bit_list(g.out_adj[u] & ym),
                      key=lambda w: (-(g.in_adj[w] & xm).bit_count(), w))
        for v in outs:
            yield u, v


def select_connectors(g: Digraph, x_mask: int, y_mask: int, count: int,
                      excluded: int = 0, skip: int = 0) -> list[tuple[int, int]]:
    """Pick `count` pairwise-disjoint edges from X to Y avoiding excluded
    vertices, preferring endpoints of maximal cross-degree (ties to the
    smaller vertex). `skip` discards that many leading candidates, giving
    deterministic alternative selections for retry loops.
    """
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
    heads = sorted(bit_list(ym),
                   key=lambda w: (-(g.in_adj[w] & xm).bit_count(), w))
    burn = skip
    for w in heads:
        ins = g.in_adj[w] & xm
        if ins.bit_count() < 2:
            continue
        if burn > 0:
            burn -= 1
            continue
        us = sorted(bit_list(ins),
                    key=lambda u: (-(g.out_adj[u] & ym).bit_count(), u))
        return us[0], us[1], w
    raise _PlanError("gadget", "no head with two available in-edges")


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


def _frame_case1(c: CyclePattern) -> _Frame:
    """Frame with the longest directed run forward on positions [0, ell).

    A forward run beats an equally long backward one (a forward run of
    reflect(c)); within one direction the smallest start wins."""
    def best_forward(p: CyclePattern) -> tuple[int, int]:
        return max(((vlen, start) for start, vlen, fw in _directed_runs(p)
                    if fw), key=lambda run: run[0])

    lf, sf = best_forward(c)
    lb, sb = best_forward(reflect(c))
    if lb > lf:
        return _Frame(c.n, sb, True)
    return _Frame(c.n, sf, False)


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
        n = len(self.class_at)
        ca = self.class_at
        if all(x == ca[0] for x in ca):
            return [Stretch(0, n, ca[0])]
        start0 = next(p for p in range(n) if ca[p] != ca[p - 1])
        out = []
        p = start0
        covered = 0
        while covered < n:
            q = p
            run = 1
            while ca[(q + 1) % n] == ca[p % n] and run < n:
                q += 1
                run += 1
            out.append(Stretch(p % n, run, ca[p % n]))
            covered += run
            p = q + 1
        return out


def _check_plan(plan: EmbedPlan, sizes: list[int]) -> list[Stretch]:
    """Budget conservation + pinned-endpoint sanity; returns stretches."""
    n = len(plan.class_at)
    counts = [0] * len(sizes)
    for cls in plan.class_at:
        counts[cls] += 1
    if counts != list(sizes):
        raise _PlanError("budget", f"class position counts {counts} "
                                   f"!= class sizes {list(sizes)}")
    sts = plan.stretches()
    for s in sts:
        first = s.start
        last = (s.start + s.length - 1) % n
        if s.length == 1:
            if first not in plan.pins:
                raise _PlanError("pins", f"singleton stretch at {first} unpinned")
        else:
            if first not in plan.pins or last not in plan.pins:
                raise _PlanError("pins", f"stretch at {first} (len {s.length}) "
                                         f"missing an endpoint pin")
    pinned = list(plan.pins.values())
    if len(set(pinned)) != len(pinned):
        raise _PlanError("pins", "two positions pinned to one vertex")
    return sts


def _fill_stretches(g: Digraph, c2: CyclePattern, plan: EmbedPlan,
                    sts: list[Stretch],
                    pools: list[int]) -> tuple[tuple[int, ...] | None, str]:
    """Fill every stretch of the plan (sts, as _check_plan returns them) by
    exact in-class path search with pinned ends.

    A stretch that must span its whole remaining pool is beyond the exact
    search above SPANNING_CAP vertices; that is reported as a capability
    failure of this plan rather than raised."""
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
            if s is group[-1] and allowed.bit_count() != s.length:
                return None, (f"fill:class{cls}: leftover pool "
                              f"{allowed.bit_count()} != stretch {s.length}")
            if allowed.bit_count() < s.length:
                return None, f"fill:class{cls}: pool too small for stretch"
            if allowed.bit_count() == s.length > SPANNING_CAP:
                return None, f"fill:class{cls}:capability"
            res = exact_embed(g, pattern,
                              pins={0: vstart, pattern.length - 1: vend},
                              allowed=allowed)
            if not res.found:
                return None, (f"fill:class{cls}:stretch@{s.start}"
                              f":{res.status}")
            for i, v in enumerate(res.mapping):
                mapping[(s.start + i) % n] = v
                used |= 1 << v
    if any(v is None for v in mapping):
        return None, "fill:positions left unassigned"
    return tuple(mapping), "ok"   # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# planners (all work on a framed pattern)


class _Ledger:
    """The pins of one plan and the connectors that placed them.

    `pins` (framed position -> host vertex) is the only record of what is
    pinned: the vertices in use are read from it, and pinning a position
    a second time raises `<case>:pins`."""

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

    def connect(self, kind: str, xc: int, yc: int, tail: int, head: int) -> None:
        """Realize the cycle edge tail -> head, from class xc into class yc,
        by a host edge between unpinned vertices."""
        self._refuse_pinned(kind, [tail, head])
        (a, b), = select_connectors(self.g, self.pools[xc], self.pools[yc], 1,
                                    excluded=self.used(), skip=self.attempt)
        self.pin({"kind": kind, "edge": [a, b]}, (tail, a), (head, b))


def _plan_case1a(g: Digraph, c2: CyclePattern, pools: list[int],
                 ell: int, attempt: int) -> EmbedPlan:
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


def _plan_case1b(g: Digraph, c2: CyclePattern, pools: list[int],
                 ell: int, attempt: int) -> EmbedPlan:
    n = c2.n
    t = len(pools)
    sizes = [m.bit_count() for m in pools]
    rho_n = _RHO * n

    chosen = None
    d0 = _BLOCK_CAP
    for d in list(range(d0, 1, -1)) + list(range(d0 + 1, 2 * d0 + 1)):
        try:
            bp = _case1b_blocks(c2, ell, d)
        except PreconditionError:
            continue
        if min(bp.block_sizes) < 2:
            continue                  # 1-position blocks would double-pin
        caps = [max(0, int((sizes[j] - rho_n) // d)) for j in range(t)]
        if sum(caps) < len(bp.block_sizes):
            continue
        ranks = tt_embed_path(bp.aux_path, sum(caps))
        cls_of_rank = []
        for j in range(t):
            cls_of_rank.extend([j] * caps[j])
        blk_cls = [cls_of_rank[r] for r in ranks]
        blocks_per_class = [0] * t
        for i, sz in enumerate(bp.block_sizes):
            blocks_per_class[blk_cls[i]] += sz
        residual = [sizes[j] - blocks_per_class[j] for j in range(t)]
        if all(r >= 2 for r in residual):
            chosen = (d, bp, blk_cls, residual)
            break
    if chosen is None:
        raise _PlanError("case1b:block-sizing",
                         "no block cap yields feasible capacities")
    d, bp, blk_cls, residual = chosen
    q = len(bp.block_sizes)

    class_at = [0] * n
    run_cut = [0]
    for j in range(t):
        run_cut.append(run_cut[-1] + residual[j])
    # run positions [0, ell) threaded through classes in order
    for j in range(t):
        for p in range(run_cut[j], run_cut[j + 1]):
            class_at[p] = j
    # block positions per blueprint class
    for i in range(q):
        for p in range(bp.starts[i], bp.starts[i] + bp.block_sizes[i]):
            class_at[p] = blk_cls[i]

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
        boundary = bp.starts[i + 1]
        if bp.aux_path.orientation[i]:     # edge: last of block i -> first of i+1
            ledger.connect("block-boundary", a_cls, b_cls, boundary - 1, boundary)
        else:                              # edge: first of block i+1 -> last of i
            ledger.connect("block-boundary", b_cls, a_cls, boundary, boundary - 1)
    return EmbedPlan("case1b", class_at, ledger.pins, ledger.connectors,
                     notes=[f"block_cap={d}", f"blocks={q}"])


def _case2_sink_positions(c2: CyclePattern, lo: int, hi: int, want: int,
                          taken: set[int], gap: int) -> list[int] | None:
    """Ascending sink positions in the open window (lo, hi) with pairwise
    distance at least gap, avoiding taken positions and their neighbors."""
    o = c2.orientation
    out: list[int] = []
    p = lo + 1
    while p < hi and len(out) < want:
        is_sink = o[p - 1] and not o[p]
        clash = {p - 1, p, p + 1} & taken
        if is_sink and not clash and (not out or p - out[-1] >= gap):
            out.append(p)
        p += 1
    return out if len(out) == want else None


def _plan_case2(g: Digraph, c2: CyclePattern, pools: list[int],
                beta_eff: float, attempt: int) -> EmbedPlan:
    n = c2.n
    t = len(pools)
    sizes = [m.bit_count() for m in pools]
    try:
        plan2 = partition_case2(c2, sizes, beta_eff)
    except PreconditionError as e:
        raise _PlanError("case2:segments", str(e)) from None
    o = c2.orientation
    bounds = [0] + list(plan2.boundaries)          # segment e = [bounds[e], bounds[e+1])
    class_at = [0] * n
    for e in range(t):
        for p in range(bounds[e], bounds[e + 1]):
            class_at[p] = e

    ledger = _Ledger("case2", g, pools, attempt)
    notes: list[str] = []

    if o[n - 1]:
        raise _PlanError("case2:frame", "position 0 is not a source")
    ledger.connect("wrap", 0, t - 1, 0, n - 1)
    for s in range(1, t):
        b = bounds[s]
        ledger.connect("matching", s - 1, s, b - 1, b)

    margin = int(2 * beta_eff * n)
    gap = max(1, int(beta_eff * n))

    for e in range(t - 1):
        d = int(plan2.overshoots[e])
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
        sinks = _case2_sink_positions(c2, seg_lo + margin, seg_hi - 1 - margin,
                                      n_gadget, taken, gap)
        if sinks is None:
            sinks = _case2_sink_positions(c2, seg_lo + 1, seg_hi - 2,
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
            (x1, y1), (x2, y2) = select_connectors(
                g, pools[e], pools[e + 1], 2, excluded=ledger.used(),
                skip=attempt)
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
    small enough fall back to the exact spanning search. The returned
    embedding always passes the independent checker.
    """
    if c.n != g.n:
        raise InputError(f"pattern spans {c.n} vertices, host has {g.n}")
    pools = list(sp.classes)
    t = len(pools)
    sizes = [m.bit_count() for m in pools]
    audit: dict = {"t": t, "sizes": sizes}

    if t >= 2 and c.is_directed():
        return PipelineResult("rejected", None, "directed", "none", 0,
                              "precondition:directed-cycle", audit)
    if t == 1:
        if g.n > SPANNING_CAP:
            return PipelineResult("failed", None, "single-class", "none", 0,
                                  "single-class:capability", audit)
        return _oracle_step(g, c, "single-class", 1, audit)

    n = g.n
    eta_eff = min(sizes) / n
    beta_eff = min(_BETA, min(sizes) / (3.5 * n))
    audit["eta_eff"] = eta_eff
    audit["beta_eff"] = beta_eff
    cross_ok = all(any(g.out_adj[u] & pools[j] for u in bits_of(pools[i]))
                   for i in range(t) for j in range(i + 1, t))
    audit["forward_density_ok"] = cross_ok

    # frame the longest directed run forward on [0, ell), once; case 1 iff
    # it spans at least floor(beta_eff * n) vertices
    run_frame = _frame_case1(c)
    c_run = run_frame.pattern(c)
    ell = _framed_run_length(c_run)
    case = "case1" if ell >= int_floor(beta_eff * n) else "case2"
    audit["ell"] = ell
    c_src, offset = canonical_rotation(c)
    src_frame = _Frame(n, offset, False)

    def plan_1a(attempt):
        return run_frame, c_run, _plan_case1a(g, c_run, pools, ell, attempt)

    def plan_1b(attempt):
        return run_frame, c_run, _plan_case1b(g, c_run, pools, ell, attempt)

    def plan_2(attempt):
        return src_frame, c_src, _plan_case2(g, c_src, pools, beta_eff, attempt)

    if case == "case1":
        chain = [plan_1a, plan_1b, plan_2] if n - ell <= eta_eff * n / 2 \
            else [plan_1b, plan_1a, plan_2]
    else:
        chain = [plan_2, plan_1b]

    failures: list[str] = []
    attempts = 0
    for attempt in range(_CONNECTOR_ATTEMPTS):
        attempts = attempt + 1
        progressed = False
        for planner in chain:
            try:
                frame, c2, plan = planner(attempt)
                sts = _check_plan(plan, sizes)
            except (_PlanError, InputError, PreconditionError,
                    ResourceError) as e:
                failures.append(f"attempt {attempt}: {e}")
                continue
            progressed = True
            mapping2, tag = _fill_stretches(g, c2, plan, sts, pools)
            if mapping2 is None:
                failures.append(f"attempt {attempt}: {plan.case}: {tag}")
                continue
            mapping = frame.pull_back(mapping2)
            check = validate_embedding(g, c, mapping, spanning=True)
            if not check.valid:
                failures.append(f"attempt {attempt}: checker: {check.errors}")
                continue
            audit["connectors"] = plan.connectors
            audit["notes"] = plan.notes
            audit["failures"] = failures
            return PipelineResult("embedded", Embedding(mapping, c.to_string()), plan.case,
                                  "pipeline", attempts, None, audit)
        if not progressed and attempt >= 2:
            break                    # plans fail before connector choice matters
    audit["failures"] = failures
    if n <= SPANNING_CAP:
        return _oracle_step(g, c, case, attempts, audit)
    step = failures[-1] if failures else "no attempt succeeded"
    return PipelineResult("failed", None, case, "pipeline", attempts,
                          step, audit)


def _oracle_step(g: Digraph, c: CyclePattern, case: str, attempts: int,
                 audit: dict) -> PipelineResult:
    """The exact spanning search's answer, held to the same checker as a
    planned embedding: a mapping the checker rejects fails with
    oracle:checker."""
    res = exact_embed(g, c)
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


def _double_edge_cycle(gstar: Digraph, length: int):
    try:
        res = exact_embed(gstar, CyclePattern.directed(length))
    except CapabilityError:
        return None
    return res.mapping if res.found else None


def _extend_odd(g: Digraph, base: tuple[int, ...], pattern: CyclePattern):
    """Insert one extra vertex into an all-double-edge cycle so the result
    realizes the given pattern (one vertex longer than the base cycle)."""
    n = pattern.n
    ring = list(base)
    on_ring = set(ring)
    o = pattern.orientation
    for p in range(n):        # position the new vertex will play
        need_in = o[(p - 1) % n]    # True: edge (p-1 -> p) needs x -> z
        need_out = o[p]             # True: edge (p -> p+1) needs z -> y
        for i in range(len(ring)):
            x, y = ring[i], ring[(i + 1) % len(ring)]
            for z in range(g.n):
                if z in on_ring:
                    continue
                e1 = g.has_edge(x, z) if need_in else g.has_edge(z, x)
                e2 = g.has_edge(z, y) if need_out else g.has_edge(y, z)
                if e1 and e2:
                    order = [z] + [ring[(i + 1 + j) % len(ring)]
                                   for j in range(len(ring))]
                    mapping = [0] * n
                    for j, v in enumerate(order):
                        mapping[(p + j) % n] = v
                    return tuple(mapping)
    return None


def pancyclic_suite(g: Digraph, k: int, gamma: float, seed: int = 0,
                    lengths=None,
                    orientations_per_length: int | None = 4) -> PancyclicReport:
    """Hunt an oriented cycle of every length and sampled orientation.

    Strategy chain per cell: (1) a cycle of that length in the
    double-edge graph realizes every orientation at once; (2) odd lengths
    extend a one-shorter double-edge cycle by a single compatible vertex;
    (3) exact search on the whole host. Positive cells are
    checker-validated; "none" cells are exact-search proofs.
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
    star_cycles: dict[int, tuple[int, ...] | None] = {}

    def star_cycle(m: int):
        if m not in star_cycles:
            star_cycles[m] = _double_edge_cycle(gstar, m)
        return star_cycles[m]

    for length in lengths:
        patterns = _sample_patterns(length, orientations_per_length, rng)
        for pat in patterns:
            t0 = time.monotonic()
            outcome, method, mapping = _pancyclic_cell(
                g, pat, length, star_cycle)
            if mapping is not None:
                check = validate_embedding(g, pat, mapping)
                if not check.valid:
                    outcome, method, mapping = "failed", method + "+checker", None
            cells.append({
                "length": length,
                "pattern": pat.to_string(),
                "outcome": outcome,
                "method": method,
                "millis": round(1000 * (time.monotonic() - t0), 3),
            })
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


def _pancyclic_cell(g, pat, length, star_cycle):
    base = star_cycle(length)
    if base is not None:       # a double-edge ring realizes every orientation
        return "found", "double-edge", base
    shorter = star_cycle(length - 1) if length - 1 >= 3 else None
    if shorter is not None:
        mapping = _extend_odd(g, shorter, pat)
        if mapping is not None:
            return "found", "odd-extension", mapping
    try:
        res = exact_embed(g, pat)
    except CapabilityError:
        return "inconclusive", "oracle-capped", None
    if res.found:
        return "found", "oracle", res.mapping
    return res.status, "oracle", None
