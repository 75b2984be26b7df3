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
    class between two extra edges.

Every produced embedding is re-validated by the independent checker
before being returned; failures are structured, never silent.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .bitset import bit_list, int_floor
from .digraph import (
    Digraph,
    cross_counts,
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
    embed_path_between,
    validate_embedding,
)
from .patterns import (
    CyclePattern,
    PathPattern,
    _case1b_blocks,
    _directed_runs,
    _framed_run_length,
    canonical_rotation,
    classify_case,
    longest_directed_segment,
    necklace_classes,
    partition_case2,
    reflect,
    rotate,
)

_EPS = 1e-9


@dataclass(frozen=True)
class EmbedParams:
    """Pipeline constants.

    beta gates the long-run/switchy dichotomy; rho sets connector-slack
    accounting and the blueprint reserve; eta is the class-size fraction
    the plans assume. block_size caps the block length used when routing
    a non-spanning run (adapted downward/upward if the equal split or the
    blueprint capacity fails). connector_retries bounds how many
    alternative connector selections are tried before oracle fallback.
    """
    beta: float = 0.1
    rho: float = 0.0025
    eta: float = 0.3
    block_size: int = 6
    connector_retries: int = 16
    oracle_deadline: float = 10.0
    fill_deadline: float = 10.0

    def __post_init__(self):
        if not 0 < self.beta < 1:
            raise InputError(f"beta must lie in (0,1), got {self.beta}")
        if not 0 < self.rho <= self.beta * self.beta / 4 + _EPS:
            raise InputError(f"rho must lie in (0, beta^2/4], got {self.rho}")
        if not 0 < self.eta < 1:
            raise InputError(f"eta must lie in (0,1), got {self.eta}")
        if self.block_size < 2:
            raise InputError("block_size must be at least 2")
        if self.connector_retries < 1:
            raise InputError("connector_retries must be at least 1")

    def gadget_cap(self) -> int:
        """Most sink relocations per boundary before switching to hand-off."""
        return max(1, int_floor(self.eta / (6 * self.beta)))

    def handoff_gadgets(self) -> int:
        """Sink relocations used alongside a hand-off window."""
        return max(1, int_floor(self.eta / (12 * self.beta)))


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
                      direction: str = "forward", excluded: int = 0,
                      skip: int = 0) -> list[tuple[int, int]]:
    """Pick `count` pairwise-disjoint edges from X to Y avoiding excluded
    vertices, preferring endpoints of maximal cross-degree (ties to the
    smaller vertex). direction="backward" swaps the roles of X and Y.
    `skip` discards that many leading candidates, giving deterministic
    alternative selections for retry loops.
    """
    if direction == "backward":
        x_mask, y_mask = y_mask, x_mask
    elif direction != "forward":
        raise InputError(f"unknown direction {direction!r}")
    xm = x_mask & ~excluded
    ym = y_mask & ~excluded
    total = sum((g.out_adj[u] & ym).bit_count() for u in bit_list(xm))
    if total == 0:
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
                    pools: list[int], params: EmbedParams) -> tuple[tuple[int, ...] | None, str]:
    """Fill every stretch by exact in-class path search with pinned ends.

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
    sts = plan.stretches()
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
                              allowed=allowed, deadline=params.fill_deadline)
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


def _plan_case1a(g: Digraph, c2: CyclePattern, pools: list[int],
                 params: EmbedParams, ell: int, attempt: int) -> EmbedPlan:
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
    pins: dict[int, int] = {}
    connectors: list[dict] = []
    used = 0
    (u, v), = select_connectors(g, pools[0], pools[t - 1], 1,
                                excluded=used, skip=attempt)
    pins[0], pins[n - 1] = u, v
    used |= (1 << u) | (1 << v)
    connectors.append({"kind": "wrap", "edge": [u, v]})
    for j in range(1, t):
        (x, y), = select_connectors(g, pools[j - 1], pools[j], 1,
                                    excluded=used, skip=attempt)
        pins[cum[j] - 1], pins[cum[j]] = x, y
        used |= (1 << x) | (1 << y)
        connectors.append({"kind": "run-boundary", "edge": [x, y]})
    class_at = []
    for j in range(t):
        class_at.extend([j] * sizes[j])
    return EmbedPlan("case1a", class_at, pins, connectors)


def _plan_case1b(g: Digraph, c2: CyclePattern, pools: list[int],
                 params: EmbedParams, ell: int, attempt: int) -> EmbedPlan:
    n = c2.n
    t = len(pools)
    sizes = [m.bit_count() for m in pools]
    rho_n = params.rho * n

    chosen = None
    d0 = params.block_size
    block_caps = list(range(d0, 1, -1)) + list(range(d0 + 1, 2 * d0 + 1))
    try:
        run = _framed_run_length(c2)    # the same for every block cap
    except PreconditionError:
        block_caps = []                 # no cap can split the pattern
    for d in block_caps:
        try:
            bp = _case1b_blocks(c2, run, d)
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

    pins: dict[int, int] = {}
    connectors: list[dict] = []
    used = 0

    def take(xc: int, yc: int, tail_pos: int, head_pos: int, kind: str):
        nonlocal used
        if tail_pos in pins or head_pos in pins:
            raise _PlanError("case1b:pins", f"{kind} would double-pin a position")
        (a, b), = select_connectors(g, pools[xc], pools[yc], 1,
                                    excluded=used, skip=attempt)
        pins[tail_pos], pins[head_pos] = a, b
        used |= (1 << a) | (1 << b)
        connectors.append({"kind": kind, "edge": [a, b]})

    # wrap edge: position 0 (class 0) <- position n-1 (last block's class)
    if class_at[n - 1] != 0:
        take(0, class_at[n - 1], 0, n - 1, "wrap")
    # run end (class t-1) <- first block (its class)
    if blk_cls[0] != t - 1:
        take(blk_cls[0], t - 1, ell, ell - 1, "run-exit")
    for j in range(t - 1):
        take(j, j + 1, run_cut[j + 1] - 1, run_cut[j + 1], "run-boundary")
    for i in range(q - 1):
        a_cls, b_cls = blk_cls[i], blk_cls[i + 1]
        if a_cls == b_cls:
            continue                       # merged into one stretch
        boundary = bp.starts[i + 1]
        if bp.aux_path.orientation[i]:     # edge: last of block i -> first of i+1
            take(a_cls, b_cls, boundary - 1, boundary, "block-boundary")
        else:                              # edge: first of block i+1 -> last of i
            take(b_cls, a_cls, boundary, boundary - 1, "block-boundary")
    return EmbedPlan("case1b", class_at, pins, connectors,
                     notes=[f"block_cap={d}", f"blocks={q}"])


def _case2_sink_positions(c2: CyclePattern, lo: int, hi: int, want: int,
                          blocked: set[int], gap: int) -> list[int] | None:
    """Ascending sink positions in the open window (lo, hi) with pairwise
    distance at least gap, avoiding blocked positions and their neighbors."""
    o = c2.orientation
    out: list[int] = []
    p = lo + 1
    while p < hi and len(out) < want:
        is_sink = o[p - 1] and not o[p]
        clash = {p - 1, p, p + 1} & blocked
        if is_sink and not clash and (not out or p - out[-1] >= gap):
            out.append(p)
        p += 1
    return out if len(out) == want else None


def _plan_case2(g: Digraph, c2: CyclePattern, pools: list[int],
                params: EmbedParams, beta_eff: float, attempt: int) -> EmbedPlan:
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

    pins: dict[int, int] = {}
    connectors: list[dict] = []
    notes: list[str] = []
    used = 0
    blocked: set[int] = set()

    def take(xc: int, yc: int, tail_pos: int, head_pos: int, kind: str):
        nonlocal used
        if tail_pos in pins or head_pos in pins:
            raise _PlanError("case2:pins", f"{kind} would double-pin a position")
        (a, b), = select_connectors(g, pools[xc], pools[yc], 1,
                                    excluded=used, skip=attempt)
        pins[tail_pos], pins[head_pos] = a, b
        used |= (1 << a) | (1 << b)
        blocked.update({tail_pos, head_pos})
        connectors.append({"kind": kind, "edge": [a, b]})

    if o[n - 1]:
        raise _PlanError("case2:frame", "position 0 is not a source")
    take(0, t - 1, 0, n - 1, "wrap")
    for s in range(1, t):
        b = bounds[s]
        take(s - 1, s, b - 1, b, "matching")

    gadget_cap = params.gadget_cap()
    handoff_base = params.handoff_gadgets()
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

        if d <= gadget_cap:
            n_gadget, handoff = d, 0
        else:
            n_gadget = handoff_base
            handoff = d - n_gadget
        if handoff > 0 and handoff > pstar_len - 2:
            n_gadget = d - (pstar_len - 2)
            handoff = pstar_len - 2
            if handoff <= 0:
                raise _PlanError("case2:handoff",
                                 f"backward run too short ({pstar_len}) "
                                 f"for overshoot {d}")

        handoff_zone = set(range(qpos - 1, qpos + handoff + 1)) if handoff else set()
        if handoff_zone & blocked:
            raise _PlanError("case2:handoff",
                             "hand-off window collides with pinned positions")
        sink_block = blocked | handoff_zone
        sinks = _case2_sink_positions(c2, seg_lo + margin, seg_hi - 1 - margin,
                                      n_gadget, sink_block, gap)
        if sinks is None:
            sinks = _case2_sink_positions(c2, seg_lo + 1, seg_hi - 2,
                                          n_gadget, sink_block, 3)
            if sinks is not None:
                notes.append(f"boundary {e}: sink spacing relaxed")
        if sinks is None:
            raise _PlanError("case2:sinks",
                             f"{n_gadget} relocatable sinks not found in "
                             f"segment {e}")
        for p in sinks:
            u1, u2, w = _pick_gadget(g, pools[e] & ~used,
                                     pools[e + 1] & ~used, skip=attempt)
            pins[p - 1], pins[p], pins[p + 1] = u1, w, u2
            used |= (1 << u1) | (1 << u2) | (1 << w)
            blocked.update({p - 1, p, p + 1})
            class_at[p] = e + 1
            connectors.append({"kind": "sink-gadget", "position": p,
                               "edges": [[u1, w], [u2, w]]})
        if handoff > 0:
            p2 = qpos + handoff - 1
            (x1, y1), (x2, y2) = select_connectors(
                g, pools[e], pools[e + 1], 2, excluded=used, skip=attempt)
            pins[qpos - 1], pins[qpos] = x1, y1
            pins[p2 + 1], pins[p2] = x2, y2
            used |= (1 << x1) | (1 << y1) | (1 << x2) | (1 << y2)
            blocked.update({qpos - 1, qpos, p2, p2 + 1})
            for p in range(qpos, p2 + 1):
                class_at[p] = e + 1
            connectors.append({"kind": "hand-off",
                               "window": [qpos, p2],
                               "edges": [[x1, y1], [x2, y2]]})
    return EmbedPlan("case2", class_at, pins, connectors, notes)


# ---------------------------------------------------------------------------
# the pipeline driver


def embed_hamilton_orientation(g: Digraph, sp, c: CyclePattern,
                               params: EmbedParams | None = None) -> PipelineResult:
    """Embed an arbitrary Hamilton-cycle orientation using the ordered
    class partition (classes must be in embedding order: forward edge
    density from earlier to later classes).

    The directed cycle is rejected whenever the partition has two or more
    classes (it may genuinely be absent then). Each attempt draws a fresh
    connector selection; after the retry budget, hosts small enough fall
    back to the exact spanning search. The returned embedding always
    passes the independent checker.
    """
    params = params or EmbedParams()
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
        res = exact_embed(g, c, deadline=params.oracle_deadline)
        if res.found:
            return PipelineResult("embedded", Embedding(res.mapping, c.to_string()),
                                  "single-class", "oracle", 1, None, audit)
        return PipelineResult("failed", None, "single-class", "oracle", 1,
                              f"oracle:{res.status}", audit)

    n = g.n
    eta_eff = min(sizes) / n
    beta_eff = min(params.beta, min(sizes) / (3.5 * n))
    audit["eta_eff"] = eta_eff
    audit["beta_eff"] = beta_eff
    cross_ok = all(cross_counts(g, pools[i], pools[j])[0] > 0
                   for i in range(t) for j in range(i + 1, t))
    audit["forward_density_ok"] = cross_ok

    case, ell = classify_case(c, beta_eff)
    audit["ell"] = ell

    run_frame = _frame_case1(c)
    c_run = run_frame.pattern(c)
    ell2, _, fw = longest_directed_segment(c_run)
    if not fw or ell2 != ell:
        raise InputError("run framing failed; pattern machinery inconsistent")
    c_src, offset = canonical_rotation(c)
    src_frame = _Frame(n, offset, False)

    def plan_1a(attempt):
        return run_frame, c_run, _plan_case1a(g, c_run, pools, params, ell, attempt)

    def plan_1b(attempt):
        return run_frame, c_run, _plan_case1b(g, c_run, pools, params, ell, attempt)

    def plan_2(attempt):
        return src_frame, c_src, _plan_case2(g, c_src, pools, params,
                                             beta_eff, attempt)

    if case == "case1":
        chain = [plan_1a, plan_1b, plan_2] if n - ell <= eta_eff * n / 2 \
            else [plan_1b, plan_1a, plan_2]
    else:
        chain = [plan_2, plan_1b]

    failures: list[str] = []
    attempts = 0
    for attempt in range(params.connector_retries):
        attempts = attempt + 1
        progressed = False
        for planner in chain:
            try:
                frame, c2, plan = planner(attempt)
                _check_plan(plan, sizes)
            except (_PlanError, InputError, PreconditionError,
                    ResourceError) as e:
                failures.append(f"attempt {attempt}: {e}")
                continue
            progressed = True
            mapping2, tag = _fill_stretches(g, c2, plan, pools, params)
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
        res = exact_embed(g, c, deadline=params.oracle_deadline)
        if res.found:
            check = validate_embedding(g, c, res.mapping, spanning=True)
            if check.valid:
                return PipelineResult("embedded", Embedding(res.mapping, c.to_string()),
                                      case, "oracle", attempts, None, audit)
        return PipelineResult("failed", None, case, "oracle", attempts,
                              f"oracle:{res.status}", audit)
    step = failures[-1] if failures else "no attempt succeeded"
    return PipelineResult("failed", None, case, "pipeline", attempts,
                          step, audit)


# ---------------------------------------------------------------------------
# 2-factors, cycle spectrum


def two_factor(g: Digraph, k: int, deadline: float = 10.0) -> list[tuple[int, ...]]:
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
        res = exact_embed(g, pattern, allowed=comp, deadline=deadline)
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


def _double_edge_cycle(gstar: Digraph, length: int,
                       deadline: float):
    try:
        res = exact_embed(gstar, CyclePattern.directed(length), deadline=deadline)
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
                    lengths=None, orientations_per_length: int | None = 4,
                    deadline: float = 5.0, sp=None,
                    params: EmbedParams | None = None) -> PancyclicReport:
    """Hunt an oriented cycle of every length and sampled orientation.

    Strategy chain per cell: (1) a cycle of that length in the
    double-edge graph realizes every orientation at once; (2) odd lengths
    extend a one-shorter double-edge cycle by a single compatible vertex;
    (3) with a partition available, cut the cycle at one edge and search
    the path inside the largest class with pinned, adjacent endpoints;
    (4) exact search on the whole host. Positive cells are
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
            star_cycles[m] = _double_edge_cycle(gstar, m, deadline)
        return star_cycles[m]

    for length in lengths:
        patterns = _sample_patterns(length, orientations_per_length, rng)
        for pat in patterns:
            t0 = time.monotonic()
            outcome, method, mapping = _pancyclic_cell(
                g, gstar, pat, length, star_cycle, deadline, sp, params)
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


def _pancyclic_cell(g, gstar, pat, length, star_cycle, deadline, sp, params):
    base = star_cycle(length)
    if base is not None:       # a double-edge ring realizes every orientation
        return "found", "double-edge", base
    shorter = star_cycle(length - 1) if length - 1 >= 3 else None
    if shorter is not None:
        mapping = _extend_odd(g, shorter, pat)
        if mapping is not None:
            return "found", "odd-extension", mapping
    if sp is not None and not pat.is_directed():
        mapping = _cycle_in_class(g, pat, sp, deadline)
        if mapping is not None:
            return "found", "in-class", mapping
    try:
        res = exact_embed(g, pat, deadline=deadline)
    except CapabilityError:
        return "inconclusive", "oracle-capped", None
    if res.found:
        return "found", "oracle", res.mapping
    return res.status, "oracle", None


def _cycle_in_class(g: Digraph, pat: CyclePattern, sp, deadline: float):
    pools = sorted(sp.classes, key=lambda m: -m.bit_count())
    n = pat.n
    for pool in pools:
        if pool.bit_count() < n:
            continue
        # cut the cycle at the wrap edge; realize that edge by a host edge
        path = PathPattern(pat.orientation[:n - 1])
        fwd_wrap = pat.orientation[n - 1]     # True: edge (n-1 -> 0)
        sub_edges = [(u, v) for u in bit_list(pool)
                     for v in bit_list(g.out_adj[u] & pool)]
        for u, v in sub_edges[:24]:
            if fwd_wrap:
                res = embed_path_between(g, path, v, u,
                                         forbidden=g.vertex_mask & ~pool,
                                         deadline=deadline)
            else:
                res = embed_path_between(g, path, u, v,
                                         forbidden=g.vertex_mask & ~pool,
                                         deadline=deadline)
            if res.found:
                return res.mapping
    return None
