"""Exact pattern-embedding search and the independent validity checker.

exact_embed answers "does this host contain an injective, orientation
respecting copy of this cycle/path pattern" definitively whenever it
finishes inside its work budgets: a "found" comes with the mapping, a
"none" means the search space was exhausted, and "timeout" means the
node budget ran out. Budgets count work, not seconds, so a seeded call
gives the same answer on any machine. Two cooperating engines:

  1. backtracking with fewest-candidates-first position selection and
     bitset forward checking (fast on satisfiable dense instances);
  2. a subset dynamic program over (used-set, last-vertex) states for
     spanning patterns on at most DP_CAP usable vertices (merges the
     exponential backtrack tree on refutations), abandoned past
     DP_STATE_BUDGET states.

Backtracking starts from a static filter that keeps, per position, the
allowed vertices whose host in/out degree meets the position's need; it
looks only at the allowed vertices, so a stretch fill inside one class
pays for that class, not for the whole host.

A search the DP can serve backtracks for BT_STAGE_NODES nodes, then runs
the DP, and only if that is abandoned backtracks again from the root.
Every other search is one backtracking pass. Either way the call stops
once it has spent node_budget nodes (default NODE_BUDGET).

Fully directed cycle patterns are first restricted to single strongly
connected components (a directed cycle cannot cross them). Spanning
searches are capped at 64 vertices; callers are told up front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bitset import bit_list, bits_of
from .digraph import Digraph, induced, strongly_connected_components
from .errors import CapabilityError, InputError
from .patterns import CyclePattern

SPANNING_CAP = 64
DP_CAP = 16
BT_STAGE_NODES = 20_480
DP_STATE_BUDGET = 400_000
NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class EmbedResult:
    status: str                        # found | none | timeout
    mapping: tuple[int, ...] | None    # position -> vertex when found
    nodes: int
    elapsed: float
    method: str

    @property
    def found(self) -> bool:
        return self.status == "found"


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    errors: tuple[str, ...]


def pattern_edges(pattern) -> list[tuple[int, int]]:
    """Directed edges (as position pairs) the pattern demands."""
    if isinstance(pattern, CyclePattern):
        return [pattern.edge(i) for i in range(pattern.n)]
    return [pattern.edge(i) for i in range(pattern.length - 1)]


def pattern_size(pattern) -> int:
    return pattern.n if isinstance(pattern, CyclePattern) else pattern.length


def validate_embedding(host: Digraph, pattern, mapping, *, spanning: bool = False,
                       allowed: int | None = None) -> CheckReport:
    """Independent check that mapping realizes the pattern in the host.

    Deliberately naive: recomputes everything from the raw adjacency, so
    it shares no code path with the search engines it audits.
    """
    errors = []
    size = pattern_size(pattern)
    if mapping is None or len(mapping) != size:
        return CheckReport(False, (f"mapping covers {0 if mapping is None else len(mapping)} "
                                   f"of {size} positions",))
    seen = set()
    for pos, v in enumerate(mapping):
        if not 0 <= v < host.n:
            errors.append(f"position {pos} mapped to out-of-range vertex {v}")
        elif v in seen:
            errors.append(f"vertex {v} used twice")
        elif allowed is not None and not allowed >> v & 1:
            errors.append(f"position {pos} mapped outside the allowed set")
        seen.add(v)
    if not errors:
        for a, b in pattern_edges(pattern):
            if not host.has_edge(mapping[a], mapping[b]):
                errors.append(f"missing host edge {mapping[a]}->{mapping[b]} "
                              f"for pattern positions {a}->{b}")
    if spanning and not errors:
        pool = host.n if allowed is None else allowed.bit_count()
        if len(set(mapping)) != pool:
            errors.append(f"mapping spans {len(set(mapping))} of {pool} vertices")
    return CheckReport(not errors, tuple(errors))


def _pattern_adjacency(size: int,
                       edges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """adj[p] lists (q, mode): mode 0 means arc p->q, mode 1 means q->p,
    for the pattern edges of a pattern with size positions."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for a, b in edges:
        adj[a].append((b, 0))
        adj[b].append((a, 1))
    return adj


def _static_filter(host: Digraph, adj, allowed: int) -> list[int]:
    """Per-position mask of the allowed vertices with enough in/out degree
    (counted in the whole host) to sit there.

    Only the vertices of allowed are counted and thresholded, so a call
    costs O(|allowed|); a need that the minimum degrees over allowed
    already meet maps to allowed itself, without a per-vertex pass. This
    is a search-side prefilter only: validate_embedding does not use it
    and recounts everything from the raw adjacency.
    """
    verts = bit_list(allowed)
    out_deg = [host.out_adj[v].bit_count() for v in verts]
    in_deg = [host.in_adj[v].bit_count() for v in verts]
    min_out = min(out_deg, default=0)
    min_in = min(in_deg, default=0)
    need_masks = {}
    filt = []
    for entries in adj:
        ni = 0                          # mode 1 entries are arcs into p
        for _, mode in entries:
            ni += mode
        no = len(entries) - ni
        key = (no, ni)
        if key not in need_masks:
            if no <= min_out and ni <= min_in:
                m = allowed
            else:
                m = 0
                for v, do, di in zip(verts, out_deg, in_deg):
                    if do >= no and di >= ni:
                        m |= 1 << v
            need_masks[key] = m
        filt.append(need_masks[key])
    return filt


def _backtrack(host: Digraph, adj, filt, pins: dict[int, int], allowed: int,
               nodes: int, cap: int) -> tuple[str, tuple[int, ...] | None, int]:
    """Search until a mapping is found, the tree is exhausted, or the
    running node count reaches cap ("budget")."""
    size = len(adj)
    out_adj = host.out_adj
    in_adj = host.in_adj
    assign = [-1] * size
    used = 0
    for p, v in pins.items():
        assign[p] = v
        used |= 1 << v
    remaining = size - len(pins)
    if remaining == 0:
        return "found", tuple(assign), nodes

    front = {p for p in range(size)
             if assign[p] < 0 and any(assign[q] >= 0 for q, _ in adj[p])}

    def cand(p: int) -> int:
        c = filt[p] & ~used
        for q, mode in adj[p]:
            w = assign[q]
            if w >= 0:
                c &= in_adj[w] if mode == 0 else out_adj[w]
                if not c:
                    return 0
        return c

    def select() -> tuple[int, int]:
        if front:
            best_p, best_c, best_k = -1, 0, 1 << 62
            for p in sorted(front):
                c = cand(p)
                k = c.bit_count()
                if k < best_k:
                    best_p, best_c, best_k = p, c, k
                    if k == 0:
                        break
            return best_p, best_c
        for p in range(size):
            if assign[p] < 0:
                return p, filt[p] & ~used
        return -1, 0

    p0, c0 = select()
    stack: list[list[int]] = [[p0, c0, -1]]    # position, candidates left, tried vertex

    while stack:
        ent = stack[-1]
        p = ent[0]
        tried = ent[2]
        if tried >= 0:
            # undo the previous attempt at this level
            used ^= 1 << tried
            assign[p] = -1
            ent[2] = -1
            if any(assign[q] >= 0 for q, _ in adj[p]):
                front.add(p)
            for q, _ in adj[p]:
                if q in front and not any(assign[r] >= 0 for r, _ in adj[q]):
                    front.discard(q)
        c = ent[1]
        if not c:
            stack.pop()
            continue
        if nodes >= cap:
            return "budget", None, nodes
        nodes += 1
        low = c & -c
        ent[1] = c ^ low
        v = low.bit_length() - 1
        assign[p] = v
        used |= low
        ent[2] = v
        front.discard(p)
        for q, _ in adj[p]:
            if assign[q] < 0:
                front.add(q)
        ok = True
        for q, _ in adj[p]:
            if assign[q] < 0 and not cand(q):
                ok = False
                break
        if not ok:
            continue
        if len(stack) == remaining:
            return "found", tuple(assign), nodes
        np_, nc = select()
        stack.append([np_, nc, -1])

    return "none", None, nodes


def _dp_spanning(host: Digraph, orientation, is_cycle: bool, pins: dict[int, int],
                 allowed: int) -> tuple[str, tuple[int, ...] | None]:
    """Layered subset DP; complete for spanning patterns, aborts on a state
    budget so dense instances fall back to plain search."""
    out_adj = host.out_adj
    in_adj = host.in_adj
    size = len(orientation) + (0 if is_cycle else 1)
    pin_mask = [pins.get(d) for d in range(size)]

    starts = [pins[0]] if 0 in pins else bit_list(allowed)
    total_states = 0

    for v0 in starts:
        layers: list[dict[int, int]] = [{1 << v0: 1 << v0}]
        dead = False
        for d in range(size - 1):
            fwd = orientation[d]
            want = pin_mask[d + 1]
            cur = layers[d]
            nxt: dict[int, int] = {}
            for mask, lasts in cur.items():
                avail = allowed & ~mask
                if want is not None:
                    avail &= 1 << want
                    if not avail:
                        continue
                ml = lasts
                while ml:
                    lb = ml & -ml
                    ml ^= lb
                    u = lb.bit_length() - 1
                    step = (out_adj[u] if fwd else in_adj[u]) & avail
                    while step:
                        vb = step & -step
                        step ^= vb
                        key = mask | vb
                        nxt[key] = nxt.get(key, 0) | vb
            total_states += len(nxt)
            if total_states > DP_STATE_BUDGET:
                return "budget", None
            if not nxt:
                dead = True
                break
            layers.append(nxt)
        if dead:
            continue
        final = layers[size - 1].get(allowed, 0)
        if is_cycle:
            closing = in_adj[v0] if orientation[size - 1] else out_adj[v0]
            final &= closing
        if not final:
            continue
        # reconstruct backwards, lowest vertex first at each step
        mapping = [0] * size
        mask = allowed
        vb = final & -final
        for d in range(size - 1, 0, -1):
            v = vb.bit_length() - 1
            mapping[d] = v
            pmask = mask ^ vb
            lasts = layers[d - 1][pmask]
            preds = lasts & (in_adj[v] if orientation[d - 1] else out_adj[v])
            vb = preds & -preds
            mask = pmask
        mapping[0] = vb.bit_length() - 1
        return "found", tuple(mapping)
    return "none", None


def _engine(host: Digraph, pattern, adj, pins: dict[int, int], allowed: int,
            nodes: int, node_budget: int) -> tuple[str, tuple[int, ...] | None, str, int]:
    filt = _static_filter(host, adj, allowed)
    for p, v in pins.items():
        filt[p] &= 1 << v
    size = len(adj)
    spanning = size == allowed.bit_count()

    if spanning and size <= DP_CAP:
        status, mapping, nodes = _backtrack(host, adj, filt, pins, allowed, nodes,
                                            min(nodes + BT_STAGE_NODES, node_budget))
        if status != "budget":
            return status, mapping, "backtrack", nodes
        status, mapping = _dp_spanning(host, pattern.orientation,
                                       isinstance(pattern, CyclePattern),
                                       pins, allowed)
        if status != "budget":
            return status, mapping, "dp", nodes

    status, mapping, nodes = _backtrack(host, adj, filt, pins, allowed, nodes,
                                        node_budget)
    if status == "budget":
        status = "timeout"
    return status, mapping, "backtrack", nodes


def exact_embed(host: Digraph, pattern, pins: dict[int, int] | None = None,
                allowed: int | None = None,
                node_budget: int = NODE_BUDGET) -> EmbedResult:
    """Search for an orientation-respecting injective embedding.

    pins maps pattern positions to required host vertices; allowed
    restricts usable host vertices (default all). Backtracking stops
    after node_budget nodes in all; "timeout" then says so explicitly,
    and every other answer is definitive.
    """
    t0 = time.monotonic()
    pins = dict(pins or {})
    if allowed is None:
        allowed = host.vertex_mask
    size = pattern_size(pattern)

    for p, v in pins.items():
        if not 0 <= p < size:
            raise InputError(f"pin position {p} outside pattern")
        if not 0 <= v < host.n or not allowed >> v & 1:
            raise InputError(f"pin vertex {v} unusable")
    if len(set(pins.values())) != len(pins):
        raise InputError("pins collide on a host vertex")
    pool = allowed.bit_count()
    if size == pool and size > SPANNING_CAP:
        raise CapabilityError(f"spanning search capped at {SPANNING_CAP} vertices, got {size}")
    if size > pool:
        return EmbedResult("none", None, 0, time.monotonic() - t0, "size")
    # pinned pattern edges must already exist
    edges = pattern_edges(pattern)
    for a, b in edges:
        if a in pins and b in pins and not host.has_edge(pins[a], pins[b]):
            return EmbedResult("none", None, 0, time.monotonic() - t0, "pins")
    if size == 1:
        v = pins.get(0, None)
        if v is None:
            if not allowed:
                return EmbedResult("none", None, 0, time.monotonic() - t0, "size")
            v = (allowed & -allowed).bit_length() - 1
        return EmbedResult("found", (v,), 0, time.monotonic() - t0, "trivial")

    adj = _pattern_adjacency(size, edges)
    nodes = 0
    is_cycle = isinstance(pattern, CyclePattern)
    if is_cycle and pattern.is_directed():
        # a directed cycle lives inside one strongly connected component
        sub, verts = induced(host, allowed)
        comps = strongly_connected_components(sub)
        status_overall = "none"
        method = "scc"
        for comp in comps:
            comp_mask = 0
            for i in bits_of(comp):
                comp_mask |= 1 << verts[i]
            if comp_mask.bit_count() < size:
                continue
            if any(not comp_mask >> v & 1 for v in pins.values()):
                continue
            status, mapping, m, nodes = _engine(host, pattern, adj, pins, comp_mask,
                                                nodes, node_budget)
            if status == "found":
                return EmbedResult("found", mapping, nodes, time.monotonic() - t0, "scc+" + m)
            if status == "timeout":
                status_overall = "timeout"
                break
        return EmbedResult(status_overall, None, nodes, time.monotonic() - t0, method)

    status, mapping, method, nodes = _engine(host, pattern, adj, pins, allowed,
                                             nodes, node_budget)
    return EmbedResult(status, mapping, nodes, time.monotonic() - t0, method)
