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
pays for that class, not for the whole host. A node of the search
assigns one vertex to one position, updates the assigned-neighbour
counts of that position's (at most two) pattern neighbours, and makes
one pass over the front, the unassigned positions next to assigned
ones: each front position's candidates are its filter mask minus the
used vertices, ANDed with the adjacency rows of its assigned
neighbours. An empty mask refutes the node; otherwise the position
with the fewest candidates becomes the next level, with the mask that
pass computed.

A search the DP can serve backtracks for BT_STAGE_NODES nodes, then runs
the DP, and only if that is abandoned backtracks again from the root.
Every other search is one backtracking pass. Either way the call stops
once it has spent node_budget nodes (default NODE_BUDGET).

Fully directed cycle patterns are first restricted to single strongly
connected components (a directed cycle cannot cross them). There is no
size cap: the node budget bounds a search on any number of vertices. A
satisfiable spanning search on a dense host often finds its mapping with
about one node per position; a refutation above DP_CAP vertices usually
spends the whole budget and ends "timeout".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bitset import bit_list, bits_of, mask_of
from .digraph import Digraph, induced, strongly_connected_components
from .errors import InputError
from .patterns import CyclePattern

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
    it shares no code path with the search engines it audits. An allowed
    mask with bits outside the host raises InputError.
    """
    if allowed is not None and allowed & ~host.vertex_mask:  # negative too
        raise InputError(f"allowed mask has bits outside the host's {host.n} vertices")
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


def _pattern_adjacency(pattern) -> list[list[tuple[int, int]]]:
    """adj[p] lists (q, mode) for the pattern neighbours q of position p:
    mode 0 means arc p->q, mode 1 means q->p."""
    size = pattern_size(pattern)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for i, fwd in enumerate(pattern.orientation):
        j = (i + 1) % size
        a, b = (i, j) if fwd else (j, i)
        adj[a].append((b, 0))
        adj[b].append((a, 1))
    return adj


def _static_filter(host: Digraph, adj, allowed: int) -> list[int]:
    """Per-position mask of the allowed vertices with enough in/out degree
    (counted in the whole host) to sit there.

    Only the vertices of allowed are counted and thresholded, so a call
    costs O(|allowed|). When every allowed vertex meets the largest
    in- and out-need, every position gets allowed itself and no degree
    lists are built. This is a search-side prefilter only:
    validate_embedding does not use it and recounts everything from the
    raw adjacency.
    """
    needs = []
    for entries in adj:
        ni = 0                          # mode 1 entries are arcs into p
        for _, mode in entries:
            ni += mode
        needs.append((len(entries) - ni, ni))
    top_out = max(no for no, _ in needs)
    top_in = max(ni for _, ni in needs)
    out_adj = host.out_adj
    in_adj = host.in_adj
    verts = bit_list(allowed)
    for v in verts:
        if out_adj[v].bit_count() < top_out or in_adj[v].bit_count() < top_in:
            break
    else:
        return [allowed] * len(adj)
    out_deg = [out_adj[v].bit_count() for v in verts]
    in_deg = [in_adj[v].bit_count() for v in verts]
    need_masks = {}
    filt = []
    for no, ni in needs:
        if (no, ni) not in need_masks:
            m = 0
            for v, do, di in zip(verts, out_deg, in_deg):
                if do >= no and di >= ni:
                    m |= 1 << v
            need_masks[no, ni] = m
        filt.append(need_masks[no, ni])
    return filt


def _backtrack(host: Digraph, adj, filt, pins: dict[int, int], nodes: int,
               cap: int) -> tuple[str, tuple[int, ...] | None, int]:
    """Search until a mapping is found, the tree is exhausted, or the
    running node count reaches cap ("budget").

    Each node runs as the module docstring says: count[p] is position
    p's number of assigned neighbours, so assigning or undoing touches
    only p's neighbours, and one pass over the front both refutes the
    node and picks the next position (fewest candidates, ties to the
    lowest position). The front is empty only at a root with no pins,
    which is position 0.
    """
    size = len(adj)
    out_adj = host.out_adj
    in_adj = host.in_adj
    # nbrs[p] pairs each neighbour q with the table whose row assign[q]
    # holds p's possible vertices: in-neighbours of q for an arc p->q
    nbrs = [[(q, in_adj if mode == 0 else out_adj) for q, mode in entries]
            for entries in adj]
    assign = [-1] * size
    count = [0] * size
    used = 0
    for p, v in pins.items():
        assign[p] = v
        used |= 1 << v
        for q, _ in adj[p]:
            count[q] += 1
    remaining = size - len(pins)
    if remaining == 0:
        return "found", tuple(assign), nodes
    front = {p for p in range(size) if count[p] and assign[p] < 0}
    stack: list[list[int]] = []    # position, candidates left, tried vertex

    while True:
        if front:
            free = ~used
            best_p, best_c, best_k = -1, 0, 1 << 62
            for q in front:
                cq = filt[q] & free
                for r, tab in nbrs[q]:
                    w = assign[r]
                    if w >= 0:
                        cq &= tab[w]
                if not cq:
                    break
                k = cq.bit_count()
                if k < best_k or (k == best_k and q < best_p):
                    best_p, best_c, best_k = q, cq, k
            else:
                stack.append([best_p, best_c, -1])
        else:
            stack.append([0, filt[0], -1])

        # undo exhausted levels, then assign the next candidate
        while stack:
            ent = stack[-1]
            p, c, tried = ent
            if tried >= 0:
                used ^= 1 << tried
                assign[p] = -1
                for q, _ in adj[p]:
                    count[q] -= 1
                    if not count[q]:
                        front.discard(q)
                if count[p]:
                    front.add(p)
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
                count[q] += 1
                if assign[q] < 0:
                    front.add(q)
            break
        else:
            return "none", None, nodes
        if len(stack) == remaining:
            return "found", tuple(assign), nodes


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
        status, mapping, nodes = _backtrack(host, adj, filt, pins, nodes,
                                            min(nodes + BT_STAGE_NODES, node_budget))
        if status != "budget":
            return status, mapping, "backtrack", nodes
        status, mapping = _dp_spanning(host, pattern.orientation,
                                       isinstance(pattern, CyclePattern),
                                       pins, allowed)
        if status != "budget":
            return status, mapping, "dp", nodes

    status, mapping, nodes = _backtrack(host, adj, filt, pins, nodes,
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
    elif allowed & ~host.vertex_mask:       # a negative mask sets every high bit
        raise InputError(f"allowed mask has bits outside the host's {host.n} vertices")
    size = pattern_size(pattern)

    for p, v in pins.items():
        if not 0 <= p < size:
            raise InputError(f"pin position {p} outside pattern")
        if not 0 <= v < host.n or not allowed >> v & 1:
            raise InputError(f"pin vertex {v} unusable")
    if len(set(pins.values())) != len(pins):
        raise InputError("pins collide on a host vertex")
    status, mapping, nodes, method = _search(host, pattern, size, pins, allowed,
                                             node_budget)
    return EmbedResult(status, mapping, nodes, time.monotonic() - t0, method)


def _search(host: Digraph, pattern, size: int, pins: dict[int, int], allowed: int,
            node_budget: int) -> tuple[str, tuple[int, ...] | None, int, str]:
    """exact_embed's answer as (status, mapping, nodes, method)."""
    if size > allowed.bit_count():
        return "none", None, 0, "size"
    # pinned pattern edges must already exist
    adj = _pattern_adjacency(pattern)
    for a, u in pins.items():
        for b, mode in adj[a]:
            if mode == 0 and b in pins and not host.has_edge(u, pins[b]):
                return "none", None, 0, "pins"
    if size == 1:
        v = pins.get(0, (allowed & -allowed).bit_length() - 1)
        return "found", (v,), 0, "trivial"

    directed = isinstance(pattern, CyclePattern) and pattern.is_directed()
    if directed:
        # a directed cycle lives inside one strongly connected component
        sub, verts = induced(host, allowed)
        comps = [mask_of(verts[i] for i in bits_of(comp))
                 for comp in strongly_connected_components(sub)]
        pools = [m for m in comps if m.bit_count() >= size
                 and all(m >> v & 1 for v in pins.values())]
    else:
        pools = [allowed]
    status, mapping, method, nodes = "none", None, "", 0
    for pool in pools:
        status, mapping, method, nodes = _engine(host, pattern, adj, pins, pool,
                                                 nodes, node_budget)
        if status != "none":
            break
    if directed:
        method = "scc+" + method if status == "found" else "scc"
    return status, mapping, nodes, method
