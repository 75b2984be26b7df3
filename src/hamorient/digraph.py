"""Digraph core: immutable bitset adjacency plus the counting primitives.

A digraph on n vertices (dense ints 0..n-1) stores one out-neighborhood
bitmask and one in-neighborhood bitmask per vertex. Every counting
operation downstream (degrees, cut sizes, robust neighborhoods) reduces
to mask intersections and popcounts, so these two tuples are the whole
representation. No parallel edges; antiparallel pairs u->v, v->u are fine
and are how "double edges" are modeled.

The two structural primitives never walk edges one at a time. Strong
components come from a forward DFS whose next child is the lowest bit of
out_adj[v] & unvisited, then reverse sweeps that OR in_adj over each
frontier: O(n) big-int operations on a dense host. Induced subgraphs are
cut from the 0/1 adjacency matrix (set_rows, which the vectorised cut
search and certification share) and packed back into masks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bitset import bit_list, bits_of, full_mask
from .errors import InputError

# hard cap so masks and the numpy sweep tables stay sane
N_MAX = 4096


def check_vertex_count(n: int) -> None:
    """Raise InputError unless 0 <= n <= N_MAX."""
    if not 0 <= n <= N_MAX:
        raise InputError(f"vertex count {n} outside supported range 0..{N_MAX}")


@dataclass(frozen=True)
class Digraph:
    n: int
    out_adj: tuple[int, ...]
    in_adj: tuple[int, ...]

    def __post_init__(self):
        check_vertex_count(self.n)

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        check_vertex_count(n)
        out = [0] * n
        inn = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) has endpoint outside 0..{n - 1}")
            if u == v:
                raise InputError(f"loop edge ({u}, {v}) not allowed")
            if out[u] >> v & 1:
                raise InputError(f"duplicate edge ({u}, {v})")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        return cls(n, tuple(out), tuple(inn))

    @property
    def vertex_mask(self) -> int:
        return full_mask(self.n)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.out_adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.out_adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.out_adj[u])]


@dataclass(frozen=True)
class DegreeProfile:
    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]
    min_total: int       # min over v of d+(v) + d-(v), 0 when n = 0


def degree_profile(g: Digraph) -> DegreeProfile:
    outs = tuple(m.bit_count() for m in g.out_adj)
    ins = tuple(m.bit_count() for m in g.in_adj)
    return DegreeProfile(outs, ins,
                         min((o + i for o, i in zip(outs, ins)), default=0))


def cross_counts(g: Digraph, a: int, b: int) -> tuple[int, int, int]:
    """(e_forward, e_backward, e_total) between vertex masks a and b.

    e_forward counts ordered pairs u in a, v in b with edge u->v;
    e_backward counts edges b->a. Masks may overlap; internal edges of the
    overlap then contribute to both directions.
    """
    fwd = sum((g.out_adj[u] & b).bit_count() for u in bits_of(a))
    bwd = sum((g.out_adj[u] & a).bit_count() for u in bits_of(b))
    return fwd, bwd, fwd + bwd


def set_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i marks the vertices of masks[i]; each
    mask must lie in 0..n-1."""
    width = (n + 7) // 8
    buf = b"".join(m.to_bytes(width, "little") for m in masks)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def row_masks(rows: np.ndarray) -> tuple[int, ...]:
    """Inverse of set_rows: one int mask per 0/1 row."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def induced(g: Digraph, mask: int) -> tuple[Digraph, list[int]]:
    """Induced subgraph on the masked vertices, relabeled 0..m-1.

    Returns the subgraph and the sorted original-vertex list; position i of
    the list is the original identity of new vertex i. The masked rows of
    the 0/1 out-adjacency matrix, cut to the masked columns, are the new
    out-neighbourhoods; their transpose gives the in-neighbourhoods.
    """
    verts = bit_list(mask)
    rows = set_rows([g.out_adj[v] for v in verts], g.n)[:, verts]
    return Digraph(len(verts), row_masks(rows), row_masks(rows.T)), verts


def strongly_connected_components(g: Digraph) -> list[int]:
    """SCCs as vertex masks, condensation in topological order.

    Topological means every edge between distinct components goes from an
    earlier list entry to a later one. Ties (incomparable components) are
    broken by smallest contained vertex index, so the output is stable.

    Kosaraju on bitsets: a forward DFS takes the lowest bit of
    out_adj[v] & unvisited as v's next child, so it makes O(n) mask
    operations in all and yields the vertices in finishing order. In
    reverse finishing order, each unassigned vertex then grows its
    component by OR-ing in_adj over a frontier, within the unassigned
    vertices. A component's successors are the components met by the OR
    of its members' out_adj.
    """
    n = g.n
    out_adj, in_adj = g.out_adj, g.in_adj
    unvisited = full_mask(n)
    finish: list[int] = []
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        stack = [root.bit_length() - 1]
        while stack:
            nxt = out_adj[stack[-1]] & unvisited
            if nxt:
                low = nxt & -nxt
                unvisited ^= low
                stack.append(low.bit_length() - 1)
            else:
                finish.append(stack.pop())

    comps: list[int] = []
    comp_of = [0] * n
    left = full_mask(n)
    for v in reversed(finish):
        if not left >> v & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            reach = 0
            for u in bits_of(frontier):
                reach |= in_adj[u]
            frontier = reach & left & ~comp
            comp |= frontier
        left ^= comp
        for u in bits_of(comp):
            comp_of[u] = len(comps)
        comps.append(comp)

    # Kahn over the condensation, heap keyed by smallest member vertex
    k = len(comps)
    succ: list[list[int]] = [[] for _ in range(k)]
    indeg = [0] * k
    for i, comp in enumerate(comps):
        reach = 0
        for u in bits_of(comp):
            reach |= out_adj[u]
        reach &= ~comp
        while reach:
            j = comp_of[(reach & -reach).bit_length() - 1]
            reach &= ~comps[j]
            succ[i].append(j)
            indeg[j] += 1
    key = [(c & -c).bit_length() - 1 for c in comps]
    heap = [(key[i], i) for i in range(k) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (key[j], j))
    return [comps[i] for i in order]


def double_edge_graph(g: Digraph) -> Digraph:
    """Symmetric subdigraph keeping u->v only when v->u is also present."""
    both = tuple(o & i for o, i in zip(g.out_adj, g.in_adj))
    return Digraph(g.n, both, both)


def is_strongly_connected(g: Digraph) -> bool:
    if g.n <= 1:
        return True
    return len(strongly_connected_components(g)) == 1
