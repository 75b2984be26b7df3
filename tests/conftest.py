"""Shared helpers: tiny graphs and brute-force references.

The brute-force embedders here are the court of last resort: pure
itertools sweeps with no pruning, used to cross-check the real search
engines on instances small enough to enumerate completely.
"""

import heapq
import math
from itertools import permutations

import pytest

from hamorient import Digraph, gen_blowup_tt, robust_out_neighborhood
from hamorient.bitset import bit_list, bits_of, mask_of
from hamorient.patterns import rotate


def digraph(n, *edges):
    return Digraph.from_edge_list(n, list(edges))


def cycle_digraph(n):
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return digraph(n, *[(i, (i + 1) % n) for i in range(n)])


def complete_digraph(n):
    return digraph(n, *[(u, v) for u in range(n) for v in range(n) if u != v])


def brute_cycle_embed(g, c):
    """Reference spanning-cycle embedder: try every vertex permutation."""
    n = g.n
    assert c.n == n
    for perm in permutations(range(n)):
        ok = True
        for i in range(n):
            a, b = perm[i], perm[(i + 1) % n]
            u, v = (a, b) if c.orientation[i] else (b, a)
            if not g.has_edge(u, v):
                ok = False
                break
        if ok:
            return perm
    return None


def brute_path_embed(g, p, pool=None):
    """Reference path embedder: every injection of positions into pool."""
    verts = pool if pool is not None else range(g.n)
    size = p.length
    for perm in permutations(verts, size):
        ok = True
        for i in range(size - 1):
            a, b = perm[i], perm[i + 1]
            u, v = (a, b) if p.orientation[i] else (b, a)
            if not g.has_edge(u, v):
                ok = False
                break
        if ok:
            return perm
    return None


def brute_robust_outnbhd(g, s_mask, nu):
    """Reference robust out-neighborhood: vertices with >= ceil(nu*n)
    in-edges from the set, counted the slow way."""
    thr = max(1, math.ceil(nu * g.n - 1e-9))
    out = 0
    for v in range(g.n):
        cnt = sum(1 for u in range(g.n) if (s_mask >> u & 1) and g.has_edge(u, v))
        if cnt >= thr:
            out |= 1 << v
    return out


def brute_hill_climb(g, x1, max_steps=10_000):
    """Reference hill climb: every step recomputes the gain of each
    single-vertex move with fresh popcounts, vertex by vertex, and takes
    the first strictly best move that beats the current ratio by more
    than 1e-15. Returns (X1, e_forward, ratio, moves taken)."""
    n = g.n
    all_mask = g.vertex_mask
    x2 = all_mask & ~x1
    e = sum((g.out_adj[u] & x2).bit_count() for u in range(n) if x1 >> u & 1)
    s1 = x1.bit_count()
    ratio = e / (s1 * (n - s1))
    moves = 0
    for _ in range(max_steps):
        best = None
        for v in range(n):
            b = 1 << v
            if x1 & b:
                if s1 == 1:
                    continue
                ne = e - (g.out_adj[v] & x2).bit_count() + (g.in_adj[v] & x1 & ~b).bit_count()
                ns1 = s1 - 1
            else:
                if s1 == n - 1:
                    continue
                ne = e + (g.out_adj[v] & x2 & ~b).bit_count() - (g.in_adj[v] & x1).bit_count()
                ns1 = s1 + 1
            nr = ne / (ns1 * (n - ns1))
            if nr < ratio - 1e-15 and (best is None or nr < best[0]):
                best = (nr, v, ne, ns1)
        if best is None:
            break
        ratio, v, e, s1 = best
        x1 ^= 1 << v
        x2 = all_mask & ~x1
        moves += 1
    return x1, e, ratio, moves


def brute_sampled_verdict(g, cands, nu):
    """Reference sampled certification over a candidate list: probe each
    set in order with robust_out_neighborhood. Returns (outcome,
    checked_sets, violator, rn_size, set_size)."""
    thr = max(1, math.ceil(nu * g.n - 1e-9))
    for i, s in enumerate(cands):
        rn = robust_out_neighborhood(g, s, nu)
        if rn.bit_count() < s.bit_count() + thr:
            return "violator", i + 1, s, rn.bit_count(), s.bit_count()
    return "inconclusive", len(cands), None, None, None


def ref_induced(g, mask):
    """Reference induced subgraph: re-index every edge one at a time."""
    verts = bit_list(mask)
    index = {v: i for i, v in enumerate(verts)}
    out = []
    inn = []
    for v in verts:
        om = 0
        for w in bits_of(g.out_adj[v] & mask):
            om |= 1 << index[w]
        im = 0
        for w in bits_of(g.in_adj[v] & mask):
            im |= 1 << index[w]
        out.append(om)
        inn.append(im)
    return Digraph(len(verts), tuple(out), tuple(inn)), verts


def ref_scc(g):
    """Reference strong components: iterative Tarjan over every out-edge,
    then Kahn over the condensation with a heap keyed by smallest member
    vertex."""
    n = g.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp_of = [-1] * n
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(bit_list(g.out_adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(bit_list(g.out_adj[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    k = len(comps)
    succ = [set() for _ in range(k)]
    indeg = [0] * k
    for u in range(n):
        cu = comp_of[u]
        for w in bits_of(g.out_adj[u]):
            cw = comp_of[w]
            if cu != cw and cw not in succ[cu]:
                succ[cu].add(cw)
                indeg[cw] += 1
    key = [min(c) for c in comps]
    heap = [(key[i], i) for i in range(k) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (key[j], j))
    return [mask_of(comps[i]) for i in order]


def ref_canonical_rotation(c):
    """Reference canonical rotation: build the n-tuple key of every offset
    and take the smallest (key, offset)."""
    n = c.n
    key = lambda r: tuple(0 if c.orientation[(i + r) % n] else 1 for i in range(n))
    best = min(range(n), key=lambda r: (key(r), r))
    return rotate(c, best), best


def has_directed_window(c, m):
    """True iff some segment on m vertices is directed (has no inner switch).

    Direct window scan, deliberately independent of run_frame so the two
    can cross-check each other."""
    n = c.n
    if m <= 1:
        return True
    if m > n:
        return False
    o = c.orientation
    for s in range(n):
        if all(o[(s + i) % n] == o[s] for i in range(m - 1)):
            return True
    return False


def ref_static_filter(host, adj, allowed):
    """Reference static filter: count the degrees of every host vertex,
    threshold all of them per (out, in) need, then AND with allowed."""
    need_masks = {}
    out_deg = [m.bit_count() for m in host.out_adj]
    in_deg = [m.bit_count() for m in host.in_adj]
    filt = []
    for entries in adj:
        no = sum(1 for _, m in entries if m == 0)
        ni = len(entries) - no
        key = (no, ni)
        if key not in need_masks:
            m = 0
            for v in range(host.n):
                if out_deg[v] >= no and in_deg[v] >= ni:
                    m |= 1 << v
            need_masks[key] = m
        filt.append(need_masks[key] & allowed)
    return filt


@pytest.fixture
def planted_two_block():
    """Two complete blocks of 6, all cross edges backward, no noise."""
    return gen_blowup_tt([6, 6], intra=1.0, forward_noise=0.0, seed=0)
