"""Shared helpers: tiny graphs and brute-force references.

The brute-force embedders here are the court of last resort: pure
itertools sweeps with no pruning, used to cross-check the real search
engines on instances small enough to enumerate completely.
"""

import math
from itertools import permutations

import pytest

from hamorient import Digraph, gen_blowup_tt, robust_out_neighborhood


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


@pytest.fixture
def planted_two_block():
    """Two complete blocks of 6, all cross edges backward, no noise."""
    return gen_blowup_tt([6, 6], intra=1.0, forward_noise=0.0, seed=0)
