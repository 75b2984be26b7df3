import random

import pytest

from hamorient import (Digraph, InputError, cross_counts, degree_profile,
                       double_edge_graph, gen_blowup_tt, induced,
                       is_strongly_connected, strongly_connected_components)
from hamorient.bitset import mask_of

from conftest import (complete_digraph, cycle_digraph, digraph, ref_induced,
                      ref_scc)


def test_construction_and_degrees():
    g = digraph(4, (0, 1), (1, 0), (1, 2), (2, 3))
    assert g.n == 4
    assert g.edge_count() == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(2, 1)
    assert g.edges() == [(0, 1), (1, 0), (1, 2), (2, 3)]


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        digraph(3, (0, 3))
    with pytest.raises(InputError):
        digraph(3, (1, 1))
    with pytest.raises(InputError):
        digraph(3, (0, 1), (0, 1))
    with pytest.raises(InputError):
        Digraph.from_edge_list(5000, [])


def test_degree_profile():
    g = digraph(3, (0, 1), (1, 2), (2, 0), (0, 2))
    prof = degree_profile(g)
    assert prof.out_degrees == (2, 1, 1)
    assert prof.in_degrees == (1, 1, 2)
    assert prof.min_total == 2


def test_degree_profile_complete():
    g = complete_digraph(5)
    prof = degree_profile(g)
    assert prof.min_total == 8


def test_cross_counts():
    # 0,1 on one side; 2,3 on the other; 3 forward edges, 1 backward
    g = digraph(4, (0, 2), (0, 3), (1, 2), (3, 1))
    a, b = mask_of([0, 1]), mask_of([2, 3])
    fwd, bwd, tot = cross_counts(g, a, b)
    assert (fwd, bwd, tot) == (3, 1, 4)
    # reversed roles swap the counts
    assert cross_counts(g, b, a)[:2] == (1, 3)


def test_induced_relabels():
    g = digraph(5, (0, 2), (2, 4), (4, 0), (1, 3))
    sub, verts = induced(g, mask_of([0, 2, 4]))
    assert verts == [0, 2, 4]
    assert sub.n == 3
    assert sub.edges() == [(0, 1), (1, 2), (2, 0)]
    assert is_strongly_connected(sub)


def test_scc_topological_order():
    # two 2-cycles joined by a one-way edge: {0,1} -> {2,3}
    g = digraph(4, (0, 1), (1, 0), (2, 3), (3, 2), (1, 2))
    comps = strongly_connected_components(g)
    assert comps == [mask_of([0, 1]), mask_of([2, 3])]


def test_scc_dag_is_positional_topological():
    # path 2 -> 0 -> 1: every edge goes earlier -> later in the output
    g = digraph(3, (2, 0), (0, 1))
    comps = strongly_connected_components(g)
    assert comps == [1 << 2, 1 << 0, 1 << 1]


def test_scc_cycle_single_component():
    g = cycle_digraph(7)
    assert strongly_connected_components(g) == [g.vertex_mask]
    assert is_strongly_connected(g)


def test_scc_topological_invariant_random():
    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 12)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
        g = digraph(n, *[(u, v) for u, v in edges if u != v])
        comps = strongly_connected_components(g)
        # partition of the vertex set
        union = 0
        for m in comps:
            assert m and not (m & union)
            union |= m
        assert union == g.vertex_mask
        # topological: no edge from a later component to an earlier one
        comp_idx = {}
        for i, m in enumerate(comps):
            for v in range(n):
                if m >> v & 1:
                    comp_idx[v] = i
        for u, v in g.edges():
            assert comp_idx[u] <= comp_idx[v]


def test_double_edge_graph():
    g = digraph(3, (0, 1), (1, 0), (1, 2))
    d = double_edge_graph(g)
    assert d.has_edge(0, 1) and d.has_edge(1, 0)
    assert not d.has_edge(1, 2)
    assert d.edge_count() == 2


def test_not_strongly_connected():
    assert not is_strongly_connected(digraph(2, (0, 1)))
    assert is_strongly_connected(digraph(1))


def _from_out_masks(out):
    n = len(out)
    inn = [0] * n
    for u, m in enumerate(out):
        for v in range(n):
            if m >> v & 1:
                inn[v] |= 1 << u
    return Digraph(n, tuple(out), tuple(inn))


def _random_digraph(rng, n, p, order=None, back=0.0):
    """Each pair u -> v with probability p; with a vertex order given, only
    forward pairs get probability p and backward ones `back`."""
    pos = {v: i for i, v in enumerate(order or range(n))}
    out = []
    for u in range(n):
        m = 0
        for v in range(n):
            if u != v and rng.random() < (p if pos[u] < pos[v] or order is None
                                          else back):
                m |= 1 << v
        out.append(m)
    return _from_out_masks(out)


def test_scc_and_induced_match_reference_on_every_small_digraph():
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for code in range(1 << len(pairs)):
            out = [0] * n
            for i, (u, v) in enumerate(pairs):
                if code >> i & 1:
                    out[u] |= 1 << v
            g = _from_out_masks(out)
            assert strongly_connected_components(g) == ref_scc(g), (n, code)
            for mask in range(1 << n):
                assert induced(g, mask) == ref_induced(g, mask), (n, code, mask)


def test_scc_and_induced_match_reference_on_random_digraphs():
    rng = random.Random(2024)
    for n in (1, 2, 7, 31, 64, 65, 129, 300):
        order = rng.sample(range(n), n)
        hosts = [_random_digraph(rng, n, p) for p in (0.0, 0.01, 0.05, 0.3, 0.9)]
        # DAG-like: a hidden order, rare or no backward edges
        hosts += [_random_digraph(rng, n, p, order, back)
                  for p, back in ((0.1, 0.0), (0.6, 0.0), (0.6, 0.002))]
        for g in hosts:
            assert strongly_connected_components(g) == ref_scc(g), n
            masks = [0, g.vertex_mask, 1 << (n - 1)]
            masks += [rng.getrandbits(n) for _ in range(3)]
            for mask in masks:
                assert induced(g, mask) == ref_induced(g, mask), n


def test_scc_and_induced_match_reference_on_large_blowup():
    g = gen_blowup_tt([500, 500], 0.95, 0.001, 3)
    assert strongly_connected_components(g) == ref_scc(g)
    half = (1 << 500) - 1
    assert induced(g, half | 1 << 700) == ref_induced(g, half | 1 << 700)
