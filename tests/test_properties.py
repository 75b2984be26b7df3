"""Invariants that must hold on arbitrary inputs, checked by fuzzing."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hamorient import (CyclePattern, Digraph, PathPattern,
                       robust_out_neighborhood, strongly_connected_components,
                       tt_embed_path)
from hamorient.bitset import bit_list, int_ceil, int_floor, mask_of
from hamorient.patterns import (canonical_rotation, cyclic_runs, reflect,
                                rotate, switches)

orientations = st.lists(st.booleans(), min_size=3, max_size=14).map(tuple)
mixed = orientations.filter(lambda o: any(o) and not all(o))


def rand_digraph(n, seed, p=0.45):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return Digraph.from_edge_list(n, edges)


# --- pattern algebra ---------------------------------------------------------


@given(mixed)
def test_sources_balance_sinks(o):
    c = CyclePattern(o)
    src, snk = switches(c)
    assert len(src) == len(snk)
    assert len(src) >= 1


@given(mixed, st.integers(0, 30), st.integers(0, 30))
def test_rotation_composes(o, a, b):
    c = CyclePattern(o)
    assert rotate(rotate(c, a), b).orientation == \
        rotate(c, (a + b) % len(o)).orientation


@given(orientations)
def test_reflect_is_involution(o):
    c = CyclePattern(o)
    assert reflect(reflect(c)).orientation == o


@given(mixed, st.integers(0, 30))
def test_canonical_rotation_is_class_invariant(o, r):
    c = CyclePattern(o)
    canon, shift = canonical_rotation(c)
    assert rotate(c, shift).orientation == canon.orientation
    again, _ = canonical_rotation(rotate(c, r))
    assert again.orientation == canon.orientation
    twice, shift2 = canonical_rotation(canon)
    assert twice.orientation == canon.orientation and shift2 == 0


@given(orientations)
def test_pattern_string_round_trip(o):
    c = CyclePattern(o)
    assert CyclePattern.from_string(c.to_string()).orientation == o


@given(mixed)
def test_switch_count_rotation_invariant(o):
    c = CyclePattern(o)
    src, snk = switches(c)
    k = len(src) + len(snk)
    for r in range(len(o)):
        src, snk = switches(rotate(c, r))
        assert len(src) + len(snk) == k


@given(st.lists(st.integers(0, 3), min_size=1, max_size=14))
def test_cyclic_runs_tile_the_sequence(seq):
    n = len(seq)
    runs = cyclic_runs(seq)
    # the runs cover every position once, in order around the cycle, each
    # with one value
    assert sum(length for _, length, _ in runs) == n
    starts = [s for s, _, _ in runs]
    assert starts == sorted(set(starts))
    for (s, length, v), (nxt, _, w) in zip(runs, runs[1:] + runs[:1]):
        assert (s + length) % n == nxt
        assert all(seq[(s + i) % n] == v for i in range(length))
        assert len(runs) == 1 or v != w


@given(st.integers(0, 3), st.integers(1, 14))
def test_constant_sequence_is_one_run(v, n):
    assert cyclic_runs([v] * n) == [(0, n, v)]


# --- ranks in a transitive order ------------------------------------------------


@given(st.lists(st.booleans(), min_size=1, max_size=12).map(tuple),
       st.integers(0, 4))
def test_tt_embed_path_respects_orientation(o, slack):
    p = PathPattern(o)
    size = len(o) + 1 + slack
    ranks = tt_embed_path(p, size)
    assert len(set(ranks)) == len(ranks)
    assert all(0 <= r < size for r in ranks)
    for i, fwd in enumerate(o):
        assert (ranks[i] < ranks[i + 1]) == fwd


# --- digraph invariants ------------------------------------------------------------


@given(st.integers(2, 10), st.integers(0, 10 ** 6))
@settings(deadline=None)
def test_scc_partition_and_order(n, seed):
    g = rand_digraph(n, seed, p=0.3)
    comps = strongly_connected_components(g)
    union = 0
    for m in comps:
        assert m and not (m & union)
        union |= m
    assert union == g.vertex_mask
    # the component list is topologically ordered: no edge points from a
    # later component back to an earlier one
    comp_of = {}
    for idx, m in enumerate(comps):
        for v in bit_list(m):
            comp_of[v] = idx
    for u, v in g.edges():
        assert comp_of[u] <= comp_of[v]


@given(st.integers(2, 10), st.integers(0, 10 ** 6),
       st.floats(0.05, 0.6), st.floats(0.0, 0.4))
@settings(deadline=None)
def test_robust_out_neighborhood_monotone(n, seed, nu, bump):
    g = rand_digraph(n, seed)
    full = g.vertex_mask
    rng = random.Random(seed + 1)
    s = mask_of([v for v in range(n) if rng.random() < 0.5]) or 1
    t = s | mask_of([v for v in range(n) if rng.random() < 0.3])
    small = robust_out_neighborhood(g, s, nu)
    # growing the set can only grow the neighborhood
    assert small & ~robust_out_neighborhood(g, t, nu) == 0
    # raising the threshold can only shrink it
    assert robust_out_neighborhood(g, s, min(nu + bump, 0.99)) & ~small == 0
    assert small & ~full == 0


# --- integer rounding under float noise -----------------------------------------


@given(st.integers(-1000, 1000), st.floats(-5e-10, 5e-10))
def test_rounding_absorbs_noise(k, eps):
    assert int_floor(k + eps) == k
    assert int_ceil(k + eps) == k


@given(st.integers(1, 60), st.integers(1, 12))
def test_rounding_matches_exact_fractions(p, q):
    assert int_floor(p / q * q) == p
    assert int_ceil(p / q * q) == p
    assert int_floor(p + 0.5) == p
    assert int_ceil(p + 0.5) == p + 1
