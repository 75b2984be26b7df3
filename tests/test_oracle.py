import random
from itertools import combinations

import pytest

from hamorient import (CapabilityError, CyclePattern, Digraph, InputError,
                       PathPattern, exact_embed,
                       gen_bipartite_extremal, gen_blowup_tt,
                       validate_embedding)
from hamorient import oracle
from hamorient.bitset import mask_of

from conftest import (brute_cycle_embed, brute_path_embed, complete_digraph,
                      cycle_digraph, digraph, ref_static_filter)


def rand_digraph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return Digraph.from_edge_list(n, edges)


def rand_cycle_pattern(n, seed):
    rng = random.Random(seed)
    while True:
        o = tuple(rng.random() < 0.5 for _ in range(n))
        if not all(o) and any(o):
            return CyclePattern(o)


# --- cross-validation against the permutation sweep -----------------------


def test_cycle_embed_matches_brute_force():
    """The search engine and the permutation sweep must agree on
    existence for every small random (host, pattern) pair."""
    for seed in range(40):
        n = 5 + seed % 3          # hosts on 5..7 vertices
        g = rand_digraph(n, 0.45, seed)
        c = rand_cycle_pattern(n, seed * 7 + 1)
        res = exact_embed(g, c)
        brute = brute_cycle_embed(g, c)
        assert res.status in ("found", "none")
        assert res.found == (brute is not None), (seed, c.to_string())
        if res.found:
            assert validate_embedding(g, c, res.mapping, spanning=True).valid


def test_path_embed_matches_brute_force():
    for seed in range(40):
        n = 6
        g = rand_digraph(n, 0.35, seed + 100)
        rng = random.Random(seed)
        p = PathPattern(tuple(rng.random() < 0.5 for _ in range(3)))
        res = exact_embed(g, p)
        brute = brute_path_embed(g, p)
        assert res.found == (brute is not None)
        if res.found:
            assert validate_embedding(g, p, res.mapping).valid


def test_pinned_path_matches_brute_force():
    for seed in range(25):
        g = rand_digraph(6, 0.5, seed + 300)
        rng = random.Random(seed)
        p = PathPattern(tuple(rng.random() < 0.5 for _ in range(4)))
        u, v = 0, 5
        res = exact_embed(g, p, pins={0: u, 4: v})
        assert res.found == _brute_pinned(g, p, u, v)
        if res.found:
            assert res.mapping[0] == u and res.mapping[-1] == v
            assert validate_embedding(g, p, res.mapping).valid


def _brute_pinned(g, p, u, v):
    from itertools import permutations

    size = p.length
    mids = [w for w in range(g.n) if w not in (u, v)]
    for middle in permutations(mids, size - 2):
        perm = (u,) + middle + (v,)
        if all(g.has_edge(*((perm[i], perm[i + 1]) if p.orientation[i]
                            else (perm[i + 1], perm[i])))
               for i in range(size - 1)):
            return True
    return False


# --- directed basics -------------------------------------------------------


def test_directed_cycle_in_cycle_digraph():
    g = cycle_digraph(8)
    res = exact_embed(g, CyclePattern.directed(8))
    assert res.found
    # the all-backward pattern is the same cycle walked the other way
    res2 = exact_embed(g, CyclePattern((False,) * 8))
    assert res2.found
    assert validate_embedding(g, CyclePattern((False,) * 8), res2.mapping,
                              spanning=True).valid


def test_non_directed_pattern_needs_switches():
    g = cycle_digraph(6)  # only the one directed cycle exists
    res = exact_embed(g, CyclePattern.from_string("+++++-"))
    assert res.status == "none"


def test_complete_host_finds_everything():
    g = complete_digraph(7)
    for seed in range(10):
        c = rand_cycle_pattern(7, seed)
        res = exact_embed(g, c)
        assert res.found
        assert validate_embedding(g, c, res.mapping, spanning=True).valid


def test_scc_restriction_blocks_cross_component_cycles():
    # two directed triangles with a one-way bridge: no directed 4-cycle
    g = digraph(6, (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3))
    for L in (4, 5, 6):
        res = exact_embed(g, CyclePattern.directed(L))
        assert res.status == "none"
    assert exact_embed(g, CyclePattern.directed(3)).found


# --- pins, allowed masks, degenerate inputs --------------------------------


def test_pins_respected():
    g = complete_digraph(6)
    c = CyclePattern.from_string("++-+-+")
    res = exact_embed(g, c, pins={0: 3, 2: 5})
    assert res.found
    assert res.mapping[0] == 3 and res.mapping[2] == 5


def test_pins_validation():
    g = complete_digraph(4)
    c = CyclePattern.directed(4)
    with pytest.raises(InputError):
        exact_embed(g, c, pins={9: 0})
    with pytest.raises(InputError):
        exact_embed(g, c, pins={0: 7})
    with pytest.raises(InputError):
        exact_embed(g, c, pins={0: 1, 1: 1})


def test_impossible_pinned_edge_is_none():
    g = digraph(3, (0, 1), (1, 2), (2, 0))
    res = exact_embed(g, CyclePattern.directed(3), pins={0: 0, 1: 2})
    assert res.status == "none"


def test_allowed_mask_restricts_pool():
    g = complete_digraph(8)
    c = CyclePattern.from_string("+-+-")
    allowed = mask_of([0, 1, 2, 3])
    res = exact_embed(g, c, allowed=allowed)
    assert res.found
    assert all(v < 4 for v in res.mapping)


def test_pool_smaller_than_pattern_is_none():
    g = complete_digraph(8)
    res = exact_embed(g, CyclePattern.directed(5), allowed=mask_of([0, 1, 2]))
    assert res.status == "none"


def test_spanning_cap_raises():
    g = cycle_digraph(70)
    with pytest.raises(CapabilityError):
        exact_embed(g, CyclePattern.directed(70))


def test_non_spanning_search_on_large_host_is_fine():
    g = cycle_digraph(70)
    res = exact_embed(g, CyclePattern.directed(10))
    assert res.status == "none"   # a 70-cycle has no 10-cycle
    res = exact_embed(g, PathPattern.directed(10))
    assert res.found


# --- the independent checker ----------------------------------------------


def test_checker_accepts_valid():
    g = cycle_digraph(5)
    rep = validate_embedding(g, CyclePattern.directed(5), (0, 1, 2, 3, 4),
                             spanning=True)
    assert rep.valid and rep.errors == ()


def test_checker_catches_wrong_direction():
    g = cycle_digraph(5)
    rep = validate_embedding(g, CyclePattern((False,) * 5), (0, 1, 2, 3, 4),
                             spanning=True)
    assert not rep.valid
    assert any("edge" in e for e in rep.errors)


def test_checker_catches_duplicates_and_range():
    g = complete_digraph(5)
    c = CyclePattern.directed(5)
    assert not validate_embedding(g, c, (0, 1, 2, 3, 3), spanning=True).valid
    assert not validate_embedding(g, c, (0, 1, 2, 3, 9), spanning=True).valid
    assert not validate_embedding(g, c, (0, 1, 2), spanning=True).valid
    assert not validate_embedding(g, c, None, spanning=True).valid


def test_checker_spanning_flag():
    g = complete_digraph(6)
    c = CyclePattern.directed(4)
    m = (0, 1, 2, 3)
    assert validate_embedding(g, c, m).valid
    assert not validate_embedding(g, c, m, spanning=True).valid


def test_checker_allowed_mask():
    g = complete_digraph(6)
    c = CyclePattern.directed(4)
    m = (0, 1, 2, 3)
    assert not validate_embedding(g, c, m, allowed=mask_of([0, 1, 2, 4])).valid
    assert validate_embedding(g, c, m, allowed=mask_of([0, 1, 2, 3])).valid


def test_checker_is_adversarial_on_near_misses():
    """Perturbing one vertex of a valid embedding must be caught whenever
    the perturbed mapping stops being a genuine embedding."""
    g = gen_blowup_tt([4, 4], intra=1.0, forward_noise=0.0, seed=0)
    c = CyclePattern.from_string("++-+-+-+")
    res = exact_embed(g, c)
    assert res.found
    base = list(res.mapping)
    for pos in range(len(base)):
        for v in range(g.n):
            twisted = list(base)
            twisted[pos] = v
            rep = validate_embedding(g, c, twisted, spanning=True)
            ok = rep.valid
            # recompute validity naively right here
            distinct = len(set(twisted)) == len(twisted)
            edges_ok = all(
                g.has_edge(*((twisted[i], twisted[(i + 1) % c.n])
                             if c.orientation[i]
                             else (twisted[(i + 1) % c.n], twisted[i])))
                for i in range(c.n))
            assert ok == (distinct and edges_ok)


# --- timeout and budget ----------------------------------------------------


def test_node_budget_times_out():
    g = rand_digraph(14, 0.5, 42)
    c = rand_cycle_pattern(14, 1)
    res = exact_embed(g, c, node_budget=1)
    assert res.nodes <= 1
    assert res.status in ("found", "timeout")  # the subset DP can still answer
    res_full = exact_embed(g, c)
    assert res_full.status in ("found", "none")


def test_node_budget_bounds_the_budgeted_stage():
    """A spanning search too large for the subset DP runs one backtracking
    pass and stops at exactly node_budget nodes, the same way on every
    call."""
    g = gen_blowup_tt([20, 20, 20], 0.95, 0.001, 4242)
    c = CyclePattern.from_string(
        "++---+++-++--++---++---+++++-+++++++++++-+-+--++++-+---+-+++")
    first, second = (exact_embed(g, c, node_budget=60_000) for _ in range(2))
    assert (first.status, first.nodes, first.method) == \
        ("timeout", 60_000, "backtrack")
    assert (second.status, second.mapping, second.nodes, second.method) == \
        (first.status, first.mapping, first.nodes, first.method)


def test_search_the_dp_cannot_serve_is_one_backtracking_pass():
    """A non-spanning refutation longer than BT_STAGE_NODES nodes reports
    the node count of a single backtracking pass from the root."""
    g = gen_bipartite_extremal(10)
    c = CyclePattern.from_string("++-+-----")   # odd, on 9 of 10 vertices
    res = exact_embed(g, c)
    adj = oracle._pattern_adjacency(c.n, oracle.pattern_edges(c))
    filt = oracle._static_filter(g, adj, g.vertex_mask)
    status, _, nodes = oracle._backtrack(g, adj, filt, {}, g.vertex_mask, 0,
                                         oracle.NODE_BUDGET)
    assert (res.status, res.method, status) == ("none", "backtrack", "none")
    assert res.nodes == nodes == 31_162
    assert nodes > oracle.BT_STAGE_NODES


def test_static_filter_matches_reference():
    """The filter thresholds only the allowed vertices; it must give the
    reference's whole-host masks ANDed with allowed, including on hosts
    with isolated and low-degree vertices where thresholds fail."""
    rng = random.Random(808)
    for trial in range(60):
        n = rng.randrange(1, 40)
        g = rand_digraph(n, rng.choice((0.05, 0.15, 0.4, 0.8)), 9000 + trial)
        # drop most arcs at three vertices: isolated and low-degree ones
        out = list(g.out_adj)
        inn = list(g.in_adj)
        for v in rng.sample(range(n), min(n, 3)):
            for w in range(n):
                if out[v] >> w & 1 and rng.random() < 0.8:
                    out[v] &= ~(1 << w)
                    inn[w] &= ~(1 << v)
                if inn[v] >> w & 1 and rng.random() < 0.8:
                    inn[v] &= ~(1 << w)
                    out[w] &= ~(1 << v)
        g = Digraph(n, tuple(out), tuple(inn))
        full = g.vertex_mask
        lo = rng.randrange(n)
        masks = [0, full, rng.getrandbits(n) & full,
                 full & ~((1 << lo) - 1) & ((1 << rng.randrange(lo, n + 1)) - 1)]
        patterns = [PathPattern.from_string("+"), PathPattern.from_string("+-+--")]
        if n >= 3:
            patterns += [rand_cycle_pattern(n, trial), CyclePattern.directed(3),
                         CyclePattern.from_string("+-+-")]
        for pattern in patterns:
            adj = oracle._pattern_adjacency(oracle.pattern_size(pattern),
                                            oracle.pattern_edges(pattern))
            for allowed in masks:
                assert oracle._static_filter(g, adj, allowed) == \
                    ref_static_filter(g, adj, allowed), (trial, pattern, allowed)
