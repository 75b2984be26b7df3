import pytest

from hamorient import (GenSpec, InputError, degree_profile,
                       gen_bipartite_extremal, gen_blowup_tt,
                       gen_complete_digraph, gen_random_min_degree,
                       gen_split_cliques, gen_tournament,
                       is_strongly_connected)
from hamorient.generators import family_names, family_param_names


def test_complete_digraph_degrees():
    g = gen_complete_digraph(7)
    assert g.edge_count() == 42
    assert degree_profile(g).min_total == 12


def test_bipartite_extremal_structure():
    for n in range(6, 13):
        g = gen_bipartite_extremal(n)
        a = (n + 1) // 2 - 1
        prof = degree_profile(g)
        # every vertex sees the entire opposite part in both directions
        assert prof.min_total == 2 * a
        # parts are independent sets
        for u in range(a):
            for v in range(a):
                assert not g.has_edge(u, v)
        for u in range(a, n):
            for v in range(a, n):
                assert not g.has_edge(u, v)


def test_split_cliques_structure():
    g = gen_split_cliques(9)
    a = 4
    assert not any(g.has_edge(u, v) or g.has_edge(v, u)
                   for u in range(a) for v in range(a, 9))
    assert not is_strongly_connected(g)
    # each half is complete
    assert g.edge_count() == a * (a - 1) + 5 * 4


def test_blowup_tt_extremal_degree_formula():
    # t equal blocks of size s: min total degree = n + n/t - 2
    for t, s in ((2, 5), (3, 4), (4, 3)):
        n = t * s
        g = gen_blowup_tt([s] * t, intra=1.0, forward_noise=0.0, seed=0)
        assert degree_profile(g).min_total == n + n // t - 2
        # all cross edges go later block -> earlier block
        for bi in range(t):
            for bj in range(bi + 1, t):
                for u in range(bi * s, (bi + 1) * s):
                    for v in range(bj * s, (bj + 1) * s):
                        assert not g.has_edge(u, v)
                        assert g.has_edge(v, u)


def test_blowup_tt_intra_density():
    g = gen_blowup_tt([30], intra=0.5, forward_noise=0.0, seed=3)
    pairs = 30 * 29 // 2
    doubles = sum(1 for u in range(30) for v in range(u + 1, 30)
                  if g.has_edge(u, v) and g.has_edge(v, u))
    singles = sum(1 for u in range(30) for v in range(u + 1, 30)
                  if g.has_edge(u, v) != g.has_edge(v, u))
    assert doubles + singles == pairs      # every pair gets at least one edge
    assert 0.3 * pairs < doubles < 0.7 * pairs


def test_blowup_tt_noise_adds_forward_edges():
    g0 = gen_blowup_tt([20, 20], intra=1.0, forward_noise=0.0, seed=5)
    g1 = gen_blowup_tt([20, 20], intra=1.0, forward_noise=0.5, seed=5)
    fwd0 = sum(1 for u in range(20) for v in range(20, 40) if g0.has_edge(u, v))
    fwd1 = sum(1 for u in range(20) for v in range(20, 40) if g1.has_edge(u, v))
    assert fwd0 == 0
    assert 100 < fwd1 < 300     # ~200 expected


def test_random_min_degree_hits_target():
    for seed in range(10):
        g = gen_random_min_degree(12, 16, seed=seed)
        assert degree_profile(g).min_total >= 16
    with pytest.raises(InputError):
        gen_random_min_degree(5, 100)


def test_tournament_kinds():
    g = gen_tournament(8, kind="transitive")
    assert all(g.has_edge(u, v) for u in range(8) for v in range(u + 1, 8))
    r = gen_tournament(8, kind="random", seed=9)
    assert r.edge_count() == 28
    assert all(r.has_edge(u, v) != r.has_edge(v, u)
               for u in range(8) for v in range(u + 1, 8))
    with pytest.raises(InputError):
        gen_tournament(5, kind="cyclic")


def test_determinism():
    a = gen_blowup_tt([10, 10], intra=0.8, forward_noise=0.05, seed=11)
    b = gen_blowup_tt([10, 10], intra=0.8, forward_noise=0.05, seed=11)
    c = gen_blowup_tt([10, 10], intra=0.8, forward_noise=0.05, seed=12)
    assert a.out_adj == b.out_adj
    assert a.out_adj != c.out_adj
    x = gen_random_min_degree(15, 20, seed=3)
    y = gen_random_min_degree(15, 20, seed=3)
    assert x.out_adj == y.out_adj


def test_genspec_round_trip():
    spec = GenSpec("blowup", {"sizes": [6, 6], "intra": 0.9, "noise": 0.01}, seed=4)
    d = spec.to_json_dict()
    spec2 = GenSpec.from_json_dict(d)
    assert spec2.build().out_adj == spec.build().out_adj
    with pytest.raises(InputError):
        GenSpec("nonexistent", {})


@pytest.mark.parametrize("spec, expected", [
    (GenSpec("split_cliques", {"n": 9}), gen_split_cliques(9)),
    (GenSpec("tournament", {"n": 9}, seed=3), gen_tournament(9, "random", 3)),
    (GenSpec("tournament", {"n": 9, "kind": "transitive"}),
     gen_tournament(9, "transitive")),
], ids=["split_cliques", "tournament-random", "tournament-transitive"])
def test_genspec_builds_family(spec, expected):
    assert spec.build().out_adj == expected.out_adj


def test_family_registry():
    names = family_names()
    assert {"complete", "blowup", "bipartite_extremal", "split_cliques",
            "random_min_degree", "tournament"} <= set(names)
    assert family_param_names("blowup") == ("sizes", "intra", "noise")
    with pytest.raises(InputError):
        family_param_names("bogus")
