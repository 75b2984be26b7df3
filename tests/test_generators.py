import hashlib

import pytest

from hamorient import (GenSpec, InputError, degree_profile,
                       gen_bipartite_extremal, gen_blowup_tt,
                       gen_complete_digraph, gen_random_min_degree,
                       gen_split_cliques, gen_tournament,
                       is_strongly_connected)
from hamorient.bitset import bits_of
from hamorient.digraph import N_MAX
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


def test_generators_respect_vertex_cap():
    assert gen_complete_digraph(N_MAX).n == N_MAX
    with pytest.raises(InputError):
        gen_complete_digraph(N_MAX + 1)
    with pytest.raises(InputError):
        gen_split_cliques(N_MAX + 1)


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


def _digest(hosts) -> str:
    """sha256 of repr((n, out_adj, in_adj)) of each host in turn."""
    h = hashlib.sha256()
    for g in hosts:
        h.update(repr((g.n, g.out_adj, g.in_adj)).encode())
    return h.hexdigest()


GENERATORS = {"complete": gen_complete_digraph,
              "bipartite_extremal": gen_bipartite_extremal,
              "split_cliques": gen_split_cliques, "blowup": gen_blowup_tt,
              "random_min_degree": gen_random_min_degree,
              "tournament": gen_tournament}

# perfbench's blowup hosts: its fixed hosts, then those it draws for
# --seed 1 and --seed 7 (planted-exact, then planted-heuristic's
# partition-only hosts), as (block sizes, host seed)
PERFBENCH_BLOWUPS = (
    ((20, 20, 20), 2020), ((21, 21, 21), 2121), ((20, 20, 24), 2024),
    ((32, 32), 3232), ((48, 48), 4848), ((64, 64), 6464),
    ((30, 30, 30), 3030), ((36, 36, 36), 3636), ((42, 42, 42), 4242),
    ((32, 32, 32, 32), 32323232), ((40, 40, 40), 1120),
    ((20, 20), 351384374), ((22, 22), 1010053095), ((24, 24), 186683862),
    ((20, 20), 841472494), ((22, 22), 561770348), ((24, 24), 893774974),
    ((100, 100), 151757596), ((100, 100, 100), 552372011),
    ((100, 100), 305689525), ((100, 100, 100), 217463838))

# (family, argument tuples, sha256 of the hosts in that order): the hosts
# the tests and perfbench build. Recorded before the generators set mask
# bits directly; any change to a generator's output has to re-record them
# on purpose.
GOLDEN_HOSTS = [
    ("complete", [(n,) for n in (1, 4, 7, 8, 10, 12, 25, 40)],
     "1803e372172f1f23f9d3a07e7a8dca05d42bcc1519804d9422565e97deeaa47c"),
    ("bipartite_extremal", [(n,) for n in (4, 8, 9, 10, 12, 20, 100)],
     "c286f21926d0e9aa9893fc9e139d0d4382d15725d1617f16598e6c7984c39f55"),
    ("split_cliques", [(n,) for n in (4, 8, 9, 10, 11)],
     "1a092d3ddd289a9c7b48cf554c909a98311fdee879f7f491484f857900101da4"),
    ("blowup", [([6, 6], 1.0, 0.0, 0), ([6, 6], 1.0, 0.0, 1), ([5], 1.0, 0.0, 0),
                ([4, 4], 1.0, 0.0, 0), ([5, 5], 1.0, 0.0, 0), ([16, 16], 1.0, 0.0, 1),
                ([20, 20], 1.0, 0.0, 2), ([20, 20], 1.0, 0.0, 5),
                ([20, 20], 1.0, 0.5, 5), ([30], 0.5, 0.0, 3),
                ([10, 10], 0.8, 0.05, 11), ([10, 10], 0.8, 0.05, 12),
                ([7, 9, 5], 0.3, 0.4, 21)],
     "a0add1e829b29bed22c3e02e1987e67200c2d7b223a805828a375d5482788ed4"),
    ("blowup", [(sizes, 0.95, 0.001, seed) for sizes, seed in (
        ([10, 10], 1), ([15, 15], 1), ([20, 20], 3), ([20, 20], 7),
        ([24, 24], 3), ([30, 30], 11), ([20, 20, 20], 5),
        ([20, 20, 20], 4242), ([100, 100], 7))],
     "1bd46fc40a92ceb9b4f13b3848ad1bad33cdc9ea6a99cf4db917df2ddaa113f6"),
    ("blowup", [(list(sizes), 0.95, 0.001, seed)
                for sizes, seed in PERFBENCH_BLOWUPS],
     "7899de4be4c0d0fc9c853776a264cd5e642bcb18873f28ff95adb7825ba3fb22"),
    ("random_min_degree", [(12, 16, s) for s in range(10)],
     "0e77edcfce72369da9623c5bfde49c7eb2dd419f97726c0e5fb2f4c04ff68907"),
    ("random_min_degree", [(1, 0, 0), (15, 20, 3), (24, 32, 3), (40, 56, 3),
                           (70, 100, 4), (100, 160, 1), (200, 220, 1),
                           (200, 299, 1)],
     "4b90270d4ac656c045224d06075b2a56a914d88bdcd549f440d8bf120e969950"),
    # C9's hosts, then perfbench's oracle hosts for --seed 1 and --seed 7
    ("random_min_degree", [(10, 14, s) for s in range(7000, 7100)],
     "7f8e34fd2ed16ebc5762e5518c845ba19ae1ebd71aef8ed19080459ae0f38e38"),
    ("random_min_degree", [(10, 14, s) for s in range(7350, 7400)],
     "0db33b29a449b118aacc73ebc37917b23fbae68a3915fdff9c59093ab151170a"),
    # tiny hosts; 27 of them need the greedy repair after sampling
    ("random_min_degree", [(n, d, s) for n in range(2, 7)
                           for d in range(2 * n - 1) for s in range(100)],
     "6f7dc6629526c4636319a913dfee0aa868f1f0511543239c3ea004c827b98c9c"),
    ("tournament", [(8, "transitive", 0), (9, "transitive", 0), (1, "random", 0),
                    (8, "random", 9), (9, "random", 3), (60, "random", 5),
                    (300, "random", 2)],
     "bfa8ecb7a1e12b26ddc68fff5590546e2d0931e2caeb37ab99dd48c669646ef8"),
]


@pytest.mark.parametrize("family, args, digest", GOLDEN_HOSTS,
                         ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(GOLDEN_HOSTS)])
def test_generator_goldens(family, args, digest):
    hosts = [GENERATORS[family](*a) for a in args]
    assert _digest(hosts) == digest
    # what building from an edge list used to enforce
    for g in hosts:
        n = g.n
        assert len(g.out_adj) == len(g.in_adj) == n
        edges = 0
        for u, out in enumerate(g.out_adj):
            assert 0 <= out < 1 << n and not out >> u & 1
            for v in bits_of(out):
                assert g.in_adj[v] >> u & 1
            edges += out.bit_count()
        assert all(0 <= m < 1 << n for m in g.in_adj)
        assert sum(m.bit_count() for m in g.in_adj) == edges
