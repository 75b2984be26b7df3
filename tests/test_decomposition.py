import hashlib
import json
import random

import pytest

from hamorient import (CutCertificate, DecompositionParams, Digraph,
                       ExpansionVerdict, HypothesisError, InputError,
                       PreconditionError, StructurePartition,
                       certify_expander, clean_cut,
                       decompose, fit_decomposition_params, gen_blowup_tt,
                       gen_complete_digraph, partition_from_json_dict,
                       reverse_for_embedding, verify_partition)
from hamorient import decomposition
from hamorient.bitset import mask_of
from hamorient.digraph import induced

from conftest import cycle_digraph


def planted(sizes, seed, intra=1.0, noise=0.0):
    g = gen_blowup_tt(sizes, intra=intra, forward_noise=noise, seed=seed)
    masks = []
    start = 0
    for s in sizes:
        masks.append(mask_of(range(start, start + s)))
        start += s
    return g, masks


def symdiff_per_class(classes, target):
    """Best-match symmetric difference between two partitions, per class."""
    worst = 0
    used = set()
    for m in classes:
        best, best_j = None, None
        for j, t in enumerate(target):
            if j in used:
                continue
            d = (m ^ t).bit_count()
            if best is None or d < best:
                best, best_j = d, j
        used.add(best_j)
        worst = max(worst, best)
    return worst


# --- parameters --------------------------------------------------------------


def test_params_derived_defaults():
    p = DecompositionParams(k=3, zeta=0.2)
    assert p.alpha == pytest.approx(0.2 / 100)
    assert p.tau == pytest.approx(p.alpha / 10)
    assert p.nu == pytest.approx(p.alpha * p.tau * p.zeta / 16)


def test_params_theorem_scale_is_derived():
    # alpha <= zeta/(24(k+1)), up to a relative 1e-9, is theorem scale
    bound = 0.2 / (24 * 3)
    assert DecompositionParams(k=2, zeta=0.2).theorem_scale
    assert DecompositionParams(k=2, zeta=0.2,
                               alpha=bound * (1 + 1e-10)).theorem_scale
    # any alpha in (0, 1) above it is accepted too, off theorem scale
    p = DecompositionParams(k=2, zeta=0.2, alpha=0.2)
    assert p.alpha == 0.2 and not p.theorem_scale
    assert not DecompositionParams(k=2, zeta=0.2,
                                   alpha=bound * 1.01).theorem_scale


def test_params_validation():
    with pytest.raises(InputError):
        DecompositionParams(k=0)
    with pytest.raises(InputError):
        DecompositionParams(k=2, zeta=0.9)    # >= 1 - 1/(k+1)
    with pytest.raises(InputError):
        DecompositionParams(k=2, zeta=0.2, exact_threshold=30)


def test_round_levels_schedule():
    p = DecompositionParams(k=3, zeta=0.2)
    # round 0 cleans at alpha^(2^2), searches at its square
    s0, c0 = p.round_levels(0)
    assert c0 == pytest.approx(p.alpha ** 4)
    assert s0 == pytest.approx(c0 * c0)
    # final round cleans at alpha itself
    s2, c2 = p.round_levels(2)
    assert c2 == pytest.approx(p.alpha)
    # levels increase along the rounds
    assert c0 < c2


def test_round_levels_flat_above_theorem_scale():
    # every round cleans at alpha and searches at alpha^2
    p = DecompositionParams(k=3, zeta=0.2, alpha=0.05)
    assert [p.round_levels(b) for b in range(3)] == [(0.05 * 0.05, 0.05)] * 3


def test_fit_params_planted():
    g, _ = planted([12, 12], seed=0)
    p = fit_decomposition_params(g)
    assert 1 / (p.k + 1) < 34 / 24 - 1
    assert not p.theorem_scale
    assert p.alpha >= 0.05


def test_fit_params_rejects_sparse():
    with pytest.raises(PreconditionError):
        fit_decomposition_params(cycle_digraph(12))


# --- cut cleaning -------------------------------------------------------------


def test_clean_cut_planted_no_moves(planted_two_block):
    g = planted_two_block
    x1, x2 = mask_of(range(6)), mask_of(range(6, 12))
    cert = CutCertificate(x1, x2, 0, 0.0, True)
    cc = clean_cut(g, g.vertex_mask, cert, k=8, zeta=0.17, alpha=0.05)
    assert cc.v1 == x1 and cc.v2 == x2
    assert all(c["ok"] for c in cc.checks.values())


def test_clean_cut_hypothesis_failure(planted_two_block):
    g = planted_two_block
    x1, x2 = mask_of(range(6)), mask_of(range(6, 12))
    cert = CutCertificate(x1, x2, 0, 0.0, True)
    # asymptotic-scale parameters ask for impossible degrees at n=12
    with pytest.raises(HypothesisError) as exc:
        clean_cut(g, g.vertex_mask, cert, k=1, zeta=0.2, alpha=0.001)
    assert exc.value.failures


def test_clean_cut_validates_input(planted_two_block):
    g = planted_two_block
    cert = CutCertificate(mask_of(range(6)), mask_of(range(5, 12)), 0, 0.0, True)
    with pytest.raises(InputError):
        clean_cut(g, g.vertex_mask, cert, k=8, zeta=0.17, alpha=0.05)


# --- decompose ----------------------------------------------------------------


def test_decompose_precondition():
    g = cycle_digraph(20)
    with pytest.raises(PreconditionError):
        decompose(g, DecompositionParams(k=2, zeta=0.2))


def test_decompose_complete_graph_single_class():
    g = gen_complete_digraph(16)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.t == 1
    assert sp.classes == (g.vertex_mask,)
    assert sp.verdicts[0].outcome == "expander"
    assert sp.report is not None and sp.report.ok


def test_decompose_recovers_planted_exact():
    # noiseless blocks on 24 vertices: exact cut sweep, exact recovery
    g, masks = planted([12, 12], seed=0)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.t == 2
    assert symdiff_per_class(sp.classes, masks) == 0
    # decomposition order: dense direction points later -> earlier
    assert sp.classes[0] == masks[0]
    assert sp.report.ok


def test_decompose_recovers_planted_noisy():
    g, masks = planted([20, 20, 20], seed=7, intra=0.95, noise=0.001)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.t == 3
    assert symdiff_per_class(sp.classes, masks) <= 2
    assert sp.report.clause1[0]
    assert sp.report.clause3[0]
    assert sp.report.clause4[0]


# sha256 of the sorted-key partition JSON (with the cross matrix) of two
# hosts whose classes are too large for the exact sweeps, so the hill
# climb, degree-bound certification, strong components and induced
# subgraphs all shape the result. Re-recorded when the degree bound began
# to certify classes above the threshold: only the verdicts (sampled
# inconclusive -> degree expander) and the report moved. Re-recorded when
# the schedule became derived from (k, zeta, alpha): only the flag and
# the params' alpha_floor and enforce_hierarchy keys moved.
GOLDEN_HEURISTIC_PARTITIONS = (
    ([48, 48], 4848,
     "d519c00e3431765c121848ba4c83ce45fd606afd100f7425222314b437592542"),
    ([36, 36, 36], 3636,
     "dda7a474d6bbb3ce21021e96a785e9a0000a9465a508d522732f31727529e6df"),
)


# ids name the host seed, so that re-recording a digest keeps the test ids
@pytest.mark.parametrize("sizes,seed,digest", GOLDEN_HEURISTIC_PARTITIONS,
                         ids=[str(seed) for _, seed, _ in GOLDEN_HEURISTIC_PARTITIONS])
def test_decompose_golden_heuristic_partitions(sizes, seed, digest):
    g = gen_blowup_tt(sizes, intra=0.95, forward_noise=0.001, seed=seed)
    sp = decompose(g, fit_decomposition_params(g, exact_threshold=20))
    text = json.dumps(sp.to_json_dict(g), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_decompose_certifies_large_classes_by_the_degree_bound(monkeypatch):
    g = gen_blowup_tt([500, 500], intra=0.95, forward_noise=0.001, seed=3)
    sp = decompose(g, fit_decomposition_params(g))
    assert sp.sizes() == [500, 500] and sp.report.ok
    assert [(v.outcome, v.mode) for v in sp.verdicts] == [("expander", "degree")] * 2
    assert sp.report.sampled_classes == ()
    assert [d["mode"] for d in sp.report.clause2[1]] == ["degree", "degree"]
    # only a class that sampling leaves inconclusive is listed as sampled
    inconclusive = ExpansionVerdict("inconclusive", "sampled", sp.params.nu,
                                    sp.params.tau, 7)
    verdicts = iter([sp.verdicts[0], inconclusive])
    monkeypatch.setattr(decomposition, "certify_expander",
                        lambda *args: next(verdicts))
    report = verify_partition(g, sp)
    assert report.ok and report.sampled_classes == (1,)
    assert [(d["expander"], d["mode"]) for d in report.clause2[1]] \
        == [("expander", "degree"), ("inconclusive", "sampled")]


def test_theorem_scale_splits_at_the_first_level_the_cut_meets():
    # one forward edge across two complete blocks of 600: the cut's ratio
    # 1/600^2 = 2.8e-6 lies above the searches of rounds 0 and 1
    # (2.6e-22, 1.6e-11) and below round 2's (4e-6), so the class must
    # stay live until round 2
    g0 = gen_blowup_tt([600, 600], intra=1.0, forward_noise=0.0, seed=0)
    g = Digraph.from_edge_list(1200, g0.edges() + [(0, 600)])
    p = DecompositionParams(k=3, zeta=0.2)
    assert p.theorem_scale and p.round_levels(2)[0] == pytest.approx(4e-6)
    sp = decompose(g, p)
    assert sp.sizes() == [600, 600] and sp.report.ok
    assert [(a["event"], a["round"]) for a in sp.audit] \
        == [("no_cut", 0), ("no_cut", 1), ("split", 2)]
    assert sp.audit[-1]["cut_ratio"] == 1 / 600 ** 2


def test_decompose_audit_trail():
    g, _ = planted([12, 12], seed=3)
    sp = decompose(g, fit_decomposition_params(g))
    events = [a["event"] for a in sp.audit]
    assert "split" in events
    assert "freeze" in events
    # every split entry says whether cleaning ran or fell back
    for a in sp.audit:
        if a["event"] == "split":
            assert "cleaned" in a


# --- verification --------------------------------------------------------------


def test_verify_partition_rejects_wrong_split():
    g, masks = planted([12, 12], seed=1)
    p = fit_decomposition_params(g)
    rng = random.Random(0)
    verts = list(range(24))
    rng.shuffle(verts)
    wrong = (mask_of(verts[:12]), mask_of(verts[12:]))
    sp = StructurePartition(24, wrong, (), p)
    report = verify_partition(g, sp)
    assert not report.ok
    # clause 4 (forward sparsity across the order) must notice the mix
    assert not report.clause4[0]


def test_verify_partition_input_checks():
    g, masks = planted([12, 12], seed=1)
    p = fit_decomposition_params(g)
    with pytest.raises(InputError):
        verify_partition(g, StructurePartition(24, (masks[0], masks[0]), (), p))
    with pytest.raises(InputError):
        verify_partition(g, StructurePartition(24, (masks[0],), (), p))


def test_verify_partition_independent_of_decompose():
    # hand the verifier the planted truth without running decompose
    g, masks = planted([12, 12], seed=5)
    p = fit_decomposition_params(g)
    report = verify_partition(g, StructurePartition(24, tuple(masks), (), p))
    assert report.ok
    assert [v.outcome for v in report.verdicts] == ["expander", "expander"]


def test_decompose_verdicts_are_the_reports():
    g, _ = planted([20, 20, 20], seed=7, intra=0.95, noise=0.001)
    p = fit_decomposition_params(g)
    sp = decompose(g, p)
    assert sp.verdicts == sp.report.verdicts
    assert len(sp.verdicts) == sp.t
    for mask, verdict in zip(sp.classes, sp.verdicts):
        sub, _ = induced(g, mask)
        assert verdict == certify_expander(sub, p.nu, p.tau)


# --- serialization and ordering -------------------------------------------------


def test_reverse_for_embedding_involution():
    g, _ = planted([12, 12], seed=0)
    sp = decompose(g, fit_decomposition_params(g))
    rev = reverse_for_embedding(sp)
    assert rev.classes == tuple(reversed(sp.classes))
    assert reverse_for_embedding(rev) == sp


def test_cross_matrix_orientation():
    g, masks = planted([12, 12], seed=0)
    sp = decompose(g, fit_decomposition_params(g))
    mat = sp.cross_matrix(g)
    # dense backward: class 1 -> class 0 carries all 144 cross edges
    assert mat[1][0] == 144
    assert mat[0][1] == 0


def test_partition_json_round_trip():
    g, _ = planted([12, 12], seed=2)
    sp = decompose(g, fit_decomposition_params(g))
    d = sp.to_json_dict(g)
    assert "cross" in d and "report" in d
    back = partition_from_json_dict(d)
    assert back.classes == sp.classes
    assert back.n == sp.n
    assert back.params.k == sp.params.k
    assert back.params.alpha == pytest.approx(sp.params.alpha)
    assert back.params == sp.params
    # a JSON boolean is not an integer, not even as the vertex count
    with pytest.raises(InputError):
        partition_from_json_dict({"n": True, "classes": [[0]]})


def test_partition_reload_ignores_stored_tau_and_nu():
    # files whose stored tau/nu went stale re-verify at the derived values
    g, _ = planted([12, 12], seed=2)
    sp = decompose(g, fit_decomposition_params(g))
    d = sp.to_json_dict(g)
    assert (d["params"]["tau"], d["params"]["nu"]) == (sp.params.tau, sp.params.nu)
    d["params"].update(tau=0.01, nu=1.2e-05)
    back = partition_from_json_dict(d)
    assert back.params == sp.params
    assert verify_partition(g, back).verdicts == sp.verdicts
