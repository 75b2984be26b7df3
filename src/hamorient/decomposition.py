"""Iterative partition of a dense digraph into expander classes.

Driver loop: maintain an ordered partition, probe each live class for a
sparse cut at the current level of the squared-threshold schedule, clean
any cut found (degree-based vertex moves that repair both sides), split,
and freeze classes certified (or sampled) as robust outexpanders. The
final report recomputes every claimed property from scratch.

Orientation convention: a certified cut (X1, X2) has few X1->X2 edges,
so earlier classes in the final order send few edges forward and receive
many; the embedding pipeline works on the reversed order (see
reverse_for_embedding).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .bitset import bit_list, mask_of
from .digraph import Digraph, cross_counts, degree_profile, induced
from .errors import HypothesisError, InputError, PreconditionError
from .expansion import (
    CutCertificate,
    ExpansionParams,
    ExpansionVerdict,
    certify_expander,
    find_sparse_cut,
)

_EPS = 1e-9
# The partition makes at most this many levels (k); fitting picks the
# largest k up to it.
_K_MAX = 8


@dataclass(frozen=True)
class DecompositionParams:
    """Fraction hierarchy for the partition procedure.

    With enforce_hierarchy the explicit inequalities nu <= alpha*tau*zeta/16,
    tau <= alpha/8, alpha <= zeta/(24(k+1)) are required; alpha_floor lifts
    the bottom of the squared schedule so that small instances are not asked
    for impossibly sparse cuts (any positive floor relaxes the theorem-backed
    guarantees and is reported in the audit).
    """
    k: int
    zeta: float = 0.2
    alpha: float | None = None
    tau: float | None = None
    nu: float | None = None
    exact_threshold: int = 20
    enforce_hierarchy: bool = True
    alpha_floor: float = 0.0

    def __post_init__(self):
        if not 1 <= self.k <= _K_MAX:
            raise InputError(f"k must be in 1..{_K_MAX}, got {self.k}")
        if not 0 < self.zeta < 1 - 1 / (self.k + 1):
            raise InputError(f"zeta must lie in (0, 1-1/(k+1)), got {self.zeta}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.zeta / (25 * (self.k + 1)))
        if self.tau is None:
            object.__setattr__(self, "tau", self.alpha / 10)
        if self.nu is None:
            object.__setattr__(self, "nu", self.alpha * self.tau * self.zeta / 16)
        for name in ("alpha", "tau", "nu"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise InputError(f"{name} must lie in (0,1), got {v}")
        if not 0 <= self.alpha_floor <= self.alpha:
            raise InputError("alpha_floor must lie in [0, alpha]")
        if not 1 <= self.exact_threshold <= 24:
            raise InputError("exact_threshold must lie in 1..24")
        if self.enforce_hierarchy:
            checks = [
                ("nu <= alpha*tau*zeta/16", self.nu,
                 self.alpha * self.tau * self.zeta / 16),
                ("tau <= alpha/8", self.tau, self.alpha / 8),
                ("alpha <= zeta/(24(k+1))", self.alpha,
                 self.zeta / (24 * (self.k + 1))),
            ]
            for label, lhs, rhs in checks:
                if lhs > rhs * (1 + 1e-9):
                    raise InputError(f"hierarchy violated: {label} "
                                     f"(lhs={lhs:.3e}, rhs={rhs:.3e})")

    def round_levels(self, b: int) -> tuple[float, float]:
        """(search threshold, cleaning level) for refinement round b >= 0.

        The cleaning level at round b is alpha^(2^(k-b-1)) floored at
        alpha_floor; the search threshold is its square, so a cut found at
        the search threshold is exactly sparse enough to clean."""
        exponent = 2 ** max(0, self.k - b - 1)
        clean = max(self.alpha ** exponent, self.alpha_floor)
        return clean * clean, clean


@dataclass(frozen=True)
class CleanedCut:
    """Result of repairing a sparse cut by moving low-degree vertices."""
    v1: int
    v2: int
    x1_prime: int
    x2_prime: int
    x1_dprime: int
    x2_dprime: int
    alpha: float
    checks: dict = field(default_factory=dict)
    fallback: bool = False


@dataclass(frozen=True)
class PartitionReport:
    """Independent recomputation of the four partition properties."""
    clause1: tuple[bool, list]
    clause2: tuple[bool, list]
    clause3: tuple[bool, list]
    clause4: tuple[bool, dict]
    ok: bool
    sampled_classes: tuple[int, ...] = ()
    verdicts: tuple[ExpansionVerdict, ...] = ()   # per class, in class order

    def to_json_dict(self) -> dict:
        return {
            "clause1": {"ok": self.clause1[0], "details": self.clause1[1]},
            "clause2": {"ok": self.clause2[0], "details": self.clause2[1]},
            "clause3": {"ok": self.clause3[0], "details": self.clause3[1]},
            "clause4": {"ok": self.clause4[0], "details": self.clause4[1]},
            "ok": self.ok,
            "sampled_classes": list(self.sampled_classes),
        }


@dataclass(frozen=True)
class StructurePartition:
    """Ordered classes with certificates, cross counts, and audit trail."""
    n: int
    classes: tuple[int, ...]                 # vertex masks, in final order
    verdicts: tuple[ExpansionVerdict, ...]
    params: DecompositionParams
    audit: tuple[dict, ...] = ()
    flags: tuple[str, ...] = ()
    report: PartitionReport | None = None

    @property
    def t(self) -> int:
        return len(self.classes)

    def sizes(self) -> list[int]:
        return [m.bit_count() for m in self.classes]

    def cross_matrix(self, g: Digraph) -> list[list[int]]:
        """entry [i][j] = number of edges from class i to class j."""
        t = self.t
        mat = [[0] * t for _ in range(t)]
        for i in range(t):
            for j in range(t):
                if i != j:
                    mat[i][j] = cross_counts(g, self.classes[i], self.classes[j])[0]
        return mat

    def to_json_dict(self, g: Digraph | None = None) -> dict:
        d = {
            "n": self.n,
            "classes": [bit_list(m) for m in self.classes],
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "audit": list(self.audit),
            "flags": list(self.flags),
            "params": {
                "k": self.params.k, "zeta": self.params.zeta,
                "alpha": self.params.alpha, "tau": self.params.tau,
                "nu": self.params.nu,
                "exact_threshold": self.params.exact_threshold,
                "enforce_hierarchy": self.params.enforce_hierarchy,
                "alpha_floor": self.params.alpha_floor,
            },
        }
        if g is not None:
            d["cross"] = self.cross_matrix(g)
        if self.report is not None:
            d["report"] = self.report.to_json_dict()
        return d


def _total_degree_into(g: Digraph, v: int, mask: int) -> int:
    return (g.out_adj[v] & mask).bit_count() + (g.in_adj[v] & mask).bit_count()


def _induced_min_degree(g: Digraph, mask: int) -> int:
    return min(_total_degree_into(g, v, mask) for v in bit_list(mask))


def clean_cut(g: Digraph, x_mask: int, cut: CutCertificate, k: int,
              zeta: float, alpha: float) -> CleanedCut:
    """Repair a very sparse cut of G[X] into a sparse cut with balanced
    sides, high induced degree, and few exceptional vertices.

    Vertices of unusually low degree into their own side are pulled out
    (the prime sets); each is then reassigned to the side it dominates
    (the double-prime sets). Raises HypothesisError when the degree
    hypotheses fail at this scale; callers may fall back to the raw cut.
    """
    n = g.n
    x1, x2 = cut.side1, cut.side2
    if x1 | x2 != x_mask or x1 & x2:
        raise InputError("cut sides do not partition the class")
    size_x = x_mask.bit_count()
    inv = 1 / (k + 1)

    failures: list[tuple[str, str]] = []
    bound_a = (inv + zeta / 2) * n
    if size_x <= bound_a - _EPS:
        failures.append(("a", f"|X|={size_x} <= {bound_a:.2f}"))
    bound_b = (1 + inv + zeta - alpha) * size_x
    min_deg_x = _induced_min_degree(g, x_mask)
    if min_deg_x < bound_b - _EPS:
        failures.append(("b", f"min degree in class {min_deg_x} < {bound_b:.2f}"))
    bound_c = size_x + (inv + zeta - alpha) * n
    exceptional = sum(1 for v in bit_list(x_mask)
                      if _total_degree_into(g, v, x_mask) < bound_c - _EPS)
    if exceptional > alpha * alpha * n + _EPS:
        failures.append(("c", f"{exceptional} low-degree vertices "
                              f"> {alpha * alpha * n:.2f} allowed"))
    s1, s2 = x1.bit_count(), x2.bit_count()
    if cut.e_forward > alpha * alpha * s1 * s2 + _EPS:
        failures.append(("sparsity", f"cut has {cut.e_forward} forward edges, "
                                     f"needs <= {alpha * alpha * s1 * s2:.2f}"))
    if failures:
        raise HypothesisError("cut cleaning hypotheses fail", tuple(failures))

    prime_bound = [(x1.bit_count() + (inv + zeta - 9 * (k + 1) * alpha) * n),
                   (x2.bit_count() + (inv + zeta - 9 * (k + 1) * alpha) * n)]
    x1p = 0
    for v in bit_list(x1):
        if _total_degree_into(g, v, x1) <= prime_bound[0] + _EPS:
            x1p |= 1 << v
    x2p = 0
    for v in bit_list(x2):
        if _total_degree_into(g, v, x2) <= prime_bound[1] + _EPS:
            x2p |= 1 << v

    pool = x1p | x2p
    target = x2 & ~pool
    thr = (1 + inv + zeta - alpha) * x2.bit_count() - alpha / (6 * (k + 1)) * n
    x2pp = 0
    for v in bit_list(pool):
        if _total_degree_into(g, v, target) >= thr - _EPS:
            x2pp |= 1 << v
    x1pp = pool & ~x2pp

    v1 = (x1 & ~x1p) | x1pp
    v2 = (x2 & ~x2p) | x2pp
    if not v1 or not v2:
        raise HypothesisError("cleaning emptied a side",
                              (("degenerate", f"|V1|={v1.bit_count()}, "
                                              f"|V2|={v2.bit_count()}"),))

    checks = _clean_conclusions(g, v1, v2, k, zeta, alpha)
    return CleanedCut(v1, v2, x1p, x2p, x1pp, x2pp, alpha, checks)


def _clean_conclusions(g: Digraph, v1: int, v2: int, k: int, zeta: float,
                       alpha: float) -> dict:
    n = g.n
    inv = 1 / (k + 1)
    checks: dict = {}
    for i, m in ((1, v1), (2, v2)):
        size = m.bit_count()
        checks[f"size_{i}"] = {
            "value": size, "bound": (inv + zeta / 2) * n,
            "ok": size > (inv + zeta / 2) * n - _EPS,
        }
        mind = _induced_min_degree(g, m)
        bound = (1 + inv + zeta - 10 * (k + 1) * alpha) * size
        checks[f"mindeg_{i}"] = {"value": mind, "bound": bound,
                                 "ok": mind >= bound - _EPS}
        thr = size + (inv + zeta - 10 * (k + 1) * alpha) * n
        bad = sum(1 for v in bit_list(m)
                  if _total_degree_into(g, v, m) < thr - _EPS)
        checks[f"exceptions_{i}"] = {"value": bad, "bound": alpha * n,
                                     "ok": bad <= alpha * n + _EPS}
    fwd = cross_counts(g, v1, v2)[0]
    cap = alpha * v1.bit_count() * v2.bit_count()
    checks["sparsity"] = {"value": fwd, "bound": cap, "ok": fwd <= cap + _EPS}
    return checks


def decompose(g: Digraph, p: DecompositionParams, seed: int = 0) -> StructurePartition:
    """Partition V(G) into at most k ordered expander classes.

    Precondition: min total degree at least (1 + 1/(k+1) + zeta)n. Each
    refinement round probes live classes at the current schedule level;
    found cuts are cleaned (falling back to the raw cut when the cleaning
    hypotheses fail at this scale, with the failure logged) and split in
    place, keeping both halves adjacent in the order. Classes certify as
    expanders exactly below exact_threshold and by sampling above it; the
    verdicts are those of the closing verify_partition report. The cut
    search on class idx in round b is seeded with seed + 1000*b + idx.
    """
    n = g.n
    profile = degree_profile(g)
    need = (1 + 1 / (p.k + 1) + p.zeta) * n
    if profile.min_total < need - _EPS:
        raise PreconditionError(
            f"min total degree {profile.min_total} < {need:.2f} "
            f"= (1 + 1/(k+1) + zeta) * n")

    classes: list[int] = [g.vertex_mask]
    frozen: list[bool] = [False]
    audit: list[dict] = []
    flags: list[str] = []
    if p.alpha_floor > 0:
        flags.append("alpha_floor active: schedule relaxed below theorem scale")

    for b in range(p.k):
        if all(frozen):
            break
        search_alpha, clean_alpha = p.round_levels(b)
        idx = 0
        while idx < len(classes):
            if frozen[idx]:
                idx += 1
                continue
            mask = classes[idx]
            sub, verts = induced(g, mask)
            res = find_sparse_cut(sub, search_alpha, seed=seed + 1000 * b + idx)
            if not res.found:
                frozen[idx] = True
                audit.append({
                    "event": "freeze", "round": b, "class_index": idx,
                    "size": mask.bit_count(), "search_alpha": search_alpha,
                    "mode": res.mode,
                    "best_ratio": None if res.best is None else res.best.alpha_achieved,
                })
                idx += 1
                continue
            if len(classes) >= p.k:
                frozen[idx] = True
                flags.append(f"class budget k={p.k} reached; cut found in class "
                             f"{idx} at round {b} left unsplit")
                audit.append({"event": "budget_freeze", "round": b,
                              "class_index": idx,
                              "ratio": res.certificate.alpha_achieved})
                idx += 1
                continue
            cert = res.certificate
            side1 = sum(1 << verts[i] for i in bit_list(cert.side1))
            side2 = sum(1 << verts[i] for i in bit_list(cert.side2))
            gcert = CutCertificate(side1, side2, cert.e_forward,
                                   cert.alpha_achieved, cert.exact)
            entry = {
                "event": "split", "round": b, "class_index": idx,
                "size": mask.bit_count(), "search_alpha": search_alpha,
                "clean_alpha": clean_alpha,
                "cut_ratio": cert.alpha_achieved, "cut_exact": cert.exact,
                "mode": res.mode,
            }
            try:
                cc = clean_cut(g, mask, gcert, p.k, p.zeta, clean_alpha)
                entry["cleaned"] = True
                entry["moved_out"] = (cc.x1_prime | cc.x2_prime).bit_count()
                entry["moved_across"] = ((cc.x1_dprime & side2)
                                         | (cc.x2_dprime & side1)).bit_count()
                entry["conclusions_ok"] = all(c["ok"] for c in cc.checks.values())
            except HypothesisError as err:
                cc = CleanedCut(side1, side2, 0, 0, 0, 0, clean_alpha,
                                {}, fallback=True)
                entry["cleaned"] = False
                entry["hypothesis_failures"] = [list(f) for f in err.failures]
                flags.append(f"cleaning fell back to raw cut in class {idx} "
                             f"at round {b}")
            audit.append(entry)
            classes[idx:idx + 1] = [cc.v1, cc.v2]
            frozen[idx:idx + 1] = [False, False]
            idx += 2

    sp = StructurePartition(n, tuple(classes), (), p, tuple(audit), tuple(flags))
    report = verify_partition(g, sp, p)
    return replace(sp, verdicts=report.verdicts, report=report)


def verify_partition(g: Digraph, sp: StructurePartition,
                     p: DecompositionParams) -> PartitionReport:
    """Recompute the four partition properties from raw adjacency.

    Shares no state with decompose: any partition of any digraph gets a
    deterministic report. Expander checks run exact below the threshold
    and sampled above (sampled passes are flagged, not certified).
    """
    n = g.n
    t = sp.t
    union = 0
    for m in sp.classes:
        if m & union:
            raise InputError("classes overlap")
        union |= m
    if union != g.vertex_mask:
        raise InputError("classes do not cover the vertex set")

    inv = 1 / (p.k + 1)
    c1_details = []
    c1_ok = t <= p.k
    for i, m in enumerate(sp.classes):
        size = m.bit_count()
        bound = (inv + p.zeta / 2) * n
        ok = size >= bound - _EPS
        c1_details.append({"class": i, "size": size, "bound": bound, "ok": ok})
        c1_ok = c1_ok and ok

    c2_details = []
    c2_ok = True
    sampled = []
    verdicts = []
    for i, m in enumerate(sp.classes):
        sub, _ = induced(g, m)
        size = sub.n
        mind = _induced_min_degree(g, m) if size else 0
        dbound = (1 + inv + p.zeta / 2) * size
        deg_ok = mind >= dbound - _EPS
        mode = "exact" if size <= p.exact_threshold else "sampled"
        verdict = certify_expander(sub, ExpansionParams(p.nu, p.tau, mode=mode))
        verdicts.append(verdict)
        exp_ok = verdict.outcome == "expander" or (
            mode == "sampled" and verdict.outcome == "inconclusive")
        if mode == "sampled":
            sampled.append(i)
        c2_details.append({"class": i, "min_degree": mind, "degree_bound": dbound,
                           "degree_ok": deg_ok, "expander": verdict.outcome,
                           "mode": mode, "ok": deg_ok and exp_ok})
        c2_ok = c2_ok and deg_ok and exp_ok

    c3_details = []
    c3_ok = True
    c4_detail: dict = {}
    c4_ok = True
    if t >= 2:
        bound = n * n / (p.k + 1) ** 2
        total_fwd = 0
        total_prod = 0
        for i in range(t):
            for j in range(i + 1, t):
                fwd, bwd, _ = cross_counts(g, sp.classes[i], sp.classes[j])
                ok = bwd > bound - _EPS
                c3_details.append({"i": i, "j": j, "backward_edges": bwd,
                                   "bound": bound, "ok": ok})
                c3_ok = c3_ok and ok
                total_fwd += fwd
                total_prod += sp.classes[i].bit_count() * sp.classes[j].bit_count()
        cap = p.alpha * total_prod
        c4_ok = total_fwd <= cap + _EPS
        c4_detail = {"forward_edges": total_fwd, "bound": cap, "ok": c4_ok}

    ok = c1_ok and c2_ok and c3_ok and c4_ok
    return PartitionReport((c1_ok, c1_details), (c2_ok, c2_details),
                           (c3_ok, c3_details), (c4_ok, c4_detail), ok,
                           tuple(sampled), tuple(verdicts))


def reverse_for_embedding(sp: StructurePartition) -> StructurePartition:
    """Reverse the class order so forward edge density points forward.

    The partition order leaves dense edges pointing from later classes to
    earlier ones; the embedding pipeline wants the opposite, so it
    consumes the reversed order. Involution: applying twice is identity.
    """
    return replace(sp, classes=tuple(reversed(sp.classes)),
                   verdicts=tuple(reversed(sp.verdicts)))


def fit_decomposition_params(g: Digraph, alpha_floor: float = 0.1,
                             exact_threshold: int = 20) -> DecompositionParams:
    """Choose workable parameters from the instance's degree slack.

    Picks the largest k <= _K_MAX with 1/(k+1) below the degree slack
    delta/n - 1 (so the partition precondition holds with margin), gives
    zeta 80% of the remaining slack, and floors the cut-search schedule at
    alpha_floor so small instances are not asked for impossibly sparse
    cuts. The default floor admits cuts of forward ratio up to 1%: an
    order of magnitude above typical planted noise, yet far below the ~50%
    ratio of any cut that crosses a dense block. The hierarchy
    inequalities are deliberately not enforced: at these sizes the
    asymptotic constant chain collapses, which the partition records.
    """
    n = g.n
    prof = degree_profile(g)
    slack = prof.min_total / n - 1
    k = None
    for cand in range(_K_MAX, 0, -1):
        if 1 / (cand + 1) < slack - 1e-9:
            k = cand
            break
    if k is None:
        raise PreconditionError(
            f"min total degree {prof.min_total} leaves slack {slack:.3f}; "
            f"no k in 1..{_K_MAX} satisfies 1/(k+1) < slack")
    zeta = 0.8 * (slack - 1 / (k + 1))
    zeta = min(zeta, 1 - 1 / (k + 1) - 1e-6)
    alpha = max(zeta / (25 * (k + 1)), alpha_floor)
    return DecompositionParams(k=k, zeta=zeta, alpha=alpha,
                               exact_threshold=exact_threshold,
                               enforce_hierarchy=False,
                               alpha_floor=min(alpha_floor, alpha))


def partition_from_json_dict(d: dict) -> StructurePartition:
    """Rebuild the class structure from a serialized partition.

    Certificates are not reconstructed (verdicts come back empty); the
    result carries everything the embedding pipeline consumes. A missing
    'n' or 'classes', classes that do not split 0..n-1 into disjoint
    lists of vertices, or a mistyped parameter raises InputError."""
    if not isinstance(d, dict) or not isinstance(d.get("n"), int) \
            or not isinstance(d.get("classes"), list):
        raise InputError("a partition needs an integer 'n' and a 'classes' list")
    n = d["n"]
    if not all(isinstance(vs, list) and all(isinstance(v, int) for v in vs)
               for vs in d["classes"]) \
            or sorted(v for vs in d["classes"] for v in vs) != list(range(n)):
        raise InputError(f"partition classes do not split 0..{n - 1} into "
                         f"disjoint lists of vertices")
    classes = tuple(mask_of(vs) for vs in d["classes"])
    pd = d.get("params", {})
    try:
        params = DecompositionParams(
            k=pd.get("k", max(1, len(classes) - 1) if len(classes) > 1 else 1),
            zeta=pd.get("zeta", 0.2), alpha=pd.get("alpha"),
            tau=pd.get("tau"), nu=pd.get("nu"),
            exact_threshold=pd.get("exact_threshold", 20),
            enforce_hierarchy=pd.get("enforce_hierarchy", False),
            alpha_floor=pd.get("alpha_floor", 0.0))
    except (AttributeError, TypeError) as exc:
        raise InputError(f"partition params are malformed: {exc}") from None
    return StructurePartition(n=n, classes=classes, verdicts=(),
                              params=params,
                              flags=tuple(d.get("flags", ())))
