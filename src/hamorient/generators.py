"""Digraph families used as test beds, extremal witnesses, and ensembles.

All randomness flows through an explicit seed; a fixed seed gives a
bit-identical digraph. The layered-blocks family (``gen_blowup_tt``)
produces the planted-structure instances the decomposition and embedding
suites recover: ordered blocks, all cross edges from later blocks to
earlier ones, seeded forward noise, and tunable double-edge density
inside blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .digraph import Digraph
from .errors import InputError


def _build(n: int, out_sets: list[set[int]]) -> Digraph:
    edges = [(u, v) for u in range(n) for v in sorted(out_sets[u])]
    return Digraph.from_edge_list(n, edges)


def gen_complete_digraph(n: int) -> Digraph:
    """All n(n-1) ordered pairs."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    return _build(n, [set(range(n)) - {u} for u in range(n)])


def gen_bipartite_extremal(n: int) -> Digraph:
    """Parts of sizes ceil(n/2)-1 and floor(n/2)+1, all edges between the
    parts in both directions, none inside either part.

    The larger part outnumbers the smaller, so no Hamilton cycle or path
    of any orientation exists, yet every vertex keeps total degree at
    least 2(ceil(n/2)-1)."""
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    a = (n + 1) // 2 - 1
    out_sets: list[set[int]] = []
    part_a = set(range(a))
    part_b = set(range(a, n))
    for u in range(n):
        out_sets.append(part_b - {u} if u in part_a else part_a)
    return _build(n, out_sets)


def gen_split_cliques(n: int) -> Digraph:
    """Disjoint union of complete digraphs on floor(n/2) and ceil(n/2)
    vertices; no cross edges, so not even weakly traversable end to end."""
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    a = n // 2
    out_sets = []
    for u in range(n):
        block = set(range(a)) if u < a else set(range(a, n))
        out_sets.append(block - {u})
    return _build(n, out_sets)


def gen_blowup_tt(part_sizes: list[int] | tuple[int, ...], intra: float = 1.0,
                  forward_noise: float = 0.0, seed: int = 0) -> Digraph:
    """Ordered blocks with complete backward cross edges.

    Between blocks i < j every edge from block j to block i is present;
    each forward edge (block i to block j) appears independently with
    probability forward_noise. Inside a block each unordered pair gets a
    double edge with probability intra, otherwise a single edge of seeded
    random direction. intra=1, forward_noise=0 gives the exact layered
    witness whose minimum total degree is n + floor(n/t) - 2 for t equal
    blocks of size n/t."""
    sizes = list(part_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise InputError(f"part sizes must be positive, got {sizes}")
    if not 0.0 <= intra <= 1.0 or not 0.0 <= forward_noise <= 1.0:
        raise InputError("densities must lie in [0, 1]")
    rng = random.Random(seed)
    n = sum(sizes)
    label = []
    for i, s in enumerate(sizes):
        label.extend([i] * s)
    out_sets: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            cu, cv = label[u], label[v]
            if cu == cv:
                if rng.random() < intra:
                    out_sets[u].add(v)
                    out_sets[v].add(u)
                elif rng.random() < 0.5:
                    out_sets[u].add(v)
                else:
                    out_sets[v].add(u)
            else:
                # label[u] < label[v] since vertices are laid out in order
                out_sets[v].add(u)
                if rng.random() < forward_noise:
                    out_sets[u].add(v)
    return _build(n, out_sets)


def gen_random_min_degree(n: int, delta_target: int, seed: int = 0) -> Digraph:
    """Random digraph conditioned on minimum total degree >= delta_target.

    Samples ordered pairs independently at a rate slightly above the
    target density, then greedily adds missing edges at deficient
    vertices (random admissible partners) until the target holds."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if not 0 <= delta_target <= 2 * (n - 1):
        raise InputError(f"delta_target {delta_target} impossible at n={n}")
    rng = random.Random(seed)
    out_sets: list[set[int]] = [set() for _ in range(n)]
    if n > 1:
        p = min(1.0, delta_target / (2 * (n - 1)) + 1.5 / max(4.0, n ** 0.5))
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < p:
                    out_sets[u].add(v)
    in_deg = [0] * n
    for u in range(n):
        for v in out_sets[u]:
            in_deg[v] += 1

    def degree(v: int) -> int:
        return len(out_sets[v]) + in_deg[v]

    for v in range(n):
        while degree(v) < delta_target:
            missing = [(v, w) for w in range(n) if w != v and w not in out_sets[v]]
            missing += [(w, v) for w in range(n) if w != v and v not in out_sets[w]]
            if not missing:
                break
            a, b = missing[rng.randrange(len(missing))]
            out_sets[a].add(b)
            in_deg[b] += 1
    return _build(n, out_sets)


def gen_tournament(n: int, kind: str = "random", seed: int = 0) -> Digraph:
    """One edge per unordered pair; transitive kind orders by index."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if kind not in ("random", "transitive"):
        raise InputError(f"unknown tournament kind {kind!r}")
    rng = random.Random(seed)
    out_sets: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if kind == "transitive" or rng.random() < 0.5:
                out_sets[u].add(v)
            else:
                out_sets[v].add(u)
    return _build(n, out_sets)


# family -> the parameter names GenSpec.build reads
_FAMILIES = {
    "complete": ("n",),
    "bipartite_extremal": ("n",),
    "split_cliques": ("n",),
    "blowup": ("sizes", "intra", "noise"),
    "random_min_degree": ("n", "delta"),
    "tournament": ("n", "kind"),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def family_param_names(family: str) -> tuple[str, ...]:
    if family not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; "
                         f"known: {', '.join(sorted(_FAMILIES))}")
    return _FAMILIES[family]


@dataclass(frozen=True)
class GenSpec:
    """Serializable recipe: family tag, family parameters, seed."""
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"unknown family {self.family!r}; "
                             f"known: {', '.join(sorted(_FAMILIES))}")

    def build(self) -> Digraph:
        p = self.params
        if self.family == "blowup":
            return gen_blowup_tt(p["sizes"], p.get("intra", 1.0),
                                 p.get("noise", 0.0), self.seed)
        if self.family == "complete":
            return gen_complete_digraph(p["n"])
        if self.family == "bipartite_extremal":
            return gen_bipartite_extremal(p["n"])
        if self.family == "split_cliques":
            return gen_split_cliques(p["n"])
        if self.family == "random_min_degree":
            return gen_random_min_degree(p["n"], p["delta"], self.seed)
        return gen_tournament(p["n"], p.get("kind", "random"), self.seed)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}

    @staticmethod
    def from_json_dict(d: dict) -> "GenSpec":
        return GenSpec(d["family"], dict(d.get("params", {})), int(d.get("seed", 0)))
