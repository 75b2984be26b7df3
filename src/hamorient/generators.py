"""Digraph families used as test beds, extremal witnesses, and ensembles.

All randomness flows through an explicit seed; a fixed seed gives a
bit-identical digraph. Each family sets the bits of per-vertex
out-neighbourhood masks directly, with no edge list, and takes the
in-neighbourhoods from their transpose (or from symmetry). The
layered-blocks family (``gen_blowup_tt``) produces the planted-structure
instances the decomposition and embedding suites recover: ordered blocks,
all cross edges from later blocks to earlier ones, seeded forward noise,
and tunable double-edge density inside blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bitset import bit_list, full_mask
from .digraph import Digraph, check_vertex_count, row_masks, set_rows
from .errors import InputError


def gen_complete_digraph(n: int) -> Digraph:
    """All n(n-1) ordered pairs."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    check_vertex_count(n)
    adj = tuple(full_mask(n) ^ 1 << u for u in range(n))
    return Digraph(n, adj, adj)


def gen_bipartite_extremal(n: int) -> Digraph:
    """Parts of sizes ceil(n/2)-1 and floor(n/2)+1, all edges between the
    parts in both directions, none inside either part.

    The larger part outnumbers the smaller, so no Hamilton cycle or path
    of any orientation exists, yet every vertex keeps total degree at
    least 2(ceil(n/2)-1)."""
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    check_vertex_count(n)
    a = (n + 1) // 2 - 1
    part_a = full_mask(a)
    part_b = full_mask(n) ^ part_a
    adj = tuple(part_b if u < a else part_a for u in range(n))
    return Digraph(n, adj, adj)


def gen_split_cliques(n: int) -> Digraph:
    """Disjoint union of complete digraphs on floor(n/2) and ceil(n/2)
    vertices; no cross edges, so not even weakly traversable end to end."""
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    check_vertex_count(n)
    a = n // 2
    low = full_mask(a)
    adj = tuple((low if u < a else full_mask(n) ^ low) ^ 1 << u for u in range(n))
    return Digraph(n, adj, adj)


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
    n = sum(sizes)
    check_vertex_count(n)
    draw = random.Random(seed).random
    out = [0] * n
    end = 0
    for size in sizes:
        start, end = end, end + size
        for u in range(start, end):
            # pairs (u, v), u < v, draw in lexicographic order; u's own
            # row starts with its backward edges into the earlier blocks
            bit = 1 << u
            row = full_mask(start)
            for v in range(u + 1, end):
                if draw() < intra:
                    row |= 1 << v
                    out[v] |= bit
                elif draw() < 0.5:
                    row |= 1 << v
                else:
                    out[v] |= bit
            for v in range(end, n):
                if draw() < forward_noise:
                    row |= 1 << v
            out[u] |= row
    return Digraph(n, tuple(out), row_masks(set_rows(out, n).T))


def gen_random_min_degree(n: int, delta_target: int, seed: int = 0) -> Digraph:
    """Random digraph conditioned on minimum total degree >= delta_target.

    Samples ordered pairs independently at a rate slightly above the
    target density, then greedily adds missing edges at deficient
    vertices (random admissible partners) until the target holds."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    check_vertex_count(n)
    if not 0 <= delta_target <= 2 * (n - 1):
        raise InputError(f"delta_target {delta_target} impossible at n={n}")
    rng = random.Random(seed)
    out = [0] * n
    if n > 1:
        p = min(1.0, delta_target / (2 * (n - 1)) + 1.5 / max(4.0, n ** 0.5))
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < p:
                    out[u] |= 1 << v
    inn = list(row_masks(set_rows(out, n).T))
    for v in range(n):
        while out[v].bit_count() + inn[v].bit_count() < delta_target:
            # the missing edges v -> w, then w -> v, each by ascending w
            others = full_mask(n) ^ 1 << v
            heads, tails = bit_list(others ^ out[v]), bit_list(others ^ inn[v])
            if not heads and not tails:
                break
            i = rng.randrange(len(heads) + len(tails))
            a, b = (v, heads[i]) if i < len(heads) else (tails[i - len(heads)], v)
            out[a] |= 1 << b
            inn[b] |= 1 << a
    return Digraph(n, tuple(out), tuple(inn))


def gen_tournament(n: int, kind: str = "random", seed: int = 0) -> Digraph:
    """One edge per unordered pair; transitive kind orders by index."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    check_vertex_count(n)
    if kind not in ("random", "transitive"):
        raise InputError(f"unknown tournament kind {kind!r}")
    rng = random.Random(seed)
    out = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if kind == "transitive" or rng.random() < 0.5:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return Digraph(n, tuple(out), row_masks(set_rows(out, n).T))


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
