"""Workload inputs and one measured round of each workload.

A workload's inputs come from ``--seed`` alone and are built once; a run
then repeats whole rounds over the same inputs, so every round attempts
the same operations and fails the same ones.

The round code calls the library through an ``api`` mapping (public
function name -> callable) so that a traced round can pass wrapped
functions while an untraced round calls the library directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import hamorient
from hamorient import (CyclePattern, decompose, distinct_path_patterns,
                       embed_hamilton_orientation, exact_embed,
                       fit_decomposition_params, gen_bipartite_extremal,
                       gen_blowup_tt, gen_random_min_degree,
                       gen_split_cliques, necklace_classes,
                       reverse_for_embedding)

from checks import (check_embedding, check_partition, check_refutation,
                    edge_set, planted_blocks, refutes_spanning)

INTRA = 0.95
FORWARD_NOISE = 0.001
EXACT_CAP = 24

# Every class fits the exhaustive cut and expander sweeps (n <= 24), and
# every host has n <= 64, where the pipeline may fall back to the
# spanning oracle. On two classes it rarely does, and quickly; on three
# it often does, and for some seeded inputs the fallback runs for seconds
# or past its deadline. The three-class hosts and their orientations are
# therefore fixed, not drawn from --seed, so every run makes the same
# fallbacks. Fixed entries are (block sizes, host seed, orientations).
PLANTED_EXACT_SHAPES = ((20, 20), (22, 22), (24, 24))
PLANTED_EXACT_PATTERNS = 80
PLANTED_EXACT_FIXED = (((20, 20, 20), 2020, 80), ((21, 21, 21), 2121, 80),
                       ((20, 20, 24), 2024, 80))

# Classes of 30 to 64 vertices: heuristic cut search, sampled
# certification, and no oracle fallback (n > 64). Above 64 vertices some
# hosts and orientations fail to embed (see the README), and which ones
# depends on the host, so the hosts that are embedded and their
# orientations are fixed, not drawn from --seed: every run fails the same
# operations. The (40, 40, 40) host with seed 1120 shows the case-1
# planner gap.
PLANTED_HEURISTIC_FIXED = (((32, 32), 3232, 30), ((48, 48), 4848, 30),
                           ((64, 64), 6464, 30), ((30, 30, 30), 3030, 30),
                           ((36, 36, 36), 3636, 30), ((42, 42, 42), 4242, 30),
                           ((32, 32, 32, 32), 32323232, 30),
                           ((40, 40, 40), 1120, 100))
# Partition-only hosts with blocks of 100, where hill climbing dominates;
# these are drawn from --seed.
PARTITION_ONLY_SHAPES = ((100, 100), (100, 100, 100))

# Refutation cells: C2's extremal witnesses. The n = 10 bipartite cells
# reach the subset DP after the backtracking stage; a fixed stride keeps
# the round near its time budget.
BIPARTITE_ALL_N = 9
BIPARTITE_SUBSET_N, BIPARTITE_STRIDE = 10, 6
SPLIT_ALL_N = 10
SPLIT_SUBSET_N, SPLIT_STRIDE = 11, 4
# Satisfiable cells: C9's full oriented cycle spectrum on dense n = 10
# hosts; --seed 0 gives C9's hosts 7000-7049.
FOUND_HOSTS, FOUND_N, FOUND_DEGREE = 50, 10, 14
FOUND_LENGTHS = range(3, 11)

LIBRARY_API = {
    "decompose": decompose,
    "embed_hamilton_orientation": embed_hamilton_orientation,
    "exact_embed": exact_embed,
}


@dataclass
class PlantedHost:
    label: str
    g: hamorient.Digraph
    params: hamorient.DecompositionParams
    blocks: list
    patterns: list
    edges: frozenset


@dataclass
class PlantedInputs:
    hosts: list


@dataclass
class OracleInputs:
    refute_hosts: list          # (label, digraph, edge set)
    refute_cells: list          # (host index, pattern)
    found_hosts: list
    found_cells: list


@dataclass
class RoundResult:
    """One round's timings, in the same call order every round."""
    wall: float = 0.0
    heavy_calls: list = field(default_factory=list)  # decompose / refuting search
    light_calls: list = field(default_factory=list)  # embed / satisfiable search
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)     # wrong answers
    failures: list = field(default_factory=list)   # honest negatives


def _nondirected_cycle(rng: random.Random, n: int) -> CyclePattern:
    while True:
        c = CyclePattern(tuple(rng.random() < 0.5 for _ in range(n)))
        if not c.is_directed():
            return c


class GenTimer:
    """Sums the time spent in instance generators during a build."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


def _planted_host(gen: GenTimer, sizes, host_seed: int, patterns_rng,
                  count: int, exact_threshold: int) -> PlantedHost:
    g = gen(gen_blowup_tt, list(sizes), INTRA, FORWARD_NOISE, host_seed)
    params = fit_decomposition_params(g, exact_threshold=exact_threshold)
    patterns = [_nondirected_cycle(patterns_rng, g.n) for _ in range(count)]
    return PlantedHost(f"{list(sizes)} seed={host_seed}", g, params,
                       planted_blocks(sizes), patterns,
                       edge_set(g) if patterns else frozenset())


def _seeded_hosts(workload: str, seed: int, gen: GenTimer, shapes, count: int,
                  exact_threshold: int) -> list[PlantedHost]:
    hosts = []
    for i, sizes in enumerate(shapes):
        rng = random.Random(f"{workload}:{seed}:{i}")
        host_seed = rng.randrange(1 << 30)
        hosts.append(_planted_host(gen, sizes, host_seed, rng, count,
                                   exact_threshold))
    return hosts


def _fixed_host(gen: GenTimer, sizes, host_seed: int, count: int,
                exact_threshold: int) -> PlantedHost:
    rng = random.Random(f"fixed:{list(sizes)}:{host_seed}")
    return _planted_host(gen, sizes, host_seed, rng, count, exact_threshold)


def build_planted_exact(seed: int, gen: GenTimer) -> PlantedInputs:
    hosts = _seeded_hosts("planted-exact", seed, gen, PLANTED_EXACT_SHAPES,
                          PLANTED_EXACT_PATTERNS, EXACT_CAP)
    hosts += [_fixed_host(gen, sizes, host_seed, count, EXACT_CAP)
              for sizes, host_seed, count in PLANTED_EXACT_FIXED]
    return PlantedInputs(hosts)


def build_planted_heuristic(seed: int, gen: GenTimer) -> PlantedInputs:
    hosts = [_fixed_host(gen, sizes, host_seed, count, exact_threshold=20)
             for sizes, host_seed, count in PLANTED_HEURISTIC_FIXED]
    hosts += _seeded_hosts("planted-heuristic", seed, gen,
                           PARTITION_ONLY_SHAPES, 0, exact_threshold=20)
    return PlantedInputs(hosts)


def build_oracle(seed: int, gen: GenTimer) -> OracleInputs:
    refute_hosts, refute_cells = [], []

    def add_refute(label, g, patterns):
        refute_hosts.append((label, g, edge_set(g)))
        refute_cells.extend((len(refute_hosts) - 1, p) for p in patterns)

    add_refute(f"bipartite_extremal({BIPARTITE_ALL_N})",
               gen(gen_bipartite_extremal, BIPARTITE_ALL_N),
               necklace_classes(BIPARTITE_ALL_N))
    add_refute(f"bipartite_extremal({BIPARTITE_SUBSET_N})",
               gen(gen_bipartite_extremal, BIPARTITE_SUBSET_N),
               necklace_classes(BIPARTITE_SUBSET_N)[::BIPARTITE_STRIDE])
    add_refute(f"split_cliques({SPLIT_ALL_N})",
               gen(gen_split_cliques, SPLIT_ALL_N),
               distinct_path_patterns(SPLIT_ALL_N))
    add_refute(f"split_cliques({SPLIT_SUBSET_N})",
               gen(gen_split_cliques, SPLIT_SUBSET_N),
               distinct_path_patterns(SPLIT_SUBSET_N)[::SPLIT_STRIDE])

    spectrum = [c for length in FOUND_LENGTHS for c in necklace_classes(length)]
    found_hosts, found_cells = [], []
    for i in range(FOUND_HOSTS):
        host_seed = 7000 + FOUND_HOSTS * seed + i
        g = gen(gen_random_min_degree, FOUND_N, FOUND_DEGREE, host_seed)
        found_hosts.append((f"random_min_degree seed={host_seed}", g, edge_set(g)))
        found_cells.extend((i, c) for c in spectrum)
    return OracleInputs(refute_hosts, refute_cells, found_hosts, found_cells)


def _timed(calls: list, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        calls.append(time.perf_counter() - t0)


def planted_round(inputs: PlantedInputs, api) -> RoundResult:
    """Decompose every host, check the classes against the planted blocks,
    then embed each orientation and one directed-cycle control."""
    decompose_ = api["decompose"]
    embed = api["embed_hamilton_orientation"]
    r = RoundResult()
    t_round = time.perf_counter()
    for host in inputs.hosts:
        g = host.g
        r.attempted += 1
        sp = _timed(r.heavy_calls, decompose_, g, host.params)
        err = check_partition(g.n, sp.classes, host.blocks)
        if err:
            r.errors.append(f"{host.label}: partition: {err}")
            continue
        rsp = reverse_for_embedding(sp)
        for c in host.patterns:
            r.attempted += 1
            res = _timed(r.light_calls, embed, g, rsp, c)
            if res.status != "embedded":
                r.failed += 1
                r.failures.append(f"{host.label} {c.to_string()}: "
                                  f"{res.status} at {res.failure_step}")
                continue
            err = check_embedding(host.edges, g.n, c.orientation,
                                  res.embedding.mapping)
            if err:
                r.errors.append(f"{host.label} {c.to_string()}: {err}")
        r.attempted += 1
        control = embed(g, rsp, CyclePattern.directed(g.n))
        if control.status != "rejected":
            r.errors.append(f"{host.label}: directed control came back "
                            f"{control.status}")
    r.wall = time.perf_counter() - t_round
    return r


def oracle_round(inputs: OracleInputs, api) -> RoundResult:
    """Refute every witness cell, then find every satisfiable cell."""
    search = api["exact_embed"]
    r = RoundResult()
    t_round = time.perf_counter()
    witness = {}
    for hi, pattern in inputs.refute_cells:
        label, g, edges = inputs.refute_hosts[hi]
        closed = isinstance(pattern, CyclePattern)
        if (hi, closed) not in witness:
            witness[hi, closed] = refutes_spanning(edges, g.n, closed)
        r.attempted += 1
        res = _timed(r.heavy_calls, search, g, pattern)
        outcome, err = check_refutation(res.status, witness[hi, closed])
        if err:
            r.errors.append(f"{label} {pattern.to_string()}: {err}")
        if outcome == "failed":
            r.failed += 1
            r.failures.append(f"{label} {pattern.to_string()}: {res.status}")
    for hi, pattern in inputs.found_cells:
        label, g, edges = inputs.found_hosts[hi]
        r.attempted += 1
        res = _timed(r.light_calls, search, g, pattern)
        if res.status != "found":
            r.failed += 1
            r.failures.append(f"{label} {pattern.to_string()}: {res.status}")
            continue
        err = check_embedding(edges, g.n, pattern.orientation, res.mapping,
                              spanning=False)
        if err:
            r.errors.append(f"{label} {pattern.to_string()}: {err}")
    r.wall = time.perf_counter() - t_round
    return r


# name -> (input builder, round)
WORKLOADS = {
    "planted-exact": (build_planted_exact, planted_round),
    "planted-heuristic": (build_planted_heuristic, planted_round),
    "oracle": (build_oracle, oracle_round),
}
