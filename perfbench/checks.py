"""Output checks that share no code with the program's own checkers.

Every answer the benchmark times is re-checked here from the host's edge
list: embeddings without ``validate_embedding``, partitions without
``verify_partition``, refutations from a structural property of the
witness host that rules out every spanning path and cycle.

Each check returns ``None`` when the output is right, or a message saying
what is wrong.
"""

from __future__ import annotations


def edge_set(g) -> frozenset[tuple[int, int]]:
    """The host's directed edges as (tail, head) pairs."""
    return frozenset(g.edges())


def check_embedding(edges, n: int, orientation, mapping, *,
                    closed: bool = True, spanning: bool = True) -> str | None:
    """An oriented cycle (closed) or path (open) realised by ``mapping``.

    ``orientation[i]`` is True when the pattern edge between positions i
    and i+1 points forward. A spanning embedding must be a bijection onto
    all n host vertices; any embedding must be injective and must find
    every pattern edge in the host in its direction.
    """
    if mapping is None:
        return "no mapping"
    size = len(orientation) + (0 if closed else 1)
    if len(mapping) != size:
        return f"mapping has {len(mapping)} positions, pattern has {size}"
    if any(not 0 <= v < n for v in mapping):
        return "mapping leaves the vertex range"
    if len(set(mapping)) != size:
        return "mapping is not injective"
    if spanning and size != n:
        return f"mapping covers {size} of {n} vertices"
    for i, forward in enumerate(orientation):
        a, b = mapping[i], mapping[(i + 1) % size]
        edge = (a, b) if forward else (b, a)
        if edge not in edges:
            return f"pattern edge {i} needs {edge}, which the host lacks"
    return None


def planted_blocks(sizes) -> list[frozenset[int]]:
    """Vertex sets of the blocks ``gen_blowup_tt`` lays out in order."""
    blocks, at = [], 0
    for s in sizes:
        blocks.append(frozenset(range(at, at + s)))
        at += s
    return blocks


def check_partition(n: int, class_masks, blocks) -> str | None:
    """Disjoint classes covering V, one per planted block, each within
    symmetric difference 2 of its own block."""
    classes = [frozenset(v for v in range(n) if m >> v & 1) for m in class_masks]
    seen: set[int] = set()
    for cls in classes:
        if seen & cls:
            return "classes overlap"
        seen |= cls
    if seen != set(range(n)):
        return "classes do not cover the vertex set"
    if len(classes) != len(blocks):
        return f"{len(classes)} classes for {len(blocks)} planted blocks"
    matched = set()
    for cls in classes:
        i = min(range(len(blocks)), key=lambda j: len(cls ^ blocks[j]))
        if i in matched:
            return f"two classes match planted block {i}"
        matched.add(i)
        if len(cls ^ blocks[i]) > 2:
            return (f"a class differs from planted block {i} "
                    f"in {len(cls ^ blocks[i])} vertices")
    return None


def refutes_spanning(edges, n: int, closed: bool) -> bool:
    """True when the host has no spanning cycle (closed) or path of any
    orientation.

    Read from the underlying undirected graph: a disconnected graph has
    neither. In a bipartite graph a spanning cycle alternates between the
    parts, so unequal parts rule it out; a spanning path alternates too,
    so parts whose sizes differ by at least 2 rule it out.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colour = [-1] * n
    colour[0] = 0
    stack = [0]
    bipartite = True
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if colour[w] < 0:
                colour[w] = 1 - colour[u]
                stack.append(w)
            elif colour[w] == colour[u]:
                bipartite = False
    if min(colour) < 0:
        return True
    imbalance = abs(n - 2 * sum(colour))
    return bipartite and imbalance >= (1 if closed else 2)


def check_refutation(status: str, witness_holds: bool) -> tuple[str, str | None]:
    """Verdict on an ``exact_embed`` answer for a cell that has no embedding.

    Returns (outcome, error): outcome is ``ok`` or ``failed``; error is a
    message when the answer is wrong. ``none`` is the only right answer.
    A ``timeout`` is an honest failure; ``found`` contradicts the witness.
    """
    if not witness_holds:
        return "failed", "witness host admits spanning orientations"
    if status == "none":
        return "ok", None
    if status == "found":
        return "failed", "found an embedding the witness rules out"
    return "failed", None
