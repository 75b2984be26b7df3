"""Orientation patterns for cycles and paths.

A cycle pattern on n >= 3 positions is a tuple of n booleans; entry i is
the orientation of the edge between positions i and i+1 (mod n), True
meaning it points forward (i -> i+1). A path pattern on l vertices stores
l-1 entries the same way. Embedding machinery everywhere works on
positions 0..n-1 with this convention.

String form uses '+' for forward and '-' for backward, e.g. "++-+" is a
4-cycle with one backward edge. "directed" and "antidirected" are accepted
aliases when a length is supplied. The string form also ranks rotations:
canonical_rotation takes the least length-n slice of the doubled string.

This module is the one home of directed-run logic: cyclic_runs walks the
maximal runs of equal entries of a cyclic sequence once; run_frame frames
a longest directed run forward at position 0 from them; classify_case
reads its length for the case split; switches lists the sources and
sinks, and the case-2 planner relocates sinks from that list. The
embedding planner's stretches are the runs of its class assignment.

Plan geometry (case-2 segments, case-1b blocks) lives with its planner in
embedding.py; this module holds pattern calculus only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitset import int_floor
from .errors import InputError


def _parse_orientation(text: str) -> tuple[bool, ...]:
    out = []
    for ch in text:
        if ch == "+":
            out.append(True)
        elif ch == "-":
            out.append(False)
        else:
            raise InputError(f"orientation strings use only '+' and '-', got {ch!r}")
    return tuple(out)


@dataclass(frozen=True)
class CyclePattern:
    orientation: tuple[bool, ...]

    def __post_init__(self):
        if len(self.orientation) < 3:
            raise InputError("cycle patterns need at least 3 positions")

    @property
    def n(self) -> int:
        return len(self.orientation)

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> "CyclePattern":
        if text == "directed":
            if n is None:
                raise InputError("alias 'directed' needs an explicit length")
            return cls.directed(n)
        if text == "antidirected":
            if n is None:
                raise InputError("alias 'antidirected' needs an explicit length")
            return cls.antidirected(n)
        return cls(_parse_orientation(text))

    @classmethod
    def directed(cls, n: int) -> "CyclePattern":
        return cls((True,) * n)

    @classmethod
    def antidirected(cls, n: int) -> "CyclePattern":
        if n % 2:
            raise InputError("antidirected cycles exist only for even length")
        return cls(tuple(i % 2 == 0 for i in range(n)))

    def to_string(self) -> str:
        return "".join("+" if o else "-" for o in self.orientation)

    def is_directed(self) -> bool:
        return all(self.orientation) or not any(self.orientation)

    def edge(self, i: int) -> tuple[int, int]:
        """Directed edge realized between positions i and i+1 (mod n)."""
        j = (i + 1) % self.n
        return (i, j) if self.orientation[i] else (j, i)


@dataclass(frozen=True)
class PathPattern:
    orientation: tuple[bool, ...]

    @property
    def length(self) -> int:
        """Number of vertices on the path."""
        return len(self.orientation) + 1

    @classmethod
    def directed(cls, length: int) -> "PathPattern":
        if length < 1:
            raise InputError("paths need at least one vertex")
        return cls((True,) * (length - 1))

    def to_string(self) -> str:
        return "".join("+" if o else "-" for o in self.orientation)

    def edge(self, i: int) -> tuple[int, int]:
        return (i, i + 1) if self.orientation[i] else (i + 1, i)

    def reversed(self) -> "PathPattern":
        return PathPattern(tuple(not o for o in reversed(self.orientation)))


def cyclic_runs(seq: Sequence) -> list[tuple[int, int, object]]:
    """(start, length, value) for each maximal run of equal entries of the
    cyclic sequence seq, by ascending start, the run across the end
    included. A constant sequence is one run of len(seq) starting at 0."""
    n = len(seq)
    starts = [i for i in range(n) if seq[i] != seq[i - 1]] or [0]
    ends = starts[1:] + [starts[0] + n]
    return [(s, e - s, seq[s]) for s, e in zip(starts, ends)]


def switches(c: CyclePattern) -> tuple[list[int], list[int]]:
    """(sources, sinks): positions whose two incident edges both leave/enter.

    A position i is a source iff edge (i-1,i) points i -> i-1 and edge
    (i,i+1) points i -> i+1, so the sources are the starts of the forward
    runs of cyclic_runs and the sinks those of the backward runs; a
    directed cycle has neither. The two lists interleave around the cycle
    and have equal length, so the switch count is always even.
    """
    runs = cyclic_runs(c.orientation)
    if len(runs) == 1:
        return [], []
    return ([s for s, _, fw in runs if fw],
            [s for s, _, fw in runs if not fw])


def rotate(c: CyclePattern, r: int) -> CyclePattern:
    """New pattern whose position i is the old position (i + r) mod n."""
    n = c.n
    r %= n
    return CyclePattern(tuple(c.orientation[(i + r) % n] for i in range(n)))


def reflect(c: CyclePattern) -> CyclePattern:
    """Traverse the cycle the other way: position j maps to old (n-j) mod n."""
    n = c.n
    return CyclePattern(tuple(not c.orientation[(n - 1 - j) % n] for j in range(n)))


def canonical_rotation(c: CyclePattern) -> tuple[CyclePattern, int]:
    """Lexicographically minimal rotation ('+' sorts before '-').

    Maximizing the leading forward run means that whenever the pattern has
    any switch, position 0 of the canonical form is a source. Returns the
    rotated pattern and the offset r used (new i = old (i + r) mod n); on
    a tie (a periodic pattern) the smallest offset wins.

    Rotation r is the length-n slice at r of the doubled string form, so
    the offsets are ranked by comparing slices in C: '+' (43) sorts before
    '-' (45), and min keeps the first of equal slices.
    """
    n = c.n
    doubled = c.to_string() * 2
    best = min(range(n), key=lambda r: doubled[r:r + n])
    return rotate(c, best), best


def necklace_classes(n: int) -> list[CyclePattern]:
    """One canonical representative per rotation class of length-n patterns."""
    seen = set()
    out = []
    for bits in range(1 << n):
        o = tuple(bool(bits >> i & 1) for i in range(n))
        canon, _ = canonical_rotation(CyclePattern(o))
        if canon.orientation not in seen:
            seen.add(canon.orientation)
            out.append(canon)
    return out


def distinct_path_patterns(length: int) -> list[PathPattern]:
    """Path orientation strings up to end-to-end reversal."""
    seen = set()
    out = []
    for bits in range(1 << (length - 1)):
        o = tuple(bool(bits >> i & 1) for i in range(length - 1))
        canon = min(o, PathPattern(o).reversed().orientation)
        if canon not in seen:
            seen.add(canon)
            out.append(PathPattern(canon))
    return out


def run_frame(c: CyclePattern) -> tuple[int, bool, int]:
    """(offset, reflected, ell): the frame that puts a longest directed run
    forward on positions [0, ell) of rotate(reflect(c) if reflected else c,
    offset).

    Runs are maximal stretches of equally oriented edges, measured in
    vertices (edges + 1), wrap-around included; a fully directed cycle is
    one run of n vertices. A backward run of c starting at s is a forward
    run of reflect(c) starting at (n - s - ell + 1) mod n. A forward run
    beats an equally long backward one; within one direction the smallest
    start wins.
    """
    n = c.n

    def frame(run: tuple[int, int, bool]) -> tuple[int, bool, int]:
        s, edges, fw = run
        ell = edges + (edges < n)
        return (s, False, ell) if fw else ((n - s - ell + 1) % n, True, ell)

    return max(map(frame, cyclic_runs(c.orientation)),
               key=lambda f: (f[2], not f[1], -f[0]))


def classify_case(c: CyclePattern, beta: float) -> tuple[str, int]:
    """Dispatch on the longest directed run: 'case1' iff it spans at least
    floor(beta*n) vertices, else 'case2'. Returns the run length too."""
    ell = run_frame(c)[2]
    bar = int_floor(beta * c.n)
    return ("case1" if ell >= bar else "case2"), ell
