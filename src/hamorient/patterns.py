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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitset import int_floor
from .errors import InputError, PreconditionError


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


@dataclass(frozen=True)
class SegmentPlan:
    """Cut of a cycle pattern into consecutive segments, one per class.

    boundaries[s] is the exclusive 0-based end of segment s; segment s
    covers positions [boundaries[s-1], boundaries[s]). overshoots[s] is how
    far boundary s ran past the cumulative class-size target while hunting
    for a forward final edge.
    """
    boundaries: tuple[int, ...]
    overshoots: tuple[int, ...]


def partition_case2(c: CyclePattern, class_sizes: Sequence[int], beta: float) -> SegmentPlan:
    """Cut C into t consecutive segments ending on forward edges.

    Position 0 must be a source (rotate first; canonical_rotation does it).
    Segment s < t-1 is minimal with a forward final edge and cumulative
    length at least the cumulative class size; the final segment takes the
    rest. Requires the pattern to be in case 2 for beta and every class
    size to be at least 3*beta*n, which bounds every overshoot by beta*n.
    """
    n = c.n
    sizes = tuple(class_sizes)
    t = len(sizes)
    if t < 2:
        raise PreconditionError("segment plans need at least two classes")
    if sum(sizes) != n:
        raise PreconditionError(f"class sizes sum to {sum(sizes)}, pattern has {n}")
    case, ell = classify_case(c, beta)
    if case != "case2":
        raise PreconditionError(
            f"pattern has a directed run on {ell} vertices, not in case 2 for beta={beta}")
    bar = beta * n
    for m in sizes:
        if m < 3 * bar - 1e-9:
            raise PreconditionError(f"class size {m} below 3*beta*n = {3 * bar:.2f}")
    o = c.orientation
    if o[-1] or not o[0]:
        raise PreconditionError("position 0 must be a source")

    boundaries = []
    overshoots = []
    target = 0
    cum = 0
    for s in range(t - 1):
        target += sizes[s]
        cut = max(cum + 1, target)
        # final edge of the segment is (cut-1, cut); forward means o[cut-1]
        while cut < n and not o[cut - 1]:
            cut += 1
        if cut >= n:
            raise PreconditionError("ran off the pattern hunting a forward edge")
        d = cut - target
        if d < 0 or d > bar + 1e-9:
            raise PreconditionError(f"overshoot {d} at boundary {s} outside [0, beta*n]")
        boundaries.append(cut)
        overshoots.append(d)
        cum = cut
    boundaries.append(n)
    if n - cum > sizes[-1]:
        raise PreconditionError("final segment exceeds the last class size")
    return SegmentPlan(tuple(boundaries), tuple(overshoots))


@dataclass(frozen=True)
class BlockPlan:
    """Case-1b split of the non-run part into blocks of near-equal size.

    In the frame where the directed run occupies positions [0, ell), block
    i covers positions [starts[i], starts[i] + sizes[i]). The auxiliary
    path pattern records the orientation of each edge between consecutive
    blocks (edge between the last position of block i and the first of
    block i+1).
    """
    block_sizes: tuple[int, ...]
    starts: tuple[int, ...]
    aux_path: PathPattern


def _case1b_blocks(c: CyclePattern, ell: int, d: int) -> BlockPlan:
    """Split the complement of the framed run into q = ceil((n-ell)/D)
    blocks sized as equally as possible (all within [D/2, D]).

    The pattern must already be framed (run_frame) with its longest
    directed run forward on positions [0, ell). Errors if the run spans
    everything or the equal split would leave a block below D/2.
    """
    o = c.orientation
    n = c.n
    if ell >= n:
        raise PreconditionError("the run spans the whole cycle; nothing to block")
    if d < 2:
        raise PreconditionError("block cap must be at least 2")
    rest = n - ell
    q = -(-rest // d)
    base, extra = divmod(rest, q)
    sizes = tuple(base + 1 if i < extra else base for i in range(q))
    if sizes[-1] * 2 < d:
        raise PreconditionError(
            f"equal split gives a block of {sizes[-1]} < D/2 = {d / 2}")
    starts = []
    pos = ell
    for sz in sizes:
        starts.append(pos)
        pos += sz
    # aux edge i is the pattern edge joining block i to block i+1
    aux = tuple(o[starts[i + 1] - 1] for i in range(q - 1))
    return BlockPlan(sizes, tuple(starts), PathPattern(aux))
