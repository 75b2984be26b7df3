import random

import pytest

from hamorient import (CyclePattern, InputError, PathPattern,
                       canonical_rotation, classify_case,
                       distinct_path_patterns, gen_complete_digraph,
                       necklace_classes, run_frame, switches)
from hamorient.bitset import mask_of
from hamorient.embedding import (_PlanError, _block_split, _plan_case2,
                                 _segment_cuts)
from hamorient.patterns import reflect, rotate

from conftest import has_directed_window, ref_canonical_rotation


def test_parse_and_print():
    c = CyclePattern.from_string("++-")
    assert c.orientation == (True, True, False)
    assert c.to_string() == "++-"
    assert c.n == 3
    p = PathPattern((True, False))
    assert p.length == 3 and p.to_string() == "+-"


def test_parse_rejects_junk():
    with pytest.raises(InputError):
        CyclePattern.from_string("+*-")
    with pytest.raises(InputError):
        CyclePattern.from_string("directed")  # alias needs a length
    with pytest.raises(InputError):
        CyclePattern.from_string("++", n=5)


def test_aliases():
    assert CyclePattern.from_string("directed", n=4).is_directed()
    anti = CyclePattern.from_string("antidirected", n=6)
    assert anti.to_string() == "+-+-+-"
    with pytest.raises(InputError):
        CyclePattern.antidirected(5)  # odd length cannot alternate


def test_edge_orientation_convention():
    # edge i joins positions i and i+1 mod n; '+' points forward
    c = CyclePattern.from_string("+-+")
    assert c.edge(0) == (0, 1)
    assert c.edge(1) == (2, 1)
    assert c.edge(2) == (2, 0)


def test_switches_interleave():
    c = CyclePattern.from_string("++--")
    sources, sinks = switches(c)
    # position 0: edge (3,0) backward=0->3? o[3]=False means 0->3; o[0]=True means 0->1
    assert sources == [0]
    assert sinks == [2]


def _switch_count(c):
    sources, sinks = switches(c)
    return len(sources) + len(sinks)


def test_switch_count_even_exhaustive_small():
    for n in (3, 4, 5, 6):
        for bits in range(1 << n):
            c = CyclePattern(tuple(bool(bits >> i & 1) for i in range(n)))
            assert _switch_count(c) % 2 == 0


def test_switch_count_antidirected_is_n():
    c = CyclePattern.antidirected(8)
    assert _switch_count(c) == 8


def test_rotate_and_reflect_preserve_switches():
    c = CyclePattern.from_string("++-+--+-")
    for r in range(c.n):
        assert _switch_count(rotate(c, r)) == _switch_count(c)
    assert _switch_count(reflect(c)) == _switch_count(c)


def test_reflect_is_involution():
    c = CyclePattern.from_string("++-+--+-")
    assert reflect(reflect(c)) == c


def test_rotate_composition():
    c = CyclePattern.from_string("++-+--+-")
    assert rotate(rotate(c, 3), 5) == c  # 3 + 5 = 8 = n


def test_canonical_rotation_minimal():
    c = CyclePattern.from_string("-++-")
    canon, r = canonical_rotation(c)
    assert canon == rotate(c, r)
    assert canon.to_string() == "++--"
    # canonical form is a fixed point
    assert canonical_rotation(canon)[0] == canon


def test_canonical_rotation_matches_reference():
    # every cycle pattern with n = 3..12
    for n in range(3, 13):
        for bits in range(1 << n):
            c = CyclePattern(tuple(bool(bits >> i & 1) for i in range(n)))
            assert canonical_rotation(c) == ref_canonical_rotation(c), c


def test_canonical_rotation_periodic_ties_take_smallest_offset():
    # a k-fold repeat has k equal minimal rotations; the smallest offset wins
    rng = random.Random(11)
    for _ in range(200):
        base = tuple(rng.random() < 0.5 for _ in range(rng.randrange(1, 9)))
        k = rng.randrange(2, 6)
        if len(base) * k < 3:
            continue
        c = CyclePattern(base * k)
        got = canonical_rotation(c)
        assert got == ref_canonical_rotation(c), c
        assert got[1] < len(base), c
    assert canonical_rotation(CyclePattern.from_string("-+-+-+"))[1] == 1
    assert canonical_rotation(CyclePattern.from_string("+++"))[1] == 0


def test_canonical_rotation_matches_reference_on_long_patterns():
    rng = random.Random(2025)
    for n in (13, 40, 120, 333, 1000):
        for p in (0.5, 0.9, 0.1):
            c = CyclePattern(tuple(rng.random() < p for _ in range(n)))
            assert canonical_rotation(c) == ref_canonical_rotation(c), (n, p)


def test_canonical_rotation_source_at_zero():
    # any pattern with a switch canonicalizes to a source at position 0
    c = CyclePattern.from_string("-+-++-")
    canon, _ = canonical_rotation(c)
    sources, _ = switches(canon)
    assert 0 in sources


def test_necklace_classes_counts():
    # rotation classes of binary strings: standard necklace counts
    assert len(necklace_classes(3)) == 4
    assert len(necklace_classes(4)) == 6
    assert len(necklace_classes(5)) == 8
    assert len(necklace_classes(6)) == 14


def test_necklace_classes_cover_all_rotations():
    reps = necklace_classes(5)
    seen = set()
    for c in reps:
        for r in range(5):
            seen.add(rotate(c, r).orientation)
    assert len(seen) == 32


def test_distinct_path_patterns_counts():
    # strings of length L-1 up to end-to-end reversal (which also flips
    # every sign); L-1 odd has no fixed strings, L-1 even has 2^((L-1)/2)
    assert len(distinct_path_patterns(2)) == 1
    assert len(distinct_path_patterns(3)) == 3
    assert len(distinct_path_patterns(4)) == 4
    assert len(distinct_path_patterns(5)) == 10


def test_distinct_path_patterns_reversal_closure():
    reps = distinct_path_patterns(5)
    seen = set()
    for p in reps:
        seen.add(p.orientation)
        seen.add(p.reversed().orientation)
    assert len(seen) == 16


def test_longest_directed_segment_basic():
    c = CyclePattern.from_string("-+++--+-")
    assert run_frame(c) == (1, False, 4)


def test_longest_directed_segment_wraps():
    # run of forward edges crossing the string boundary: edges 6,7,0,1
    c = CyclePattern.from_string("++--+-++")
    assert run_frame(c) == (6, False, 5)


def test_longest_directed_segment_directed_cycle():
    c = CyclePattern.directed(9)
    assert run_frame(c) == (0, False, 9)


def test_run_frame_backward_run_reflects():
    # the backward run on edges 2..6 (start 2, 6 vertices) is the forward
    # run of reflect(c) starting at n - 2 - 6 + 1 = 1
    c = CyclePattern.from_string("++-----+")
    offset, reflected, ell = run_frame(c)
    assert (offset, reflected, ell) == (1, True, 6)
    o = rotate(reflect(c), offset).orientation
    assert all(o[:ell - 1]) and not o[ell - 1] and not o[-1]


# frozen oracle value: the longest run of "TTTFFTTTT" (edges 5..8 then 0..2
# wrap into one forward run of 7 edges = 8 vertices)
def test_longest_directed_segment_frozen_value():
    c = CyclePattern(tuple(ch == "T" for ch in "TTTFFTTTT"))
    assert run_frame(c) == (5, False, 8)


def test_longest_matches_window_scan_exhaustive():
    for n in (4, 5, 6, 7):
        for bits in range(1, (1 << n) - 1):
            c = CyclePattern(tuple(bool(bits >> i & 1) for i in range(n)))
            offset, reflected, vlen = run_frame(c)
            assert has_directed_window(c, vlen)
            assert not has_directed_window(c, vlen + 1)
            # the framed run really is directed and forward
            o = rotate(reflect(c) if reflected else c, offset).orientation
            assert all(o[:vlen - 1])


def test_classify_case_dichotomy():
    c = CyclePattern.from_string("++++++----------")  # n=16, backward run of 11
    case, ell = classify_case(c, 0.25)      # bar = 4
    assert case == "case1" and ell == 11
    anti = CyclePattern.antidirected(16)
    case, ell = classify_case(anti, 0.25)
    assert case == "case2" and ell == 2


def test_partition_case2_boundaries():
    # alternating pattern, two classes of 12 on n=24, bar = beta*n = 3
    c = CyclePattern.antidirected(24)
    bounds, overshoots = _segment_cuts(c.orientation, [12, 12], 0.125 * 24)
    assert len(bounds) == 3
    assert bounds[0] == 0 and bounds[-1] == 24
    assert len(overshoots) == 1
    assert all(0 <= d <= 3 for d in overshoots)
    # segment e covers [bounds[e], bounds[e+1]): the segments tile the
    # positions, and each one runs past its cumulative class size by its
    # overshoot
    assert bounds == sorted(bounds)
    assert bounds[1] == 12 + overshoots[0]
    # position 0 is a source: wrap edge leaves backward, edge 0 forward
    assert not c.orientation[-1] and c.orientation[0]
    # each boundary cut sits at a forward edge end (o[cut-1] is True)
    for b in bounds[1:-1]:
        assert c.orientation[b - 1]
    # an overshoot above bar, or a hunt that runs off the pattern, fails
    for o, bar in ((c.orientation, 0.5),
                   (CyclePattern.from_string("+-----").orientation, 3)):
        with pytest.raises(_PlanError) as exc:
            _segment_cuts(o, [len(o) // 2] * 2, bar)
        assert exc.value.step == "case2:segments"


def test_partition_case2_source_start_required():
    # rotate the alternating pattern so position 0 is a sink
    c = rotate(CyclePattern.antidirected(24), 1)
    g = gen_complete_digraph(24)
    pools = [mask_of(range(12)), mask_of(range(12, 24))]
    with pytest.raises(_PlanError) as exc:
        _plan_case2(g, c, pools, 2, 0.125, 0)
    assert exc.value.step == "case2:frame"


def test_directed_run_decomposition_blocks():
    # n=12, longest run = edges 0..5 forward (7 vertices at positions 0..6);
    # the trailing "--" prevents a wrap extension
    c = CyclePattern.from_string("++++++-+-+--")
    offset, reflected, ell = run_frame(c)
    assert (offset, reflected, ell) == (0, False, 7)
    block_sizes, starts, aux = _block_split(c.orientation, ell, 3)
    # blocks tile the complement [7, 12)
    assert sum(block_sizes) == 12 - ell
    assert all(2 <= b <= 3 for b in block_sizes)
    assert starts[0] == ell
    for i in range(1, len(starts)):
        assert starts[i] == starts[i - 1] + block_sizes[i - 1]
    # one aux edge per inter-block boundary, orientation copied from the cycle
    assert aux.length == len(block_sizes)
    for i in range(len(block_sizes) - 1):
        assert aux.orientation[i] == c.orientation[starts[i + 1] - 1]
    # no split when a block would have one position or fewer than d/2,
    # or when the run spans the cycle ("+...+-" has ell = n)
    assert _block_split(c.orientation, ell, 2) is None       # [2, 2, 1]
    assert _block_split(c.orientation, ell, 12) is None      # [5] < 6
    spanning = CyclePattern.from_string("+" * 11 + "-")
    assert run_frame(spanning)[2] == 12
    assert _block_split(spanning.orientation, 12, 3) is None
