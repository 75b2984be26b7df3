"""Small helpers for vertex sets stored as int bitmasks.

Vertices are dense ints 0..n-1, so a set of vertices is just a Python int
with bit v set for each member. Python ints give us arbitrary width and
fast AND/OR/popcount, which is all the hot loops need.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(bits_of(mask))


def full_mask(n: int) -> int:
    return (1 << n) - 1


def int_ceil(x: float) -> int:
    """Ceiling with a tolerance for float noise (0.3*10 style artifacts)."""
    import math

    return math.ceil(x - 1e-9)


def int_floor(x: float) -> int:
    import math

    return math.floor(x + 1e-9)
