from hamorient.bitset import (bit_list, bits_of, full_mask, int_ceil,
                              int_floor, mask_of)


def test_mask_round_trip():
    vs = [0, 3, 5, 11]
    m = mask_of(vs)
    assert bit_list(m) == vs
    assert m.bit_count() == 4


def test_bits_of_ascending():
    assert list(bits_of(0b101010)) == [1, 3, 5]
    assert list(bits_of(0)) == []


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111
    assert full_mask(64).bit_count() == 64


def test_int_floor_ceil_exact_values():
    assert int_floor(3.0) == 3
    assert int_ceil(3.0) == 3
    assert int_floor(2.7) == 2
    assert int_ceil(2.3) == 3


def test_int_floor_ceil_absorb_float_noise():
    # 0.3 * 10 = 2.9999999999999996 in binary floats; the tolerant
    # rounding must still see the intended integer 3
    assert int_floor(0.3 * 10) == 3
    assert int_ceil(0.7 * 10) == 7
    assert int_floor(0.1 + 0.2) == 0
    assert int_ceil(1.3 * 12) == 16
