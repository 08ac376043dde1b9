import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import ArgumentError
from cantornormal.kernels import match_mask, orbit_numbers, region_digits


# plain-Python reference loops: one position at a time, no vectorisation

def _region_digits_reference(bases, r):
    beta = int(bases.max()) + 1
    nwin = bases.shape[0] // r
    out = np.empty(nwin * r, dtype=np.int64)
    counts: dict = {}
    for j in range(nwin):
        key = 0
        prod = 1
        for i in range(r):
            b = int(bases[j * r + i])
            key = key * beta + b
            prod *= b
        c = counts.get(key, 0) + 1
        counts[key] = c
        idx = (c - 1) % prod
        for i in range(r - 1, -1, -1):
            out[j * r + i] = idx % bases[j * r + i]
            idx //= int(bases[j * r + i])
    return out, len(counts)


def _match_mask_reference(digits, block, n):
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        out[i] = all(digits[i + j] == b for j, b in enumerate(block))
    return out


def _orbit_numbers_reference(digits, bases, depth):
    """Numerators and denominators as Python ints, which never wrap."""
    num, den = [], []
    for m in range(len(digits) - depth + 1):
        a, d = 0, 1
        for i in range(depth):
            q = int(bases[m + i])
            a = a * q + int(digits[m + i])
            d *= q
        num.append(a)
        den.append(d)
    return num, den


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=2, max_value=9), min_size=5, max_size=120),
)
def test_region_digits_matches_reference_loop(r, raw):
    bases = np.asarray(raw[: (len(raw) // r) * r], dtype=np.int64)
    if bases.size == 0:
        return
    got, want = region_digits(bases, r), _region_digits_reference(bases, r)
    assert (got[0] == want[0]).all() and got[1] == want[1]


def test_region_digits_numpy_reference_loop():
    rng = np.random.default_rng(7)
    r = 3
    bases = rng.integers(2, 6, size=r * 500).astype(np.int64)
    got, want = region_digits(bases, r), _region_digits_reference(bases, r)
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]


def test_region_digits_at_widest_key():
    # keys pack r bases below beta into r * bit_length(beta) <= 61 bits
    rng = np.random.default_rng(5)
    top = 2**61 - 2  # beta = 2**61 - 1, 61 bits: the widest one-base key
    narrow = np.array([top, 5, top, top - 1, 5, top, 2], dtype=np.int64)
    pool = rng.integers(2, 7, size=(3, 20))  # beta = 7, 20 * 3 = 60 bits
    pool[0, 0] = 6
    wide = pool[rng.integers(0, 3, size=60)].reshape(-1).astype(np.int64)
    assert int(wide.max()) == 6
    for bases, r in ((narrow, 1), (wide, 20)):
        got, want = region_digits(bases, r), _region_digits_reference(bases, r)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
    # one more bit of key refuses the batch
    for bases, r in (
        (np.append(narrow, top + 1), 1),  # beta = 2**61: 62 bits
        (wide[: 21 * 57], 21),  # 21 * 3 = 63 bits
        (np.where(wide == 6, 7, wide), 20),  # beta = 8: 20 * 4 = 80 bits
    ):
        with pytest.raises(ArgumentError, match="int64 key"):
            region_digits(bases, r)


def test_region_digits_key_width_guard():
    bases = np.full(62, 2**40, dtype=np.int64)
    with pytest.raises(ArgumentError):
        region_digits(bases, 62)


def test_match_mask_matches_reference_loop():
    rng = np.random.default_rng(11)
    digits = rng.integers(0, 3, size=5000).astype(np.int64)
    for block in ([0], [2, 1], [0, 0, 2]):
        n = digits.size - len(block) + 1
        assert (match_mask(digits, block, n) == _match_mask_reference(digits, block, n)).all()


def test_match_mask_shortfall():
    with pytest.raises(ArgumentError):
        match_mask(np.zeros(5, dtype=np.int64), [0, 0], 5)


def test_orbit_numbers_matches_reference_loop():
    rng = np.random.default_rng(3)
    size = 400
    bases = rng.integers(2, 5, size=size).astype(np.int64)
    digits = (rng.integers(0, 10, size=size) % bases).astype(np.int64)
    for depth in range(1, 17):
        # the last start reads through the last base; longer bases are ignored
        got = orbit_numbers(digits, np.append(bases, 7), depth)
        want = _orbit_numbers_reference(digits, bases, depth)
        assert got[0].tolist() == want[0] and got[1].tolist() == want[1]
        assert got[0].size == size - depth + 1


def test_orbit_numbers_exact_small():
    bases = np.array([2, 3, 2], dtype=np.int64)
    digits = np.array([1, 2, 1], dtype=np.int64)
    num, den = orbit_numbers(digits, bases, 3)
    # 1/2 + 2/6 + 1/12 = 11/12
    assert (num.tolist(), den.tolist()) == ([11], [12])


def test_orbit_numbers_depth_guard():
    bases = np.full(100, 9, dtype=np.int64)
    digits = np.zeros(100, dtype=np.int64)
    with pytest.raises(ArgumentError, match="int64 denominators"):
        orbit_numbers(digits, bases, 30)
    # arrays too short for the depth, or bases shorter than the digits
    for d, b, depth in ((digits[:29], bases, 30), (digits, bases[:99], 3), (digits, bases, 0)):
        with pytest.raises(ArgumentError, match="needs|must be >= 1"):
            orbit_numbers(d, b, depth)


def test_orbit_numbers_peak_is_its_outputs():
    size, depth = 2**16, 8
    rng = np.random.default_rng(8)
    bases = rng.integers(2, 9, size=size + depth)
    digits = rng.integers(0, bases)
    tracemalloc.start()
    try:
        num, den = orbit_numbers(digits, bases, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the width check's log2 sums are freed before the outputs are allocated
    assert peak <= 1.2 * (num.nbytes + den.nbytes)


@pytest.mark.parametrize(
    "pattern, widest",
    [
        ([2], 61),  # 61 bits
        ([3], 38),  # 38 * log2(3) = 60.2 bits; 39 steps take 61.8
        ([2, 3, 5, 7], 31),  # 58.9 bits; one more base 7 takes 61.7
    ],
)
def test_orbit_numbers_at_widest_depth(pattern, widest):
    size = 3 * widest
    bases = np.resize(np.asarray(pattern, dtype=np.int64), size)
    rng = np.random.default_rng(widest)
    # from every start of the mixed pattern, too, `widest` steps stay within 61.5 bits
    for digits in (bases - 1, rng.integers(0, bases)):
        got = orbit_numbers(digits, bases, widest)
        want = _orbit_numbers_reference(digits, bases, widest)
        assert got[0].tolist() == want[0] and got[1].tolist() == want[1]
    assert int(got[1][0]) == int(np.prod(bases[:widest].astype(object)))
    with pytest.raises(ArgumentError, match="int64 denominators"):
        orbit_numbers(digits, bases, widest + 1)
