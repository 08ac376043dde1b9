import hashlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import (
    ArgumentError,
    CertifiedInterval,
    ConstantSequence,
    InsufficientDigitsError,
    PeriodicSequence,
    PresetSequence,
    RefinementError,
    TableSequence,
    constructed_digits,
    finite_digits,
    generate_digits,
    prefix_value,
    to_base_b,
)
from cantornormal import values
from cantornormal.cli import main
from cantornormal.values import base_digits


# plain-Python reference: one stream digit consumed at a time, and at each
# output digit t the endpoints are compared at scale base**t

def _to_base_b_reference(E, base, count, refine_cap=64, min_prefix=0):
    seq = E.seq
    num = 0
    den = 1
    consumed = 0

    def consume_one():
        nonlocal num, den, consumed
        consumed += 1
        q = seq.base_at(consumed)
        num = num * q + E.digit(consumed)
        den *= q

    while consumed < min_prefix:
        consume_one()
    out = []
    scale = 1
    for t in range(1, count + 1):
        scale *= base
        spent = 0
        while True:
            lo = (num * scale) // den
            hi = ((num + 1) * scale) // den
            if lo == hi:
                out.append(lo % base)
                break
            if spent >= refine_cap:
                raise RefinementError(
                    f"digit {t} in base {base} still ambiguous after "
                    f"{consumed} stream digits; the value may lie on a "
                    "base boundary"
                )
            consume_one()
            spent += 1
    return out


def _prefix_value_reference(seq, digits):
    num, den = 0, 1
    for i, d in enumerate(digits, start=1):
        q = seq.base_at(i)
        num = num * q + int(d)
        den *= q
    return Fraction(num, den), Fraction(num + 1, den)


def _outcome(f, *args, **kwargs):
    """The result of f, or the error it raised: a RefinementError with its
    message (digit and stream digits spent), an InsufficientDigitsError by type."""
    try:
        return f(*args, **kwargs)
    except RefinementError as exc:
        return RefinementError, str(exc)
    except InsufficientDigitsError:
        return InsufficientDigitsError


def test_prefix_value_examples(c2, p23):
    iv = prefix_value(c2, [1])
    assert (iv.lower, iv.upper) == (Fraction(1, 2), Fraction(1))
    iv = prefix_value(c2, [0, 1])
    assert (iv.lower, iv.upper) == (Fraction(1, 4), Fraction(1, 2))
    iv = prefix_value(p23, [1, 2])
    assert (iv.lower, iv.upper) == (Fraction(5, 6), Fraction(1))


def test_prefix_value_rejects_bad_digit(c2, p23):
    with pytest.raises(ArgumentError, match="digit 2 at position 2 outside 0..1"):
        prefix_value(c2, [0, 2])
    with pytest.raises(ArgumentError, match="digit 3 at position 2 outside 0..2"):
        prefix_value(p23, [1, 3, -1])
    with pytest.raises(ArgumentError, match="digit -1 at position 1 outside 0..1"):
        prefix_value(p23, [-1, 5])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=5), st.integers(0, 300),
       st.integers(0, 2**32))
def test_prefix_value_matches_reference(pattern, m, salt):
    seq = PeriodicSequence(pattern)
    digits = [(salt * (i + 7) ** 3) % seq.base_at(i + 1) for i in range(m)]
    iv = prefix_value(seq, digits)
    assert (iv.lower, iv.upper) == _prefix_value_reference(seq, digits)


def test_prefix_intervals_nest(c2, p23):
    for seq in (c2, p23):
        digits = generate_digits(seq, 40)
        prev = CertifiedInterval(Fraction(0), Fraction(1))
        den = 1
        for m in range(1, 41):
            iv = prefix_value(seq, digits[:m])
            den *= seq.base_at(m)
            assert iv.width == Fraction(1, den)
            assert prev.lower <= iv.lower and iv.upper <= prev.upper
            prev = iv


def test_to_base_b_examples(c2):
    half = finite_digits(c2, [1] + [0] * 500)
    assert to_base_b(half, 10, 3) == [5, 0, 0]
    quarter = finite_digits(c2, [0, 1] + [0] * 500)
    assert to_base_b(quarter, 10, 3) == [2, 5, 0]


def test_to_base_b_against_exact_rational(c2):
    E = constructed_digits(c2)
    digits = to_base_b(E, 10, 50)
    lo = prefix_value(c2, E.prefix(800)).lower
    scaled = lo.numerator * 10**50 // lo.denominator
    assert digits == [int(ch) for ch in str(scaled).zfill(50)]


def test_to_base_b_longer_prefix_reproduces(c2):
    a = to_base_b(constructed_digits(c2), 10, 50)
    b = _to_base_b_reference(constructed_digits(c2), 10, 50, min_prefix=800)
    assert a == b


def test_to_base_b_other_bases(p23):
    E = constructed_digits(p23)
    digits = to_base_b(E, 7, 30)
    lo = prefix_value(p23, E.prefix(400)).lower
    scaled = lo.numerator * 7**30 // lo.denominator
    expect = []
    for _ in range(30):
        scaled, d = divmod(scaled, 7)
        expect.append(d)
    assert digits == expect[::-1]


def test_to_base_b_output_within_final_interval(c2):
    E = constructed_digits(c2)
    count = 20
    digits = to_base_b(E, 10, count)
    value = Fraction(int("".join(map(str, digits))), 10**count)
    iv = prefix_value(c2, E.prefix(200))
    assert iv.lower - Fraction(1, 10**count) <= value <= iv.upper


def test_to_base_b_boundary_ambiguity(c2, monkeypatch):
    # all-max tail: the value sits exactly on a base boundary forever
    monkeypatch.setattr(values, "DEFAULT_REFINE_CAP", 16)
    stuck = finite_digits(c2, [1] * 400)
    with pytest.raises(RefinementError):
        to_base_b(stuck, 2, 3)


def test_to_base_b_validation(c2):
    E = constructed_digits(c2)
    with pytest.raises(ArgumentError):
        to_base_b(E, 1, 3)
    with pytest.raises(ArgumentError):
        to_base_b(E, 10, 0)


def _stream(kind, pattern, digits, tail):
    """A stream over a periodic sequence: constructed, or an explicit finite
    prefix followed by a tail of zeros or maximal digits (the value then sits
    on or next to a boundary of every base)."""
    seq = PeriodicSequence(pattern)
    if kind == "construct":
        return constructed_digits(seq)
    n = len(digits)
    tail_len = 40 if kind == "finite" else 300
    fill = [0 if tail == "zeros" else seq.base_at(i) - 1 for i in range(n + 1, n + tail_len)]
    digits = [d % seq.base_at(i) for i, d in enumerate(digits, start=1)]
    return finite_digits(seq, digits + fill)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["construct", "finite", "long"]),
    pattern=st.lists(st.integers(2, 12), min_size=1, max_size=4),
    digits=st.lists(st.integers(0, 11), max_size=30),
    tail=st.sampled_from(["zeros", "max"]),
    base=st.integers(2, 16),
    count=st.integers(1, 60),
    refine_cap=st.integers(1, 12),
)
def test_to_base_b_matches_reference(kind, pattern, digits, tail, base, count, refine_cap):
    with mock.patch.object(values, "DEFAULT_REFINE_CAP", refine_cap):
        got = _outcome(to_base_b, _stream(kind, pattern, digits, tail), base, count)
    want = _outcome(_to_base_b_reference, _stream(kind, pattern, digits, tail), base, count,
                    refine_cap=refine_cap)
    assert got == want


@pytest.mark.parametrize("seq", [ConstantSequence(2), PresetSequence("iterated-log"),
                                 TableSequence([3, 7, 2, 5])])
def test_to_base_b_long_output_matches_reference(seq):
    E = constructed_digits(seq)
    assert to_base_b(E, 10, 700) == _to_base_b_reference(E, 10, 700)
    for cap in (3, 6):
        with mock.patch.object(values, "DEFAULT_REFINE_CAP", cap):
            got = _outcome(to_base_b, E, 13, 300)
        assert got == _outcome(_to_base_b_reference, E, 13, 300, refine_cap=cap)


@pytest.mark.parametrize("seq, base, count", [
    (ConstantSequence(2), 10, 40), (PeriodicSequence([2, 3]), 7, 25),
    (PresetSequence("iterated-log"), 16, 30), (ConstantSequence(3), 3, 20),
])
def test_to_base_b_reads_no_stream_digit_past_the_loop(seq, base, count):
    # the shortest finite stream the one-digit loop converts is also enough
    # for the bulk path, and one digit less fails both the same way
    digits = constructed_digits(seq).prefix(2000).tolist()
    need = 1
    while not isinstance(_outcome(_to_base_b_reference, finite_digits(seq, digits[:need]),
                                  base, count), list):
        need += 1
    want = _to_base_b_reference(finite_digits(seq, digits[:need]), base, count)
    assert to_base_b(finite_digits(seq, digits[:need]), base, count) == want
    short = finite_digits(seq, digits[: need - 1])
    assert _outcome(to_base_b, short, base, count) == _outcome(
        _to_base_b_reference, finite_digits(seq, digits[: need - 1]), base, count)


def test_cli_value_5000_digits(capsys):
    # 5000 digits lie past the 4300-digit int-to-str limit; the first 2000
    # are checked against the one-digit-at-a-time loop
    code = main(["value", "--seq", "constant:2", "--target", "xq", "--base", "10",
                 "--digits", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("0.") and out.endswith(" (base 10)\n")
    shown = out[2 : -len(" (base 10)\n")]
    assert len(shown) == 5000
    want = _to_base_b_reference(constructed_digits(ConstantSequence(2)), 10, 2000)
    assert [int(c) for c in shown[:2000]] == want


@pytest.mark.parametrize("m, sha256", [
    (8, "a30b087f3c14087237301c7f5db8ecebe704546548b3f339f65c37bc9c965ff8"),
    (4000, "2bee5dc872c6296a45a8c0fbfd8f2f416378e25def9dfc570460ae18a7f7fe1a"),
])
def test_cli_value_exact_bytes(capsys, m, sha256):
    # digests of the output of the per-digit prefix_value loop
    code = main(["value", "--seq", "preset:iterated-log", "--target", "xq",
                 "--exact", str(m)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
    if m == 8:
        assert out == "85/256 +/- 1/256\n"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**700), st.integers(2, 16), st.integers(1, 800))
def test_base_digits_match_divmod_loop(v, base, count):
    v %= base**count
    want = []
    rest = v
    for _ in range(count):
        rest, d = divmod(rest, base)
        want.append(d)
    assert base_digits(v, base, count) == want[::-1]


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=3**8 - 1))
def test_round_trip_through_base_10(v):
    # v/3**8 has a finite expansion over constant base 3
    seq = ConstantSequence(3)
    digits = []
    rem = v
    for _ in range(8):
        rem, d = divmod(rem, 3)
        digits.append(d)
    digits = digits[::-1]
    E = finite_digits(seq, digits + [0] * 600)
    out = to_base_b(E, 10, 12)
    got = Fraction(int("".join(map(str, out))), 10**12)
    assert abs(got - Fraction(v, 3**8)) <= Fraction(1, 10**12)
