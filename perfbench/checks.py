"""Output checks for the benchmark's CLI invocations.

Each check runs in the harness, outside the timed window, and returns None
when the output is correct or a one-line reason when it is not. On every
seed the output is checked structurally against independent routes of the
library (the per-position oracle ``digit_at``, a direct block recount, the
exact ``prefix_value`` interval); on the default seed its SHA-256 must also
equal the pinned digest.

Only the CLI's output and public names of the package are used, so the
checks survive refactors of the kernels.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from cantornormal import (
    PartitionIndex,
    PointwiseSequence,
    Schedule,
    digit_at,
    generate_digits,
    parse_sequence_spec,
    prefix_value,
)

from workloads import argv_option

SAMPLES = 16  # sampled positions compared with an independent digit route


def check_output(inv, stdout: bytes, seed: int) -> str | None:
    """None if `stdout` is a correct output of `inv`, else why not."""
    try:
        return _CHECKS[inv.check](inv.argv, stdout, random.Random(f"{inv.label}:{seed}"))
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# digit streams: digits, construct
# ---------------------------------------------------------------------------

def _parse_digits(argv, stdout: bytes) -> np.ndarray:
    fmt = argv_option(argv, "--format")
    if fmt == "raw":
        return np.array(stdout.split(), dtype=np.int64)
    if fmt == "csv":
        cells = np.array(stdout.replace(b",", b"\n").split(), dtype=np.int64).reshape(-1, 2)
        if not np.array_equal(cells[:, 0], np.arange(1, cells.shape[0] + 1)):
            raise ValueError("csv positions are not 1..count")
        return cells[:, 1]
    raise ValueError(f"unsupported format {fmt}")


def _digit_route(argv, seq):
    """Per-position digit function for the stream `argv` emits, built from
    routes independent of the bulk prefix the CLI prints."""
    target = argv_option(argv, "--target") if argv[0] == "construct" else "xq"
    if target == "xq":
        pi = PartitionIndex(seq)
        return lambda n: digit_at(seq, n, index=pi)
    if target == "nq-not-dnq":
        # clip(clip(x, P), Q) with P = log-of Q <= Q lands on min(x, p - 1)
        pi = PartitionIndex(seq)
        P = PointwiseSequence(seq, "log-of", "e")
        return lambda n: min(digit_at(seq, n, index=pi), P.base_at(n) - 1)
    if target == "rnq-not-nq":
        P = PointwiseSequence(seq, "half-of", "e")
        pi = PartitionIndex(P)
        return lambda n: min(digit_at(P, n, index=pi), seq.base_at(n) - 1)
    if target == "rnq-dnq-not-nq":
        return Schedule(seq).digit
    raise ValueError(f"no digit route for target {target}")


def _check_digits(argv, stdout: bytes, rng: random.Random) -> str | None:
    seq = parse_sequence_spec(argv_option(argv, "--seq"))
    count = int(argv_option(argv, "--count"))
    digits = _parse_digits(argv, stdout)
    if digits.size != count:
        return f"{digits.size} digits, expected {count}"
    bases = seq.bases(1, count)
    bad = np.flatnonzero((digits < 0) | (digits >= bases))
    if bad.size:
        p = int(bad[0])
        return f"digit {int(digits[p])} at position {p + 1} not below base {int(bases[p])}"
    route = _digit_route(argv, seq)
    sample = sorted({1, count, *(rng.randint(1, count) for _ in range(SAMPLES))})
    for n in sample:
        expect = route(n)
        if expect != int(digits[n - 1]):
            return f"position {n}: emitted {int(digits[n - 1])}, independent route gives {expect}"
    return None


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def _expected(bases: np.ndarray, block: tuple, n: int) -> Fraction:
    """Sum of 1/(q_i...q_{i+k-1}) over admissible start positions i <= n."""
    ok = np.ones(n, dtype=bool)
    prod = np.ones(n, dtype=np.int64)
    for j, d in enumerate(block):
        ok &= bases[j : j + n] > d
        prod *= bases[j : j + n]
    values, counts = np.unique(prod[ok], return_counts=True)
    return sum((Fraction(int(c), int(v)) for v, c in zip(values, counts)), Fraction(0))


def _check_stats(argv, stdout: bytes, rng: random.Random) -> str | None:
    seq = parse_sequence_spec(argv_option(argv, "--seq"))
    k = int(argv_option(argv, "--blocks").split(":")[1])
    cps = sorted({int(c) for c in argv_option(argv, "--checkpoints").split(",")})
    lines = stdout.decode().splitlines()
    if lines[0] != "block,n,observed,expected_num,expected_den,ratio":
        return f"unexpected header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    blocks = sorted({r[0] for r in rows})
    if len(rows) != len(blocks) * len(cps):
        return f"{len(rows)} rows for {len(blocks)} blocks x {len(cps)} checkpoints"
    if any(len(b.split("-")) != k for b in blocks):
        return f"a reported block is not of length {k}"
    # one sampled block, recounted directly from freshly generated digits
    name = rng.choice(blocks)
    block = tuple(int(d) for d in name.split("-"))
    top = cps[-1]
    digits = generate_digits(seq, top + k - 1)
    bases = seq.bases(1, top + k - 1)
    hit = np.ones(top, dtype=bool)
    for j, d in enumerate(block):
        hit &= digits[j : j + top] == d
    starts = np.flatnonzero(hit) + 1
    mine = [r for r in rows if r[0] == name]
    if [int(r[1]) for r in mine] != cps:
        return f"block {name}: checkpoints {[r[1] for r in mine]} != {cps}"
    for r in mine:
        n = int(r[1])
        observed = int(np.searchsorted(starts, n, side="right"))
        expected = _expected(bases, block, n)
        if int(r[2]) != observed:
            return f"block {name} at {n}: observed {r[2]}, recount gives {observed}"
        if Fraction(int(r[3]), int(r[4])) != expected:
            return f"block {name} at {n}: expected {r[3]}/{r[4]}, recount gives {expected}"
        ratio = "" if expected == 0 else repr(observed / float(expected))
        if r[5] != ratio:
            return f"block {name} at {n}: ratio {r[5]!r}, recount gives {ratio!r}"
    return None


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------

def _check_discrepancy(argv, stdout: bytes, rng: random.Random) -> str | None:
    cps = sorted({int(c) for c in argv_option(argv, "--checkpoints").split(",")})
    lines = stdout.decode().splitlines()
    if lines[0] != "n,d_star,d_extreme,max_eps":
        return f"unexpected header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != cps:
        return f"rows {[r[0] for r in rows]} do not match checkpoints {cps}"
    tol = 1e-12
    for r in rows:
        n = int(r[0])
        d_star, d_ext, eps = float(r[1]), float(r[2]), float(r[3])
        # D* >= 1/(2n), D >= 1/n, D* <= D <= min(1, 2 D*) hold for any sample
        if not (1 / (2 * n) - tol <= d_star <= d_ext + tol
                and 1 / n - tol <= d_ext <= min(1.0, 2 * d_star) + tol):
            return f"n={n}: d_star={d_star}, d_extreme={d_ext} violate the discrepancy bounds"
        if not 0 < eps <= 0.5:
            return f"n={n}: truncation error bound {eps} outside (0, 1/2]"
    return None


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------

def _check_value(argv, stdout: bytes, rng: random.Random) -> str | None:
    if argv_option(argv, "--target") != "xq":
        raise ValueError("value checks cover the xq target only")
    seq = parse_sequence_spec(argv_option(argv, "--seq"))
    base = int(argv_option(argv, "--base"))
    count = int(argv_option(argv, "--digits"))
    text = stdout.decode()
    suffix = f" (base {base})\n"
    if not (text.startswith("0.") and text.endswith(suffix)):
        return f"unexpected value line {text[:40]!r}"
    shown = text[2 : -len(suffix)]
    if base > 10 or len(shown) != count or not shown.isdigit():
        return f"expected {count} contiguous base-{base} digits"
    # enough stream digits that the interval width is far below base**-count
    need = (count + 8) * math.log(base)
    m, mass = 0, 0.0
    while mass < need:
        m += 1
        mass += math.log(seq.base_at(m))
    for _ in range(4):
        interval = prefix_value(seq, generate_digits(seq, m))
        scale = base**count
        lo = interval.lower.numerator * scale // interval.lower.denominator
        hi = interval.upper.numerator * scale // interval.upper.denominator
        if lo == hi:
            proven = _digits_of(lo, base, count)
            got = [int(c) for c in shown]
            if got != proven:
                first = next(i for i, (a, b) in enumerate(zip(got, proven)) if a != b)
                return f"base-{base} digit {first + 1} is {got[first]}, the exact interval gives {proven[first]}"
            return None
        m += 64
    return "the exact interval does not pin the printed digits"


def _digits_of(v: int, base: int, count: int) -> list[int]:
    """The `count` low base-`base` digits of v, most significant first.
    Avoids int-to-str, which Python caps at 4300 decimal digits."""
    out = [0] * count
    for i in range(count - 1, -1, -1):
        v, out[i] = divmod(v, base)
    return out


_CHECKS = {
    "digits": _check_digits,
    "stats": _check_stats,
    "discrepancy": _check_discrepancy,
    "value": _check_value,
}
