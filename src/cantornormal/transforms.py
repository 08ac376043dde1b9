"""Digit transforms with atypical normality behaviour.

The clip map rewrites a digit stream declared against one basic sequence as
a formal stream against another by clamping each digit below the target
base. Outputs are treated as formal digit sequences: a clipped stream may
end in a run of maximal digits without being re-expanded, since every
downstream statistic works on digits rather than on re-derived values.

On top of the clip map sit three constructions:

* a stream that keeps its block statistics but whose orbit collapses to 0,
* a stream with balanced block ratios but skewed absolute frequencies,
* a patched uniform stream whose rare donor segments carry the block
  statistics while the bulk follows a uniformly distributed driver.

The third needs the threshold schedule (log-mass, count, level) computed
here with exact integer/rational arithmetic so minimality certificates are
checkable.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .digitseq import DigitSequence, constructed_digits
from .errors import ArgumentError, CantorSeriesError, ScanBoundError
from .sequences import (
    BasicSequence,
    IndexLogSequence,
    PointwiseSequence,
    ceil_log,
    check_position,
)
from .stats import _expected_counts, admissible_blocks, expected_count

log = logging.getLogger("cantornormal")

DEFAULT_SCAN_LIMIT = 10**6
# positions per array pass of Schedule.prefix: keeps its temporaries at a
# few MB however long the prefix
_PREFIX_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# clip map
# ---------------------------------------------------------------------------

def clip_digits(x: DigitSequence, target: BasicSequence) -> DigitSequence:
    """Clip each digit of x below the target base: digit' = min(digit, q-1).

    Its prefix is its window from 0 read into a fresh array: a stream x that
    decodes windows alone writes its digits straight into that array and
    caches none, so a clip pipeline holds one copy of its digits."""

    def window(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        return np.minimum(x.window(lo, hi, out), target.bases(lo + 1, hi) - 1, out=out)

    return DigitSequence(
        target,
        lambda n: window(0, n, np.empty(n, dtype=np.int64)),
        {"op": "clip", "seq": target.to_json(), "of": x.description},
        window=window,
    )


# ---------------------------------------------------------------------------
# uniformly distributed drivers
# ---------------------------------------------------------------------------

class UDSource:
    """Deterministic uniformly-distributed sequences in [0, 1), exact values.

    vdc    bit-reversed radical inverse in base 2
    farey  reduced fractions ordered by denominator, then numerator
    """

    KINDS = ("vdc", "farey")

    def __init__(self, kind: str = "vdc"):
        if kind not in self.KINDS:
            raise ArgumentError(f"unknown uniform driver {kind!r}; expected {self.KINDS}")
        self.kind = kind
        self._farey_counts = np.zeros(1, dtype=np.int64)

    def value(self, n: int) -> Fraction:
        check_position(n)
        if self.kind == "vdc":
            bits = n.bit_length()
            rev = int(bin(n)[2:][::-1], 2)
            return Fraction(rev, 1 << bits)
        num, den = self._farey_terms(np.array([n], dtype=np.int64))
        return Fraction(int(num[0]), int(den[0]))

    def leads(self, n: np.ndarray, q: np.ndarray) -> np.ndarray:
        """floor(value(n) * q) for arrays of positions and bases, in int64."""
        if self.kind == "vdc":
            # value(n) = rev(n) / 2**bits(n), rev(n) being n's bits reversed
            bits = np.searchsorted(np.int64(1) << np.arange(63, dtype=np.int64), n,
                                   side="right").astype(np.int64)
            top = int(bits.max())
            _check_lead_width(top, q, "van der Corput")
            rev = np.zeros_like(n)
            for k in range(top):
                rev = (rev << 1) | ((n >> k) & 1)
            # rev holds each n reversed over `top` bits; drop the zeros above n's top bit
            return ((rev >> (top - bits)) * q) >> bits
        a, d = self._farey_terms(n)
        _check_lead_width(int(d.max()).bit_length(), q, "farey")
        return a * q // d

    def _farey_terms(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Numerators and denominators of the farey terms at positions n.
        Term n's denominator is the least d whose totient prefix count
        phi(1) + ... + phi(d) reaches n, and its numerator the rank-th
        integer below d coprime to d; d is about 1.8 sqrt(n), so no table
        grows with n."""
        top = int(n.max())
        size = len(self._farey_counts)
        while self._farey_counts[-1] < top:
            size *= 2
            phi = np.arange(size, dtype=np.int64)
            for p in range(2, size):
                if phi[p] == p:  # untouched by a smaller prime, so p is prime
                    phi[p::p] -= phi[p::p] // p
            self._farey_counts = np.cumsum(phi)
        counts = self._farey_counts
        den = np.searchsorted(counts, n)
        dens, group = np.unique(den, return_inverse=True)
        # gcd(0, d) = d, so 0 is coprime to 1 only and term 1 is 0/1
        coprime = [np.flatnonzero(np.gcd(np.arange(d), d) == 1) for d in dens.tolist()]
        offsets = np.cumsum([0] + [c.size for c in coprime[:-1]])
        return np.concatenate(coprime)[offsets[group] + n - counts[den - 1] - 1], den

    def to_json(self) -> dict:
        return {"kind": self.kind}


def _check_lead_width(bits: int, q: np.ndarray, driver: str) -> None:
    # a lead is a numerator below 2**bits times a base, formed in int64
    if bits + int(q.max()).bit_length() > 63:
        raise ArgumentError(
            f"{driver} lead for bases up to {int(q.max())} does not fit an int64"
        )


# ---------------------------------------------------------------------------
# witnesses built from the clip map
# ---------------------------------------------------------------------------

def _require_infinite(seq: BasicSequence, what: str) -> None:
    if not seq.infinite_in_limit:
        raise ArgumentError(
            f"{what} needs a sequence with unbounded bases; "
            f"{seq.spec_string()} is bounded"
        )


def build_orbit_sink(Q: BasicSequence, *, log_base: str = "e") -> DigitSequence:
    """A stream whose block counts match the construction but whose orbit
    sinks to 0: the construction's digits clipped through the slow log-of
    companion sequence and back, which lands on min(digit, p_n - 1)."""
    _require_infinite(Q, "the orbit-sink construction")
    P = PointwiseSequence(Q, "log-of", log_base)
    return clip_digits(clip_digits(constructed_digits(Q), P), Q)


def build_half_range(Q: BasicSequence, *, log_base: str = "e") -> DigitSequence:
    """A stream with balanced equal-length block ratios but digits confined
    to the lower half of each base range: the construction run over the
    half-of companion sequence, clipped back against Q."""
    _require_infinite(Q, "the half-range construction")
    P = PointwiseSequence(Q, "half-of", log_base)
    return clip_digits(constructed_digits(P), Q)


# ---------------------------------------------------------------------------
# divergence modulus
# ---------------------------------------------------------------------------

def divergence_modulus(seq: BasicSequence, n: int) -> int:
    """For a threshold n, the least position t with log(q_j) > n for all
    j >= t. Read from the sequence's closed-form first_position, so only
    nondecreasing unbounded sequences have one."""
    if not (seq.infinite_in_limit and seq.nondecreasing):
        raise ArgumentError(
            "a divergence modulus can only be derived for nondecreasing "
            "unbounded sequences"
        )
    if n < 0:
        raise ArgumentError(f"divergence threshold must be >= 0, got {n}")
    if n > 700:
        raise ScanBoundError("divergence modulus capped at threshold 700")
    c = math.floor(math.exp(n)) + 1  # least integer base with log(base) > n
    t = seq.first_position(c)
    # spot check: the claim must hold at t and (for minimality) fail before it
    if math.log(seq.base_at(t)) <= n:
        raise ArgumentError(
            f"divergence modulus {t} inconsistent: log base at {t} is not above {n}"
        )
    if t > 1 and math.log(seq.base_at(t - 1)) > n:
        raise ArgumentError(f"divergence modulus {t} is not minimal for threshold {n}")
    return t


# ---------------------------------------------------------------------------
# the threshold schedule and the patched uniform stream
# ---------------------------------------------------------------------------

class Schedule:
    """Threshold schedule driving the patched uniform stream.

    Both thresholds are found exactly: the log-mass comparison reduces to an
    integer product inequality, and the expected-count comparison stays in
    rationals. That makes the minimality certificates (condition false at
    t-1, true at t) bit-for-bit checkable.
    """

    def __init__(
        self, target: BasicSequence, *, ud: UDSource | None = None, log_base: str = "e"
    ):
        self.target = target
        self.donor = IndexLogSequence(log_base)
        self.donor_digits = constructed_digits(self.donor)
        self.ud = ud or UDSource("vdc")
        self.log_base = log_base
        # digits that had to be clamped into range; zero in a clean run
        self.clamp_events = 0
        self._levels = [0]
        self._level_terms: dict[int, dict] = {}

    # -- log-mass threshold ------------------------------------------------

    def log_mass_threshold(self, n: int) -> int:
        """Least position j at which n times the log mass of the n bases
        after L(n-1) is below the log mass of the bases from L(n-1) + 1
        through j; the mass ratio is monotone, so the first hit is final."""
        if n < 1:
            raise ArgumentError(f"schedule step must be >= 1, got {n}")
        start = self.level(n - 1)
        numerator = math.prod(self.target.base_at(start + i) for i in range(1, n + 1)) ** n
        den = 1
        j = start
        while True:
            j += 1
            if j - start > DEFAULT_SCAN_LIMIT:
                raise ScanBoundError(
                    f"log-mass threshold for step {n} not found within "
                    f"{DEFAULT_SCAN_LIMIT} positions"
                )
            den *= self.target.base_at(j)
            if numerator < den:
                return j

    # -- expected-count threshold -------------------------------------------

    def count_threshold(self, n: int, k: int) -> int:
        """Least position j at which every length-k block admissible in the
        target's first n starts has its goal, n times its target expected
        count at n, below the donor's expected counts at start counts
        1..j - k + 1 summed. The sums only grow, so each block's first
        passing start count is found by doubling the start counts read, and
        j is the largest of them plus k - 1."""
        if not 1 <= k <= n:
            raise ArgumentError(f"block length {k} must lie in 1..{n}")
        # never empty: every base is >= 2, so the all-zero block is admissible
        blocks = admissible_blocks(self.target, k, n)
        goals = {b: n * expected_count(self.target, b, n) for b in blocks}
        cap = DEFAULT_SCAN_LIMIT - k + 1  # the most start counts a threshold within the limit sums
        best = 0
        for b, goal in goals.items():
            # a block passing within the start counts found so far moves nothing
            top = max(best, 1)
            while True:
                sums = accumulate(_expected_counts(self.donor, b, range(1, top + 1)))
                m = next((m for m, acc in enumerate(sums, 1) if goal < acc), None)
                if m is not None or top >= cap:
                    break
                top = min(2 * top, cap)
            if m is None or m > cap:
                raise ScanBoundError(
                    f"expected-count threshold for step {n}, length {k} not "
                    f"found within {DEFAULT_SCAN_LIMIT} positions"
                )
            best = max(best, m)
        return best + k - 1

    # -- the schedule ladder ----------------------------------------------

    def level(self, n: int) -> int:
        if n < 0:
            raise ArgumentError(f"schedule index must be >= 0, got {n}")
        while len(self._levels) <= n:
            step = len(self._levels)
            prev = self._levels[step - 1]
            terms = {
                # the threshold scans work for any target; only the ladder
                # itself needs a divergence modulus
                "modulus": divergence_modulus(self.target, step),
                "square": prev + step * step,
                "log-mass": prev + self.log_mass_threshold(step),
                "blocks": max(self.count_threshold(step, k) for k in range(1, step + 1)),
            }
            self._levels.append(max(terms.values()))
            self._level_terms[step] = terms
        return self._levels[n]

    def level_terms(self, n: int) -> dict:
        self.level(n)
        return dict(self._level_terms[n])

    def segment_index(self, n: int) -> int:
        """Largest j with L(j) <= n."""
        check_position(n)
        j = 0
        while self.level(j + 1) <= n:
            j += 1
        return j

    # -- digits -------------------------------------------------------------

    def digit(self, n: int) -> int:
        check_position(n)
        q = self.target.base_at(n)
        i = self.segment_index(n)
        if i >= 1 and n <= self.level(i) + i - 1:
            d = self.donor_digits.digit(n - self.level(i) + 1)
        else:
            x = self.ud.value(n)
            lead = (x.numerator * q) // x.denominator
            floor_term = ceil_log(i, self.log_base) if i >= 1 else 0
            d = max(lead, floor_term)
        if d > q - 1:
            self._clamp(n)
            d = q - 1
        return d

    def _clamp(self, n: int) -> None:
        self.clamp_events += 1
        log.warning("clamped digit at position %d", n)

    def prefix(self, count: int) -> np.ndarray:
        """Digits 1..count, equal to digit(n) for each n."""
        out = np.empty(max(count, 0), dtype=np.int64)
        self.window(0, count, out)
        return out

    def window(self, first: int, last: int, out: np.ndarray) -> None:
        """Write digits first + 1..last, equal to digit(n) for each n, into
        `out`, in array chunks of _PREFIX_CHUNK positions."""
        if last <= first:
            return
        levels = [0]
        try:
            while levels[-1] <= last:
                levels.append(self.level(len(levels)))
        except CantorSeriesError:
            # digit(n) needs level j only from position L(j - 1) on, so it
            # has emitted, and reported the clamps of, every position before
            self.window(first, levels[-1] - 1, out)
            raise
        # the last level only has to lie past last; it may not fit an int64
        # (level 2 is 2**256 - 4 on preset:iterated-log)
        levels[-1] = last + 1
        starts = np.array(levels, dtype=np.int64)
        floors = np.array([0] + [ceil_log(i, self.log_base) for i in range(1, len(levels))],
                          dtype=np.int64)
        # segment i covers positions L(i) .. L(i) + i - 1 and reads donor digits 1..i
        need = max([min(i, last - levels[i] + 1) for i in range(1, len(levels) - 1)],
                   default=0)
        donor = self.donor_digits.prefix(need)
        for lo in range(first + 1, last + 1, _PREFIX_CHUNK):
            hi = min(lo + _PREFIX_CHUNK - 1, last)
            n = np.arange(lo, hi + 1, dtype=np.int64)
            q = self.target.bases(lo, hi)
            seg = np.searchsorted(starts, n, side="right") - 1
            offset = n - starts[seg]
            in_donor = (seg >= 1) & (offset < seg)
            d = np.maximum(self.ud.leads(n, q), floors[seg])
            d[in_donor] = donor[offset[in_donor]]
            for i in np.flatnonzero(d > q - 1).tolist():
                self._clamp(lo + i)
            out[lo - 1 - first : hi - first] = np.minimum(d, q - 1)


def build_patched_uniform(
    Q: BasicSequence,
    *,
    ud: UDSource | None = None,
    log_base: str = "e",
) -> DigitSequence:
    """The patched uniform stream: donor segments at the schedule positions,
    a uniformly distributed driver with a slowly rising digit floor elsewhere."""
    _require_infinite(Q, "the patched uniform construction")
    sched = Schedule(Q, ud=ud, log_base=log_base)
    ds = DigitSequence(
        Q,
        sched.prefix,
        {
            "op": "schedule-patch",
            "seq": Q.to_json(),
            "donor": sched.donor.to_json(),
            "ud": sched.ud.to_json(),
            "log_base": log_base,
        },
        window=sched.window,
    )
    ds.schedule = sched
    return ds
