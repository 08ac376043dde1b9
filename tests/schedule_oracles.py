"""Reference predicates for the patched uniform schedule.

Each threshold the schedule finds by a running scan is the least position
where one of these direct predicates turns true; tests compare the two to
check the schedule's minimality certificates. `farey_table` lists the farey
driver's terms one denominator at a time, against which tests check the
driver's direct lookup.
"""

from fractions import Fraction

import numpy as np

from cantornormal import ArgumentError, admissible_blocks, expected_count


def log_mass_predicate(sched, n: int, j: int) -> bool:
    """Exact check that the leading log mass is below 1/n of the mass
    accumulated through position j."""
    if n < 1:
        raise ArgumentError(f"schedule step must be >= 1, got {n}")
    start = sched.level(n - 1)
    if j <= start:
        return False
    inner = 1
    for i in range(1, n + 1):
        inner *= sched.target.base_at(start + i)
    den = 1
    for pos in range(start + 1, j + 1):
        den *= sched.target.base_at(pos)
    return inner**n < den


def _donor_count(sched, block: tuple, m: int) -> Fraction:
    return expected_count(sched.donor, block, m) if m >= 1 else Fraction(0)


def count_threshold_predicate(sched, n: int, k: int, j: int) -> bool:
    """Exact check that every relevant length-k block's target expected
    count is below 1/n of the accumulated donor expected counts at j."""
    if not 1 <= k <= n:
        raise ArgumentError(f"block length {k} must lie in 1..{n}")
    for block in admissible_blocks(sched.target, k, n):
        goal = n * expected_count(sched.target, block, n)
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += _donor_count(sched, block, i - k + 1)
        if not goal < acc:
            return False
    return True


def segment_positions(sched, upto: int) -> list[int]:
    """All donor-patched positions <= upto."""
    out = []
    i = 1
    while sched.level(i) <= upto:
        out.extend(range(sched.level(i), min(sched.level(i) + i - 1, upto) + 1))
        i += 1
    return out


def farey_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of at least the first `size` farey terms
    (0/1, then the reduced fractions a/d with 0 < a < d by d, then a)."""
    parts_num, parts_den = [np.zeros(1, dtype=np.int64)], [np.ones(1, dtype=np.int64)]
    d, total = 1, 1
    while total < size:
        d += 1
        a = np.arange(1, d, dtype=np.int64)
        a = a[np.gcd(a, d) == 1]
        parts_num.append(a)
        parts_den.append(np.full(a.size, d, dtype=np.int64))
        total += a.size
    return np.concatenate(parts_num), np.concatenate(parts_den)
