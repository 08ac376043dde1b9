"""Position ladder and base windows for the cycling digit construction.

Positions are split into runs of windows of growing length r. The ladder
index n_r = ladder_index(r) is the first position where (running_max**2 + 1)**r
fits below the position itself; the region boundaries N_r = boundary(r) round
those down so each region splits evenly into length-r windows.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .errors import ArgumentError, ScanBoundError
from .sequences import BasicSequence, check_position

DEFAULT_SCAN_BOUND = 10**9


class PartitionIndex:
    """Caches the ladder indices n_r = ladder_index(r), the region boundaries
    N_r = boundary(r), and position lookups."""

    def __init__(self, seq: BasicSequence):
        self.seq = seq
        self._n = [None]  # 1-based: self._n[r] = n_r
        self._N = [None, 0]  # self._N[1] = 0

    def ladder_index(self, r: int) -> int:
        """Smallest n with (running_max(n)**2 + 1)**r <= n, by exact scan."""
        if r < 1:
            raise ArgumentError(f"ladder index needs r >= 1, got {r}")
        while len(self._n) <= r:
            self._n.append(self._scan_n(len(self._n)))
        return self._n[r]

    def _scan_n(self, r: int) -> int:
        # The condition can only start holding once n reaches the current
        # threshold (q**2+1)**r, and the threshold only moves when the running
        # max does, so the scan jumps from threshold to threshold.
        n = self._n[r - 1] if r >= 2 else 1
        while True:
            if n > DEFAULT_SCAN_BOUND:
                raise ScanBoundError(
                    f"ladder index for r={r} not found below scan bound {DEFAULT_SCAN_BOUND}"
                )
            q = self.seq.running_max(n)
            threshold = (q * q + 1) ** r
            if threshold <= n:
                return n
            n = max(n + 1, threshold)

    def boundary(self, r: int) -> int:
        """Region boundary: N_1 = 0, then the largest value below n_{r+1}
        congruent to boundary mod r."""
        if r < 1:
            raise ArgumentError(f"region boundary needs r >= 1, got {r}")
        while len(self._N) <= r:
            rr = len(self._N) - 1  # defining N_{rr+1}
            n_next = self.ladder_index(rr + 1)
            prev = self._N[rr]
            boundary = n_next - 1 - ((n_next - 1 - prev) % rr)
            self._N.append(boundary)
        return self._N[r]

    def region(self, r: int) -> tuple[int, int]:
        """Half-open position run (boundary, N_{r+1}] holding the length-r windows."""
        return self.boundary(r), self.boundary(r + 1)

    def region_of(self, n: int) -> int:
        """The window length at position n: the unique r with boundary < n <= N_{r+1}."""
        check_position(n)
        while self._N[-1] < n:
            self.boundary(len(self._N))
        # boundaries are nondecreasing; bisect lands past every boundary < n,
        # which also skips empty regions (repeated boundary values)
        return bisect_left(self._N, n, lo=1) - 1

    def boundaries_through(self, n: int):
        """The cached boundary list [N_1, N_2, ...], extended until it covers
        position n (last entry >= n)."""
        self.region_of(n)
        return self._N[1:]


def block_from_index(radices, i: int) -> tuple:
    """The i-th digit block below `radices` in lexicographic order (1-based i).

    Equivalent to the mixed-radix expansion of i-1, most significant first.
    """
    radices = [int(b) for b in radices]
    total = math.prod(radices)
    if not 1 <= i <= total:
        raise ArgumentError(f"block ordinal {i} outside 1..{total}")
    v = i - 1
    out = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        out[pos] = v % radices[pos]
        v //= radices[pos]
    return tuple(out)
