"""Hot numeric kernels, vectorised with numpy: whole arrays per step, never
per position in Python.

``match_mask`` marks block occurrences. ``orbit_numbers`` evaluates
truncated orbit values exactly at one depth; the orbit block walker
(``orbit._orbit_blocks``) evaluates a block of one base of a nondecreasing
sequence with a scalar Horner pass instead, and ``orbit_numbers`` stays the
tests' oracle for that route. ``region_digits`` decodes the cyclic block
assignment of one region by sorting every window key; the package decodes
in closed form over the classes of starts that share a window
(``generator.region_decode``), and ``region_digits`` stays the tests' oracle
for that decode.

All kernels work on int64 arrays and are guarded against overflow by the
callers (window-key width and orbit denominators are checked in Python
before dispatch).
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError


# ---------------------------------------------------------------------------
# window digits: decode the cyclic block assignment for one region
# ---------------------------------------------------------------------------

def _check_key_width(beta: int, r: int) -> None:
    # window keys are packed base-beta into a single int64
    if r * beta.bit_length() > 61:
        raise ArgumentError(
            f"window key of {r} bases below {beta} does not fit an int64 key"
        )


def region_digits(bases: np.ndarray, r: int):
    """Digits for the windows whose bases are packed row-major in `bases`.

    Returns (digits, distinct_window_count). Windows are processed in
    position order starting from the first window of the region, which is
    what makes the per-window occurrence ranks meaningful.
    """
    if r < 1:
        raise ArgumentError(f"window length must be >= 1, got {r}")
    if bases.size % r:
        raise ArgumentError(f"{bases.size} bases do not split into windows of {r}")
    bases = np.ascontiguousarray(bases, dtype=np.int64)
    if bases.size == 0:
        return np.empty(0, dtype=np.int64), 0
    beta = int(bases.max()) + 1
    _check_key_width(beta, r)
    nwin = bases.size // r
    win = bases.reshape(nwin, r)
    weights = beta ** np.arange(r - 1, -1, -1, dtype=np.int64)
    keys = win @ weights
    # occurrence rank of each window among equal keys, in position order:
    # a stable sort keeps equal keys in position order, and each window's
    # rank is its distance from the first window of its key group
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    positions = np.arange(nwin, dtype=np.int64)
    group_start = np.maximum.accumulate(np.where(first, positions, 0))
    occ = np.empty(nwin, dtype=np.int64)
    occ[order] = positions - group_start
    idx = occ % win.prod(axis=1)
    out = np.empty((nwin, r), dtype=np.int64)
    for i in range(r - 1, -1, -1):
        out[:, i] = idx % win[:, i]
        idx //= win[:, i]
    return out.reshape(-1), int(np.count_nonzero(first))


# ---------------------------------------------------------------------------
# block occurrence mask
# ---------------------------------------------------------------------------

def match_mask(digits: np.ndarray, block, n: int) -> np.ndarray:
    """Boolean mask over start positions 1..n marking occurrences of `block`."""
    block_arr = np.asarray(block, dtype=np.int64)
    k = block_arr.size
    if k < 1:
        raise ArgumentError("blocks must have at least one digit")
    if digits.size < n + k - 1:
        raise ArgumentError(
            f"need digits through position {n + k - 1}, have {digits.size}"
        )
    if n <= 0:
        return np.zeros(0, dtype=bool)
    digits = np.ascontiguousarray(digits, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    for j, b in enumerate(block_arr):
        mask &= digits[j : j + n] == b
    return mask


# ---------------------------------------------------------------------------
# truncated orbit values
# ---------------------------------------------------------------------------

def orbit_numbers(digits: np.ndarray, bases: np.ndarray, depth: int):
    """Exact numerator/denominator of each depth-`depth` truncated orbit value.

    Entry m, for each of the digits.size - depth + 1 starts, uses
    digits[m..m+depth-1] over bases[m..m+depth-1] (callers pass slices so that
    digits[m] is the digit at stream position m+1). Denominators must fit
    int64; wider spans are refused.
    """
    if depth < 1:
        raise ArgumentError(f"truncation depth must be >= 1, got {depth}")
    if digits.size < depth or bases.size < digits.size:
        raise ArgumentError(f"orbit evaluation needs {max(depth, digits.size)} digits/bases")
    count = digits.size - depth + 1
    csum = np.concatenate(([0.0], np.cumsum(np.log2(bases[: digits.size].astype(np.float64)))))
    too_wide = (csum[depth:] - csum[:count]).max() > 61.5
    del csum  # freed before the outputs are allocated
    if too_wide:
        raise ArgumentError("truncation depth too large for int64 denominators")
    digits = np.ascontiguousarray(digits, dtype=np.int64)
    bases = np.ascontiguousarray(bases, dtype=np.int64)
    # one Horner step per depth over every start at once
    num = digits[:count].copy()
    den = bases[:count].copy()
    for i in range(1, depth):
        q = bases[i : i + count]
        num *= q
        num += digits[i : i + count]
        den *= q
    return num, den
