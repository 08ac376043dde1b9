"""Basic sequences of integer bases.

A basic sequence assigns an integer base >= 2 to every 1-based position.
Everything else in the package (digit construction, block statistics,
orbits) is parameterised by one of these.

Every kind is described in one of two ways. A nondecreasing kind (constant,
the presets, pointwise over one of those) gives first_position in closed
form, so its bases come as runs of constant base. Every other kind
(periodic, table, pointwise over one of those) lists a head of bases
followed by a cycle that repeats forever. BasicSequence evaluates both
descriptions, including the base windows that block statistics read as
classes of starts; the kinds only supply them.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ScanBoundError, excerpt

_LOG_BASE_VALUES = {"e": math.e, "2": 2.0, "10": 10.0}
# largest c with b**c a finite float; floor_log compares v with the float
# b**c, so for bases e and 10 it has no level past this one
FLOAT_LEVEL_CAP = {"e": 709, "10": 308}
_POSITION_BIT_CAP = 10**7  # refuse positions that need more bits than this


def check_position(n: int) -> None:
    if n < 1:
        raise ArgumentError(f"positions are 1-based, got {excerpt(n)}")


def check_length(n: int) -> None:
    """Refuse an int64 array of n entries, which numpy cannot address when
    n * 8 bytes exceed sys.maxsize."""
    if n * 8 > sys.maxsize:
        raise ArgumentError(f"a length of {excerpt(n)} is past what an int64 array can address")


def check_checkpoints(checkpoints) -> list[int]:
    """The distinct checkpoints in ascending order; refuses an empty list and
    a checkpoint below 1."""
    cps = sorted({int(n) for n in checkpoints})
    if not cps or cps[0] < 1:
        raise ArgumentError(f"checkpoints must be >= 1, got {excerpt(checkpoints)}")
    return cps


def floor_log2(v: int) -> int:
    """Exact floor(log2(v)) for a positive integer."""
    return v.bit_length() - 1


def floor_log(v: int, log_base: str) -> int:
    """floor(log(v)) in the requested log base, exact for base 2."""
    if v < 1:
        raise ArgumentError(f"floor_log needs a positive integer, got {v}")
    if log_base == "2":
        return floor_log2(v)
    # v is a small integer in practice; log(v) is never exactly an integer
    # for v >= 2 except at powers of the base, which the correction loop fixes.
    b = _LOG_BASE_VALUES[log_base]
    cap = FLOAT_LEVEL_CAP[log_base]
    c = min(int(math.log(v, b)), cap)
    while c < cap and b ** (c + 1) <= v:
        c += 1
    while c > 0 and b**c > v:
        c -= 1
    return c


def level_start(c: int, log_base: str) -> int:
    """Least positive integer v with floor_log(v, log_base) >= c, for c >= 0.

    floor_log(v) is the largest c with b**c <= v, comparing the float b**c
    with the int v exactly, so its levels start at ceil(b**c). Refused past
    the bit cap (base 2) or past the last level whose start b**c is a
    finite float (bases e and 10).
    """
    cap = _POSITION_BIT_CAP if log_base == "2" else FLOAT_LEVEL_CAP[log_base]
    if c > cap:
        raise ScanBoundError(
            f"position search for level {c} in log base {log_base} exceeds level {cap}"
        )
    if log_base == "2":
        return 1 << c
    return math.ceil(_LOG_BASE_VALUES[log_base] ** c)


def ceil_log(v: int, log_base: str) -> int:
    """ceil(log(v)) in the requested log base; 0 for v = 1."""
    if v < 1:
        raise ArgumentError(f"ceil_log needs a positive integer, got {v}")
    if v == 1:
        return 0
    f = floor_log(v, log_base)
    b = _LOG_BASE_VALUES[log_base]
    if log_base == "2":
        return f if (1 << f) == v else f + 1
    return f if b**f == v else f + 1


def read_text(path: Path) -> str:
    """The text of a UTF-8 file; an unreadable file is an ArgumentError."""
    try:
        return path.read_text()
    except OSError as exc:
        raise ArgumentError(f"cannot read {excerpt(str(path))}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{excerpt(str(path))} is not UTF-8 text") from exc


def _check_bases(values) -> list[int]:
    """values as a list of ints, refusing non-integers and bases below 2."""
    try:
        bases = [operator.index(b) for b in values]
    except TypeError as exc:
        raise ArgumentError(f"bases must be integers, got {excerpt(values)}") from exc
    if any(b < 2 for b in bases):
        raise ArgumentError(f"bases must be >= 2, got {excerpt(bases)}")
    return bases


def _check_log_base(log_base) -> None:
    if not isinstance(log_base, str) or log_base not in _LOG_BASE_VALUES:
        raise ArgumentError(f"log base must be one of {sorted(_LOG_BASE_VALUES)}")


def _int64(values: list[int]) -> np.ndarray:
    """Bases as an int64 array; a base past int64 is an ArgumentError."""
    if values and max(values) >= 2**63:
        raise ArgumentError(
            f"bases must be below 2**63 to be read in bulk, got {excerpt(max(values))}"
        )
    return np.array(values, dtype=np.int64)


class BasicSequence:
    """A deterministic sequence of integer bases, each at least 2.

    A nondecreasing kind sets `nondecreasing` and gives base_at and
    first_position; its bases are runs of constant base (base_runs). Every
    other kind gives `head` and `cycle`, lists of Python ints: the bases at
    positions 1, 2, ... are the head, then the cycle repeated forever.
    """

    #: bases never decrease with position (lets running_max collapse to base_at)
    nondecreasing = False
    #: bases tend to infinity
    infinite_in_limit = False
    head: list[int]
    cycle: list[int]

    def base_at(self, n: int) -> int:
        check_position(n)
        if n <= len(self.head):
            return self.head[n - 1]
        return self.cycle[(n - len(self.head) - 1) % len(self.cycle)]

    def first_position(self, c: int) -> int:
        """Least position t with base_at(t) >= c; nondecreasing kinds give
        it in closed form."""
        raise ArgumentError(f"no closed-form position search for {self.spec_string()}")

    def base_runs(self, lo: int, hi: int) -> list[tuple[int, int, int]]:
        """Positions lo..hi as runs of constant base, for nondecreasing kinds:
        (start, stop, base) with stop exclusive, one per base value that
        occurs there, each starting at that value's first_position."""
        check_position(lo)
        if hi < lo:
            return []
        first, last = self.base_at(lo), self.base_at(hi)
        starts = [lo] + [self.first_position(c) for c in range(first + 1, last + 1)] + [hi + 1]
        return [(a, b, c) for c, (a, b) in enumerate(zip(starts, starts[1:]), start=first)
                if b > a]

    def bases(self, lo: int, hi: int) -> np.ndarray:
        """Bases at positions lo..hi inclusive, as int64: repeated out of
        base_runs on a nondecreasing kind, else gathered from head and cycle."""
        check_length(hi - lo + 1)
        if self.nondecreasing:
            runs = self.base_runs(lo, hi)
            return np.repeat(_int64([c for _, _, c in runs]), [b - a for a, b, _ in runs])
        check_position(lo)
        h = len(self.head)
        head = _int64(self.head[lo - 1 : max(hi, 0)])
        if hi <= h:
            return head
        tail = np.arange(max(lo, h + 1) - h - 1, hi - h, dtype=np.int64) % len(self.cycle)
        return np.concatenate([head, _int64(self.cycle)[tail]])

    def window_classes(self, k: int, n: int) -> tuple[np.ndarray, ...]:
        """The length-k base windows at starts 1..n as classes of starts:
        arrays first, last, step and a (classes, k) array of windows; the
        starts first, first + step, ... up to last share one window row.
        A nondecreasing kind gives one class of step 1 per run interior,
        window (c, ..., c), and one per start among the k-1 before each
        run's end, in Python ints (positions may pass int64); any other
        kind one class per head start and one of step p per cycle phase."""
        if self.nondecreasing:
            runs = self.base_runs(1, n + k - 1)
            starts = [a for a, _, _ in runs]
            classes = []
            for a, b, c in runs:
                if b - k >= a:
                    classes.append((a, b - k, 1, [c] * k))
                classes += [(i, i, 1, [runs[bisect_right(starts, i + j) - 1][2]
                                       for j in range(k)])
                            for i in range(max(a, b - k + 1), min(b, n + 1))]
            return tuple(np.array(column, dtype=object) for column in zip(*classes))
        check_length(n + k - 1)
        h, p = len(self.head), len(self.cycle)
        first = np.arange(1, min(h + p, n) + 1, dtype=np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(self.bases(1, first.size + k - 1), k)
        in_head = first <= h
        return first, np.where(in_head, first, n), np.where(in_head, 1, p), windows

    def running_max(self, n: int) -> int:
        """Largest base among the first n positions."""
        check_position(n)
        if self.nondecreasing:
            return self.base_at(n)
        return max(itertools.islice(itertools.chain(self.head, self.cycle), n))

    def to_json(self) -> dict:
        raise NotImplementedError

    def spec_string(self) -> str:
        return "json:" + json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec_string()}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, BasicSequence) and self.to_json() == other.to_json()

    def __hash__(self) -> int:
        return hash(self.spec_string())


class ConstantSequence(BasicSequence):
    nondecreasing = True

    def __init__(self, b: int):
        (self.b,) = _check_bases([b])

    def base_at(self, n: int) -> int:
        check_position(n)
        return self.b

    def first_position(self, c: int) -> int:
        if c > self.b:
            raise ArgumentError(f"{self.spec_string()} never reaches base {c}")
        return 1

    def to_json(self) -> dict:
        return {"kind": "constant", "b": self.b}

    def spec_string(self) -> str:
        return f"constant:{self.b}"


class PeriodicSequence(BasicSequence):
    def __init__(self, pattern):
        pattern = _check_bases(pattern)
        if not pattern:
            raise ArgumentError("periodic sequence needs at least one base")
        self.pattern = pattern
        self.head, self.cycle = [], pattern

    def to_json(self) -> dict:
        return {"kind": "periodic", "bases": self.pattern}

    def spec_string(self) -> str:
        return "periodic:" + ",".join(str(b) for b in self.pattern)


class TableSequence(BasicSequence):
    """A finite table of bases whose last base repeats forever."""

    def __init__(self, table):
        table = _check_bases(table)
        if not table:
            raise ArgumentError("table sequence needs at least one base")
        self.table = table
        self.head, self.cycle = table[:-1], table[-1:]

    def to_json(self) -> dict:
        return {"kind": "table", "bases": self.table, "extend": "repeat-last"}


class PresetSequence(BasicSequence):
    """Named growth formulas.

    log          q_n = max(2, floor(log2(n + 4)))
    iterated-log q_n = max(2, floor(log2(log2(n + 4))))

    Both are nondecreasing and unbounded; iterated-log grows slowly enough
    that the expected-count growth hypothesis holds well past desk scale.
    """

    nondecreasing = True
    infinite_in_limit = True

    _NAMES = ("log", "iterated-log")

    def __init__(self, name: str):
        if name not in self._NAMES:
            raise ArgumentError(f"unknown preset {excerpt(name)}; expected one of {self._NAMES}")
        self.name = name

    def base_at(self, n: int) -> int:
        check_position(n)
        v = floor_log2(n + 4)
        if self.name == "iterated-log":
            v = floor_log2(max(v, 1))
        return max(2, v)

    def first_position(self, c: int) -> int:
        if c <= 2:
            return 1
        # floor(log2(t+4)) >= c from t = 2**c - 4; iterated-log needs
        # floor(log2(t+4)) >= 2**c
        bits = c if self.name == "log" else 1 << min(c, 64)
        if bits > _POSITION_BIT_CAP:
            raise ScanBoundError(
                f"position where {self.spec_string()} reaches base {c} is not "
                "representable at desk scale"
            )
        return (1 << bits) - 4

    def to_json(self) -> dict:
        return {"kind": "preset", "name": self.name}

    def spec_string(self) -> str:
        return f"preset:{self.name}"


class IndexLogSequence(BasicSequence):
    """p_n = floor(log(n)) + 2, the canonical slowly-growing donor sequence."""

    nondecreasing = True
    infinite_in_limit = True

    def __init__(self, log_base: str = "e"):
        _check_log_base(log_base)
        self.log_base = log_base

    def base_at(self, n: int) -> int:
        check_position(n)
        return floor_log(n, self.log_base) + 2

    def first_position(self, c: int) -> int:
        return 1 if c <= 2 else level_start(c - 2, self.log_base)

    def to_json(self) -> dict:
        return {"kind": "preset", "name": "index-log", "log_base": self.log_base}

    def spec_string(self) -> str:
        if self.log_base == "e":
            return "preset:index-log"
        return "json:" + json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


class PointwiseSequence(BasicSequence):
    """A base-wise transform of another sequence.

    op "log-of":  max(floor(log(q_n)), 2)
    op "half-of": max(floor(q_n / 2), 2)

    Both ops are monotone in q_n, so the result is nondecreasing when `of`
    is; otherwise its head and cycle are those of `of` mapped through the
    op, each distinct base once.
    """

    _OPS = ("log-of", "half-of")

    def __init__(self, of: BasicSequence, op: str, log_base: str = "e"):
        if op not in self._OPS:
            raise ArgumentError(f"unknown pointwise op {excerpt(op)}")
        _check_log_base(log_base)
        self.of = of
        self.op = op
        self.log_base = log_base
        self.nondecreasing = of.nondecreasing
        self.infinite_in_limit = of.infinite_in_limit
        if not of.nondecreasing:
            mapped = {q: self._apply(q) for q in {*of.head, *of.cycle}}
            self.head = [mapped[q] for q in of.head]
            self.cycle = [mapped[q] for q in of.cycle]

    def _apply(self, q: int) -> int:
        if self.op == "half-of":
            return max(q // 2, 2)
        return max(floor_log(q, self.log_base), 2)

    def base_at(self, n: int) -> int:
        return self._apply(self.of.base_at(n))

    def first_position(self, c: int) -> int:
        if c <= 2:
            return 1
        if self.op == "half-of":
            return self.of.first_position(2 * c)
        return self.of.first_position(level_start(c, self.log_base))

    def to_json(self) -> dict:
        return {
            "kind": "pointwise",
            "op": self.op,
            "log_base": self.log_base,
            "of": self.of.to_json(),
        }


def sequence_from_json(obj: dict) -> BasicSequence:
    """Rebuild a sequence from its JSON description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ArgumentError(f"not a sequence description: {excerpt(obj)}")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return ConstantSequence(obj["b"])
        if kind == "periodic":
            return PeriodicSequence(obj["bases"])
        if kind == "table":
            seq = TableSequence(obj["bases"])
            extend = obj.get("extend", "repeat-last")
            if extend != "repeat-last":
                raise ArgumentError(f"unknown table extension rule {excerpt(extend)}")
            return seq
        if kind == "preset":
            if obj["name"] == "index-log":
                return IndexLogSequence(obj.get("log_base", "e"))
            return PresetSequence(obj["name"])
        if kind == "pointwise":
            return PointwiseSequence(
                sequence_from_json(obj["of"]), obj["op"], obj.get("log_base", "e")
            )
    except KeyError as exc:
        raise ArgumentError(f"{kind} sequence description lacks the key {exc}") from exc
    raise ArgumentError(f"unknown sequence kind {excerpt(kind)}")


def parse_sequence_spec(spec: str) -> BasicSequence:
    """Parse the mini-language: constant:b | periodic:a,b,c | preset:name | file:path."""
    if ":" not in spec:
        raise ArgumentError(
            f"bad sequence spec {excerpt(spec)}; expected constant:b, periodic:a,b,..., "
            "preset:name or file:path"
        )
    head, _, rest = spec.partition(":")
    if head == "constant":
        try:
            return ConstantSequence(int(rest))
        except ValueError as exc:
            raise ArgumentError(f"bad constant base {excerpt(rest)}") from exc
    if head == "periodic":
        try:
            return PeriodicSequence([int(p) for p in rest.split(",") if p])
        except ValueError as exc:
            raise ArgumentError(f"bad periodic pattern {excerpt(rest)}") from exc
    if head == "preset":
        if rest == "index-log":
            return IndexLogSequence()
        return PresetSequence(rest)
    if head == "file":
        text = read_text(Path(rest))
    elif head == "json":
        text = rest
    else:
        raise ArgumentError(f"unknown sequence spec kind {excerpt(head)}")
    try:
        # ValueError also covers integers past Python's int-parsing digit limit
        data = json.loads(text)
    except ValueError as exc:
        raise ArgumentError(f"bad sequence JSON in {excerpt(spec)}: {exc}") from exc
    return sequence_from_json(data)
