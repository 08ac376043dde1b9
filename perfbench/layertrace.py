"""Layer tracing for the cantornormal CLI, installed from outside the package.

``install`` wraps public functions and methods of each layer in timing or
counting wrappers. A timed call records a span (name, start, end, parent);
the spans of one CLI invocation share its invocation id, stay in memory and
are written once by ``Tracer.dump``. ``layer_metrics`` turns the dumps of
one pass into per-layer metrics: a layer's self time is its spans' duration
minus the part covered by their child spans.

Functions that run once per digit (``base_at``, ``Schedule.digit``,
``DigitSequence.digit``) are only counted; their time stays in the
enclosing span, so tracing costs little on the exact-arithmetic paths.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "sequences.bases": "sequences.bases.self_s",
    "ladder": "ladder.self_s",
    "kernels.region_digits": "kernels.region_digits.self_s",
    "kernels.match_mask": "kernels.match_mask.self_s",
    "kernels.orbit_numbers": "kernels.orbit_numbers.self_s",
    "generator.generate_digits": "generator.generate_digits.self_s",
    "digitseq.prefix": "digitseq.prefix.self_s",
    "stats.normality_report": "stats.normality_report.self_s",
    "stats.count_block_checkpoints": "stats.count_block_checkpoints.self_s",
    "stats.expected_count": "stats.expected_count.self_s",
    "orbit.orbit_values": "orbit.orbit_values.self_s",
    "orbit.discrepancy": "orbit.discrepancy.self_s",
    "transforms.schedule.prefix": "transforms.schedule.prefix.self_s",
    "transforms.schedule.level": "transforms.schedule.level.self_s",
    "values.to_base_b": "values.to_base_b.self_s",
}

# counters summed over the invocations of a pass
COUNT_METRICS = (
    "sequences.bases.calls",
    "sequences.bases.positions",
    "sequences.base_at.calls",
    "kernels.region_digits.windows",
    "kernels.match_mask.positions",
    "kernels.orbit_numbers.depth_steps",
    "kernels.orbit_numbers.bytes",
    "generator.generate_digits.digits",
    "stats.expected_count.calls",
    "orbit.samples",
    "transforms.schedule.digits",
    "values.stream_digits",
    "values.output_digits",
)


class Tracer:
    """Spans and counters of one CLI invocation."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.calls: dict[str, list[int]] = {}  # per-position call counters
        self.max_region = 0
        # one [largest prefix served, digits generated] pair per DigitSequence
        self.streams: list[list[int]] = []

    def timed(self, name: str, fn, after=None):
        """`fn` wrapped to record a span; `after(args, result)` updates counters."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key: str, method):
        """`method(self, n)` wrapped to count its calls only: the per-position
        methods run once per digit, so this wrapper is kept minimal."""
        cell = self.calls.setdefault(key, [0])

        @functools.wraps(method)
        def wrapper(obj, n):
            cell[0] += 1
            return method(obj, n)

        return wrapper

    def dump(self, path: str) -> None:
        record = {
            "invocation": self.invocation,
            "spans": self.spans,
            "counts": {**self.counts, **{k: c[0] for k, c in self.calls.items()}},
            "max_region": self.max_region,
            "streams": self.streams,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def _rebind(original, wrapped) -> None:
    """Point every cantornormal module attribute bound to `original` at `wrapped`."""
    for name, module in list(sys.modules.items()):
        if name != "cantornormal" and not name.startswith("cantornormal."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap each traced layer of the already imported cantornormal package."""
    from cantornormal import digitseq, generator, kernels, ladder, orbit, stats, transforms, values
    from cantornormal.sequences import BasicSequence

    counts = tracer.counts

    def function(module, attr, name, after=None):
        original = getattr(module, attr)
        _rebind(original, tracer.timed(name, original, after))

    def method(cls, attr, wrapped):
        setattr(cls, attr, wrapped(cls.__dict__[attr]))

    # sequences: bulk evaluation timed, per-position evaluation counted
    def bases_after(args, result):
        counts["sequences.bases.calls"] += 1
        counts["sequences.bases.positions"] += int(np.size(result))

    for cls in set(_subclasses(BasicSequence)):
        if "bases" in cls.__dict__:
            method(cls, "bases", lambda f: tracer.timed("sequences.bases", f, bases_after))
        if "base_at" in cls.__dict__:
            method(cls, "base_at", lambda f: tracer.counted("sequences.base_at.calls", f))

    # ladder
    def region_after(args, result):
        tracer.max_region = max(tracer.max_region, int(args[1]))

    def region_of_after(args, result):
        tracer.max_region = max(tracer.max_region, int(result))

    PI = ladder.PartitionIndex
    for attr in ("ladder_index", "boundary", "boundaries_through"):
        method(PI, attr, lambda f: tracer.timed("ladder", f))
    method(PI, "region", lambda f: tracer.timed("ladder", f, region_after))
    method(PI, "region_of", lambda f: tracer.timed("ladder", f, region_of_after))

    # kernels
    def region_digits_after(args, result):
        bases, r = args[0], args[1]
        counts["kernels.region_digits.windows"] += int(np.size(bases)) // int(r)
        counts["kernels.region_digits.distinct"] += int(result[1])

    def match_mask_after(args, result):
        counts["kernels.match_mask.positions"] += int(args[2])

    def orbit_numbers_after(args, result):
        digits, bases, depths = (np.asarray(a) for a in args[:3])
        counts["kernels.orbit_numbers.depth_steps"] += int(depths.sum())
        # computed, not measured: every input array read once, both outputs written once
        counts["kernels.orbit_numbers.bytes"] += (
            digits.nbytes + bases.nbytes + depths.nbytes + result[0].nbytes + result[1].nbytes
        )

    function(kernels, "region_digits", "kernels.region_digits", region_digits_after)
    function(kernels, "match_mask", "kernels.match_mask", match_mask_after)
    function(kernels, "orbit_numbers", "kernels.orbit_numbers", orbit_numbers_after)

    # generator
    def generate_after(args, result):
        counts["generator.generate_digits.digits"] += int(np.size(result))

    function(generator, "generate_digits", "generator.generate_digits", generate_after)

    # digitseq: count what each stream's source generates against what it serves
    DS = digitseq.DigitSequence
    init = DS.__dict__["__init__"]

    def traced_init(self, seq, source, *args, **kwargs):
        stream = [0, 0]
        tracer.streams.append(stream)

        def counted_source(n):
            fresh = source(n)
            stream[1] += len(fresh)
            return fresh

        self.trace_stream = stream
        init(self, seq, counted_source, *args, **kwargs)

    def prefix_after(args, result):
        stream = args[0].trace_stream
        stream[0] = max(stream[0], int(args[1]))

    DS.__init__ = functools.wraps(init)(traced_init)
    method(DS, "prefix", lambda f: tracer.timed("digitseq.prefix", f, prefix_after))
    method(DS, "digit", lambda f: tracer.counted("digitseq.digit.calls", f))

    # stats
    def expected_after(args, result):
        counts["stats.expected_count.calls"] += 1

    function(stats, "normality_report", "stats.normality_report")
    function(stats, "count_block_checkpoints", "stats.count_block_checkpoints")
    function(stats, "expected_count", "stats.expected_count", expected_after)

    # orbit: star and extreme discrepancy both sort the sample
    def orbit_values_after(args, result):
        counts["orbit.samples"] += int(np.size(result[0]))

    function(orbit, "orbit_values", "orbit.orbit_values", orbit_values_after)
    function(orbit, "star_discrepancy", "orbit.discrepancy")
    function(orbit, "extreme_discrepancy", "orbit.discrepancy")

    # transforms: Schedule keeps computed levels in `_levels`; a level already
    # computed is a list lookup, left in its caller's span. Without that cache
    # every call is timed.
    S = transforms.Schedule
    method(S, "prefix", lambda f: tracer.timed("transforms.schedule.prefix", f))
    method(S, "digit", lambda f: tracer.counted("transforms.schedule.digits", f))
    level = S.__dict__["level"]
    timed_level = tracer.timed("transforms.schedule.level", level)

    @functools.wraps(level)
    def traced_level(self, n):
        if 0 <= n < len(getattr(self, "_levels", ())):
            return level(self, n)
        return timed_level(self, n)

    S.level = traced_level

    # values: stream digits are the DigitSequence.digit calls made inside
    original = values.to_base_b
    timed_to_base_b = tracer.timed("values.to_base_b", original)
    digit_calls = tracer.calls["digitseq.digit.calls"]

    @functools.wraps(original)
    def traced_to_base_b(*args, **kwargs):
        before = digit_calls[0]
        out = timed_to_base_b(*args, **kwargs)
        counts["values.stream_digits"] += digit_calls[0] - before
        counts["values.output_digits"] += len(out)
        return out

    _rebind(original, traced_to_base_b)


def self_times(spans) -> dict:
    """Total self time per span name: duration minus child-span durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        totals[name] += (end - start) - covered[i]
    return totals


def layer_metrics(records: list[dict], output_bytes: int) -> dict:
    """Per-layer metrics of one pass from its invocations' dumped records."""
    times: dict = defaultdict(float)
    counts: Counter = Counter()
    served = generated = 0
    regions = 0
    for rec in records:
        for name, t in self_times(rec["spans"]).items():
            times[name] += t
        counts.update(rec["counts"])
        regions = max(regions, rec["max_region"])
        for top, made in rec["streams"]:
            served += top
            generated += made
    metrics = {SELF_TIME_METRICS[name]: times[name] for name in SELF_TIME_METRICS}
    metrics.update({key: counts[key] for key in COUNT_METRICS})
    windows = counts["kernels.region_digits.windows"]
    metrics["kernels.region_digits.distinct_ratio"] = (
        counts["kernels.region_digits.distinct"] / windows if windows else 0.0
    )
    metrics["digitseq.prefix.digits_generated"] = generated
    metrics["digitseq.prefix.useful_ratio"] = served / generated if generated else 0.0
    metrics["ladder.regions"] = regions
    metrics["cli.output_bytes"] = output_bytes
    return metrics
