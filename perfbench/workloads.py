"""The benchmark's three CLI workloads, generated from a seed.

Seed 0 is the default seed: it runs the reference sizes exactly, and every
output is compared with its pinned SHA-256 in ``expected_sha256.json``.
Any other seed varies only properties that keep the cost within a few
percent (counts within +-1 %, checkpoint offsets, extracted digits within
+-10), so a claim can be re-checked on inputs not used while writing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
PRESET = "preset:iterated-log"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a stable label, its argv and what its output must satisfy."""

    label: str
    argv: tuple
    check: str  # "digits", "stats", "discrepancy" or "value"


def _jitter(rng: random.Random, base: int, seed: int, share: float = 0.01) -> int:
    if seed == DEFAULT_SEED:
        return base
    return base + rng.randint(-int(base * share), int(base * share))


def _checkpoints(rng: random.Random, seed: int, top: int) -> str:
    """Decade checkpoints 1e3 .. top/10 plus `top`, each offset for other seeds."""
    cps = []
    n = 1000
    while n < top:
        cps.append(_jitter(rng, n, seed, 0.05))
        n *= 10
    cps.append(_jitter(rng, top, seed))
    return ",".join(str(c) for c in cps)


def _emit(rng: random.Random, seed: int) -> list[Invocation]:
    def count() -> str:
        return str(_jitter(rng, 1_000_000, seed))

    return [
        Invocation("digits-raw", ("digits", "--seq", PRESET, "--count", count(),
                                  "--format", "raw"), "digits"),
        Invocation("digits-csv", ("digits", "--seq", PRESET, "--count", count(),
                                  "--format", "csv"), "digits"),
        Invocation("nq-not-dnq", ("construct", "--seq", PRESET, "--target", "nq-not-dnq",
                                  "--count", count(), "--format", "raw"), "digits"),
        Invocation("rnq-not-nq", ("construct", "--seq", PRESET, "--target", "rnq-not-nq",
                                  "--count", count(), "--format", "raw"), "digits"),
    ]


def _verify(rng: random.Random, seed: int) -> list[Invocation]:
    return [
        Invocation("stats-all2", ("stats", "--seq", PRESET, "--blocks", "all:2",
                                  "--checkpoints", _checkpoints(rng, seed, 10**6)), "stats"),
        Invocation("disc-1e6", ("discrepancy", "--seq", PRESET,
                                "--checkpoints", _checkpoints(rng, seed, 10**6)), "discrepancy"),
        Invocation("disc-const2-d24", ("discrepancy", "--seq", "constant:2", "--depth", "fixed:24",
                                       "--checkpoints", _checkpoints(rng, seed, 2 * 10**6)),
                   "discrepancy"),
        Invocation("disc-1e7", ("discrepancy", "--seq", PRESET,
                                "--checkpoints", _checkpoints(rng, seed, 10**7)), "discrepancy"),
    ]


def _exact(rng: random.Random, seed: int) -> list[Invocation]:
    def digits() -> str:
        return str(_jitter(rng, 2000, seed, 0.005))

    return [
        Invocation("rnq-dnq-not-nq", ("construct", "--seq", PRESET, "--target", "rnq-dnq-not-nq",
                                      "--count", str(_jitter(rng, 200_000, seed)),
                                      "--format", "raw"), "digits"),
        Invocation("value-const2", ("value", "--seq", "constant:2", "--target", "xq",
                                    "--base", "10", "--digits", digits()), "value"),
        Invocation("value-iterlog", ("value", "--seq", PRESET, "--target", "xq",
                                     "--base", "10", "--digits", digits()), "value"),
    ]


WORKLOADS = {"emit": _emit, "verify": _verify, "exact": _exact}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocation list for `seed`; the same seed gives the same list."""
    # string seeds hash deterministically, unlike tuples of str
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, seed)


def argv_option(argv, name: str) -> str:
    """The value following `name` in an argv tuple."""
    return argv[argv.index(name) + 1]
