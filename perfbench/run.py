#!/usr/bin/env python3
"""The cantornormal benchmark: fixed CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {emit,verify,exact} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: one ``cantornormal`` subprocess at a time,
each a fresh interpreter running ``python -m cantornormal.cli`` against
``src/``. A run repeats passes over the workload's invocation list while another
pass, as long as the last one, would end within ``--seconds``, and reports
medians over its passes; set-up probes (``--version``) run before the first pass and after
every pass.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1``
the first half of the run is untraced and the second half runs every
invocation through ``perfbench/traced_cli.py``; it prints the per-layer
metrics of the traced passes and the tracing overhead. Every output is
checked outside the timed window (see ``checks.py``). The last line of
stdout is one JSON object; a record of the run, with the machine it ran
on, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120  # a child running longer is killed and counted as failed
SETUP_PROBES = 5  # probes before the first pass; one more follows each pass

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, Invocation, invocations  # noqa: E402


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(cmd: list[str]) -> ChildResult:
    """Run `cmd` to exit, its stdout and stderr going to unlinked files.

    Wall time runs from spawn to reap; a file never blocks the writer, so it
    does not depend on how soon this process would drain a pipe. CPU time
    and max RSS come from this child's own rusage (wait4), never
    RUSAGE_CHILDREN, whose max RSS is the maximum over every child reaped
    so far.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killed = []

        def kill():
            if proc.returncode is None:
                killed.append(True)
                proc.kill()

        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            returncode=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            timed_out=bool(killed),
        )


def failure(result: ChildResult) -> str | None:
    """Why an invocation failed on its own terms, or None. Every benchmark
    invocation is valid, so anything but a clean exit 0 is a failure."""
    reasons = []
    if result.timed_out:
        reasons.append(f"killed after {CHILD_TIMEOUT_S} s")
    if result.returncode != 0:
        reasons.append(f"exit code {result.returncode}")
    if b"Traceback" in result.stderr:
        reasons.append("traceback on stderr")
    return "; ".join(reasons) or None


class Checker:
    """Classifies invocations; each distinct output is checked once per run."""

    def __init__(self, workload: str, seed: int):
        from checks import check_output  # imports the package under test

        self._check_output = check_output
        self.seed = seed
        self.pinned = {}
        if seed == DEFAULT_SEED:
            self.pinned = json.loads((HERE / "expected_sha256.json").read_text())[workload]
        self._verdicts: dict = {}

    def __call__(self, inv: Invocation, result: ChildResult) -> str | None:
        reason = failure(result)
        if reason:
            return reason
        digest = hashlib.sha256(result.stdout).hexdigest()
        if self.pinned and digest != self.pinned[inv.label]:
            return f"sha256 {digest} differs from the pinned {self.pinned[inv.label]}"
        key = (inv.label, digest)
        if key not in self._verdicts:
            self._verdicts[key] = self._check_output(inv, result.stdout, self.seed)
        return self._verdicts[key]


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output_bytes: int
    failures: list
    invocation_wall_s: list
    layers: dict | None = None


def run_pass(invs, checker: Checker, traced: bool, tag: str) -> Pass:
    walls, cpus, rsss, failures, records = [], [], [], [], []
    output_bytes = 0
    for i, inv in enumerate(invs):
        if traced:
            spans = OUT / f"spans-{tag}-{i}.json"
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), f"{tag}-{i}", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "cantornormal.cli", *inv.argv]
        res = spawn(cmd)
        walls.append(res.wall_s)
        cpus.append(res.cpu_s)
        rsss.append(res.maxrss_mb)
        output_bytes += len(res.stdout)
        reason = checker(inv, res)
        if traced and reason is None and not spans.is_file():
            reason = "no trace written"
        if reason:
            failures.append({"invocation": inv.label, "argv": list(inv.argv), "reason": reason,
                             "stderr_tail": res.stderr[-400:].decode(errors="replace")})
        elif traced:
            records.append(json.loads(spans.read_text()))
    layers = None
    if traced:
        from layertrace import layer_metrics

        layers = layer_metrics(records, output_bytes)
    return Pass(sum(walls), sum(cpus), max(rsss), output_bytes, failures, walls, layers)


def probe() -> tuple[float, str | None]:
    """Set-up time: a fresh interpreter until `cantornormal --version` returns."""
    res = spawn([sys.executable, "-m", "cantornormal.cli", "--version"])
    reason = failure(res) or (None if res.stdout.strip() else "empty --version output")
    return res.wall_s, reason


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "kernels.orbit_numbers.bytes":
        return "B_computed"
    if name == "cli.output_bytes":
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cantornormal" / "cli.py").is_file():
        print(f"error: no cantornormal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    invs = invocations(args.workload, args.seed)
    checker = Checker(args.workload, args.seed)

    _, reason = probe()  # warm-up: byte-compiles the package and fills the page cache
    if reason:
        print(f"error: the CLI does not start: {reason}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    attempted, failures, setup = 0, [], []

    def measure_setup():
        nonlocal attempted
        wall, reason = probe()
        attempted += 1
        setup.append(wall)
        if reason:
            failures.append({"invocation": "setup-probe", "reason": reason})

    for _ in range(SETUP_PROBES):
        measure_setup()

    def passes(traced: bool, until: float) -> list[Pass]:
        """Passes while another one, as long as the last, would end by `until`.
        The first pass also pays for the output checks, so it errs short."""
        nonlocal attempted
        done = []
        while True:
            began = time.perf_counter()
            p = run_pass(invs, checker, traced, f"{args.workload}-{'t' if traced else 'u'}{len(done)}")
            attempted += len(invs)
            failures.extend(p.failures)
            done.append(p)
            measure_setup()
            now = time.perf_counter()
            if 2 * now - began > until:
                return done

    plain = passes(False, untraced_until)
    traced = passes(True, start + args.seconds) if args.trace else []

    if args.trace:
        metrics = {name: statistics.median([p.layers[name] for p in traced]) for name in traced[0].layers}
        metrics["trace.overhead_s"] = (statistics.median([p.wall_s for p in traced])
                                       - statistics.median([p.wall_s for p in plain]))
        units = {name: per_layer_units(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median([p.wall_s for p in plain]),
            "cpu_s": statistics.median([p.cpu_s for p in plain]),
            "peak_rss_mb": statistics.median([p.peak_rss_mb for p in plain]),
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END_UNITS)

    failed = len(failures)
    env = machine()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": env,
        "invocations": [{"label": inv.label, "argv": list(inv.argv)} for inv in invs],
        "passes": {kind: [vars(p) for p in ps] for kind, ps in (("untraced", plain), ("traced", traced))},
        "setup_probes_s": setup, "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": metrics, "units": units,
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(invs)} invocations, {len(setup)} set-up probes")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for f in failures:
        print(f"  FAILED {f['invocation']}: {f['reason']}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
