"""Tests of the benchmark harness itself: failure counting, output checks,
seeded workloads and the layer trace.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
from checks import check_output  # noqa: E402
from layertrace import layer_metrics, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Invocation, argv_option, invocations  # noqa: E402

PRESET = "preset:iterated-log"


def cli(*argv) -> run.ChildResult:
    return run.spawn([sys.executable, "-m", "cantornormal.cli", *argv])


def test_known_escape_is_counted_as_failed():
    # `--blocks all:x` should exit 2 without a traceback; it exits 1 with one
    escape = Invocation("escape", ("stats", "--seq", "constant:2", "--blocks", "all:x",
                                   "--checkpoints", "10"), "stats")
    run.OUT.mkdir(exist_ok=True)
    p = run.run_pass([escape], run.Checker("verify", 1), traced=False, tag="test")
    assert len(p.failures) == 1
    assert "exit code 1" in p.failures[0]["reason"]
    assert "traceback" in p.failures[0]["reason"]


def test_clean_invocation_is_not_counted_as_failed():
    ok = Invocation("ok", ("digits", "--seq", PRESET, "--count", "500", "--format", "raw"),
                    "digits")
    p = run.run_pass([ok], run.Checker("emit", 1), traced=False, tag="test")
    assert p.failures == []
    assert p.wall_s > 0 and p.cpu_s > 0 and p.peak_rss_mb > 0


def test_hung_child_is_killed_and_counted_as_failed(monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    res = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"])
    assert res.timed_out and res.wall_s < 10
    assert "killed" in run.failure(res)


def test_workloads_are_seeded():
    for name in WORKLOADS:
        assert invocations(name, 7) == invocations(name, 7)
        assert invocations(name, 7) != invocations(name, 8)
        pinned = json.loads((run.HERE / "expected_sha256.json").read_text())[name]
        assert [inv.label for inv in invocations(name, DEFAULT_SEED)] == list(pinned)
    reference = {argv_option(inv.argv, "--count") for inv in invocations("emit", DEFAULT_SEED)}
    assert reference == {"1000000"}
    for inv in invocations("emit", 3):
        assert abs(int(argv_option(inv.argv, "--count")) - 10**6) <= 10**4


def _corrupt_first_digit(stdout: bytes) -> bytes:
    lines = stdout.split(b"\n")
    lines[0] = b"1" if lines[0] == b"0" else b"0"
    return b"\n".join(lines)


def test_digit_checks_catch_a_wrong_digit():
    for target in ("nq-not-dnq", "rnq-not-nq", "rnq-dnq-not-nq"):
        argv = ("construct", "--seq", PRESET, "--target", target, "--count", "3000",
                "--format", "raw")
        inv = Invocation(target, argv, "digits")
        out = cli(*argv).stdout
        assert check_output(inv, out, 1) is None
        assert check_output(inv, _corrupt_first_digit(out), 1) is not None
    argv = ("digits", "--seq", PRESET, "--count", "3000", "--format", "csv")
    inv = Invocation("csv", argv, "digits")
    out = cli(*argv).stdout
    assert check_output(inv, out, 1) is None
    assert check_output(inv, out.replace(b"\n3000,", b"\n3001,"), 1) is not None


def test_stats_check_catches_a_wrong_count():
    argv = ("stats", "--seq", PRESET, "--blocks", "all:1", "--checkpoints", "1000,5000")
    inv = Invocation("stats", argv, "stats")
    out = cli(*argv).stdout
    assert check_output(inv, out, 1) is None
    lines = out.decode().splitlines()
    # every block is sampled on some seed; corrupt them all
    bad = [lines[0]] + [",".join(r.split(",")[:2] + [str(int(r.split(",")[2]) + 1)]
                                 + r.split(",")[3:]) for r in lines[1:]]
    assert "recount" in check_output(inv, ("\n".join(bad) + "\n").encode(), 1)


def test_discrepancy_check_enforces_bounds():
    argv = ("discrepancy", "--seq", "constant:2", "--depth", "fixed:8", "--checkpoints", "100,400")
    inv = Invocation("disc", argv, "discrepancy")
    out = cli(*argv).stdout
    assert check_output(inv, out, 1) is None
    rows = out.decode().splitlines()
    n, d_star, d_ext, eps = rows[1].split(",")
    rows[1] = ",".join([n, d_ext, repr(2.1 * float(d_ext)), eps])  # D > 2 D*
    assert check_output(inv, ("\n".join(rows) + "\n").encode(), 1) is not None


def test_value_check_catches_a_wrong_digit():
    argv = ("value", "--seq", PRESET, "--target", "xq", "--base", "10", "--digits", "60")
    inv = Invocation("value", argv, "value")
    out = cli(*argv).stdout
    assert check_output(inv, out, 1) is None
    wrong = out[:30] + (b"1" if out[30:31] == b"0" else b"0") + out[31:]
    assert "digit 29" in check_output(inv, wrong, 1)


def test_self_time_excludes_child_spans():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert dict(self_times(spans)) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_traced_cli_keeps_output_and_counts_layers(tmp_path):
    argv = ("digits", "--seq", PRESET, "--count", "5000", "--format", "csv")
    spans = tmp_path / "spans.json"
    traced = run.spawn([sys.executable, str(run.HERE / "traced_cli.py"), str(spans), "t", *argv])
    assert traced.returncode == 0
    assert traced.stdout == cli(*argv).stdout
    layers = layer_metrics([json.loads(spans.read_text())], len(traced.stdout))
    assert layers["generator.generate_digits.digits"] == 5000
    assert layers["digitseq.prefix.digits_generated"] == 5000
    assert layers["digitseq.prefix.useful_ratio"] == 1.0
    assert layers["cli.self_s"] > 0
    assert layers["kernels.match_mask.positions"] == 0
    assert layers["values.output_digits"] == 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    emitted = [*layer_metrics([], 0), "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_units(name) for name in emitted
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
