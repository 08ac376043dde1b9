"""Random command lines through the CLI in process: every one must end with
exit code 0, 2 or 3, raise nothing else and print no error line of 1 KB or more."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cantornormal.cli import TARGETS, main

HUGE = "9" * 5000  # an integer past Python's 4300-digit int-parsing limit
LONG = "-" + "9" * 4000  # an integer Python still parses, 4 KB of text
PAST_INT64 = "9" * 20  # a size no int64 array can have, refused before allocating
BASE = st.integers(min_value=2, max_value=12)
# spec bases: small ones, and now and then one at or past the int64 edge,
# which bulk base arrays refuse
SPEC_BASE = st.one_of(BASE, BASE, BASE, st.sampled_from([2**63 - 1, 2**63, 2**70]))
ANY_INT = st.integers(min_value=-3, max_value=12)
# block digits: small ones, and ones at and past the int64 edge
DIGIT = st.one_of(st.integers(0, 3), st.sampled_from([2**63 - 1, 2**63, 10**20]))
# counts, checkpoints and digit budgets stay small so the suite runs in seconds
SIZE = st.integers(min_value=1, max_value=2000)
BAD_SIZE = st.one_of(st.integers(min_value=-5, max_value=0).map(str),
                     st.sampled_from(["x", "1.5", "1e3", "", HUGE, LONG, PAST_INT64]))


def mostly(draw, valid, invalid):
    """A draw from `valid` four times in five, else from `invalid`."""
    return draw(invalid) if draw(st.integers(0, 4)) == 0 else draw(valid)


GOOD_SEQ_JSON = st.sampled_from([
    '{"kind": "constant", "b": 3}',
    '{"kind": "periodic", "bases": [2, 5, 3]}',
    '{"kind": "table", "bases": [2, 3, 5], "extend": "cycle"}',
    '{"kind": "preset", "name": "index-log", "log_base": "2"}',
    '{"kind": "pointwise", "op": "log-of", "of": {"kind": "preset", "name": "log"}}',
    '{"kind": "pointwise", "op": "half-of", "of": {"kind": "constant", "b": 7}}',
])
# documents nested past the interpreter's recursion limit (which hypothesis
# raises by about 2000 frames while a test runs), and pointwise chains below,
# at and past the nesting bound
NESTED_JSON = st.one_of(
    st.sampled_from([5000, 20000]).map(lambda n: "[" * n + "]" * n),
    st.sampled_from([5000, 20000]).map(lambda n: '{"digits": ' + "[" * n + "]" * n + "}"),
    st.integers(1, 1200).map(lambda n: '{"kind": "pointwise", "op": "half-of", "of": ' * n
                             + '{"kind": "constant", "b": 7}' + "}" * n),
)
BAD_JSON = st.one_of(
    NESTED_JSON,
    st.sampled_from([
        "{bad", "", "[]", "{}", "5", '"constant"', '{"kind": 5}',
        f'{{"kind": "constant", "b": {HUGE}}}',
        f'{{"digits": [{HUGE}]}}',
    ]),
    st.builds(
        lambda kind, value: json.dumps({"kind": kind, "b": value, "bases": value,
                                        "name": value, "digits": value}),
        st.sampled_from(["constant", "periodic", "table", "preset", "pointwise"]),
        st.one_of(ANY_INT, st.lists(ANY_INT, max_size=6), st.text(max_size=6), st.none()),
    ),
)
# digit files: CSV or raw lines, or JSON, well formed or not
GOOD_DIGITS = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=600)
BAD_DIGIT_TEXT = st.one_of(
    BAD_JSON,
    st.lists(st.integers(min_value=-1, max_value=20), max_size=50).map(
        lambda ds: "".join(f"{d}\n" for d in ds)),
    st.sampled_from(["1,0\n2,x\n", "0\n\n1\n", f"{HUGE}\n", "1,2,3\n", '{"digits": [0, "1"]}']),
)


@st.composite
def seq_spec(draw, files):
    valid = st.one_of(
        SPEC_BASE.map(lambda b: f"constant:{b}"),
        st.lists(SPEC_BASE, min_size=1, max_size=4).map(
            lambda bs: "periodic:" + ",".join(map(str, bs))),
        st.lists(SPEC_BASE, min_size=1, max_size=4).map(
            lambda bs: "json:" + json.dumps({"kind": "table", "bases": bs})),
        st.sampled_from(["preset:log", "preset:iterated-log", "preset:index-log"]),
        GOOD_SEQ_JSON.map(lambda text: "json:" + text),
        GOOD_SEQ_JSON.map(lambda text: f"file:{files(text)}"),
    )
    invalid = st.one_of(
        st.sampled_from(["constant:x", f"constant:{HUGE}", "preset:bogus", "bogus:2",
                         "nocolon", f"file:{files.missing}", f"file:{files.root}"]),
        ANY_INT.map(lambda b: f"constant:{b}"),
        st.lists(ANY_INT, max_size=4).map(lambda bs: "periodic:" + ",".join(map(str, bs))),
        BAD_JSON.map(lambda text: "json:" + text),
        BAD_JSON.map(lambda text: f"file:{files(text)}"),
    )
    return mostly(draw, valid, invalid)


def checkpoint_list(draw) -> str:
    parts = mostly(draw, st.lists(SIZE.map(str), min_size=1, max_size=4),
                   st.lists(st.one_of(SIZE.map(str), BAD_SIZE), max_size=4))
    return ",".join(parts)


def digit_source(draw, files) -> str:
    suffix = draw(st.sampled_from([".csv", ".json"]))
    digits = draw(GOOD_DIGITS)
    if suffix == ".json":
        good = json.dumps({"digits": digits})
    else:
        good = "".join(f"{i},{d}\n" for i, d in enumerate(digits, start=1))
    return f"file:{files(mostly(draw, st.just(good), BAD_DIGIT_TEXT), suffix)}"


@st.composite
def command_line(draw, files):
    command = draw(st.sampled_from(
        ["digits", "construct", "stats", "discrepancy", "value", "diagnose"]))
    argv = [command, "--seq", draw(seq_spec(files))]
    if command in ("construct", "stats", "discrepancy", "value"):
        if draw(st.booleans()):
            argv += ["--log-base", draw(st.sampled_from(["e", "2", "10"]))]
        argv += ["--target", draw(st.sampled_from(TARGETS)),
                 "--ud", draw(st.sampled_from(["vdc", "farey"]))]
    if command in ("stats", "discrepancy") and draw(st.booleans()):
        argv += ["--source", digit_source(draw, files)]
    if command in ("digits", "construct"):
        argv += ["--count", mostly(draw, SIZE.map(str), BAD_SIZE),
                 "--format", draw(st.sampled_from(["raw", "csv", "json"]))]
    if command == "digits" and draw(st.booleans()):
        argv += ["--oracle-check", str(draw(st.integers(min_value=-2, max_value=50)))]
    if command == "stats":
        # only integer lengths after all: (all:x exits 1, see the xfail test
        # below); all:3 can print tens of MB, all:20 and up are refused up front
        blocks = mostly(
            draw,
            st.one_of(
                st.sampled_from(["all:1", "all:2"]),
                st.lists(st.lists(DIGIT, min_size=1, max_size=3),
                         min_size=1, max_size=3).map(
                    lambda bs: ";".join(",".join(map(str, b)) for b in bs)),
            ),
            st.sampled_from(["all:-1", "all:0", "all:20", "all:40", "x", "0;;1", ",",
                             "0,,1", "-1", ""]),
        )
        argv += ["--blocks", blocks, "--checkpoints", checkpoint_list(draw)]
    if command == "discrepancy":
        depth = mostly(
            draw,
            st.one_of(st.sampled_from(["default", "paper"]),
                      st.integers(min_value=1, max_value=30).map(lambda d: f"fixed:{d}")),
            st.one_of(st.sampled_from(["fixed:x", "bogus", "fixed:", f"fixed:{HUGE}",
                                       f"fixed:{LONG}"]),
                      st.integers(min_value=-2, max_value=70).map(lambda d: f"fixed:{d}")),
        )
        argv += ["--depth", depth, "--checkpoints", checkpoint_list(draw)]
    if command == "value":
        argv += ["--base", str(mostly(draw, st.integers(2, 40), st.integers(-2, 1))),
                 "--digits", str(mostly(draw, st.integers(1, 40), st.integers(-2, 0)))]
        if draw(st.booleans()):
            argv += ["--exact", mostly(draw, SIZE.map(str), BAD_SIZE)]
    if command == "diagnose":
        block = mostly(draw, st.lists(DIGIT, min_size=1, max_size=3),
                       st.lists(ANY_INT, max_size=3))
        argv += ["--block", ",".join(map(str, block)), "--checkpoints", checkpoint_list(draw)]
    if command in ("stats", "discrepancy", "diagnose"):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if draw(st.booleans()):
        # a writable file, a directory, or a path whose parent is missing
        manifest = draw(st.sampled_from([files.root / "manifest.json", files.root,
                                         files.root / "missing" / "manifest.json"]))
        argv += ["--manifest", str(manifest)]
    return argv


class _Files:
    """Writes each drawn file body into one scratch directory."""

    def __init__(self, root: Path):
        self.root = root
        self.missing = root / "missing.json"
        self.count = 0

    def __call__(self, text: str, suffix: str = ".json") -> Path:
        self.count += 1
        path = self.root / f"f{self.count}{suffix}"
        path.write_text(text)
        return path


def run_main(argv) -> int:
    """main's exit code; every line it writes to stderr must be under 1 KB."""
    # a text stream over bytes, as a real stdout is: digit output goes to its .buffer
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --version
            return exc.code
    assert all(len(line.encode()) < 1024 for line in err.getvalue().splitlines()), argv
    return code


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_fuzz_exits_0_2_or_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(command_line(_Files(Path(tmp))))
        assert run_main(argv) in (0, 2, 3), argv


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="ROADMAP item 5: --blocks all:x exits 1 with a traceback; "
                   "the benchmark harness test uses it as its failing call")
def test_all_blocks_with_non_integer_length_exits_2():
    assert run_main(["stats", "--seq", "constant:2", "--blocks", "all:x",
                     "--checkpoints", "10"]) == 2
