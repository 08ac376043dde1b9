import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantornormal import (ConstantSequence, PeriodicSequence, constructed_digits, digit_at,
                          parse_sequence_spec, prefix_value)
from cantornormal import cli, ladder
from cantornormal.cli import _csv, _int_rows, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits_csv_example(capsys):
    code, out, _ = run_cli(capsys, "digits", "--seq", "constant:2", "--count", "6",
                           "--format", "csv")
    assert code == 0
    assert out == "1,0\n2,1\n3,0\n4,1\n5,0\n6,1\n"


def test_digits_raw_and_json(capsys):
    code, out, _ = run_cli(capsys, "digits", "--seq", "periodic:2,3", "--count", "4",
                           "--format", "raw")
    assert code == 0
    assert out == "0\n0\n1\n1\n"
    code, out, _ = run_cli(capsys, "digits", "--seq", "constant:2", "--count", "3",
                           "--format", "json")
    assert json.loads(out)["digits"] == [0, 1, 0]


def test_digits_oracle_check(capsys):
    code, out, _ = run_cli(capsys, "digits", "--seq", "preset:iterated-log",
                           "--count", "500", "--format", "raw", "--oracle-check", "13")
    assert code == 0
    assert len(out.splitlines()) == 500


def _old_raw(values) -> bytes:
    return "".join(f"{int(d)}\n" for d in values).encode()


def _old_csv(values) -> bytes:
    return _csv((n, int(d)) for n, d in enumerate(values, start=1)).encode()


def test_int_rows_matches_per_row_rendering():
    rng = np.random.default_rng(0)
    cases = [rng.integers(0, 10**6 + 1, size=n, dtype=np.int64) for n in (1, 7, 1000)]
    cases += [np.empty(0, dtype=np.int64),
              np.arange(0, 12, dtype=np.int64),
              np.arange(95, 105, dtype=np.int64)[::-1],
              np.array([0, 2**63 - 1, 10**18, 10**18 - 1, 5], dtype=np.int64)]
    # each side of every width step, and of the uint32/int64 switch at 2**32
    edges = [9, 10, 99, 100, 2**32 - 1, 2**32, 10**18 - 1, 10**18, 2**63 - 1]
    cases += [np.array([v], dtype=np.int64) for v in edges]
    cases += [np.array(edges, dtype=np.int64), np.array(edges[::-1], dtype=np.int64),
              np.array([2**32 - 1, 7, 2**32 - 1], dtype=np.int64)]
    for values in cases:
        assert _int_rows(values) == _old_raw(values)
        assert _int_rows(np.arange(1, values.size + 1, dtype=np.int64), values) == _old_csv(values)
        assert _int_rows(values, values[::-1], values) == _csv(
            zip(values.tolist(), values[::-1].tolist(), values.tolist())).encode()


PERIODIC_WIDE = "periodic:2,13,101"  # digits of widths 1, 2 and 3
PERIODIC_WIDE_SEQ = parse_sequence_spec(PERIODIC_WIDE)
PERIODIC_WIDE_DIGITS = constructed_digits(PERIODIC_WIDE_SEQ).prefix(1500)


def _old_json(values) -> bytes:
    return (json.dumps({"seq": PERIODIC_WIDE_SEQ.to_json(), "digits": [int(d) for d in values]},
                       sort_keys=True) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 300), count=st.integers(0, 1500))
def test_chunks_join_to_the_whole_body(rows, count):
    digits = PERIODIC_WIDE_DIGITS[:count]
    for fmt, render in (("csv", _old_csv), ("raw", _old_raw), ("json", _old_json)):
        with mock.patch.object(cli, "_EMIT_ROWS", rows):
            chunks = list(cli._format_digit_output(SimpleNamespace(format=fmt),
                                                   PERIODIC_WIDE_SEQ, digits))
        if fmt == "json":  # the opening, one chunk per slice of digits, the closing
            assert [c.count(b",") for c in chunks[1:-1]] == [
                min(rows, count - lo) - (lo == 0) for lo in range(0, count, rows)]
        else:
            assert [c.count(b"\n") for c in chunks] == [min(rows, count - lo)
                                                       for lo in range(0, count, rows)]
        assert b"".join(chunks) == render(digits)


def test_digits_multi_digit_csv_and_raw(capsys):
    digits = constructed_digits(PeriodicSequence([2, 13, 101])).prefix(5000)
    assert digits.max() >= 100  # widths 1, 2 and 3
    for fmt, render in (("csv", _old_csv), ("raw", _old_raw)):
        code, out, _ = run_cli(capsys, "digits", "--seq", "periodic:2,13,101",
                               "--count", "5000", "--format", fmt)
        assert code == 0
        assert out.encode() == render(digits)


TABLE = '{"kind":"table","bases":[5,2,30,3,9,22]}'
HEAD_CYCLE_SPECS = {
    "periodic": "periodic:2,3,5",
    "table": f"json:{TABLE}",
    "log-of-table": f'json:{{"kind":"pointwise","op":"log-of","of":{TABLE}}}',
    "half-of-periodic": 'json:{"kind":"pointwise","op":"half-of",'
                        '"of":{"kind":"periodic","bases":[9,4,7]}}',
    # the default depth steps from 1 to 2 at m = 10000: the orbit kernel on
    # both sides of a depth step
    "periodic-2-3": "periodic:2,3",
}
HEAD_CYCLE_COMMANDS = {
    "digits": ("digits", "--count", "3000", "--format", "csv"),
    "stats": ("stats", "--blocks", "all:2", "--checkpoints", "100,1000,10000"),
    "discrepancy": ("discrepancy", "--checkpoints", "100,1000,10000"),
    "diagnose": ("diagnose", "--block", "1,0", "--checkpoints", "10,100,1000,10000"),
    "discrepancy-past-10000": ("discrepancy", "--checkpoints", "1000,10000,10001,20000"),
}
# SHA-256 of stdout for the sequence kinds the benchmark's pinned digests
# never run: every benchmark sequence is nondecreasing
HEAD_CYCLE_SHA256 = {
    ("periodic", "digits"): "1263cbfe9aedbc73fa025b8cbbf6351aab85e6b086ee9282f918ea1784f7fcf6",
    ("periodic", "stats"): "f68c1ec40f1d91424fc00de4dd3ce12a32d7f81d6b565f7c4824f729230fa93f",
    ("periodic", "discrepancy"): "514750ac34b66b82435f13f7569244c574858c77a0ac6fba4cf00a3c77d37b38",
    ("periodic", "diagnose"): "a520cc4d95bfb7150a0fb8014d398682e1e6bbf4d22ca4327be1672720e681e4",
    ("table", "digits"): "2c71ef0d7106107fbb2b09398c22d9e8688241cd3f10dc006134a874644a872f",
    ("table", "stats"): "8df78ae5fa74b3b0c602c26492fa1bcde20ebaeb89f68783f334152c9b648adc",
    ("table", "discrepancy"): "611271df694d835fad48c17b07babf595afeb42bbecc3b795d24aa5b64d6b389",
    ("table", "diagnose"): "dbd5e8914a683c74f64b7c9baaf8f146b8db8a93b06fba74ae954f997224f983",
    ("log-of-table", "digits"): "be11c68e6f6cf97d701b1ebb21e392ce5ac614348b4719d84c898263224806f2",
    ("log-of-table", "stats"): "e25443136847cc04c5c580ef8cf42dfa36e6d5a7294fe4e0c021ec2a92daf3fc",
    ("log-of-table", "discrepancy"):
        "ea8a595e46d1d5db45249251be8a69b6b661de869abcdbaf1135ebfbb7fd549c",
    ("log-of-table", "diagnose"):
        "0fb531ca8b5ebe16b070cd3358582daa8d17cf57fa6225c5a16cb90e38be20a2",
    ("half-of-periodic", "digits"):
        "c1d85fb70a4a4198c6350d4b7955d9e70250c85ca8a401171fea03a0fa2ce691",
    ("half-of-periodic", "stats"):
        "cf88eeb7f4036faff78a2e8691aa64d92e638975d0aa7c681decffa70df7acfe",
    ("half-of-periodic", "discrepancy"):
        "2aec467572c76f1951aac05a9bcc5d24203d8de0c3a5822ef59cbe212b672276",
    ("half-of-periodic", "diagnose"):
        "b83838897c2853f35dabf1a73527ea391986696782f1d072a3dca065a94e59bd",
    ("periodic-2-3", "discrepancy-past-10000"):
        "9415020d0fc079ad74a12221315877092ddf88de2c2a808644ca47d555594fdd",
}


@pytest.mark.parametrize("seq, command", sorted(HEAD_CYCLE_SHA256))
def test_head_cycle_output_digests(capsys, seq, command):
    name, *rest = HEAD_CYCLE_COMMANDS[command]
    code, out, err = run_cli(capsys, name, "--seq", HEAD_CYCLE_SPECS[seq], *rest)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HEAD_CYCLE_SHA256[seq, command]


REPORT_JSON_COMMANDS = {
    # a duplicate block, lengths 1 and 2, a block never observed and a pair
    # whose second block is never observed; unsorted and repeated checkpoints
    "stats": ("stats", "--seq", "periodic:2,3,5", "--blocks", "0;1;0;1,0;5;0,0;1;2,4;4,2",
              "--checkpoints", "1000,100,100,7"),
    "stats-no-blocks": ("stats", "--seq", "constant:2", "--blocks", "", "--checkpoints", "10"),
    "discrepancy": ("discrepancy", "--seq", "periodic:2,3,5", "--checkpoints", "100,1000,10000"),
    "diagnose": ("diagnose", "--seq", "periodic:2,3,5", "--block", "1,0",
                 "--checkpoints", "10,100,1000,10000"),
}
# SHA-256 of each report's JSON stdout: the bytes are part of the behaviour
# contract, whichever code forms them
REPORT_JSON_SHA256 = {
    "stats": "1bab087aa01ca0225e9b63a3067364ec32fc8b912b72b78415a6608ef46580f0",
    "stats-no-blocks": "ec8f9701102b472a28d2756a644ca53e7a61748650076d52fb9e138ecdb4079c",
    "discrepancy": "008ef13358a6f252d9734fc20d80882e1878bcb6e5ab06a53e2cc79e21fbe3e8",
    "diagnose": "6f7c6a4295afd1afb7cc9b89dc3a2ea4060838d66cef0a856b43660a7d055604",
}


@pytest.mark.parametrize("command", sorted(REPORT_JSON_SHA256))
def test_report_json_digests(capsys, command):
    code, out, err = run_cli(capsys, *REPORT_JSON_COMMANDS[command], "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_JSON_SHA256[command]


def test_stats_csv_forms_no_block_pairs(capsys):
    # 1000 blocks at two checkpoints: 2000 CSV rows, and 999000 pair ratios
    # that only the JSON form holds
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "stats", "--seq", "constant:10", "--blocks", "all:3",
                                 "--checkpoints", "1000,10000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2001
    assert peak < 20 * 2**20


@pytest.mark.parametrize("inner", ["periodic", "table"])
def test_log2_of_head_cycle_digits(capsys, inner):
    spec = ('json:{"kind":"pointwise","op":"log-of","log_base":"2",'
            f'"of":{{"kind":"{inner}","bases":[5,9]}}}}')
    code, out, err = run_cli(capsys, "digits", "--seq", spec, "--count", "10")
    assert (code, err) == (0, "")
    seq = parse_sequence_spec(spec)
    assert out == "".join(f"{n},{digit_at(seq, n)}\n" for n in range(1, 11))


def test_stats_example(capsys):
    code, out, _ = run_cli(capsys, "stats", "--seq", "constant:2", "--source",
                           "construct", "--blocks", "all:1", "--checkpoints", "24")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "block,n,observed,expected_num,expected_den,ratio"
    assert lines[1] == "0,24,12,12,1,1.0"
    assert lines[2] == "1,24,12,12,1,1.0"


def test_stats_from_file(capsys, tmp_path):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps({"digits": [0, 1, 0, 1, 0, 1]}))
    code, out, _ = run_cli(capsys, "stats", "--seq", "constant:2", "--source",
                           f"file:{path}", "--blocks", "0,1", "--checkpoints", "4")
    assert code == 0
    assert out.splitlines()[1].startswith("0-1,4,2,")


def test_value_proven_digits(capsys):
    code, out, _ = run_cli(capsys, "value", "--seq", "constant:2", "--target", "xq",
                           "--base", "10", "--digits", "3")
    assert code == 0
    assert out == "0.333 (base 10)\n"


def test_value_exact_prefix(capsys):
    code, out, _ = run_cli(capsys, "value", "--seq", "constant:2", "--target", "xq",
                           "--exact", "4")
    assert code == 0
    assert out == "5/16 +/- 1/16\n"


def test_value_exact_past_int_str_limit(capsys):
    # the denominator 2**14300 has 4305 decimal digits, past the 4300-digit
    # int-to-str limit; Decimal parses them without it
    code, out, err = run_cli(capsys, "value", "--seq", "constant:2", "--target", "xq",
                             "--exact", "14300")
    assert code == 0, err
    lower, _, width = out.rstrip("\n").partition(" +/- ")
    parsed = [int(Decimal(part)) for part in lower.split("/") + width.split("/")]
    seq = ConstantSequence(2)
    interval = prefix_value(seq, constructed_digits(seq).prefix(14300))
    assert Fraction(*parsed[:2]) == interval.lower
    assert Fraction(*parsed[2:]) == interval.width


def test_discrepancy_report(capsys):
    code, out, _ = run_cli(capsys, "discrepancy", "--seq", "constant:2",
                           "--checkpoints", "100,1000", "--depth", "fixed:16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d_star,d_extreme,max_eps"
    assert len(lines) == 3
    # spec'd alias for the sqrt-depth default is accepted
    code, out2, _ = run_cli(capsys, "discrepancy", "--seq", "constant:2",
                            "--checkpoints", "100", "--depth", "paper")
    assert code == 0


@pytest.mark.parametrize("depth", [54, 61])
def test_discrepancy_past_53_bits_of_depth(capsys, tmp_path, depth):
    # every exact value is 1 - 2**-depth, which a float rounds to 1.0
    ones = tmp_path / "ones.csv"
    ones.write_text("1\n" * 200)
    code, out, err = run_cli(capsys, "discrepancy", "--seq", "constant:2", "--depth",
                             f"fixed:{depth}", "--source", f"file:{ones}",
                             "--checkpoints", "100", "--format", "json")
    assert (code, err) == (0, "")
    row = json.loads(out)["rows"][0]
    assert row["d_star"] == 1 - 2**-53 and row["max_eps"] == 2.0**-depth


def test_construct_targets(capsys):
    for target in ("xq", "nq-not-dnq", "rnq-not-nq", "rnq-dnq-not-nq"):
        code, out, _ = run_cli(capsys, "construct", "--seq", "preset:log",
                               "--target", target, "--count", "32", "--format", "raw")
        assert code == 0, target
        assert len(out.splitlines()) == 32


def test_diagnose_trend(capsys):
    code, out, _ = run_cli(capsys, "diagnose", "--seq", "constant:2", "--block", "0",
                           "--checkpoints", "100,1000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["increasing_trend"] is True
    assert data["label"] == "heuristic"


def test_argument_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "digits", "--seq", "bogus:2", "--count", "4")
    assert code == 2
    assert "error[argument]" in err


BAD_DIGIT_JSON_FILES = ["{bad", "{}", "[1,0]", '{"digits": 5}', '{"digits": ["a"]}',
                        '{"digits": [5]}']
BAD_SEQ_JSON = ['{"kind":"constant"}', '{"kind":"preset"}', '{"kind":"pointwise","op":"log-of"}',
                '{"kind":"constant","b":"x"}', '{"kind":"periodic","bases":5}',
                '{"kind":"constant","b":2.5}', '{"kind":"periodic","bases":[3,2.5]}',
                '{"kind":"preset","name":"index-log","log_base":[10]}']
# an empty digit field is a bad block, not a separator to skip
BAD_BLOCKS = ["-1", "1-", "0,,1"]


@pytest.mark.parametrize(
    "case",
    ["bad-json-seq", "bad-json-seq-file", "huge-int-json-seq", "huge-int-digit-file",
     "non-integer-digit",
     "digit-file-is-dir", "all-blocks-too-long", "all-blocks-too-many", "json-pair-rows",
     "negative-oracle-check", "seq-file-is-dir", "seq-file-not-utf8",
     "diagnose-one-checkpoint", "diagnose-one-checkpoint-above-1",
     "huge-constant", "huge-periodic", "huge-checkpoints", "huge-depth", "long-count",
     "int64-block-digit", "int64-diagnose-digit", "long-negative-all-blocks-checkpoint",
     "int64-periodic-diagnose", "int64-table-diagnose", "int64-constant-stats",
     "int64-constant-discrepancy", "past-int64-count", "past-int64-construct-count",
     "past-int64-exact", "past-int64-checkpoint", "past-int64-periodic-checkpoint",
     "past-int64-diagnose-checkpoint", "past-int64-depth", "diagnose-empty-block-field",
     "manifest-parent-missing", "manifest-is-dir"]
    + [f"digit-json {text}" for text in BAD_DIGIT_JSON_FILES]
    + [f"json-seq {text}" for text in BAD_SEQ_JSON]
    + [f"empty-block-field {text}" for text in BAD_BLOCKS],
)
def test_bad_input_exits_2(capsys, monkeypatch, tmp_path, case):
    kind, _, text = case.partition(" ")
    digit_file = tmp_path / "digits.csv"
    digit_file.write_text("1,0\n2,x\n")
    seq_file = tmp_path / "seq.json"
    seq_file.write_text("{bad")
    latin1_file = tmp_path / "latin1.json"
    latin1_file.write_bytes('{"kind": "preset", "name": "log\xe9"}'.encode("latin-1"))
    data_file = tmp_path / "data.json"
    data_file.write_text(text)
    # past Python's 4300-digit int-parsing limit, which json.loads reports
    # as a plain ValueError
    huge = "9" * 5000
    huge_digit_file = tmp_path / "huge.json"
    huge_digit_file.write_text(f'{{"digits": [{huge}]}}')
    six_digits = tmp_path / "six.csv"
    six_digits.write_text("1,0\n2,1\n3,0\n4,1\n5,0\n6,1\n")
    wide = 2**70  # bulk base arrays are int64
    # no int64 array has this many entries; numpy refuses it before allocating
    past = "9" * 20
    argv = {
        "bad-json-seq": ("digits", "--seq", "json:{bad", "--count", "4"),
        "bad-json-seq-file": ("digits", "--seq", f"file:{seq_file}", "--count", "4"),
        "huge-int-json-seq": ("digits", "--seq", f'json:{{"kind":"constant","b":{huge}}}',
                              "--count", "4"),
        "huge-int-digit-file": ("stats", "--seq", "constant:2", "--source",
                                f"file:{huge_digit_file}", "--blocks", "0",
                                "--checkpoints", "1"),
        "non-integer-digit": ("stats", "--seq", "constant:2", "--source", f"file:{digit_file}",
                              "--blocks", "0", "--checkpoints", "1"),
        "digit-file-is-dir": ("stats", "--seq", "constant:2", "--source", f"file:{tmp_path}",
                              "--blocks", "0", "--checkpoints", "1"),
        # 2**20 candidate blocks: refused up front instead of enumerated
        "all-blocks-too-long": ("stats", "--seq", "constant:2", "--blocks", "all:20",
                                "--checkpoints", "100"),
        # 10**6 candidates below the per-offset base limits
        "all-blocks-too-many": ("stats", "--seq", "constant:10", "--blocks", "all:6",
                                "--checkpoints", "100"),
        # 10**4 blocks: the JSON form would hold about 5*10**7 pair rows
        "json-pair-rows": ("stats", "--seq", "constant:10", "--blocks", "all:4",
                           "--checkpoints", "1000", "--format", "json"),
        # a negative step would make the checked range empty
        "negative-oracle-check": ("digits", "--seq", "constant:2", "--count", "5",
                                  "--oracle-check", "-1"),
        "digit-json": ("stats", "--seq", "constant:2", "--source", f"file:{data_file}",
                       "--blocks", "0", "--checkpoints", "1"),
        "seq-file-is-dir": ("digits", "--seq", f"file:{tmp_path}", "--count", "4"),
        "seq-file-not-utf8": ("digits", "--seq", f"file:{latin1_file}", "--count", "4"),
        "json-seq": ("digits", "--seq", f"json:{text}", "--count", "4"),
        # no trend can be read from fewer than two rows
        "diagnose-one-checkpoint": ("diagnose", "--seq", "constant:2", "--block", "0",
                                    "--checkpoints", "1"),
        "diagnose-one-checkpoint-above-1": ("diagnose", "--seq", "constant:2", "--block", "0",
                                            "--checkpoints", "1,100,100"),
        # the message quotes at most the first 60 characters of the input
        "huge-constant": ("digits", "--seq", f"constant:{huge}", "--count", "4"),
        "huge-periodic": ("digits", "--seq", f"periodic:2,{huge}", "--count", "4"),
        "huge-checkpoints": ("stats", "--seq", "constant:2", "--blocks", "0",
                             "--checkpoints", huge),
        "huge-depth": ("discrepancy", "--seq", "constant:2", "--depth", f"fixed:{huge}",
                       "--checkpoints", "10"),
        "long-count": ("digits", "--seq", "constant:2", "--count", "-" + "9" * 4000),
        # digit arrays are int64: a block digit of 2**63 or more is refused
        "int64-block-digit": ("stats", "--seq", "constant:2", "--blocks", str(2**63),
                              "--checkpoints", "10"),
        "int64-diagnose-digit": ("diagnose", "--seq", "constant:2", "--block", "9" * 20,
                                 "--checkpoints", "10,100"),
        "long-negative-all-blocks-checkpoint": ("stats", "--seq", "constant:2", "--blocks",
                                                "all:1", "--checkpoints", "-" + "9" * 4000),
        "int64-periodic-diagnose": ("diagnose", "--seq", f"periodic:{wide},2", "--block", "0",
                                    "--checkpoints", "2,3"),
        "int64-table-diagnose": ("diagnose", "--seq",
                                 f'json:{{"kind":"table","bases":[{wide},2]}}', "--block", "0",
                                 "--checkpoints", "2,3"),
        "int64-constant-stats": ("stats", "--seq", f"constant:{wide}", "--blocks", "0",
                                 "--checkpoints", "3", "--source", f"file:{six_digits}"),
        "int64-constant-discrepancy": ("discrepancy", "--seq", f"constant:{wide}",
                                       "--checkpoints", "3", "--source", f"file:{six_digits}"),
        "past-int64-count": ("digits", "--seq", "constant:2", "--count", past),
        "past-int64-construct-count": ("construct", "--seq", "preset:log", "--target",
                                       "nq-not-dnq", "--count", past),
        "past-int64-exact": ("value", "--seq", "constant:2", "--exact", past),
        "past-int64-checkpoint": ("stats", "--seq", "constant:2", "--blocks", "0",
                                  "--checkpoints", past),
        "past-int64-periodic-checkpoint": ("stats", "--seq", "periodic:2,3", "--blocks",
                                           "all:1", "--checkpoints", past),
        "past-int64-diagnose-checkpoint": ("diagnose", "--seq", "periodic:2,3", "--block", "0",
                                           "--checkpoints", f"10,{past}"),
        "past-int64-depth": ("discrepancy", "--seq", "constant:2", "--depth",
                             f"fixed:{2**63 - 1}", "--checkpoints", "10"),
        "empty-block-field": ("stats", "--seq", "constant:2", "--blocks", text,
                              "--checkpoints", "10"),
        "diagnose-empty-block-field": ("diagnose", "--seq", "constant:2", "--block", "-1",
                                       "--checkpoints", "10,100"),
        # the manifest is written after the output, which is complete by then
        "manifest-parent-missing": ("digits", "--seq", "constant:2", "--count", "5",
                                    "--manifest", "missing/m.json"),
        "manifest-is-dir": ("digits", "--seq", "constant:2", "--count", "5",
                            "--manifest", "."),
    }[kind]
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error[argument]" in err
    assert len(err) < 1024
    if kind == "huge-int-digit-file":
        assert "bad JSON" in err  # the parse error, not a missing key
    if kind.startswith("manifest-"):
        assert err.count("\n") == 1 and f"manifest to {argv[-1]!r}:" in err


def test_block_digits_separate_by_comma_or_dash(capsys):
    outs = []
    for text in ("0-1", "0,1"):
        code, out, _ = run_cli(capsys, "stats", "--seq", "constant:2", "--blocks", text,
                               "--checkpoints", "10")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and outs[0].splitlines()[1].startswith("0-1,10,")


def test_scan_bound_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(ladder, "DEFAULT_SCAN_BOUND", 30)
    code, _, err = run_cli(capsys, "digits", "--seq", "constant:2", "--count", "30")
    assert code == 3
    assert "error[scan-bound]" in err


# 2**40 passes the int64 size check, but its 8 TiB arrays do not fit in a 4 GB
# address space; discrepancy reads its digits a block at a time, so a depth
# of 2**40 makes its first block's read that large
@pytest.mark.parametrize("argv", [
    ("digits", "--seq", "constant:2", "--count", str(2**40)),
    ("stats", "--seq", "constant:2", "--blocks", "0", "--checkpoints", str(2**40)),
    ("discrepancy", "--seq", "constant:2", "--depth", f"fixed:{2**40}", "--checkpoints", "10"),
    ("value", "--seq", "constant:2", "--target", "xq", "--exact", str(2**40)),
])
def test_failed_allocation_exits_3(argv):
    resource = pytest.importorskip("resource")
    limit = 4 * 10**9

    def cap_address_space():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cantornormal.cli", *argv],
                          capture_output=True, env=env, timeout=120,
                          preexec_fn=cap_address_space)
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[memory]: "), err
    assert len(err) < 1024


def test_manifest_determinism(capsys, tmp_path):
    m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ("stats", "--seq", "periodic:2,3", "--blocks", "all:1",
            "--checkpoints", "50,500")
    code, out1, _ = run_cli(capsys, *args, "--manifest", str(m1))
    assert code == 0
    code, out2, _ = run_cli(capsys, *args, "--manifest", str(m2))
    assert out1 == out2
    d1 = json.loads(m1.read_text())
    d2 = json.loads(m2.read_text())
    assert d1 == d2
    assert d1["output_sha256"] == hashlib.sha256(out1.encode()).hexdigest()
    assert d1["version"]


@pytest.mark.parametrize("fmt", ["raw", "csv"])
@pytest.mark.parametrize("argv", [
    ("digits", "--seq", PERIODIC_WIDE),
    ("construct", "--seq", "preset:iterated-log", "--target", "nq-not-dnq"),
])
def test_manifest_digest_of_chunked_output(capsysbinary, tmp_path, argv, fmt):
    m = tmp_path / "m.json"
    with mock.patch.object(cli, "_EMIT_ROWS", 97):
        code = main([*argv, "--count", "1000", "--format", fmt, "--manifest", str(m)])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out.count(b"\n") == 1000  # eleven chunks
    assert json.loads(m.read_text())["output_sha256"] == hashlib.sha256(out).hexdigest()


# a reader that stops after one line of a 2.6 MB body, and one that reads
# nothing of a body small enough to sit in stdout's buffer until the end
@pytest.mark.parametrize("count, lines_read", [(300000, 1), (10, 0)])
def test_closed_pipe_exits_0_quietly(tmp_path, count, lines_read):
    m = tmp_path / "m.json"
    argv = ["digits", "--seq", PERIODIC_WIDE, "--count", str(count), "--format", "csv"]
    # stdout buffered, as by default, so the small body is only written at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "cantornormal.cli", *argv, "--manifest", str(m)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for n in range(1, lines_read + 1):
        assert proc.stdout.readline() == f"{n},0\n".encode()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    whole = _old_csv(constructed_digits(PERIODIC_WIDE_SEQ).prefix(count))
    assert json.loads(m.read_text())["output_sha256"] == hashlib.sha256(whole).hexdigest()


def _child_env(**blas):
    """This environment without OPENBLAS_NUM_THREADS, plus `blas`, for a child on src/."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return env | blas


@pytest.mark.parametrize("blas, seen", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
def test_entry_point_defaults_blas_to_one_thread(blas, seen):
    code = "import os, cantornormal.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_child_env(**blas), timeout=60)
    assert (proc.returncode, proc.stdout.decode().strip()) == (0, seen), proc.stderr.decode()


@pytest.mark.parametrize("argv", [
    ("digits", "--seq", PERIODIC_WIDE, "--count", "3000", "--format", "csv"),
    ("discrepancy", "--seq", "preset:iterated-log", "--checkpoints", "100,10000"),
])
def test_output_does_not_depend_on_blas_threads(argv):
    outs = [subprocess.run([sys.executable, "-m", "cantornormal.cli", *argv], capture_output=True,
                           env=_child_env(**blas), timeout=60, check=True).stdout
            for blas in ({}, {"OPENBLAS_NUM_THREADS": "2"})]
    assert outs[0] and outs[0] == outs[1]


def test_construct_manifest_records_graph_and_clamps(capsys, tmp_path):
    m = tmp_path / "m.json"
    code, _, _ = run_cli(capsys, "construct", "--seq", "preset:log", "--target",
                         "rnq-dnq-not-nq", "--count", "16", "--manifest", str(m))
    assert code == 0
    data = json.loads(m.read_text())
    assert data["parameters"]["clamp_events"] == 0
    assert data["parameters"]["graph"]["op"] == "schedule-patch"
