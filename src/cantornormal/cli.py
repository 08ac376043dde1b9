"""Command-line entry point.

Subcommands: digits, construct, stats, discrepancy, value, diagnose.
Exit codes: 0 success, 2 argument errors, 3 scan-bound/refinement errors
and allocations that fail.
Every run can persist a manifest (--manifest) recording the subcommand,
inputs, tool version and a digest of the emitted bytes; re-running with
the same inputs reproduces the bytes and therefore the digest.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

# nothing here calls BLAS: skip OpenBLAS's start-up worker pool unless the user set a size
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each subcommand imports the modules it runs, so `--version`, `--help` and
# usage errors load no numpy, and `digits` loads no stats, orbit, transforms
# or values: with no cached bytecode, every module loaded is also compiled.
from . import UD_KINDS, __version__
from .errors import ArgumentError, CantorSeriesError, excerpt

TARGETS = ("xq", "nq-not-dnq", "rnq-not-nq", "rnq-dnq-not-nq")


def _build_target(name: str, seq, args):
    if name == "xq":
        from .digitseq import constructed_digits
        return constructed_digits(seq)
    from .transforms import UDSource, build_half_range, build_orbit_sink, build_patched_uniform
    if name == "nq-not-dnq":
        return build_orbit_sink(seq, log_base=args.log_base)
    if name == "rnq-not-nq":
        return build_half_range(seq, log_base=args.log_base)
    # argparse's choices=TARGETS leaves only rnq-dnq-not-nq
    return build_patched_uniform(seq, ud=UDSource(args.ud), log_base=args.log_base)


def _load_digit_file(seq, path):
    from .digitseq import finite_digits
    from .sequences import read_json, read_text
    if path.suffix == ".json":
        data = read_json(read_text(path), f"{path}: bad JSON")
        if not isinstance(data, dict) or "digits" not in data:
            raise ArgumentError(f"{path}: expected a JSON object with key 'digits'")
        digits = data["digits"]
        if not isinstance(digits, list):
            raise ArgumentError(f"{path}: 'digits' must be a JSON list")
        if not all(type(d) is int for d in digits):
            raise ArgumentError(f"{path}: digits must be integers")
    else:
        digits = []
        for lineno, line in enumerate(read_text(path).splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                digits.append(int(line.split(",")[-1]))
            except ValueError as exc:
                raise ArgumentError(
                    f"{path}:{lineno}: digit {excerpt(line)} is not an integer"
                ) from exc
    return finite_digits(seq, digits)


def _resolve_source(args, seq):
    source = args.source
    if source == "construct":
        return _build_target(args.target, seq, args)
    head, _, rest = source.partition(":")
    if head == "file":
        from pathlib import Path
        return _load_digit_file(seq, Path(rest))
    raise ArgumentError(f"bad source {excerpt(source)}; expected construct or file:path")


def _parse_checkpoints(text: str) -> list[int]:
    try:
        cps = [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise ArgumentError(f"bad checkpoint list {excerpt(text)}") from exc
    if not cps:
        raise ArgumentError("at least one checkpoint is required")
    return cps


def _parse_blocks(text: str, seq, horizon: int) -> list[tuple]:
    from .stats import admissible_blocks, parse_block
    if text.startswith("all:"):
        k = int(text.split(":", 1)[1])
        return admissible_blocks(seq, k, horizon)
    return [parse_block(part) for part in text.split(";") if part]


def _parse_depth(text: str) -> int | None:
    if text in ("default", "paper"):
        return None
    head, _, rest = text.partition(":")
    if head == "fixed":
        try:
            return int(rest)
        except ValueError as exc:
            raise ArgumentError(f"bad depth {excerpt(text)}") from exc
    raise ArgumentError(f"bad depth {excerpt(text)}; expected fixed:<d> or default")


def _emit(args, chunks, manifest_params: dict) -> None:
    """Write `chunks` to stdout's byte stream; with --manifest, record their digest.

    A reader that closes the pipe early (`| head`) ends the writing but not
    the digest, and the run still exits 0.
    """
    chunks = iter(chunks)
    digest = None
    if args.manifest:
        import hashlib
        digest = hashlib.sha256()
    try:
        sys.stdout.flush()
        for chunk in chunks:
            if digest is not None:
                digest.update(chunk)
            sys.stdout.buffer.write(chunk)
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        # point fd 1 at devnull so the flush at exit has somewhere to go
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if digest is not None:
            for chunk in chunks:
                digest.update(chunk)
    if digest is not None:
        import json
        manifest = {
            "subcommand": args.command,
            "seq": args.seq,
            "target": getattr(args, "target", None),
            "parameters": manifest_params,
            "version": __version__,
            "output_sha256": digest.hexdigest(),
        }
        try:
            with open(args.manifest, "w") as fh:
                fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        except OSError as exc:  # what `_check_manifest` cannot see: permissions, a full disk
            raise _manifest_error(args.manifest, exc.strerror) from exc


def _manifest_error(path: str, reason: str) -> ArgumentError:
    return ArgumentError(f"cannot write the manifest to {excerpt(path)}: {reason}")


def _check_manifest(path: str) -> None:
    """Refuse, before any work or output, a --manifest path that `open` would
    refuse because it is a directory or its directory is missing, with the
    reason `open` gives."""
    import errno
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or path.endswith(os.sep):
        raise _manifest_error(path, os.strerror(errno.EISDIR))
    if not os.path.isdir(parent):
        try:
            os.stat(parent)
        except OSError as exc:  # missing, or under a file
            raise _manifest_error(path, exc.strerror) from exc
        raise _manifest_error(path, os.strerror(errno.ENOTDIR))


def _csv(rows) -> str:
    return "".join(",".join(str(c) for c in row) + "\n" for row in rows)


_EMIT_ROWS = 2**16  # rows formatted, written and hashed as one chunk


def _int_rows(*columns) -> bytes:
    """Newline-terminated rows of comma-separated non-negative int64 columns.

    The bytes are those `_csv` writes for the same rows. Each column is
    right-aligned in its own slice of one uint8 matrix, filled one decimal
    place at a time; one boolean compaction then drops each cell's leading
    pad, unless every cell of each column has that column's full width.
    """
    import numpy as np
    if not columns[0].size:
        return b""
    highs = [int(c.max()) for c in columns]
    widths = [len(str(h)) for h in highs]
    buf = np.empty((columns[0].size, sum(widths) + len(columns)), dtype=np.uint8)
    padded = any(len(str(int(c.min()))) < w for c, w in zip(columns, widths))
    keep = np.ones(buf.shape, dtype=bool) if padded else None
    stop = 0  # one past the current column's last place
    for c, high, w in zip(columns, highs, widths):
        stop += w
        q = c.astype(np.uint32 if high < 2**32 else np.int64)
        nxt, r = np.empty_like(q), np.empty_like(q)
        for place in range(w):
            col = stop - 1 - place
            if place and padded:  # a pad where no digits are left
                np.not_equal(q, 0, out=keep[:, col])
            np.floor_divide(q, 10, out=nxt)
            np.multiply(nxt, 10, out=r)
            buf[:, col] = np.subtract(q, r, out=r)
            q, nxt = nxt, q
        stop += 1
    buf += ord("0")
    buf[:, np.cumsum(widths) + np.arange(len(widths))] = ord(",")  # after each cell
    buf[:, -1] = ord("\n")
    return (buf.ravel() if keep is None else buf[keep]).tobytes()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_digits(args, seq) -> None:
    from .digitseq import constructed_digits
    from .generator import digit_at
    from .ladder import PartitionIndex
    E = constructed_digits(seq)
    if args.oracle_check < 0:
        raise ArgumentError(f"--oracle-check must be >= 0, got {excerpt(args.oracle_check)}")
    digits = E.prefix(args.count)
    if args.oracle_check:
        pi = PartitionIndex(seq)
        for n in range(1, args.count + 1, args.oracle_check):
            expect = digit_at(seq, n, index=pi)
            if expect != int(digits[n - 1]):
                raise CantorSeriesError(
                    f"stream digit {int(digits[n - 1])} at position {n} "
                    f"disagrees with the direct oracle {expect}"
                )
    _emit(args, _format_digit_output(args, seq, digits),
          {"count": args.count, "format": args.format, "oracle_check": args.oracle_check})


def _format_digit_output(args, seq, digits):
    """The `digits`/`construct` body, `_EMIT_ROWS` digits at a time: raw or CSV
    rows, or the list of a sorted-key JSON object {"digits": [...], "seq": ...}."""
    import numpy as np
    if args.format == "json":
        yield b'{"digits": ['
    for lo in range(0, digits.size, _EMIT_ROWS):
        rows = digits[lo:lo + _EMIT_ROWS]
        if args.format == "csv":
            yield _int_rows(np.arange(lo + 1, lo + 1 + rows.size, dtype=np.int64), rows)
        elif args.format == "json":
            yield (b", " if lo else b"") + _int_rows(rows)[:-1].replace(b"\n", b", ")
        else:
            yield _int_rows(rows)
    if args.format == "json":
        import json
        yield f'], "seq": {json.dumps(seq.to_json(), sort_keys=True)}}}\n'.encode()


def _cmd_construct(args, seq) -> None:
    E = _build_target(args.target, seq, args)
    digits = E.prefix(args.count)
    schedule = getattr(E, "schedule", None)
    params = {
        "count": args.count,
        "format": args.format,
        "ud": args.ud,
        "log_base": args.log_base,
        "graph": E.description,
    }
    if schedule is not None:
        params["clamp_events"] = schedule.clamp_events
    _emit(args, _format_digit_output(args, seq, digits), params)


def _write_report(args, report, params: dict) -> None:
    """Write a report as its JSON object or as its CSV rows, per --format."""
    if args.format == "json":
        import json
        body = json.dumps(report.to_json(), sort_keys=True) + "\n"
    else:
        body = _csv(report.csv_rows())
    _emit(args, [body.encode()], params)


def _cmd_stats(args, seq) -> None:
    from .stats import check_pair_count, normality_report
    E = _resolve_source(args, seq)
    cps = _parse_checkpoints(args.checkpoints)
    blocks = _parse_blocks(args.blocks, seq, max(cps))
    if args.format == "json":
        check_pair_count(blocks, cps)
    _write_report(args, normality_report(E, blocks, cps),
                  {"blocks": args.blocks, "checkpoints": cps})


def _cmd_discrepancy(args, seq) -> None:
    from .orbit import orbit_discrepancy_report
    E = _resolve_source(args, seq)
    cps = _parse_checkpoints(args.checkpoints)
    _write_report(args, orbit_discrepancy_report(E, cps, depth=_parse_depth(args.depth)),
                  {"checkpoints": cps, "depth": args.depth})


def _cmd_value(args, seq) -> None:
    from .values import format_digits, prefix_value, to_base_b
    E = _build_target(args.target, seq, args)
    params = {"base": args.base, "digits": args.digits, "exact": args.exact}
    if args.exact:
        from decimal import Decimal
        interval = prefix_value(seq, E.prefix(args.exact))
        # Decimal prints an int's exact digits, also past the 4300-digit
        # limit of Python's int-to-str conversion
        lower, den = interval.lower, interval.width.denominator
        body = f"{Decimal(lower.numerator)}/{Decimal(lower.denominator)} +/- 1/{Decimal(den)}\n"
    else:
        digits = to_base_b(E, args.base, args.digits)
        body = "0." + format_digits(digits, args.base) + f" (base {args.base})\n"
    _emit(args, [body.encode()], params)


def _cmd_diagnose(args, seq) -> None:
    from .stats import growth_diagnostic, parse_block
    cps = _parse_checkpoints(args.checkpoints)
    if len({n for n in cps if n > 1}) < 2:
        raise ArgumentError("a growth trend needs at least two checkpoints above 1")
    _write_report(args, growth_diagnostic(seq, parse_block(args.block), cps),
                  {"block": args.block, "checkpoints": cps})


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cantornormal",
        description="Construct and verify normal numbers for Cantor series expansions.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, target=False):
        p.add_argument("--seq", required=True, help="constant:b | periodic:a,b | preset:name | file:path")
        p.add_argument("--manifest", help="write a reproducibility manifest to this path")
        if target:
            p.add_argument("--log-base", default="e", choices=("e", "2", "10"),
                           help="log base used by derived companion sequences")
            p.add_argument("--target", default="xq", choices=TARGETS)
            p.add_argument("--ud", default="vdc", choices=UD_KINDS)

    p = sub.add_parser("digits", help="emit construction digits")
    common(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", default="csv", choices=("raw", "csv", "json"))
    p.add_argument("--oracle-check", type=int, default=0, metavar="K",
                   help="cross-check every K-th digit against the direct oracle")
    p.set_defaults(func=_cmd_digits)

    p = sub.add_parser("construct", help="emit digits of a transform target")
    common(p, target=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", default="csv", choices=("raw", "csv", "json"))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("stats", help="observed vs expected block counts")
    common(p, target=True)
    p.add_argument("--source", default="construct", help="construct | file:path")
    p.add_argument("--blocks", required=True, help='e.g. "0;1;0,1" or all:k')
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("discrepancy", help="orbit discrepancy report")
    common(p, target=True)
    p.add_argument("--source", default="construct", help="construct | file:path")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--depth", default="default",
                   help="truncation depth: default | fixed:d")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("value", help="proven base-b digits of a target")
    common(p, target=True)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--digits", type=int, default=10)
    p.add_argument("--exact", type=int, default=0, metavar="M",
                   help="print the exact prefix rational after M digits instead")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("diagnose", help="expected-count growth trend for a block")
    common(p)
    p.add_argument("--block", required=True)
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=_cmd_diagnose)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.manifest:
            _check_manifest(args.manifest)
        from .sequences import parse_sequence_spec
        args.func(args, parse_sequence_spec(args.seq))
    except ArgumentError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except CantorSeriesError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error[memory]: out of memory: {excerpt(str(exc))}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    """The `cantornormal` command and `python -m cantornormal.cli`: exit with
    the code of `main`.

    Once `main` is done, gc.freeze() moves every object into the collector's
    permanent generation, so interpreter finalization skips a walk of the
    whole heap, numpy's included; atexit handlers, stream flushes and module
    teardown still run. A lazily imported heap is only frozen after it is
    built, hence here and not before `main`.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
