"""Command line front end.

Subcommands: `verify` runs one identity over parameter ranges,
`enumerate` prints gap-condition partition counts, `bijection` encodes,
decodes, or sweeps the motion correspondence, `series` prints a builder's
exact coefficients, and `report` runs the whole verification matrix.

`verify` and `report` run rows of the `schur_sums` registry, composite
rows (partition counts, the bounded-sum corollary, the bijection sweep)
included, and `series` the series declared beside it.  Each parameter's
rules, its hard cap included, are declared there and checked by one
validator, with the caps bound, before any work.  `enumerate` and
`bijection --max-n` take the rules of the rows they mirror, and
`--largest-part` those of the oracle series; only `--jobs`, `--motions`
data and the size of a `--partition` have caps of their own, declared
below in the same form.

Exit codes: 0 when everything requested verified, 1 when any check found
a discrepancy, 2 for usage errors and for a run that could not complete
(a worker process died before returning its row).

`--jobs J` fans verification rows out over min(J, rows) worker processes
(J at most 32, the cap of `_JOBS`), each joined to the parent by one
pipe.  The rows are cut into equal contiguous runs in matrix order, one per worker, so
rows that share memoized builders stay on one worker.  The parent hands
each worker the next row of its run, one at a time; a worker whose run is
done takes the back half of the longest run left.  Entries are stored by
row index, so the output order and bytes do not depend on J.  An
exception raised in a worker is re-raised in the parent.

Testing hook: setting QSCHUR_FAULT_INJECT to a non-empty value makes
`report` perturb the first row's left side by +1, so the failure path of
the report plumbing can be exercised end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import suppress
from datetime import datetime, timezone
from typing import Any

from . import __version__
from .bijection import (DecodeError, MotionData, MotionRuleError,
                        apply_motions, certify_range, decode)
from .partitions import (distinct_pm1_counts, format_partition,
                         parse_partition, schur_counts)
from .qpoly import XSeries
from .schur_sums import (_SERIES, IdentityId, UsageError, _Param, _resolve,
                         acceptance_matrix, check_params, swept_values, verify)

_MOTION_SIZE = _Param(0, cap=10_000)  # the size --motions and --partition take
_JOBS = _Param(1, cap=32)                # worker processes

_RANGE_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")


def _parse_range(text: str, name: str) -> range:
    # a range, not a list: its ends are checked before any value is built
    match = _RANGE_RE.match(text)
    if not match:
        raise UsageError("--%s must be an integer or a..b range, got %r" % (name, text))
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if hi < lo:
        raise UsageError("--%s range is empty: %s" % (name, text))
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# verification rows

def _execute_row(row: dict[str, Any]) -> dict[str, Any]:
    """Run one verification row; also the worker entry point."""
    return verify(row["check"], row["params"]).as_dict()


def _serve_rows(conn: Any) -> None:
    """Worker loop: run each (index, row) the parent sends and send back
    (index, entry, exception) until the parent sends None."""
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent is gone
            return
        if task is None:
            return
        i, row = task
        try:
            reply = (i, _execute_row(row), None)
        except Exception as exc:  # re-raised by the parent
            reply = (i, None, exc)
        conn.send(reply)


def _start_worker() -> tuple[Any, Any]:
    """Start one `_serve_rows` process on the default start method; return
    it and the parent's end of its pipe."""
    import multiprocessing
    parent_end, child_end = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=_serve_rows, args=(child_end,),
                                   daemon=True)
    proc.start()
    # the worker holds the only other end, so its death reads as EOF here
    child_end.close()
    return proc, parent_end


def _run_rows(rows: list[dict[str, Any]], jobs: int) -> list[dict[str, Any]]:
    if jobs <= 1 or len(rows) <= 1:
        return [_execute_row(row) for row in rows]
    from multiprocessing.connection import wait

    # worker w owns the contiguous run [lo[w], hi[w]) in matrix order, so
    # rows that share memoized builders warm one worker's caches
    workers = min(jobs, len(rows))
    cuts = [len(rows) * w // workers for w in range(workers + 1)]
    lo, hi = cuts[:-1], cuts[1:]
    entries: list[Any] = [None] * len(rows)
    procs: list[Any] = []
    conns: list[Any] = []
    busy: dict[Any, int] = {}   # a conn with a row out -> its worker

    def lost(w: int) -> ChildProcessError:
        procs[w].terminate()  # a no-op on a dead worker; keeps its code
        procs[w].join()
        return ChildProcessError("worker process exited (code %s) before "
                                 "returning a row" % procs[w].exitcode)

    def hand_out(w: int) -> None:
        if lo[w] == hi[w]:
            # idle: take the back half of the longest run left; cost tends
            # to grow along a run, so the back half is the larger share
            v = max(range(workers), key=lambda u: hi[u] - lo[u])
            if lo[v] == hi[v]:
                return
            mid = (lo[v] + hi[v]) // 2
            lo[w], hi[w], hi[v] = mid, hi[v], mid
        i = lo[w]
        lo[w] += 1
        try:
            conns[w].send((i, rows[i]))
        except OSError:
            raise lost(w) from None
        busy[conns[w]] = w

    done = False
    try:
        for _ in range(workers):
            proc, conn = _start_worker()
            procs.append(proc)
            conns.append(conn)
        for w in range(workers):
            hand_out(w)
        while busy:
            for conn in wait(list(busy)):
                w = busy.pop(conn)
                try:
                    i, entry, exc = conn.recv()
                except (EOFError, OSError):
                    raise lost(w) from None
                if exc is not None:
                    raise exc
                entries[i] = entry
                hand_out(w)
        done = True
    finally:
        for proc, conn in zip(procs, conns):
            if done:
                with suppress(OSError):  # a worker gone after its last row
                    conn.send(None)
            else:
                proc.terminate()
        for proc, conn in zip(procs, conns):
            proc.join()
            conn.close()
    return entries


# ---------------------------------------------------------------------------
# output plumbing

def _emit(doc: dict[str, Any], args: argparse.Namespace,
          text_lines: list[str]) -> None:
    rendered = json.dumps(doc, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:  # before any output, so stdout stays empty
            raise UsageError("cannot write --out %s: %s" % (
                args.out, exc.strerror or exc)) from None
    if args.format == "json":
        sys.stdout.write(rendered)
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _entry_line(entry: dict[str, Any]) -> str:
    params = " ".join("%s=%s" % kv for kv in entry["params"].items())
    line = "%-20s %-28s %s" % (entry["identity"], params, entry["status"])
    disc = entry["first_discrepancy"]
    if disc:
        line += "  first diff at "
        if disc["x_degree"] is not None:
            line += "x^%d, " % disc["x_degree"]
        line += "q-exponent %s/2: lhs=%s rhs=%s" % (
            disc["exponent_half_steps"], disc["lhs"], disc["rhs"])
    return line


def _entries_doc(entries: list[dict[str, Any]]) -> dict[str, Any]:
    verified = sum(1 for e in entries if e["status"] == "verified")
    return {
        "version": __version__,
        "started_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "entries": entries,
        "summary": {"verified": verified, "failed": len(entries) - verified},
    }


# ---------------------------------------------------------------------------
# subcommands

def _verify_rows(rows: list[dict[str, Any]], args: argparse.Namespace) -> int:
    # the tail verify and report share: run, emit, exit code
    _JOBS.check("jobs", args.jobs, capped=True)
    entries = _run_rows(rows, args.jobs)
    doc = _entries_doc(entries)
    _emit(doc, args, [_entry_line(e) for e in entries]
          + ["%d verified, %d failed" % (doc["summary"]["verified"],
                                         doc["summary"]["failed"])])
    return 0 if doc["summary"]["failed"] == 0 else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    # each given parameter's values: a range, or one value
    given = {name: _parse_range(getattr(args, name), name)
             for name in ("N", "M", "L", "a") if getattr(args, name) is not None}
    if args.t is not None:
        given["t"] = [args.t]
    elif args.identity == IdentityId.QT_LIMIT.value:
        # --t takes one value; without it, every t the report sweeps
        given["t"] = list(swept_values(IdentityId.QT_LIMIT, "t"))
    given.update((name, [value]) for name, value in (("T", args.T), ("max", args.max_n))
                 if value is not None)
    # both ends of every range (ranges ascend), before the product is built
    for end in (-1, 0):
        _, resolved = check_params(args.identity, {
            name: values[end] for name, values in given.items()}, capped=True)
    # each row's params in declaration order, the order report prints them in
    rows = [{"check": args.identity, "params": {}}]
    for name in resolved:
        if name in given:
            rows = [{"check": args.identity, "params": {**row["params"], name: v}}
                    for row in rows for v in given[name]]
    return _verify_rows(rows, args)


def _cmd_report(args: argparse.Namespace) -> int:
    rows = acceptance_matrix()
    if args.identity is not None:
        rows = [r for r in rows if r["check"] == args.identity]
        # every registry identity has rows, so an empty filter is a bad name
        if not rows:
            raise UsageError("unknown identity %r" % (args.identity,))
    if os.environ.get("QSCHUR_FAULT_INJECT") and rows:
        rows[0] = {"check": rows[0]["check"],
                   "params": {**rows[0]["params"],
                              "_perturb": {"exponent_half_steps": 0, "delta": 1}}}
    return _verify_rows(rows, args)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    n_max = args.max_n
    which = args.cls
    check_params(IdentityId.SCHUR_COUNTS, {"max_n": n_max}, capped=True)
    if args.largest_part is not None:
        _SERIES["oracle"][1]["largest_part"].check(
            "largest_part", args.largest_part, capped=True)
        if which != "schur":
            raise UsageError("--largest-part only applies to the gap-condition class")
    counts: dict[str, list[int]] = {}
    if which in ("schur", "both"):
        counts["schur"] = schur_counts(n_max, args.largest_part)
    if which in ("pm1mod3", "both"):
        counts["pm1mod3"] = distinct_pm1_counts(n_max)
    doc: dict[str, Any] = {"max_n": n_max, "class": which, "counts": counts}
    if args.largest_part is not None:
        doc["largest_part"] = args.largest_part
    lines = ["n " + " ".join(sorted(counts))]
    for n in range(n_max + 1):
        lines.append("%d %s" % (n, " ".join(str(counts[k][n]) for k in sorted(counts))))
    if which == "both":
        agree = counts["schur"] == counts["pm1mod3"]
        doc["classes_agree"] = agree
        lines.append("classes agree: %s" % agree)
        _emit(doc, args, lines)
        return 0 if agree else 1
    _emit(doc, args, lines)
    return 0


def _cmd_bijection(args: argparse.Namespace) -> int:
    chosen = [x for x in (args.motions, args.partition, args.max_n) if x is not None]
    if len(chosen) != 1:
        raise UsageError("give exactly one of --motions, --partition, --max-n")

    if args.motions is not None:
        try:
            data = MotionData.from_dict(json.loads(args.motions))
        except (ValueError, OverflowError, RecursionError) as exc:
            raise UsageError("bad motion data: %s" % exc)
        # every budget is at most the size, so this caps them all
        _MOTION_SIZE.check("motion_size", data.size, capped=True)
        try:
            result = apply_motions(data)
        except MotionRuleError as exc:
            _emit({"motions": data.as_dict(), "status": "failed",
                   "failure": {"kind": "no-rule", "detail": str(exc)}},
                  args, ["motion failed: %s" % exc])
            return 1
        doc = {"motions": data.as_dict(),
               "partition": format_partition(result), "size": sum(result)}
        _emit(doc, args, ["%s -> %s (size %d)" % (
            json.dumps(data.as_dict()), format_partition(result) or "(empty)",
            sum(result))])
        return 0

    if args.partition is not None:
        try:
            parts = parse_partition(args.partition)
        except ValueError as exc:
            raise UsageError(str(exc))
        # a pre-image has its partition's size, and decoding time grows with it
        _MOTION_SIZE.check("partition_size", sum(parts), capped=True)
        try:
            data = decode(parts)
        except DecodeError as exc:
            # a missing pre-image for an admissible partition is a
            # genuine discrepancy
            _emit({"partition": format_partition(parts), "status": "failed",
                   "failure": {"kind": "decode", "detail": str(exc)}},
                  args, ["decode failed: %s" % exc])
            return 1
        except ValueError as exc:
            # inadmissible input is a usage problem
            raise UsageError(str(exc))
        doc = {"partition": format_partition(parts), "motions": data.as_dict()}
        _emit(doc, args, ["%s -> %s" % (format_partition(parts) or "(empty)",
                                        json.dumps(data.as_dict()))])
        return 0

    check_params(IdentityId.BIJECTION_SWEEP, {"max_size": args.max_n}, capped=True)
    summary = certify_range(args.max_n)
    lines = ["sweep to size %d: %s" % (args.max_n, summary["status"])]
    if summary["status"] == "verified":
        lines.append("%d partitions round-tripped" % summary["partitions"])
    else:
        lines.append(json.dumps(summary["failure"]))
    _emit(summary, args, lines)
    return 0 if summary["status"] == "verified" else 1


def _cmd_series(args: argparse.Namespace) -> int:
    name = args.name
    span = None if args.N is None else _parse_range(args.N, "N")
    given = {option: value for option, value in (
        ("N", span[0] if span else None), ("T", args.T),
        ("largest_part", args.largest_part)) if value is not None}
    builder, declared = _SERIES[name]
    params = _resolve("series %r" % name, declared, given, capped=True)
    if span is not None and len(span) != 1:
        raise UsageError("series takes a single --N")
    result = builder(*params.values())

    doc: dict[str, Any] = {"series": name}
    doc.update((o, v) for o, v in params.items() if o != "largest_part")
    if isinstance(result, XSeries):
        doc["strata"] = result.to_strata_pairs()
        lines = ["x^%d: %s" % (x, result.stratum(x))
                 for x in result.x_degrees()] or ["0"]
    else:
        doc["pairs"] = result.to_pairs()
        lines = [str(result)]
    if "largest_part" in params:
        doc["largest_part"] = params["largest_part"]
    _emit(doc, args, lines)
    return 0


# ---------------------------------------------------------------------------
# argument tree

def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --m must not stand
    # for --max-n
    parser = argparse.ArgumentParser(
        prog="qschur", allow_abbrev=False,
        description="Exact verification of gap-condition partition identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="also write the JSON document to a file")

    p_verify = sub.add_parser("verify", allow_abbrev=False,
                              help="verify one identity over ranges")
    p_verify.add_argument("--identity", required=True)
    p_verify.add_argument("--N")
    p_verify.add_argument("--M")
    p_verify.add_argument("--L")
    p_verify.add_argument("--a")
    p_verify.add_argument("--T", type=int)
    p_verify.add_argument("--t", type=int,
                          choices=swept_values(IdentityId.QT_LIMIT, "t"))
    p_verify.add_argument("--max-n", dest="max_n", type=int)
    p_verify.add_argument("--jobs", type=int, default=1)
    common(p_verify)

    p_report = sub.add_parser("report", allow_abbrev=False,
                              help="run the full verification matrix")
    p_report.add_argument("--identity", help="only rows with this check name")
    p_report.add_argument("--jobs", type=int, default=1)
    common(p_report)

    p_enum = sub.add_parser("enumerate", allow_abbrev=False,
                            help="partition counts by size")
    p_enum.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_enum.add_argument("--class", dest="cls",
                        choices=("schur", "pm1mod3", "both"), default="both")
    p_enum.add_argument("--largest-part", dest="largest_part", type=int)
    common(p_enum)

    p_bij = sub.add_parser("bijection", allow_abbrev=False,
                           help="encode, decode, or sweep motions")
    p_bij.add_argument("--motions", help="motion data as JSON")
    p_bij.add_argument("--partition", help="comma-separated ascending parts")
    p_bij.add_argument("--max-n", dest="max_n", type=int,
                       help="certify all sizes up to this bound")
    common(p_bij)

    p_series = sub.add_parser("series", allow_abbrev=False,
                              help="print a builder's coefficients")
    p_series.add_argument("name", choices=tuple(_SERIES))
    p_series.add_argument("--N")
    p_series.add_argument("--T", type=int)
    p_series.add_argument("--largest-part", dest="largest_part", type=int)
    common(p_series)

    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "report": _cmd_report,
    "enumerate": _cmd_enumerate,
    "bijection": _cmd_bijection,
    "series": _cmd_series,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads --opt=-- as []
                raise UsageError("%s: '--' is not a value" % name)
        return _COMMANDS[args.command](args)
    except (ValueError, ChildProcessError) as exc:
        # UsageError, and the ValueError a library function raises for an
        # out-of-range argument: both are bad input, never a discrepancy.
        # ChildProcessError: a --jobs worker died, so the run is incomplete
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
