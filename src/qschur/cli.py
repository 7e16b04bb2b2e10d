"""Command line front end.

Subcommands: `verify` runs one identity over parameter ranges,
`enumerate` prints gap-condition partition counts, `bijection` encodes,
decodes, or sweeps the motion correspondence, `series` prints a builder's
exact coefficients, and `report` runs the whole verification matrix.

`verify` and `report` run rows of the `schur_sums` registry, composite
rows (partition counts, the bounded-sum corollary, the bijection sweep)
included; a row's parameters are checked there.  The hard caps below are
the CLI's own, applied by `_check_cap` to every subcommand's input before
any work.

Exit codes: 0 when everything requested verified, 1 when any check found
a discrepancy, 2 for usage errors and for a run that could not complete
(a worker process died before returning its row).

`--jobs J` fans verification rows out over min(J, rows) worker processes
(J at most MAX_JOBS), each joined to the parent by one pipe.  The rows
are cut into equal contiguous runs in matrix order, one per worker, so
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
from .partitions import (distinct_pm1_counts, enumerate_schur,
                         format_partition, parse_partition, schur_counts,
                         schur_gf_oracle)
from .schur_sums import (IdentityId, UsageError, ali_gf_truncated,
                         bounded_gf, check_params, even_odd_split_lhs,
                         kursungoz_gf_truncated, lhs_schur, rhs_schur,
                         schur_product_truncated, verify)

MAX_INDEX = 100   # hard cap on N-like parameters
MAX_WINDOW = 500  # hard cap on truncation windows
MAX_MOTION_SIZE = 10_000  # hard cap on the size --motions data encodes
MAX_JOBS = 32     # hard cap on worker processes

# each capped value by the name it travels under; the cap bounds |value|.
# The oracle stores every admissible partition up to its window T.
_CAPS = {"N": MAX_INDEX, "M": MAX_INDEX, "L": MAX_INDEX, "a": MAX_INDEX,
         "max_n": MAX_INDEX, "largest_part": MAX_INDEX, "T": MAX_WINDOW,
         "oracle_T": MAX_INDEX, "motion_size": MAX_MOTION_SIZE,
         "jobs": MAX_JOBS}

_RANGE_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")


def _check_cap(name: str, value: Any) -> None:
    cap = _CAPS.get(name)
    if cap is not None and isinstance(value, int) and abs(value) > cap:
        raise UsageError("%s=%d exceeds the hard cap %d" % (name, value, cap))


def _parse_range(text: str, name: str) -> list[int]:
    match = _RANGE_RE.match(text)
    if not match:
        raise UsageError("--%s must be an integer or a..b range, got %r" % (name, text))
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if hi < lo:
        raise UsageError("--%s range is empty: %s" % (name, text))
    _check_cap(name, lo)
    _check_cap(name, hi)
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# verification rows

def _execute_row(row: dict[str, Any]) -> dict[str, Any]:
    """Run one verification row; also the worker entry point."""
    return verify(row["check"], row["params"]).as_dict()


def acceptance_matrix() -> list[dict[str, Any]]:
    """The full verification matrix, in reporting order."""
    rows: list[dict[str, Any]] = []

    def add(check: str, **params: Any) -> None:
        rows.append({"check": check, "params": params})

    for N in range(0, 26):
        add(IdentityId.SCHUR_POLY.value, N=N)
    for N in range(2, 26):
        add(IdentityId.REC_ANDREWS.value, N=N)
    for N in range(4, 26):
        add(IdentityId.REC_L.value, N=N)
    for N in range(4, 13):
        add(IdentityId.REC_SUMMAND.value, N=N)
    add(IdentityId.SCHUR_COUNTS.value, max_n=60)
    for N in range(0, 16):
        add(IdentityId.GF_BOUNDED.value, N=N, T=45)
    for N in range(1, 11):
        add(IdentityId.COR1_BOUNDED_SUM.value, N=N)
    add(IdentityId.GF_ALI_EQ_KURSUNGOZ.value, T=60)
    add(IdentityId.GF_EVEN_ODD_SPLIT.value, T=60)
    add(IdentityId.ANALYTIC_SCHUR.value, T=60)
    for N in range(0, 21):
        add(IdentityId.DUAL.value, N=N)
    for N in range(0, 21):
        add(IdentityId.T0_BINOM.value, N=N)
    add(IdentityId.T0_LIMIT.value, N=40, T=40)
    add(IdentityId.QT_LIMIT.value, t=1, T=50)
    add(IdentityId.QT_LIMIT.value, t=2, T=50)
    for M in range(0, 13):
        add(IdentityId.SUMMATION_M.value, M=M)
    for L in range(0, 13):
        add(IdentityId.WARNAAR.value, L=L)
    for M in range(0, 16):
        add(IdentityId.Q1_TRIPLE.value, M=M)
    for M in range(0, 16):
        add(IdentityId.Q1_QUAD.value, M=M)
    add(IdentityId.BIJECTION_SWEEP.value, max_size=40)
    add(IdentityId.EXPONENT_DIFF.value, max=20)
    return rows


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
        with open(args.out, "w") as fh:
            fh.write(rendered)
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
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    entries = _run_rows(rows, args.jobs)
    doc = _entries_doc(entries)
    _emit(doc, args, [_entry_line(e) for e in entries]
          + ["%d verified, %d failed" % (doc["summary"]["verified"],
                                         doc["summary"]["failed"])])
    return 0 if doc["summary"]["failed"] == 0 else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    sweeps = {name: _parse_range(getattr(args, name), name)
              for name in ("N", "M", "L", "a") if getattr(args, name) is not None}
    if args.t is not None:
        sweeps["t"] = [args.t]
    elif args.identity == IdentityId.QT_LIMIT.value:
        sweeps["t"] = [1, 2]
    fixed = {name: value for name, value in (("T", args.T), ("max", args.max_n))
             if value is not None}
    if args.identity == IdentityId.GF_BOUNDED.value:
        _check_cap("oracle_T", args.T)
    # names, types and minimums, on the least value of each range (ranges
    # ascend), before the sweep product is built
    check_params(args.identity,
                 {**fixed, **{name: values[0] for name, values in sweeps.items()}})
    rows = [{"check": args.identity, "params": fixed}]
    for name, values in sweeps.items():
        rows = [{"check": args.identity, "params": {**row["params"], name: v}}
                for row in rows for v in values]
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
    counts: dict[str, list[int]] = {}
    if which in ("schur", "both"):
        if args.largest_part is not None:
            by_size = enumerate_schur(n_max, largest_part=args.largest_part)
            counts["schur"] = [len(by_size.get(n, ())) for n in range(n_max + 1)]
        else:
            counts["schur"] = schur_counts(n_max)
    if which in ("pm1mod3", "both"):
        if args.largest_part is not None:
            raise UsageError("--largest-part only applies to the gap-condition class")
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
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise UsageError("bad motion data: %s" % exc)
        # every budget is at most the size, so this caps them all
        _check_cap("motion_size", data.size)
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

    summary = certify_range(args.max_n)
    lines = ["sweep to size %d: %s" % (args.max_n, summary["status"])]
    if summary["status"] == "verified":
        lines.append("%d partitions round-tripped" % summary["partitions"])
    else:
        lines.append(json.dumps(summary["failure"]))
    _emit(summary, args, lines)
    return 0 if summary["status"] == "verified" else 1


# the options each series reads; any other one is refused, not dropped
_SERIES_READS = {
    "lhs": ("N",), "rhs": ("N",), "ali": ("T",), "kursungoz": ("T",),
    "even-odd": ("T",), "bounded": ("T", "largest_part"),
    "oracle": ("T", "largest_part"), "product": ("T",),
}


def _cmd_series(args: argparse.Namespace) -> int:
    name = args.name
    for option in ("N", "T", "largest_part"):
        if getattr(args, option) is not None \
                and option not in _SERIES_READS[name]:
            raise UsageError("series %r does not read --%s"
                             % (name, option.replace("_", "-")))
    T = args.T
    doc: dict[str, Any] = {"series": name}

    def need_T() -> int:
        if T is None:
            raise UsageError("series %r needs --T" % name)
        if T < 0:
            raise UsageError("T must be >= 0")
        return T

    def need_N() -> int:
        if args.N is None:
            raise UsageError("series %r needs --N" % name)
        values = _parse_range(args.N, "N")
        if len(values) != 1:
            raise UsageError("series takes a single --N")
        if values[0] < 0:
            raise UsageError("N must be >= 0")
        return values[0]

    if name in ("lhs", "rhs"):
        N = need_N()
        poly = lhs_schur(N) if name == "lhs" else rhs_schur(N)
        doc.update(N=N, pairs=poly.to_pairs())
        _emit(doc, args, [str(poly)])
        return 0
    if name == "product":
        poly = schur_product_truncated(need_T())
        doc.update(T=T, pairs=poly.to_pairs())
        _emit(doc, args, [str(poly)])
        return 0

    if name == "ali":
        series = ali_gf_truncated(need_T())
    elif name == "kursungoz":
        series = kursungoz_gf_truncated(need_T())
    elif name == "even-odd":
        series = even_odd_split_lhs(need_T())
    elif name == "bounded":
        if args.largest_part is None:
            raise UsageError("series 'bounded' needs --largest-part")
        series = bounded_gf(args.largest_part, need_T())
    else:  # "oracle"
        _check_cap("oracle_T", need_T())
        series = schur_gf_oracle(T, largest_part=args.largest_part)
    doc.update(T=T, strata=series.to_strata_pairs())
    if args.largest_part is not None:
        doc["largest_part"] = args.largest_part
    lines = ["x^%d: %s" % (x, series.stratum(x))
             for x in series.x_degrees()]
    _emit(doc, args, lines or ["0"])
    return 0


# ---------------------------------------------------------------------------
# argument tree

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="Exact verification of gap-condition partition identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="also write the JSON document to a file")

    p_verify = sub.add_parser("verify", help="verify one identity over ranges")
    p_verify.add_argument("--identity", required=True)
    p_verify.add_argument("--N")
    p_verify.add_argument("--M")
    p_verify.add_argument("--L")
    p_verify.add_argument("--a")
    p_verify.add_argument("--T", type=int)
    p_verify.add_argument("--t", type=int, choices=(1, 2))
    p_verify.add_argument("--max-n", dest="max_n", type=int)
    p_verify.add_argument("--jobs", type=int, default=1)
    common(p_verify)

    p_report = sub.add_parser("report", help="run the full verification matrix")
    p_report.add_argument("--identity", help="only rows with this check name")
    p_report.add_argument("--jobs", type=int, default=1)
    common(p_report)

    p_enum = sub.add_parser("enumerate", help="partition counts by size")
    p_enum.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_enum.add_argument("--class", dest="cls",
                        choices=("schur", "pm1mod3", "both"), default="both")
    p_enum.add_argument("--largest-part", dest="largest_part", type=int)
    common(p_enum)

    p_bij = sub.add_parser("bijection", help="encode, decode, or sweep motions")
    p_bij.add_argument("--motions", help="motion data as JSON")
    p_bij.add_argument("--partition", help="comma-separated ascending parts")
    p_bij.add_argument("--max-n", dest="max_n", type=int,
                       help="certify all sizes up to this bound")
    common(p_bij)

    p_series = sub.add_parser("series", help="print a builder's coefficients")
    p_series.add_argument("name", choices=tuple(_SERIES_READS))
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
            _check_cap(name, value)
        return _COMMANDS[args.command](args)
    except (ValueError, ChildProcessError) as exc:
        # UsageError, and the ValueError a library function raises for an
        # out-of-range argument: both are bad input, never a discrepancy.
        # ChildProcessError: a --jobs worker died, so the run is incomplete
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
