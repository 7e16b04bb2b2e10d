"""Outside-in tracing of the qschur layers, for the traced benchmark pass.

`install` replaces the public functions of `qpoly`, `qcoeff`, `partitions`,
`schur_sums`, `bijection` and `cli` with wrappers that record one span per
call (name, start, end, parent) and a few counters at the same boundaries.
The modules import each other's functions by name (`schur_sums` holds its
own `gauss_binomial`, `cli` its own `verify`), so every module attribute
bound to a wrapped function is replaced, not only the defining one.

Spans stay in memory and each process writes its own file once, when it
ends: the traced pass itself, and every process-pool worker it forks.
`load` reads them back and `layer_metrics` turns them into the per-layer
metrics that `BENCHMARK.json` lists.

Nothing here is imported by the untraced passes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from collections import defaultdict
from operator import itemgetter
from time import monotonic_ns

LAYERS = ("qpoly", "qcoeff", "partitions", "schur_sums", "bijection", "cli")

# Multiplication classes by operand shape, not by the route the package
# picks: "single" when a factor has one term (or is an int scalar),
# "small" up to this many coefficient pairs, "large" above it.
SMALL_PAIRS = 2048

# Called once per summation cell with plain-int arithmetic; a span each
# would cost more than the work it times.
UNWRAPPED = {"weight_a", "weight_k", "weight_b_half", "weight_q"}

# Private functions of cli that bound a row and the pool wait.
CLI_BOUNDARIES = ("_execute_row", "_run_rows")

BUILDERS = ("lhs_schur", "rhs_schur", "dual_sides", "summation_formula_sides",
            "recurrence_residual", "qt_limit_sum", "t0_half_sum_truncated",
            "ali_gf_truncated", "kursungoz_gf_truncated",
            "even_odd_split_lhs", "bounded_gf")


def mul_class(left_terms: int, right_terms: int) -> str:
    """Shape class of one product: single, small or large."""
    if left_terms == 1 or right_terms == 1:
        return "single"
    if left_terms * right_terms <= SMALL_PAIRS:
        return "small"
    return "large"


class Recorder:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.tables_seen: set[tuple[int, int]] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(monotonic_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = monotonic_ns()
        self.stack.pop()

    def reset(self) -> None:
        # In place: the wrappers hold references to these containers.
        for arr in (self.name_ids, self.starts, self.ends, self.parents):
            del arr[:]
        self.stack.clear()
        self.counters.clear()
        self.tables_seen.clear()

    def dump(self) -> None:
        """Write this process's spans to one file in out_dir."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "spans-%s-%d.bin" % (self.run_id, os.getpid()))
        header = {"run_id": self.run_id, "pid": os.getpid(), "names": self.names,
                  "count": len(self.starts), "counters": dict(self.counters)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                fh.write(arr.tobytes())


def _wrap(rec: Recorder, name: str, fn, after=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx)
            if after is not None:
                after(args, None, exc)
            raise
        rec.close(idx)
        if after is not None:
            after(args, result, None)
        return result
    return traced


def _wrap_mul(rec: Recorder, fn):
    ids = {c: rec.name_id("qpoly.mul_" + c) for c in ("single", "small", "large")}
    counters = rec.counters

    @functools.wraps(fn)
    def traced(self, other):
        left = len(self)
        right = len(other) if hasattr(other, "items") else 1
        idx = rec.open(ids[mul_class(left, right)])
        try:
            result = fn(self, other)
        finally:
            rec.close(idx)
        counters["qpoly.mul.pairs"] += left * right
        if result is not NotImplemented and result:
            counters["qpoly.mul.terms_out"] += len(result)
            coeffs = list(map(itemgetter(1), result.items()))
            bits = max(max(coeffs), -min(coeffs)).bit_length()
            if bits > counters["qpoly.mul.max_coeff_bits"]:
                counters["qpoly.mul.max_coeff_bits"] = bits
        return result
    return traced


def _after_truncate(rec: Recorder):
    def after(args, result, exc):
        if exc is None:
            rec.counters["qpoly.truncate.terms_in"] += len(args[0])
            rec.counters["qpoly.truncate.terms_kept"] += len(result)
    return after


def _after_gauss(rec: Recorder):
    def after(args, result, exc):
        key = (args[0], args[1])
        if key in rec.tables_seen:
            rec.counters["qcoeff.gauss_binomial.reused"] += 1
        else:
            rec.tables_seen.add(key)
    return after


def _after_decode(rec: Recorder):
    def after(args, result, exc):
        if exc is not None:
            rec.counters["bijection.decode.failed"] += 1
    return after


def _after_enumerate(rec: Recorder):
    def after(args, result, exc):
        if exc is None:
            rec.counters["partitions.enumerate_schur.partitions"] += sum(
                len(v) for v in result.values())
    return after


def _after_certify(rec: Recorder):
    def after(args, result, exc):
        if exc is None:
            rec.counters["bijection.certify_range.partitions"] += \
                result.get("partitions") or 0
    return after


def _public_functions(module) -> dict[str, object]:
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or name in UNWRAPPED:
            continue
        target = getattr(obj, "__wrapped__", obj)  # lru_cache objects
        if not inspect.isfunction(target) or target.__module__ != module.__name__:
            continue
        if inspect.isgeneratorfunction(target):
            continue  # its work is timed by the caller that iterates it
        found[name] = obj
    return found


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions, and QPoly's multiply, add,
    subtract (recorded as add) and truncate."""
    import qschur
    from qschur import cli, qpoly
    modules = {layer: sys.modules["qschur." + layer] for layer in LAYERS}
    afters = {
        "qcoeff.gauss_binomial": _after_gauss(rec),
        "partitions.enumerate_schur": _after_enumerate(rec),
        "bijection.decode": _after_decode(rec),
        "bijection.certify_range": _after_certify(rec),
    }
    replace: dict[int, object] = {}
    for layer, module in modules.items():
        if layer == "qpoly":
            continue
        funcs = _public_functions(module)
        if layer == "cli":
            funcs.update({n: getattr(cli, n) for n in CLI_BOUNDARIES})
        for name, fn in funcs.items():
            span = "%s.%s" % (layer, name)
            replace[id(fn)] = _wrap(rec, span, fn, afters.get(span))

    for module in [qschur, *modules.values()]:
        for name, obj in list(vars(module).items()):
            if id(obj) in replace:
                setattr(module, name, replace[id(obj)])

    QPoly = qpoly.QPoly
    mul = _wrap_mul(rec, QPoly.__mul__)
    QPoly.__mul__ = QPoly.__rmul__ = mul
    QPoly.__add__ = _wrap(rec, "qpoly.add", QPoly.__add__)
    QPoly.__sub__ = _wrap(rec, "qpoly.add", QPoly.__sub__)
    QPoly.truncate = _wrap(rec, "qpoly.truncate", QPoly.truncate,
                           _after_truncate(rec))


def write_at_exit_of_forked_workers(rec: Recorder) -> None:
    """Make every multiprocessing child forked from here start with an
    empty recorder and write its spans when it exits."""
    from multiprocessing import util

    def in_child(r: Recorder) -> None:
        r.reset()
        util.Finalize(r, r.dump, exitpriority=10)

    util.register_after_fork(rec, in_child)


# ---------------------------------------------------------------------------
# reading spans back

def load(out_dir: str, run_id: str) -> list[dict]:
    """Every process file of one traced pass."""
    procs = []
    prefix = "spans-%s-" % run_id
    for fname in sorted(os.listdir(out_dir)):
        if not fname.startswith(prefix):
            continue
        with open(os.path.join(out_dir, fname), "rb") as fh:
            header = json.loads(fh.readline())
            arrays = []
            for _ in range(4):
                arr = array("q")
                arr.frombytes(fh.read(8 * header["count"]))
                arrays.append(arr)
        header["name_ids"], header["starts"], header["ends"], header["parents"] = arrays
        procs.append(header)
    return procs


def span_totals(names, name_ids, starts, ends, parents) -> dict[str, dict]:
    """Per span name: calls, self time and longest span, in ns.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest, so children never overlap.
    """
    child = [0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, dict] = {}
    for i, nid in enumerate(name_ids):
        dur = ends[i] - starts[i]
        t = out.setdefault(names[nid], {"calls": 0, "self_ns": 0, "max_ns": 0})
        t["calls"] += 1
        t["self_ns"] += dur - child[i]
        t["max_ns"] = max(t["max_ns"], dur)
    return out


def merge(procs: list[dict]) -> tuple[dict[str, dict], dict[str, int]]:
    """Span totals and counters summed over processes (maxima for max_*)."""
    totals: dict[str, dict] = {}
    counters: dict[str, int] = defaultdict(int)
    for pr in procs:
        part = span_totals(pr["names"], pr["name_ids"], pr["starts"],
                           pr["ends"], pr["parents"])
        for name, t in part.items():
            acc = totals.setdefault(name, {"calls": 0, "self_ns": 0, "max_ns": 0})
            acc["calls"] += t["calls"]
            acc["self_ns"] += t["self_ns"]
            acc["max_ns"] = max(acc["max_ns"], t["max_ns"])
        for key, value in pr["counters"].items():
            if key.endswith("max_coeff_bits"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    return totals, counters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, dict], counters: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, by name (times in s)."""
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(totals.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    m: dict[str, float] = {}
    for c in ("single", "small", "large"):
        m["qpoly.mul_%s.calls" % c] = calls("qpoly.mul_" + c)
        m["qpoly.mul_%s.self_s" % c] = self_s("qpoly.mul_" + c)
    for key in ("pairs", "terms_out", "max_coeff_bits"):
        m["qpoly.mul." + key] = counters.get("qpoly.mul." + key, 0)
    m["qpoly.truncate.kept_ratio"] = _ratio(
        counters.get("qpoly.truncate.terms_kept", 0),
        counters.get("qpoly.truncate.terms_in", 0))
    m["qpoly.add.calls"] = calls("qpoly.add")
    m["qpoly.add.self_s"] = self_s("qpoly.add")

    m["qcoeff.gauss_binomial.calls"] = calls("qcoeff.gauss_binomial")
    m["qcoeff.gauss_binomial.self_s"] = self_s("qcoeff.gauss_binomial")
    m["qcoeff.gauss_binomial.reuse_ratio"] = _ratio(
        counters.get("qcoeff.gauss_binomial.reused", 0),
        calls("qcoeff.gauss_binomial"))
    m["qcoeff.pochhammer_finite.calls"] = calls("qcoeff.pochhammer_finite")
    m["qcoeff.pochhammer_finite.self_s"] = self_s("qcoeff.pochhammer_finite")
    m["qcoeff.round_trinomial.self_s"] = self_s("qcoeff.round_trinomial")
    m["qcoeff.t0_trinomial.self_s"] = self_s("qcoeff.t0_trinomial_nonneg",
                                             "qcoeff.t0_trinomial_truncated")
    m["qcoeff.series_reciprocal_truncated.calls"] = \
        calls("qcoeff.series_reciprocal_truncated")
    m["qcoeff.series_reciprocal_truncated.self_s"] = \
        self_s("qcoeff.series_reciprocal_truncated")

    for b in BUILDERS:
        m["schur_sums.%s.calls" % b] = calls("schur_sums." + b)
        m["schur_sums.%s.self_s" % b] = self_s("schur_sums." + b)
    m["schur_sums.verify.self_s"] = self_s("schur_sums.verify")

    m["partitions.enumerate_schur.calls"] = calls("partitions.enumerate_schur")
    m["partitions.enumerate_schur.self_s"] = self_s("partitions.enumerate_schur")
    m["partitions.enumerate_schur.partitions"] = counters.get(
        "partitions.enumerate_schur.partitions", 0)
    m["partitions.enumerate_distinct_pm1_mod3.self_s"] = \
        self_s("partitions.enumerate_distinct_pm1_mod3")
    m["partitions.schur_gf_oracle.self_s"] = self_s("partitions.schur_gf_oracle")

    m["bijection.apply_motions.calls"] = calls("bijection.apply_motions")
    m["bijection.apply_motions.self_s"] = self_s("bijection.apply_motions")
    m["bijection.decode.calls"] = calls("bijection.decode")
    m["bijection.decode.self_s"] = self_s("bijection.decode")
    m["bijection.decode.fail_ratio"] = _ratio(
        counters.get("bijection.decode.failed", 0), calls("bijection.decode"))
    m["bijection.certify_range.self_s"] = self_s("bijection.certify_range")
    m["bijection.certify_range.partitions"] = counters.get(
        "bijection.certify_range.partitions", 0)

    m["cli.rows"] = calls("cli._execute_row")
    m["cli.row_max_s"] = totals.get("cli._execute_row", {}).get("max_ns", 0) / 1e9
    m["cli.self_s"] = self_s(*[n for n in totals
                               if n.startswith("cli.") and n != "cli._run_rows"])
    m["cli.pool.wait_s"] = self_s("cli._run_rows")
    return m
