"""qschur benchmark: end-to-end metrics from untraced passes, per-layer
metrics from a traced one.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass is a fresh interpreter
(perfbench/worker.py) that imports qschur from `src/`, so set-up, wall
time, CPU and memory are what a user of one `qschur` invocation sees.

--trace 0 runs passes back to back while at least half of the next one
fits in --seconds, and reports the medians of the end-to-end metrics.
--trace 1 runs one untraced pass and one traced pass, checks that both
give the same outputs, and reports the per-layer metrics.

Every pass checks its verdicts; a wrong verdict makes the run fail (exit
1, "correct": false) instead of producing a time.  The last line of
standard output is the JSON result; the lines before it, and
perfbench/out/<workload>-seed<N>-trace<T>.json, hold the machine record
and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("report", "report-jobs2", "series", "oracle")
SETUP_SAMPLES = 9        # extra set-up-only passes per run
PASS_TIMEOUT_S = 150     # a pass that takes longer is killed and fails the run
REFERENCE_REPEATS = 5


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(samples: list[float], beyond: int = 10):
    """The highest whole percentile with at least `beyond` samples above
    it, by the nearest-rank rule: (percentile, value, samples above), or
    None when there are too few samples for even the median."""
    n = len(samples)
    if n <= beyond:
        return None
    xs = sorted(samples)
    p = (100 * (n - beyond)) // n
    if p < 50:
        return None
    rank = -(-p * n // 100)  # ceil(p * n / 100)
    return p, xs[rank - 1], n - rank


def percentile(samples: list[float], p: int) -> float:
    xs = sorted(samples)
    return xs[max(0, -(-p * len(xs) // 100) - 1)]


# ---------------------------------------------------------------------------
# machine record

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def git_sha() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if head.startswith("ref: "):
        ref = _read(os.path.join(ROOT, ".git", head[5:]))
        return ref.strip() if ref else None
    return head


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def reference_loop() -> dict:
    """Spread of a fixed pure-Python loop, to tell machine drift from a
    regression."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t = time.monotonic()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.monotonic() - t)
    med = statistics.median(times)
    return {"median_s": med, "min_s": min(times), "max_s": max(times),
            "spread": (max(times) - min(times)) / med}


# ---------------------------------------------------------------------------
# passes

class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, mode: str, run_id: str) -> dict:
    """One fresh-interpreter pass; adds set-up, wall, CPU and peak RSS."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           workload, str(seed), mode, run_id]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    timer = threading.Timer(PASS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise PassFailed("%s pass of %s exited %d" % (mode, workload, proc.returncode))
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - spawned
    if mode != "setup":
        res["wall_s"] = res["end"] - res["ready"]
        res["cpu_s"] = usage.ru_utime + usage.ru_stime - res["cpu_ready"]
        res["peak_rss_mb"] = usage.ru_maxrss / 1024  # KiB on Linux
    return res


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(workload: str, plain: dict, traced: dict, run_id: str) -> tuple[dict, list[str]]:
    procs = spans.load(OUT_DIR, run_id)
    totals, counters = spans.merge(procs)
    m = spans.layer_metrics(totals, counters)
    problems = []
    if plain["digest"] != traced["digest"]:
        problems.append("traced outputs differ from untraced outputs")
    if workload.startswith("report"):
        m["cli.pool.efficiency"] = plain["cpu_s"] / (plain["jobs"] * plain["wall_s"])
        if m["cli.rows"] != len(traced["ops"]):
            problems.append("trace saw %d rows of %d" % (m["cli.rows"], len(traced["ops"])))
    else:
        m["cli.pool.efficiency"] = 0.0
    m["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return m, problems


def outcomes(p: dict) -> list[tuple[str, bool]]:
    return [(op[0], op[2]) for op in p["ops"]]


def summary_lines(passes: list[dict], setups: list[float],
                  metrics: dict, record: dict) -> list[str]:
    ops = passes[0]["ops"]
    failed = sum(1 for op in ops if not op[2])
    lat = [op[1] * 1000 for p in passes for op in p["ops"] if op[1] is not None]
    lines = ["machine: nproc=%d cpu=%r python=%s sha=%s loadavg before=%s after=%s" % (
        record["nproc"], record["cpu_model"], record["python"], record["git_sha"],
        record["loadavg_before"], record["loadavg_after"])]
    for when in ("before", "after"):
        ref = record["reference_" + when]
        lines.append("reference loop %s: median %.4f s, range %.4f-%.4f s (spread %.0f%%)" % (
            when, ref["median_s"], ref["min_s"], ref["max_s"], 100 * ref["spread"]))
    counts = {"setup_s": len(setups)}
    for name, (value, unit) in metrics.items():
        lines.append("%s %.6g %s (median of %d)" % (name, value, unit, counts.get(name, len(passes))))
    lines.append("fail_ratio %d/%d = %.4f" % (failed, len(ops), failed / len(ops)))
    if lat:
        lines.append("op_p50_ms %.4g ms (n=%d)" % (percentile(lat, 50), len(lat)))
        tail = tail_percentile(lat)
        if len(lat) >= 200:
            lines.append("op_p95_ms %.4g ms (n=%d)" % (percentile(lat, 95), len(lat)))
        if tail:
            lines.append("op_p%d_ms %.4g ms (%d samples beyond, n=%d)" % (
                tail[0], tail[1], tail[2], len(lat)))
    else:
        lines.append("op_p50_ms, op_p95_ms: n/a (operations are not timed one by one)")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qschur", "__init__.py")):
        print("perfbench: no qschur sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "nproc": os.cpu_count(),
              "cpu_model": cpu_model(), "python": platform.python_version(),
              "git_sha": git_sha(), "loadavg_before": loadavg(),
              "reference_before": reference_loop()}
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    passes: list[dict] = []
    setups: list[float] = []
    gates: list[str] = []
    try:
        run_pass(args.workload, args.seed, "setup", tag)  # fills bytecode caches
        setups += [run_pass(args.workload, args.seed, "setup", tag)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        while True:
            p = run_pass(args.workload, args.seed, "plain", tag)
            passes.append(p)
            gates += p["gates"]
            # another pass if at least half of it fits in the time left
            elapsed = time.monotonic() - start
            if gates or args.trace or elapsed + (p["setup_s"] + p["wall_s"]) / 2 > args.seconds:
                break
        setups += [p["setup_s"] for p in passes]
        if args.trace and not gates:
            # keep the spans of the latest traced run of each workload only
            for old in os.listdir(OUT_DIR):
                if old.startswith("spans-%s-seed" % args.workload):
                    os.remove(os.path.join(OUT_DIR, old))
            traced = run_pass(args.workload, args.seed, "traced", tag)
            gates += traced["gates"]
            layer, problems = per_layer(args.workload, passes[0], traced, tag)
            gates += problems
            passes.append(traced)
    except PassFailed as exc:
        gates.append(str(exc))

    # every pass runs the same seeded operations, so their outcomes must
    # agree; the result counts them once
    if any(outcomes(p) != outcomes(passes[0]) for p in passes[1:]):
        gates.append("passes of the same inputs disagree on which operations failed")
    record["loadavg_after"] = loadavg()
    record["reference_after"] = reference_loop()
    ops = passes[0]["ops"] if passes else []
    result = {"correct": not gates, "attempted": max(1, len(ops)),
              "failed": sum(1 for op in ops if not op[2]), "metrics": {}}
    if not gates:
        if args.trace:
            result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)}
                                 for k, v in layer.items()}
            plain = passes[:-1]
        else:
            e2e = end_to_end(passes, setups)
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            plain = passes
        for line in summary_lines(plain, setups,
                                  end_to_end(plain, setups), record):
            print(line)
    for g in gates:
        print("GATE FAILED: %s" % g)

    record.update(result=result, gates=gates, setups=setups,
                  passes=[{k: v for k, v in p.items() if k != "ops"} for p in passes],
                  op_samples=[op for p in passes for op in p.get("ops", [])])
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if not gates else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "efficiency")):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
