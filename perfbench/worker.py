"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE RUN_ID

MODE is `setup` (stop as soon as the inputs are ready), `plain`, or
`traced` (wrap the layers first, see spans.py).  The pass imports qschur
from the checkout's `src/`, builds its inputs from SEED, notes the ready
time, runs every operation, checks every verdict, and prints one JSON line:
monotonic timestamps, CPU time at ready, per-operation outcomes, the gate
failures, and a digest of the outputs so that two passes can be compared.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import resource
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# sha256 of `qschur report --format json` with the started_at line removed,
# frozen at the commit that introduced this benchmark: the byte-stable gate.
REPORT_DIGEST = "8d9102293b747248d60ab8dae3c434dbf636855cdb60599dd46b96b12ded8f9e"
REPORT_ROWS = 216
_STARTED_AT = re.compile(rb'^  "started_at": "[^"\n]*",\n', re.M)

# series: the limit sums at a window drawn from a narrow band around 100 and
# the bivariate series around 240, so a change cannot key on one window
# while the work per seed stays within a few percent.
LIMIT_T = (99, 101)
GF_T = (238, 242)

# oracle: brute-force counts, one certification sweep, and decode round
# trips on seeded admissible partitions.
COUNT_TO = 100
CERTIFY_TO = 56
DECODE_SAMPLES = 2000
DECODE_SIZES = (200, 900)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_stable_bytes(rendered: bytes) -> bytes:
    """The report document without its started_at line."""
    return _STARTED_AT.sub(b"", rendered, count=1)


def admissible_after(prev: int, step: int) -> int:
    """The next part above prev at distance step, pushed up where the gap
    rule needs it: distance >= 3, and >= 6 between two multiples of 3."""
    nxt = prev + max(step, 3)
    if nxt % 3 == 0 and prev % 3 == 0 and nxt - prev < 6:
        nxt += 3
    return nxt


def sample_partitions(rng: random.Random, count: int,
                      sizes: tuple[int, int]) -> list[tuple[int, ...]]:
    """Random gap-admissible partitions with sizes in the given range.

    Parts climb by small random steps (3..8), which gives 10-20 parts and
    exercises the crossing rules.  Only the size is resampled; whether a
    partition decodes plays no part in drawing it.
    """
    lo, hi = sizes
    out = []
    while len(out) < count:
        target = rng.randint(lo, hi)
        parts: list[int] = []
        part, total = rng.randint(1, 6), 0
        while total + part <= target:
            parts.append(part)
            total += part
            part = admissible_after(part, rng.randint(3, 8))
        if total >= lo:
            out.append(tuple(parts))
    return out


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload in ("report", "report-jobs2"):
        jobs = 2 if workload == "report-jobs2" else 1
        return {"argv": ["report", "--format", "json", "--jobs", str(jobs)],
                "jobs": jobs}
    if workload == "series":
        T = rng.randint(*LIMIT_T)
        W = rng.randint(*GF_T)
        return {"calls": [
            ["qt-limit", {"t": 1, "T": T}], ["qt-limit", {"t": 2, "T": T}],
            ["t0-limit", {"N": T, "T": T}],
            ["gf-ali-eq-kursungoz", {"T": W}], ["gf-even-odd-split", {"T": W}],
            ["analytic-schur", {"T": W}]], "jobs": 1}
    if workload == "oracle":
        return {"partitions": sample_partitions(rng, DECODE_SAMPLES, DECODE_SIZES),
                "jobs": 1}
    raise SystemExit("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# workloads: each returns (operations, gate failures, output digest); an
# operation is [label, seconds or None, ok]

def run_report(inputs: dict):
    from qschur import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(inputs["argv"])
    rendered = buf.getvalue().encode()
    doc = json.loads(rendered)
    ops = [[e["identity"], None, e["status"] == "verified"] for e in doc["entries"]]
    gates = []
    if rc != 0:
        gates.append("report exited %d" % rc)
    if doc["summary"] != {"verified": REPORT_ROWS, "failed": 0}:
        gates.append("report summary %s" % doc["summary"])
    stable = digest(report_stable_bytes(rendered))
    if stable != REPORT_DIGEST:
        gates.append("report output digest %s differs from the frozen one" % stable)
    return ops, gates, stable


def run_series(inputs: dict):
    from qschur import verify
    ops, gates, verdicts = [], [], []
    for identity, params in inputs["calls"]:
        t = time.monotonic()
        report = verify(identity, params).as_dict()
        ops.append([identity, time.monotonic() - t, report["status"] == "verified"])
        verdicts.append(report)
        if report["status"] != "verified":
            gates.append("%s %s: %s" % (identity, params, report["status"]))
    return ops, gates, digest(json.dumps(verdicts, sort_keys=True).encode())


def run_oracle(inputs: dict):
    from qschur import (DecodeError, MotionRuleError, apply_motions,
                        certify_range, decode, distinct_pm1_counts,
                        schur_counts)
    ops, gates, outputs = [], [], []

    t = time.monotonic()
    gap, pm1 = schur_counts(COUNT_TO), distinct_pm1_counts(COUNT_TO)
    ops.append(["counts", time.monotonic() - t, gap == pm1])
    if gap != pm1:
        gates.append("partition counts to %d disagree" % COUNT_TO)
    outputs.append(gap)

    t = time.monotonic()
    summary = certify_range(CERTIFY_TO)
    ops.append(["certify", time.monotonic() - t, summary["status"] == "verified"])
    if summary["status"] != "verified":
        gates.append("certify_range(%d): %s" % (CERTIFY_TO, summary["failure"]))
    outputs.append(summary)

    for parts in inputs["partitions"]:
        t = time.monotonic()
        try:
            data = decode(parts)
        except (DecodeError, MotionRuleError):
            # a known rule gap: counted as a failed operation, not a wrong one
            ops.append(["decode", time.monotonic() - t, False])
            outputs.append(None)
            continue
        back = apply_motions(data)
        ops.append(["decode", time.monotonic() - t, True])
        outputs.append(data.as_dict())
        if back != parts:
            gates.append("decode of %s does not round-trip: %s" % (parts, back))
    return ops, gates, digest(json.dumps(outputs, sort_keys=True).encode())


WORKLOADS = {"report": run_report, "report-jobs2": run_report,
             "series": run_series, "oracle": run_oracle}


def cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, mode, run_id = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qschur
    if not os.path.abspath(qschur.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit("imported qschur from %s, not this checkout" % qschur.__file__)
    recorder = None
    if mode == "traced":
        import spans
        recorder = spans.Recorder(run_id, OUT_DIR)
        spans.install(recorder)
        spans.write_at_exit_of_forked_workers(recorder)
    inputs = make_inputs(workload, seed)
    ready, cpu_ready = time.monotonic(), cpu_self()
    result = {"ready": ready, "cpu_ready": cpu_ready, "jobs": inputs["jobs"]}
    if mode != "setup":
        ops, gates, out_digest = WORKLOADS[workload](inputs)
        result.update(end=time.monotonic(), cpu_end=cpu_self(), ops=ops,
                      gates=gates, digest=out_digest)
        if recorder is not None:
            recorder.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
