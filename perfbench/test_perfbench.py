"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last three run real passes (about a minute in all): the isolation
claims of the traced workloads, the fault-injection gate, and the refusal
to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SEED = 7


def bench(workload: str, trace: int, env: dict | None = None, cwd: str = ROOT):
    """Run the benchmark script; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=dict(os.environ, **(env or {})), capture_output=True,
        text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(1, 201))), (95, 190, 10))
        self.assertEqual(run.tail_percentile(list(range(1, 31))), (66, 20, 10))
        # p99.5 would leave exactly ten, but only whole percentiles count
        self.assertEqual(run.tail_percentile(list(range(1, 2001))), (99, 1980, 20))

    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        self.assertIsNone(run.tail_percentile(list(range(19))))  # would be p47


class SelfTime(unittest.TestCase):
    # a[0,100] > b[10,40] > c[15,25];  a > b[50,90] > a[60,70]
    NAMES = ["a", "b", "c"]
    TREE = [(0, 0, 100, -1), (1, 10, 40, 0), (2, 15, 25, 1),
            (1, 50, 90, 0), (0, 60, 70, 3)]

    def columns(self):
        return [list(col) for col in zip(*self.TREE)]

    def test_self_time_subtracts_direct_children(self):
        totals = spans.span_totals(self.NAMES, *self.columns())
        self.assertEqual(totals["a"], {"calls": 2, "self_ns": 30 + 10, "max_ns": 100})
        self.assertEqual(totals["b"], {"calls": 2, "self_ns": 20 + 30, "max_ns": 40})
        self.assertEqual(totals["c"], {"calls": 1, "self_ns": 10, "max_ns": 10})
        whole = sum(t["self_ns"] for t in totals.values())
        self.assertEqual(whole, 100)  # self times tile the root span

    def test_processes_merge(self):
        ids, starts, ends, parents = self.columns()
        proc = {"names": self.NAMES, "name_ids": ids, "starts": starts,
                "ends": ends, "parents": parents,
                "counters": {"qpoly.mul.pairs": 5, "qpoly.mul.max_coeff_bits": 9}}
        other = dict(proc, counters={"qpoly.mul.pairs": 1, "qpoly.mul.max_coeff_bits": 4})
        totals, counters = spans.merge([proc, other])
        self.assertEqual(totals["a"]["self_ns"], 80)
        self.assertEqual(counters, {"qpoly.mul.pairs": 6, "qpoly.mul.max_coeff_bits": 9})


class MulShapes(unittest.TestCase):
    def test_class_follows_operand_shape(self):
        self.assertEqual(spans.mul_class(1, 500), "single")
        self.assertEqual(spans.mul_class(500, 1), "single")
        self.assertEqual(spans.mul_class(40, 50), "small")
        self.assertEqual(spans.mul_class(32, 64), "small")   # 2048 pairs
        self.assertEqual(spans.mul_class(33, 64), "large")
        self.assertEqual(spans.mul_class(0, 9), "small")

    def test_installed_wrappers_reach_names_imported_elsewhere(self):
        code = """if True:
            import sys; sys.path[:0] = [%r, %r]
            import spans
            rec = spans.Recorder("t", ".")
            spans.install(rec)
            import qschur
            from qschur import cli, qcoeff, schur_sums, QPoly
            assert schur_sums.gauss_binomial is qcoeff.gauss_binomial is qschur.gauss_binomial
            assert cli.verify is schur_sums.verify is qschur.verify
            assert "__wrapped__" in vars(cli.verify)
            a = QPoly.from_q_coeffs({i: 1 for i in range(40)})
            b = QPoly.from_q_coeffs({i: 1 for i in range(60)})
            a * QPoly.one(); a * a; a * b; 3 * a
            qcoeff.gauss_binomial(6, 3); schur_sums.lhs_schur(2)
            totals = spans.span_totals(rec.names, rec.name_ids, rec.starts,
                                       rec.ends, rec.parents)
            print(totals["qpoly.mul_single"]["calls"] >= 2,
                  totals["qpoly.mul_small"]["calls"] >= 1,
                  totals["qpoly.mul_large"]["calls"] >= 1,
                  totals["qcoeff.gauss_binomial"]["calls"] >= 2)
        """ % (HERE, os.path.join(ROOT, "src"))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, cwd=ROOT)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertEqual(out.stdout.split(), ["True"] * 4)


class Sampler(unittest.TestCase):
    def test_samples_are_admissible_seeded_and_sized(self):
        from random import Random
        a = worker.sample_partitions(Random(3), 200, (200, 900))
        self.assertEqual(a, worker.sample_partitions(Random(3), 200, (200, 900)))
        for parts in a:
            self.assertTrue(200 <= sum(parts) <= 900)
            for lo, hi in zip(parts, parts[1:]):
                self.assertGreaterEqual(hi - lo, 6 if lo % 3 == hi % 3 == 0 else 3)


class TracedIsolation(unittest.TestCase):
    def traced(self, workload):
        code, lines = bench(workload, trace=1)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.result = result
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_oracle_makes_no_polynomial_products(self):
        m = self.traced("oracle")
        # counts, certify, then one decode per sample, counted once per run
        self.assertEqual(self.result["attempted"], 2 + worker.DECODE_SAMPLES)
        for c in ("single", "small", "large"):
            self.assertEqual(m["qpoly.mul_%s.calls" % c], 0)
        self.assertGreater(m["bijection.decode.calls"], worker.DECODE_SAMPLES)

    def test_series_walks_no_triple_sum(self):
        m = self.traced("series")
        self.assertEqual(m["schur_sums.lhs_schur.calls"], 0)
        self.assertEqual(m["schur_sums.qt_limit_sum.calls"], 2)


class Gates(unittest.TestCase):
    def test_fault_injection_fails_the_report_run(self):
        code, lines = bench("report", trace=0, env={"QSCHUR_FAULT_INJECT": "1"})
        self.assertNotEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})
        self.assertTrue(any(line.startswith("GATE FAILED") for line in lines))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            code, lines = bench("series", trace=0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
