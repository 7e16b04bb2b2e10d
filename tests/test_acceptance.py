"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line with its wall time (visible with
pytest -s; the -v test names give the same one-line-per-criterion view).
A failure raises with the offending instance, so the printed line only
ever appears for a clean criterion.
"""

import json
import time

from qschur import schur_sums as ss
from qschur.bijection import certify_range
from qschur.partitions import (
    distinct_pm1_counts,
    schur_counts,
    schur_gf_oracle,
)

# frozen serialized forms of lhs_schur(0..3); compared as bytes
GOLDEN_PAIRS = {
    0: [[0, "1"]],
    1: [[0, "1"], [2, "1"], [4, "1"]],
    2: [[0, "1"], [2, "1"], [4, "1"], [6, "1"], [8, "1"], [10, "2"],
        [12, "1"], [14, "1"]],
    3: [[0, "1"], [2, "1"], [4, "1"], [6, "1"], [8, "1"], [10, "2"],
        [12, "2"], [14, "3"], [16, "3"], [18, "2"], [20, "2"], [22, "2"],
        [24, "2"], [26, "2"], [28, "1"], [30, "1"]],
}


def _report(name: str, started: float, budget: int) -> None:
    elapsed = time.monotonic() - started
    print("criterion %-24s PASS  (%.1fs, budget %ds)" % (name, elapsed, budget))


def test_criterion_01_central_identity():
    started = time.monotonic()
    for N in range(0, 26):
        assert ss.lhs_schur(N) == ss.rhs_schur(N), N
    for N, pairs in GOLDEN_PAIRS.items():
        got = json.dumps(ss.lhs_schur(N).to_pairs())
        assert got == json.dumps(pairs), N
    _report("central-identity", started, 60)


def test_criterion_02_recurrences():
    started = time.monotonic()
    for N in range(2, 26):
        assert not ss.recurrence_residual(ss.IdentityId.REC_ANDREWS, N), N
    for N in range(4, 26):
        assert not ss.recurrence_residual(ss.IdentityId.REC_L, N), N
    for N in range(4, 13):
        for m in range(N + 1):
            for n1 in range(N + 1 - m):
                for n2 in range(N + 1 - m - n1):
                    residual = ss.recurrence_residual(
                        ss.IdentityId.REC_SUMMAND, N, m=m, n1=n1, n2=n2)
                    assert not residual, (N, m, n1, n2)
    _report("recurrences", started, 120)


def test_criterion_03_counting_oracle():
    started = time.monotonic()
    gap = schur_counts(60)
    pm1 = distinct_pm1_counts(60)
    product = ss.schur_product_truncated(60)
    for n in range(61):
        assert gap[n] == pm1[n] == product.coefficient(2 * n), n
    _report("counting-oracle", started, 60)


def test_criterion_04_bounded_series():
    started = time.monotonic()
    for N in range(0, 16):
        assert ss.bounded_gf(N, 45) == schur_gf_oracle(45, largest_part=N), N
    for N in range(1, 11):
        lhs, rhs = ss.cor1_bounded_sum(N)
        assert lhs == rhs, N
    _report("bounded-series", started, 120)


def test_criterion_05_pair_series_equivalences():
    started = time.monotonic()
    T = 60
    ali = ss.ali_gf_truncated(T)
    kur = ss.kursungoz_gf_truncated(T)
    split = ss.even_odd_split_lhs(T)
    assert ali == kur
    assert split == kur
    product = ss.schur_product_truncated(T)
    assert ali.at_x_one() == product
    assert ss.summation_limit_sum(T) == product
    _report("pair-series", started, 120)


def test_criterion_06_dual_and_binomial_forms():
    started = time.monotonic()
    for N in range(0, 21):
        lhs, rhs = ss.dual_sides(N)
        assert lhs == rhs, N
        lhs, rhs = ss.t0_binomial_sides(N)
        assert lhs == rhs, N
    assert ss.t0_half_sum_truncated(40, 40) == ss.t0_limit_product(40)
    _report("dual-and-binomials", started, 60)


def test_criterion_07_parity_split_limits():
    started = time.monotonic()
    product = ss.t0_limit_product(50)
    assert ss.qt_limit_sum(1, 50) == product
    assert ss.qt_limit_sum(2, 50) == product
    _report("parity-split-limits", started, 60)


def test_criterion_08_summation_formulas():
    started = time.monotonic()
    for M in range(0, 13):
        lhs, rhs = ss.summation_formula_sides(M)
        assert lhs == rhs, M
    for L in range(0, 13):
        for a in range(-L, L + 1):
            lhs, rhs = ss.warnaar_sides(L, a)
            assert lhs == rhs, (L, a)
    _report("summation-formulas", started, 60)


def test_criterion_09_numeric_collapses():
    started = time.monotonic()
    for M in range(0, 16):
        assert ss.q1_triple_value(M) == 3 ** M, M
        assert ss.q1_quad_value(M) == 4 ** M, M
    _report("numeric-collapses", started, 10)


def test_criterion_10_motion_certification():
    started = time.monotonic()
    report = certify_range(40)
    assert report["status"] == "verified", report["failure"]
    assert report["partitions"] == sum(schur_counts(40))
    _report("motion-certification", started, 300)


def test_criterion_11_exponent_relation():
    started = time.monotonic()
    for n1 in range(21):
        for n2 in range(21):
            for m in range(21):
                gap = ss.weight_a(2 * n1, 2 * n2, m) - ss.weight_k(n1, n2, m)
                assert gap == 2 * m, (n1, n2, m)
    _report("exponent-relation", started, 1)
