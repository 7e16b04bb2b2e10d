"""Coefficient-level checks of the partition-product / binomial /
trinomial kit."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur import qcoeff
from qschur.qcoeff import _gauss_coeffs, _parts_series, gauss_binomial, t_trinomial
from qschur.qpoly import QPoly
from reference import naive_trinomial, round_trinomial, substitute


def naive_parts_series(T, once=(), free=(), start=None):
    # Reference: start (default 1) times a QPoly factor 1 + q^p for each
    # part p of once and a geometric series 1 + q^p + ... + q^(p floor(T/p))
    # for each part of free, the product cut to q^T
    total = QPoly.one() if start is None else start
    for p in once:
        total = (total * (QPoly.one() + QPoly.monomial(1, 2 * p))).truncate(T)
    for p in free:
        geometric = QPoly.from_q_coeffs({p * i: 1 for i in range(T // p + 1)})
        total = (total * geometric).truncate(T)
    return total.truncate(T)


def dense(p, T):
    # p on q^0..q^T as a list, zero where it has no term
    return [p.coefficient(2 * n) for n in range(T + 1)]


parts = st.lists(st.integers(1, 40), max_size=8)


@given(st.integers(0, 30), parts, parts)
@example(0, [], [])                   # T = 0, no parts
@example(12, [], [])                  # no parts: 1
@example(12, [2, 2, 5], [3, 3, 4])    # a part listed twice, each way
@example(6, [7, 40], [9])             # parts above T change nothing
@example(9, [1, 2, 3, 4], [])         # distinct parts
@settings(max_examples=200, deadline=None)
def test_parts_series_matches_the_naive_product(T, once, free):
    got = _parts_series(T, once, free)
    assert len(got) == T + 1
    assert got == dense(naive_parts_series(T, once, free), T)


@given(st.integers(0, 20), st.lists(st.integers(-9, 9), max_size=25),
       parts, parts)
@example(0, [], [1], [1])             # an empty start is the zero series
@example(3, [1, 2, 3, 4, 5, 6], [], [])  # a longer start is cut to T
@settings(max_examples=100, deadline=None)
def test_parts_series_multiplies_its_start(T, start, once, free):
    # a signed start table is multiplied as it is, cut or padded to T
    poly = QPoly.from_table(start)
    assert (_parts_series(T, once, free, start=start)
            == dense(naive_parts_series(T, once, free, poly.truncate(T)), T))


def test_parts_series_rejects_a_negative_window():
    with pytest.raises(ValueError, match="T must be >= 0"):
        _parts_series(-1, [1], [2])


def reference_gauss_coeffs(top, bottom):
    # Reference: the dense table of [top, bottom] from scratch, by
    # alternating one multiplication by (1 - q^m) with one exact synthetic
    # division, O(bottom * degree), every intermediate value an integer
    k = min(bottom, top - bottom)
    c = [1]
    for i in range(1, k + 1):
        m = top - k + i
        c2 = c + [0] * m
        for j in range(len(c)):
            c2[j + m] -= c[j]
        r = [0] * (len(c2) - i)
        for j in range(len(r)):
            r[j] = c2[j] + (r[j - i] if j >= i else 0)
        c = r
    return tuple(c)


def test_gauss_tables_match_the_reference_and_share_their_halves():
    # every bottom of every top to 60, 0, top and the bottoms past top/2
    # included: one tuple per unordered bottom, whose upper half holds the
    # lower half's int objects in mirror order
    for top in range(61):
        for bottom in range(top + 1):
            table = _gauss_coeffs(top, bottom)
            assert table == reference_gauss_coeffs(top, bottom), (top, bottom)
            assert table is _gauss_coeffs(top, top - bottom)
            assert all(table[i] is table[-1 - i] for i in range(len(table)))


def test_gauss_tables_refuse_a_bottom_out_of_range():
    for top, bottom in ((5, -1), (3, 4)):
        with pytest.raises(ValueError, match="needs 0 <= bottom <= top"):
            _gauss_coeffs(top, bottom)


def test_gauss_table_build_does_not_recurse():
    # a bottom deeper than the recursion limit builds: each table is one
    # loop step from the one below it, at no growing call depth
    script = ("import math, sys\n"
              "from qschur.qcoeff import _gauss_coeffs\n"
              "sys.setrecursionlimit(60)\n"
              "table = _gauss_coeffs(160, 80)\n"
              "print(len(table), sum(table) == math.comb(160, 80))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcoeff.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(80 * 80 + 1), "True"]


def test_gauss_binomial_edges():
    assert not gauss_binomial(5, -1)
    assert not gauss_binomial(3, 4)
    assert gauss_binomial(4, 0) == QPoly.one()
    assert gauss_binomial(4, 4) == QPoly.one()
    # [4 2] = 1 + q + 2q^2 + q^3 + q^4
    assert gauss_binomial(4, 2) == QPoly.from_q_coeffs(
        {0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


@given(st.integers(0, 12), st.integers(0, 12))
def test_gauss_binomial_symmetry(top, bottom):
    assert gauss_binomial(top, bottom) == gauss_binomial(top, top - bottom)


@given(st.integers(1, 12), st.integers(0, 12))
def test_gauss_binomial_pascal(top, bottom):
    # [n k] = [n-1 k] + q^(n-k) [n-1 k-1]
    lhs = gauss_binomial(top, bottom)
    rhs = gauss_binomial(top - 1, bottom) + \
        gauss_binomial(top - 1, bottom - 1).shift(2 * (top - bottom))
    assert lhs == rhs


@given(st.integers(0, 14), st.integers(0, 14))
def test_gauss_binomial_counts_at_one(top, bottom):
    expect = math.comb(top, bottom) if 0 <= bottom <= top else 0
    assert sum(v for _, v in gauss_binomial(top, bottom).items()) == expect


@given(st.integers(0, 10), st.integers(0, 10), st.integers(2, 6))
def test_gauss_binomial_modulus_stretches(top, bottom, mod):
    assert gauss_binomial(top, bottom, mod) == \
        substitute(gauss_binomial(top, bottom), mod)


def test_gauss_binomial_coefficients_unimodal():
    for top in range(2, 14):
        for bottom in range(1, top):
            p = gauss_binomial(top, bottom)
            deg = bottom * (top - bottom)
            seq = [p.coefficient(2 * i) for i in range(deg + 1)]
            rising = seq[: deg // 2 + 1]
            assert all(x <= y for x, y in zip(rising, rising[1:]))
            assert seq == seq[::-1]


def round_walk(m, b, a, mod=1):
    # the library's k-walk at the round family's exponents q^(mod k(k+b)),
    # the lead that schur_sums._round_walk gives each j
    return qcoeff._trinomial_sum(m, [a], mod, lambda j, ks: [
        2 * mod * k * (k + b) for k in ks])


@given(st.integers(0, 9), st.integers(-3, 3), st.integers(-4, 4))
def test_round_trinomial_multinomial_at_one(m, b, a):
    # at q=1 the round family collapses to the central-column trinomial
    # coefficients of (1+x+x^2)^m
    coeffs = [1]
    for _ in range(m):
        nxt = [0] * (len(coeffs) + 2)
        for i, v in enumerate(coeffs):
            nxt[i] += v
            nxt[i + 1] += v
            nxt[i + 2] += v
        coeffs = nxt
    want = coeffs[m + a] if 0 <= m + a < len(coeffs) else 0
    assert sum(v for _, v in round_walk(m, b, a).items()) == want


def test_round_trinomial_negative_m_is_zero():
    assert not round_walk(-1, 0, 0)
    assert not round_walk(-3, 2, 1)


@pytest.mark.parametrize("build", [
    lambda: round_walk(3, 0, 0, -1), lambda: t_trinomial(0, 3, 1, 0),
    lambda: gauss_binomial(3, 1, 0)], ids=["round", "t", "gauss"])
def test_binomials_and_trinomials_reject_a_modulus_below_one(build):
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        build()


@given(st.integers(0, 8), st.integers(-4, 4))
def test_round_trinomial_symmetric_in_a(m, a):
    # with b = a the weight q^(k(k+a)) pairs with the reversed sum at -a
    assert round_walk(m, a, a) == round_walk(m, -a, -a)


def t_by_reversal(n_sub, m, a, mod=1):
    # Reference: the T_n family as defined, the b = a-n round trinomial at
    # q -> 1/q times q^(mod(m(m-n)-a(a-n))/2)
    pre = mod * (m * (m - n_sub) - a * (a - n_sub))
    return substitute(round_trinomial(m, a - n_sub, a, mod), -1).shift(pre)


@given(st.integers(-6, 6), st.integers(-1, 8), st.integers(-4, 4),
       st.integers(1, 3))
def test_t_trinomial_definition(n_sub, m, a, mod):
    assert t_trinomial(n_sub, m, a, mod) == t_by_reversal(n_sub, m, a, mod)


@given(st.integers(0, 9), st.integers(-4, 4), st.integers(1, 3))
def test_t0_nonneg_matches_defining_form(m, a, mod):
    # T0(m; q^mod choose a) rewritten with all exponents >= 0,
    # sum_k q^(mod(m-a-2k)^2/2) [m,k] [m-k,k+a], the form the T0 half sums
    # of schur_sums are built on, as schoolbook products
    nonneg = naive_trinomial(m, [a], mod, lambda j, k: mod * (m - a - 2 * k) ** 2)
    assert nonneg == t_by_reversal(0, m, a, mod) == t_trinomial(0, m, a, mod)


@given(st.integers(0, 9), st.integers(-4, 4))
def test_t0_nonneg_has_no_negative_exponents(m, a):
    p = t_trinomial(0, m, a)
    lo = p.min_half_exponent()
    assert lo is None or lo >= 0


@pytest.mark.parametrize("mod", [1, 2, 3])
def test_round_trinomial_matches_naive_walk(mod):
    for m in range(-1, 10):
        for a in range(-4, 5):
            for b in range(-3, 4):
                assert (round_walk(m, b, a, mod)
                        == round_trinomial(m, b, a, mod)), (m, a, b)
