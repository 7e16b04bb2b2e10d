"""Weight functions, side builders for every verified identity, and the
registry-driven verifier.

Layout: quadratic weights first (`weight_a` is re-exported from
`partitions`), then the polynomial side builders (the left/right sides of
each identity as exact `QPoly` or `XSeries` values), then the identity
registry (`IdentityId`, `check_params`, `verify`, `VerificationReport`).

The registry holds every row kind of the verification report, the
composite ones included: brute-force partition counts against the product
side, the bounded-sum corollary, and the bijection sweep.  Each entry
declares its integer parameters (a minimum, and a default or none) and a
runner that returns the (left, right) pairs to compare.  `check_params`
is the one place a request is validated; `verify` compares the pairs
exactly and reports the first discrepancy.

One private walk carries each sum family.  `_triple_sum(N, weight)` is
the triple q-binomial sum over (n1, n2, m); the central left side, the
q -> 1/q dual and both summation formulas differ only in the weight they
pass it, and the q = 1 value is the central left side at q = 1.  Its
(n1, n2) pair slices come from one cached family shared across N and
both weights, `_pair_sum(v, k)` = E_v(k), the sum of
q^(2b) [v+a, a]_{q^6} [v+b, b]_{q^6} over a + b = k: with
a = floor(n1/2), b = floor(n2/2) and s = n1 + n2, the (even, even)
cells of s = 2k are E_v(k) and the (odd, odd) ones E_v(k-1), while the
(even, odd) and (odd, even) cells of s = 2k+1 are E_v(k) twice, one q
apart, each class shifted by its least weight.
`partitions._cells(T, weight)`, shared with the motion sweep, yields the
cells of a three-index series whose weight fits the window; the
chain-indexed, pair-indexed, even/odd and largest-part-bounded series
differ only in the weight and the summand, and `qt_limit_sum` walks
(y, m, n1) on the floor of weight_q, keeps each cell on its exact
weight, and meets 1/(q^6;q^6)_y once per y-slice.  The
trinomial sides sum over j of the one k-walk in `qcoeff`; both T0 half
sums, exact and windowed, share the j-walk `_t0_half_walk`.

Two accumulators sum the terms.  `qpoly._packed_sum` takes products of
dense nonnegative coefficient tables and keeps the sum as big integers:
the triple sum, its pair family, the round-trinomial side (all j and k in
one sum), both T0 half sums, the single-binomial T0 form and the
summation and Warnaar left sides.  `qpoly._add_shifted` adds `QPoly`
values into a dict for the rest: the x-graded series over `_cells` and
the truncated limit sums, whose terms meet reciprocal Pochhammer series.

Summation bounds are always structural: an outer index stops as soon as
the weight alone exceeds the truncation window, an inner index as soon as
a binomial top argument drops below its bottom.  Nothing is truncated
heuristically.

All builders are pure and the expensive ones are memoized, so verify
calls for distinct parameters can run in parallel workers; each worker
process simply warms its own caches.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterable, NamedTuple

from .bijection import certify_range
# weight_a (re-exported) and _cells live in partitions, free of cycles
from .partitions import (_cells, distinct_pm1_counts, schur_counts,
                         schur_gf_oracle, weight_a)
from .qcoeff import (
    MonomialBase,
    _gauss_coeffs,
    _trinomial_terms,
    gauss_binomial,
    pochhammer_finite,
    pochhammer_infinite_truncated,
    series_reciprocal_truncated,
    t_trinomial,
)
from .qpoly import QPoly, XSeries, _add_shifted, _dense, _packed_sum

_ONE_Q_Q2 = QPoly.from_q_coeffs({0: 1, 1: 1, 2: 1})  # 1 + q + q^2


# ---------------------------------------------------------------------------
# quadratic weights

def weight_k(n1: int, n2: int, m: int) -> int:
    """Companion quadratic weight of the pair-indexed series:
    6s^2 + 2m^2 + 6ms - n1 + n2 - m; satisfies weight_a(2n1,2n2,m) -
    weight_k(n1,n2,m) = 2m."""
    s = n1 + n2
    return 6 * s * s + 2 * m * m + 6 * m * s - n1 + n2 - m


def weight_b_half(n1: int, n2: int, m: int, N: int) -> int:
    """Dual-side weight, returned in half-steps of q^(1/2):
    3N^2/2 - (3V-m)m - 6V(floor(n1/2)+floor(n2/2)) with V = N-m-n1-n2."""
    v = N - m - n1 - n2
    if v < 0:
        raise ValueError("weight_b_half needs N - m - n1 - n2 >= 0")
    return 3 * N * N - 2 * (3 * v - m) * m - 12 * v * (n1 // 2 + n2 // 2)


def weight_q(t: int, m: int, n1: int, y: int) -> int:
    """Parity-split limit weight: C(m,2) + y(3y+1)/2 + n1 + 3y*r(m+y+t,2)
    + 6y*r(n1,2)*r(m+y+1+t,2), with r the mod-2 remainder and t in {1,2}
    selecting the parity class of the discarded bound."""
    if t not in (1, 2):
        raise ValueError("t must be 1 or 2")
    return (m * (m - 1) // 2 + y * (3 * y + 1) // 2 + n1
            + 3 * y * ((m + y + t) % 2)
            + 6 * y * (n1 % 2) * ((m + y + 1 + t) % 2))


# ---------------------------------------------------------------------------
# the triple-sum kernel

def _plain_weight(n1: int, n2: int, m: int, N: int) -> int:
    return 2 * weight_a(n1, n2, m)


def _dual_weight(n1: int, n2: int, m: int, N: int) -> int:
    # q^(B-A) of the q -> 1/q image, times q^(N/2)
    return weight_b_half(n1, n2, m, N) - 2 * weight_a(n1, n2, m) + N


def _table(p: QPoly) -> tuple[int, list[int]]:
    # p as (least exponent, dense table on whole q-steps from there)
    c = p._c
    lo = min(c) if c else 0
    dense = _dense(c, lo, max(c), 2) if c else []
    if len(dense) - dense.count(0) != len(c):
        raise ValueError("product term needs whole q-steps")
    return lo, dense


def _product_term(shift: int, a: QPoly, b: QPoly
                  ) -> tuple[int, list[int], list[int]]:
    # q^(shift/2) a b as a `_packed_sum` term on whole q-steps: each
    # factor's table starts at its least exponent, folded into the shift
    (lo_a, table_a), (lo_b, table_b) = _table(a), _table(b)
    return shift + lo_a + lo_b, table_a, table_b


@lru_cache(maxsize=None)
def _pair_sum(v: int, k: int) -> tuple[int, ...]:
    """E_v(k): sum of q^(2b) A_v(a) A_v(b) over a + b = k, with
    A_v(j) = [v+j, j]_{q^6}, as a dense coefficient table in whole
    q-steps from q^0.  Symmetric in a and b, so it is also the sum of
    q^(2a) A_v(a) A_v(b); each pair of tables serves both orders."""
    terms = []
    for b in range(k // 2 + 1):
        a = k - b
        pair = _gauss_coeffs(v + a, a), _gauss_coeffs(v + b, b)
        terms.append((4 * b, *pair))
        if a != b:
            terms.append((4 * a, *pair))
    c = _packed_sum(terms, 12)._c
    return tuple(_dense(c, 0, max(c), 2))


def _triple_sum(N: int, weight: Callable[[int, int, int, int], int]) -> QPoly:
    """sum of q^(weight/2) [3V,m]_q [V+floor(n1/2), floor(n1/2)]_{q^6}
    [V+floor(n2/2), floor(n2/2)]_{q^6} over n1, n2, m >= 0 with
    V = N-m-n1-n2 >= 0, the weight taken in half-steps.

    Fixing V and s = n1 + n2 fixes m, so the n1/n2 sum folds into one pair
    slice per (V, s) and only the slice meets the base-q binomial.  With
    a = floor(n1/2), the slice's cells split by the parities (p1, p2) of
    (n1, n2), and each class is one shifted `_pair_sum` E_V(k),
    k = (s - p1 - p2)/2: for s = 2k the (even, even) class is E_V(k) and
    the (odd, odd) class E_V(k-1); for s = 2k+1 the (even, odd) and
    (odd, even) classes are both E_V(k), one q apart.  Inside a class the
    weight is affine in a with slope -4 (`_plain_weight`) or +4
    (`_dual_weight`), so the class's shift is the smaller weight at its
    two end cells, n1 = p1 and n2 = p2.  Each class times [3V,m]_q is one
    term of a `_packed_sum`."""
    terms = []
    for v in range(N + 1):
        for s in range(N - v + 1):
            m = N - v - s
            if m > 3 * v:
                continue
            for p1 in (0, 1):
                p2 = (s - p1) % 2
                if p1 + p2 <= s:
                    shift = min(weight(p1, s - p1, m, N), weight(s - p2, p2, m, N))
                    terms.append((shift, _gauss_coeffs(3 * v, m),
                                  _pair_sum(v, (s - p1 - p2) // 2)))
    return _packed_sum(terms, 2)


# ---------------------------------------------------------------------------
# the central polynomial identity

@lru_cache(maxsize=None)
def lhs_schur(N: int) -> QPoly:
    """Triple sum side: sum of q^weight_a times [3V,m]_q
    [V+floor(n1/2), floor(n1/2)]_{q^6} [V+floor(n2/2), floor(n2/2)]_{q^6}
    over all cells with V = N-m-n1-n2 >= 0.  Zero for negative N."""
    if N < 0:
        return QPoly.zero()
    return _triple_sum(N, _plain_weight)


@lru_cache(maxsize=None)
def rhs_schur(N: int) -> QPoly:
    """Round-trinomial side: sum over |j| <= N of q^(j(3j-1)/2) times the
    (N; j; q^3 choose j) round trinomial.  Zero for negative N."""
    terms = []
    for j in range(-N, N + 1):
        # q^(j(3j-1)/2) times the k-terms of round_trinomial(N, j, j, 3)
        terms.extend(_trinomial_terms(
            N, j, lambda k: j * (3 * j - 1) + 6 * k * (k + j)))
    return _packed_sum(terms, 6)


@lru_cache(maxsize=None)
def schur_summand(N: int, m: int, n1: int, n2: int) -> QPoly:
    """Single (m, n1, n2) term of lhs_schur(N); zero whenever any index is
    negative or V = N-m-n1-n2 < 0."""
    if N < 0 or m < 0 or n1 < 0 or n2 < 0:
        return QPoly.zero()
    v = N - m - n1 - n2
    if v < 0 or m > 3 * v:
        return QPoly.zero()
    term = (gauss_binomial(3 * v, m)
            * gauss_binomial(v + n1 // 2, n1 // 2, 6)
            * gauss_binomial(v + n2 // 2, n2 // 2, 6))
    return term.shift(2 * weight_a(n1, n2, m))


def recurrence_residual(kind: "IdentityId | str", N: int,
                        m: int | None = None, n1: int | None = None,
                        n2: int | None = None) -> QPoly:
    """Left minus right of the named recurrence; the zero polynomial
    means the instance holds.  Builders treat negative shifted indices
    as zero, so the caller picks N large enough for the instance to be
    meaningful (2 for the two-term form, 4 for the four-term forms)."""
    kind = IdentityId(kind)
    q = QPoly.q_power
    if kind is IdentityId.REC_ANDREWS:
        c1 = QPoly.one() + q(3 * N - 2) + q(3 * N - 1)
        c2 = q(3 * N - 3) - q(6 * N - 6)
        return rhs_schur(N) - c1 * rhs_schur(N - 1) - c2 * rhs_schur(N - 2)
    if kind is IdentityId.REC_L:
        c2 = q(3 * N - 3) * _ONE_Q_Q2 + q(6 * N - 7) + q(6 * N - 5)
        c3 = q(6 * N - 8) * _ONE_Q_Q2
        c4 = q(9 * N - 15) - q(12 * N - 24)
        return (lhs_schur(N) - lhs_schur(N - 1) - c2 * lhs_schur(N - 2)
                - c3 * lhs_schur(N - 3) - c4 * lhs_schur(N - 4))
    if kind is IdentityId.REC_SUMMAND:
        if m is None or n1 is None or n2 is None:
            raise ValueError("summand recurrence needs m, n1, n2")
        # n1 and n2 enter the summand only through their floored halves,
        # so the termwise relation steps them by 2: a step of 1 would act
        # on the modulus-6 binomials only at odd values.
        F = schur_summand
        return (F(N, m, n1, n2)
                - F(N - 1, m, n1, n2)
                - q(6 * N - 5) * F(N - 2, m, n1, n2 - 2)
                - q(6 * N - 7) * F(N - 2, m, n1 - 2, n2)
                - q(3 * N - 3) * _ONE_Q_Q2 * F(N - 2, m - 1, n1, n2)
                - q(6 * N - 8) * _ONE_Q_Q2 * F(N - 3, m - 2, n1, n2)
                + q(12 * N - 24) * F(N - 4, m, n1 - 2, n2 - 2)
                - q(9 * N - 15) * F(N - 4, m - 3, n1, n2))
    raise ValueError("not a recurrence id: %s" % kind)


# ---------------------------------------------------------------------------
# dual identity and the T0 suite

def _t0_half_walk(N: int, T: int | None = None) -> QPoly:
    # sum over |j| <= N of q^((N+j)/2) T0(N; q^3 choose j), mod
    # q^(T+1/2) when T is given: the k-terms of every
    # t0_trinomial_nonneg(N, j, 3) in one sum, cut at 2T half-steps
    cut = None if T is None else 2 * T
    terms = []
    for j in range(-N, N + 1):
        terms.extend(_trinomial_terms(
            N, j, lambda k: N + j + 3 * (N - j - 2 * k) ** 2, cut))
    return _packed_sum(terms, 6, cut)


@lru_cache(maxsize=None)
def t0_half_sum(N: int) -> QPoly:
    """sum over |j| <= N of q^((N+j)/2) T0(N; q^3 choose j), exact.  This
    is the base-change dual of the round-trinomial side, renormalized by
    q^(N/2) so it is a genuine polynomial."""
    return _t0_half_walk(N)


def dual_sides(N: int) -> tuple[QPoly, QPoly]:
    """Both sides of the q -> 1/q image of the central identity, each
    multiplied by q^(N/2): LHS the triple sum with weight q^(B-A), RHS
    the T0 sum.  Cross-checked in tests against the independent oracle
    q^(3N^2/2 + N/2) * lhs_schur(N)(1/q)."""
    if N < 0:
        raise ValueError("dual sides need N >= 0")
    return _triple_sum(N, _dual_weight), t0_half_sum(N)


def t0_binomial_sides(N: int) -> tuple[QPoly, QPoly]:
    """The T0 sum against its single-binomial form:
    sum_k q^k [N,k]_{q^3} (-q^2; q^3)_{N-k}."""
    if N < 0:
        raise ValueError("t0 binomial sides need N >= 0")
    mq2 = MonomialBase.of_q(-1, 2, 3)
    rhs = _packed_sum([_product_term(2 * k, gauss_binomial(N, k, 3),
                                     pochhammer_finite(mq2, N - k))
                       for k in range(N + 1)], 2)
    return t0_half_sum(N), rhs


def t0_half_sum_truncated(N: int, T: int) -> QPoly:
    """t0_half_sum(N) mod q^(T+1/2) without building the full polynomial:
    for large N only a few k survive per j, so the truncated window is
    cheap even at N well beyond exact-computation comfort."""
    return _t0_half_walk(N, T)


def t0_limit_product(T: int) -> QPoly:
    """1/((q^2;q^3)_inf (q;q^6)_inf) mod q^(T+1/2), via the truncated
    products and one series inversion."""
    prod = (pochhammer_infinite_truncated(MonomialBase.of_q(1, 2, 3), T)
            * pochhammer_infinite_truncated(MonomialBase.of_q(1, 1, 6), T))
    return series_reciprocal_truncated(prod.truncate(T), T)


@lru_cache(maxsize=None)
def _recip_poch(modulus: int, n: int, T: int) -> QPoly:
    # 1 / (q^modulus; q^modulus)_n mod q^(T+1/2)
    return series_reciprocal_truncated(
        pochhammer_finite(MonomialBase.of_q(1, modulus, modulus), n), T)


def qt_limit_sum(t: int, T: int) -> QPoly:
    """Parity-split limit sum mod q^(T+1/2):
    sum q^weight_q(t,m,n1,y) / (q^6;q^6)_y * [3y,m]_q
    [y+floor(n1/2), y]_{q^6} over m, n1, y >= 0.  Equal for t = 1 and
    t = 2, and equal to t0_limit_product(T)."""
    if t not in (1, 2):
        raise ValueError("t must be 1 or 2")
    if T < 0:
        raise ValueError("T must be >= 0")

    def floor(y: int, m: int, n1: int) -> int:
        # weight_q without its nonnegative parity terms
        return m * (m - 1) // 2 + y * (3 * y + 1) // 2 + n1

    slices: dict[int, dict[int, int]] = {}
    for y, m, n1, _ in _cells(T, floor):
        w = weight_q(t, m, n1, y)
        if w <= T and m <= 3 * y:
            room = T - w
            term = (gauss_binomial(3 * y, m).truncate(room)
                    * gauss_binomial(y + n1 // 2, y, 6).truncate(room))
            _add_shifted(slices.setdefault(y, {}), term.truncate(room), 2 * w)
    acc: dict[int, int] = {}
    for y, row in slices.items():
        _add_shifted(acc, (QPoly._raw(row) * _recip_poch(6, y, T)).truncate(T), 0)
    return QPoly._raw(acc)


def summation_formula_sides(M: int) -> tuple[QPoly, QPoly]:
    """Finite product formula: LHS the quadruple sum with weight
    q^(3N^2/2 + B - A) and the extra [M,N]_{q^3}; RHS the closed product
    (-q; q^3)_M (-q^2; q^3)_M."""
    if M < 0:
        raise ValueError("summation sides need M >= 0")
    # q^(3N^2/2) against the dual's q^(N/2): N(3N-1) half-steps
    lhs = _packed_sum([_product_term(N * (3 * N - 1), gauss_binomial(M, N, 3),
                                     _triple_sum(N, _dual_weight))
                       for N in range(M + 1)], 2)
    rhs = (pochhammer_finite(MonomialBase.of_q(-1, 1, 3), M)
           * pochhammer_finite(MonomialBase.of_q(-1, 2, 3), M))
    return lhs, rhs


def summation_limit_sum(T: int) -> QPoly:
    """The M -> infinity image of the quadruple sum: the outer binomial
    becomes 1/(q^3;q^3)_N.  Truncated at T; the N-layer's least exponent
    is N(3N-1)/2, which bounds the loop."""
    if T < 0:
        raise ValueError("T must be >= 0")
    acc: dict[int, int] = {}
    N = 0
    while N * (3 * N - 1) <= 2 * T:
        layer = _triple_sum(N, _dual_weight).shift(N * (3 * N - 1)).truncate(T)
        _add_shifted(acc, (layer * _recip_poch(3, N, T)).truncate(T), 0)
        N += 1
    return QPoly._raw(acc)


@lru_cache(maxsize=None)
def _t0_table(m: int, a: int) -> tuple[int, tuple[int, ...]]:
    # T0(m; q choose a) as (least half-step, dense whole-step table), the
    # right factor of every Warnaar left side with L >= m
    lead, table = _table(t_trinomial(0, m, a, 1))
    return lead, tuple(table)


def warnaar_sides(L: int, a: int) -> tuple[QPoly, QPoly]:
    """One-variable T0 summation: sum_i q^(i^2/2) [L,i]_q T0(i;q choose a)
    against q^(a^2/2) [2L, L-a]_q."""
    if L < 0:
        raise ValueError("warnaar sides need L >= 0")
    terms = []
    for i in range(L + 1):
        lead, t0 = _t0_table(i, a)
        terms.append((i * i + lead, _gauss_coeffs(L, i), t0))
    lhs = _packed_sum(terms, 2)
    rhs = gauss_binomial(2 * L, L - a).shift(a * a)
    return lhs, rhs


# ---------------------------------------------------------------------------
# q = 1 values

def q1_triple_value(M: int) -> int:
    """The triple sum evaluated at q = 1: sum of C(3V,m) C(V+floor(n1/2),V)
    C(V+floor(n2/2),V) over cells with V = M-n1-n2-m >= 0; equals 3^M."""
    if M < 0:
        raise ValueError("M must be >= 0")
    return lhs_schur(M).eval_at_one()


def q1_quad_value(M: int) -> int:
    """The quadruple sum at q = 1: sum_N C(M,N) times the triple value at
    N; equals 4^M."""
    if M < 0:
        raise ValueError("M must be >= 0")
    return sum(math.comb(M, N) * q1_triple_value(N) for N in range(M + 1))


# ---------------------------------------------------------------------------
# bivariate generating functions

def schur_product_truncated(T: int) -> QPoly:
    """(-q; q^3)_inf (-q^2; q^3)_inf mod q^(T+1/2): the distinct-parts
    side of the partition theorem."""
    return (pochhammer_infinite_truncated(MonomialBase.of_q(-1, 1, 3), T)
            * pochhammer_infinite_truncated(MonomialBase.of_q(-1, 2, 3), T)
            ).truncate(T)


def _xseries_from(strata: dict[int, dict[int, int]], T: int) -> XSeries:
    return XSeries(T, {x: QPoly._raw(row) for x, row in strata.items()})


def _recip_cell(h1: int, h2: int, m: int, T: int, room: int) -> QPoly:
    # 1 / ((q^6;q^6)_h1 (q^6;q^6)_h2 (q;q)_m) mod q^(room+1/2)
    term = (_recip_poch(6, h1, T) * _recip_poch(6, h2, T)).truncate(T)
    return (term * _recip_poch(1, m, T)).truncate(room)


def ali_gf_truncated(T: int) -> XSeries:
    """Chain-indexed series: sum over n1, n2, m of
    x^(n1+n2+m) q^weight_a / ((q^6;q^6)_{floor(n1/2)} (q^6;q^6)_{floor(n2/2)} (q)_m)
    mod q^(T+1/2).  x marks the number of parts."""
    if T < 0:
        raise ValueError("T must be >= 0")
    strata: dict[int, dict[int, int]] = {}
    for n1, n2, m, a in _cells(T, weight_a):
        _add_shifted(strata.setdefault(n1 + n2 + m, {}),
                     _recip_cell(n1 // 2, n2 // 2, m, T, T - a), 2 * a)
    return _xseries_from(strata, T)


def kursungoz_gf_truncated(T: int) -> XSeries:
    """Pair-indexed series: sum over n1, n2, m of
    x^(2n1+2n2+m) q^weight_k / ((q^6;q^6)_{n1} (q^6;q^6)_{n2} (q)_m)
    mod q^(T+1/2).  Same bivariate series as ali_gf_truncated."""
    if T < 0:
        raise ValueError("T must be >= 0")
    strata: dict[int, dict[int, int]] = {}
    for n1, n2, m, k in _cells(T, weight_k):
        _add_shifted(strata.setdefault(2 * n1 + 2 * n2 + m, {}),
                     _recip_cell(n1, n2, m, T, T - k), 2 * k)
    return _xseries_from(strata, T)


def even_odd_split_lhs(T: int) -> XSeries:
    """Even-odd regrouping of the chain-indexed series: the pair-indexed
    summand at weight q^(weight_k + 2m) times the four-piece factor
    (1 + x q^(6n1+6n2+3m+1) + x q^(6n1+6n2+3m+2) + x^2 q^(12n1+12n2+6m+6)),
    mod q^(T+1/2).  Equals kursungoz_gf_truncated(T)."""
    if T < 0:
        raise ValueError("T must be >= 0")
    strata: dict[int, dict[int, int]] = {}
    def weight(n1: int, n2: int, m: int) -> int:
        return weight_k(n1, n2, m) + 2 * m

    for n1, n2, m, base in _cells(T, weight):
        denom = _recip_cell(n1, n2, m, T, T - base)
        x0 = 2 * n1 + 2 * n2 + m
        s6 = 6 * n1 + 6 * n2 + 3 * m
        pieces = ((x0, 0), (x0 + 1, s6 + 1), (x0 + 1, s6 + 2),
                  (x0 + 2, 2 * s6 + 6))
        for x_deg, extra in pieces:
            tot = base + extra
            if tot > T:
                continue
            _add_shifted(strata.setdefault(x_deg, {}),
                         denom.truncate(T - tot), 2 * tot)
    return _xseries_from(strata, T)


def _bounded_cell(N: int, n1: int, n2: int, m: int) -> QPoly:
    # One summand of the bounded series.  A component with zero movers
    # contributes the empty motion set, factor 1, regardless of what the
    # printed binomial's top argument would degenerate to; the printed
    # form and this one differ only at cells the other factors kill.
    term = QPoly.one()
    if m:
        term = gauss_binomial(N - 3 * (n1 + n2 + m) + 1, m)
        if not term:
            return term
    if n1:
        top = (N - (3 * (n1 - 1) + 1)) // 3 - m - n2 + n1 // 2
        term = term * gauss_binomial(top, n1 // 2, 6)
        if not term:
            return term
    if n2:
        top = (N - (3 * (n1 + n2 - 1) + 2)) // 3 - m + n2 // 2
        term = term * gauss_binomial(top, n2 // 2, 6)
    return term


def bounded_gf(N: int, T: int) -> XSeries:
    """Largest-part-bounded chain-indexed series mod q^(T+1/2): every
    motion count is capped by the room below the bound N, which turns
    each reciprocal Pochhammer factor into a binomial."""
    if N < 0:
        raise ValueError("largest-part bound must be >= 0")
    if T < 0:
        raise ValueError("T must be >= 0")
    strata: dict[int, dict[int, int]] = {}
    for n1, n2, m, a in _cells(T, weight_a):
        term = _bounded_cell(N, n1, n2, m)
        if term:
            _add_shifted(strata.setdefault(n1 + n2 + m, {}),
                         term.truncate(T - a), 2 * a)
    return _xseries_from(strata, T)


def cor1_bounded_sum(N: int) -> tuple[QPoly, QPoly]:
    """x-summed bounded series at largest-part bound 3N-1 against
    lhs_schur(N); the bound N(3N+1)/2 covers the full degree, so the
    comparison is exact, not windowed."""
    if N < 1:
        raise ValueError("needs N >= 1")
    T = N * (3 * N + 1) // 2
    return bounded_gf(3 * N - 1, T).at_x_one(), lhs_schur(N)


# ---------------------------------------------------------------------------
# identity registry

class IdentityId(str, Enum):
    SCHUR_POLY = "schur-poly"
    DUAL = "dual"
    T0_BINOM = "t0-binom"
    T0_LIMIT = "t0-limit"
    QT_LIMIT = "qt-limit"
    SUMMATION_M = "summation-m"
    WARNAAR = "warnaar"
    REC_ANDREWS = "rec-andrews"
    REC_L = "rec-l"
    REC_SUMMAND = "rec-summand"
    GF_BOUNDED = "gf-bounded"
    GF_ALI_EQ_KURSUNGOZ = "gf-ali-eq-kursungoz"
    GF_EVEN_ODD_SPLIT = "gf-even-odd-split"
    ANALYTIC_SCHUR = "analytic-schur"
    Q1_TRIPLE = "q1-triple"
    Q1_QUAD = "q1-quad"
    EXPONENT_DIFF = "exponent-diff"
    SCHUR_COUNTS = "schur-counts"
    COR1_BOUNDED_SUM = "cor1-bounded-sum"
    BIJECTION_SWEEP = "bijection-sweep"


class UsageError(ValueError):
    """Bad parameters for a verification request (not a failed identity)."""


@dataclass
class VerificationReport:
    identity: str
    params: dict[str, Any]
    status: str
    first_discrepancy: dict[str, Any] | None
    elapsed_ms: int = 0

    def __post_init__(self):
        if (self.status == "failed") != (self.first_discrepancy is not None):
            raise ValueError("status must be failed iff a discrepancy is present")

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def as_dict(self) -> dict[str, Any]:
        return {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "first_discrepancy": self.first_discrepancy,
            "elapsed_ms": self.elapsed_ms,
        }


def _qpoly_discrepancy(lhs: QPoly, rhs: QPoly,
                       x_degree: int | None = None) -> dict[str, Any] | None:
    diff = lhs - rhs
    if not diff:
        return None
    e = diff.min_half_exponent()
    return {
        "x_degree": x_degree,
        "exponent_half_steps": e,
        "lhs": str(lhs.coefficient(e)),
        "rhs": str(rhs.coefficient(e)),
    }


def _discrepancy(lhs: Any, rhs: Any) -> dict[str, Any] | None:
    # the first place two sides differ: by x-degree, then q-exponent, for
    # series; a count or a text differs as a whole
    if isinstance(lhs, XSeries):
        for x in sorted(set(lhs.x_degrees()) | set(rhs.x_degrees())):
            d = _qpoly_discrepancy(lhs.stratum(x), rhs.stratum(x), x_degree=x)
            if d:
                return d
        return None
    if isinstance(lhs, QPoly):
        return _qpoly_discrepancy(lhs, rhs)
    if lhs == rhs:
        return None
    return {"x_degree": None, "exponent_half_steps": 0,
            "lhs": str(lhs), "rhs": str(rhs)}


def _perturb(side: Any, hook: dict) -> Any:
    # Testing hook: {"_perturb": {"exponent_half_steps": e, "delta": d}}
    # adds d*q^(e/2) to the first left side (d to a count) before
    # comparing, so report plumbing can be exercised against a guaranteed
    # discrepancy.  A text side already names a failure and is kept.
    if isinstance(side, str):
        return side
    if isinstance(side, int):
        return side + int(hook["delta"])
    poly = QPoly.monomial(int(hook["delta"]), int(hook["exponent_half_steps"]))
    if isinstance(side, XSeries):
        return side + XSeries.term(side.truncation, 0, poly)
    return side + poly


class _Param(NamedTuple):
    # one declared integer parameter; with neither a default nor optional
    # set, the caller must give it
    minimum: int | None = None
    default: int | None = None
    optional: bool = False   # omitted without a default: the runner sees no key


_Pairs = Iterable[tuple[Any, Any]]


def _run_t0_limit(p: dict) -> _Pairs:
    if p["T"] > p["N"]:
        raise UsageError(
            "window T=%d exceeds the convergence range of the N=%d partial "
            "sum (the two sides genuinely differ from q^(N+1) on)" % (p["T"], p["N"]))
    return [(t0_half_sum_truncated(p["N"], p["T"]), t0_limit_product(p["T"]))]


def _run_qt_limit(p: dict) -> _Pairs:
    if p["t"] not in (1, 2):
        raise UsageError("t must be 1 or 2")
    return [(qt_limit_sum(p["t"], p["T"]), t0_limit_product(p["T"]))]


def _run_warnaar(p: dict) -> _Pairs:
    L = p["L"]
    for a in [p["a"]] if "a" in p else range(-L, L + 1):
        yield warnaar_sides(L, a)


def _run_rec_summand(p: dict) -> _Pairs:
    N = p["N"]
    given = [name for name in ("m", "n1", "n2") if name in p]
    if given and len(given) != 3:
        raise UsageError("give all of m, n1, n2 or none of them")
    if given:
        cells = [(p["m"], p["n1"], p["n2"])]
    else:
        cells = [(m, n1, n2)
                 for m in range(N + 1)
                 for n1 in range(N + 1 - m)
                 for n2 in range(N + 1 - m - n1)]
    for m, n1, n2 in cells:
        yield (recurrence_residual(IdentityId.REC_SUMMAND, N, m, n1, n2),
               QPoly.zero())


def _run_exponent_diff(p: dict) -> _Pairs:
    span = range(p["max"] + 1)
    for n1 in span:
        for n2 in span:
            for m in span:
                yield weight_a(2 * n1, 2 * n2, m) - weight_k(n1, n2, m), 2 * m


def _run_schur_counts(p: dict) -> _Pairs:
    # both partition classes, counted by brute force, against the product
    n = p["max_n"]
    product = schur_product_truncated(n)
    for counts in (schur_counts(n), distinct_pm1_counts(n)):
        yield QPoly.from_q_coeffs(dict(enumerate(counts))), product


def _run_bijection_sweep(p: dict) -> _Pairs:
    # a failed certification is its own discrepancy; a clean one must
    # round-trip exactly as many partitions as the enumeration finds
    summary = certify_range(p["max_size"])
    if summary["status"] != "verified":
        return [(json.dumps(summary["failure"], sort_keys=True), "clean sweep")]
    return [(summary["partitions"], sum(schur_counts(p["max_size"])))]


# Each identity's declared parameters and its runner: resolved parameters
# -> the (left, right) side pairs to compare exactly, left side first.
# Rules that tie parameters together stay in the runners.
_REGISTRY: dict[IdentityId, tuple[dict[str, _Param], Callable[[dict], _Pairs]]] = {
    IdentityId.SCHUR_POLY: (
        {"N": _Param(0)}, lambda p: [(lhs_schur(p["N"]), rhs_schur(p["N"]))]),
    IdentityId.DUAL: ({"N": _Param(0)}, lambda p: [dual_sides(p["N"])]),
    IdentityId.T0_BINOM: ({"N": _Param(0)}, lambda p: [t0_binomial_sides(p["N"])]),
    IdentityId.T0_LIMIT: (
        {"N": _Param(0, 40), "T": _Param(0, 40)}, _run_t0_limit),
    IdentityId.QT_LIMIT: ({"t": _Param(), "T": _Param(0, 50)}, _run_qt_limit),
    IdentityId.SUMMATION_M: (
        {"M": _Param(0)}, lambda p: [summation_formula_sides(p["M"])]),
    IdentityId.WARNAAR: (
        {"L": _Param(0), "a": _Param(optional=True)}, _run_warnaar),
    IdentityId.REC_ANDREWS: ({"N": _Param(2)}, lambda p: [(
        recurrence_residual(IdentityId.REC_ANDREWS, p["N"]), QPoly.zero())]),
    IdentityId.REC_L: ({"N": _Param(4)}, lambda p: [(
        recurrence_residual(IdentityId.REC_L, p["N"]), QPoly.zero())]),
    IdentityId.REC_SUMMAND: (
        {"N": _Param(4), "m": _Param(0, optional=True),
         "n1": _Param(0, optional=True), "n2": _Param(0, optional=True)},
        _run_rec_summand),
    IdentityId.GF_BOUNDED: ({"N": _Param(0), "T": _Param(0, 45)}, lambda p: [(
        bounded_gf(p["N"], p["T"]), schur_gf_oracle(p["T"], largest_part=p["N"]))]),
    IdentityId.GF_ALI_EQ_KURSUNGOZ: ({"T": _Param(0, 60)}, lambda p: [(
        ali_gf_truncated(p["T"]), kursungoz_gf_truncated(p["T"]))]),
    IdentityId.GF_EVEN_ODD_SPLIT: ({"T": _Param(0, 60)}, lambda p: [(
        even_odd_split_lhs(p["T"]), kursungoz_gf_truncated(p["T"]))]),
    IdentityId.ANALYTIC_SCHUR: ({"T": _Param(0, 60)}, lambda p: [(
        ali_gf_truncated(p["T"]).at_x_one(), schur_product_truncated(p["T"]))]),
    IdentityId.Q1_TRIPLE: (
        {"M": _Param(0)}, lambda p: [(q1_triple_value(p["M"]), 3 ** p["M"])]),
    IdentityId.Q1_QUAD: (
        {"M": _Param(0)}, lambda p: [(q1_quad_value(p["M"]), 4 ** p["M"])]),
    IdentityId.EXPONENT_DIFF: ({"max": _Param(0, 20)}, _run_exponent_diff),
    IdentityId.SCHUR_COUNTS: ({"max_n": _Param(0, 60)}, _run_schur_counts),
    IdentityId.COR1_BOUNDED_SUM: (
        {"N": _Param(1)}, lambda p: [cor1_bounded_sum(p["N"])]),
    IdentityId.BIJECTION_SWEEP: (
        {"max_size": _Param(0, 40)}, _run_bijection_sweep),
}


def check_params(identity: "IdentityId | str",
                 params: dict[str, Any]) -> tuple[IdentityId, dict[str, int]]:
    """Resolve a verification request against the registry: the identity,
    and every parameter it declares, defaults filled in.  Raises
    UsageError for an unknown identity, a name it does not declare (other
    than an underscore-prefixed testing hook), a missing or non-integer
    value, or a value below its declared minimum."""
    try:
        ident = IdentityId(identity)
    except ValueError:
        raise UsageError("unknown identity %r" % (identity,)) from None
    declared = _REGISTRY[ident][0]
    unknown = [k for k in params if k not in declared and not k.startswith("_")]
    if unknown:
        raise UsageError("%s does not take parameter %s" % (
            ident.value, ", ".join(repr(k) for k in unknown)))
    resolved: dict[str, int] = {}
    for name, spec in declared.items():
        if name not in params and spec.default is None:
            if spec.optional:
                continue
            raise UsageError("missing parameter %r" % name)
        value = params.get(name, spec.default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError("parameter %r must be an integer" % name)
        if spec.minimum is not None and value < spec.minimum:
            raise UsageError("parameter %r must be >= %d" % (name, spec.minimum))
        resolved[name] = value
    return ident, resolved


def verify(identity: "IdentityId | str", params: dict[str, Any] | None = None,
           timings: bool = False) -> VerificationReport:
    """Build both sides of the named identity at the given parameters and
    compare exactly.  Returns a report with the first discrepancy; bad
    parameters raise UsageError (see check_params).

    The params echoed in the report are the given ones, without
    underscore-prefixed testing hooks.  elapsed_ms is 0 unless timings is
    requested, keeping default reports byte-stable across runs.
    """
    p = dict(params or {})
    ident, resolved = check_params(identity, p)
    hook = p.get("_perturb")
    start = time.monotonic()
    disc = None
    for i, (lhs, rhs) in enumerate(_REGISTRY[ident][1](resolved)):
        disc = _discrepancy(_perturb(lhs, hook) if hook and i == 0 else lhs, rhs)
        if disc:
            break
    elapsed = int((time.monotonic() - start) * 1000) if timings else 0
    echo = {k: v for k, v in p.items() if not k.startswith("_")}
    return VerificationReport(
        identity=ident.value,
        params=echo,
        status="verified" if disc is None else "failed",
        first_discrepancy=disc,
        elapsed_ms=elapsed,
    )
