"""Weight functions, side builders for every verified identity, and the
registry-driven verifier.

Layout: quadratic weights first, then the polynomial side builders (the
left/right sides of each identity as exact `QPoly` or `XSeries` values),
then the identity registry (`IdentityId`, `verify`, `VerificationReport`).

Two private walks carry every builder.  `_triple_sum(N, weight)` is the
triple q-binomial sum over (n1, n2, m); the central left side, the
q -> 1/q dual and both summation formulas differ only in the weight they
pass it, and the q = 1 value is the central left side at q = 1.
`_cells(T, weight)` yields the (n1, n2, m) cells of the bivariate series
whose weight fits the window; the chain-indexed, pair-indexed, even/odd
and largest-part-bounded series differ only in the weight and the summand.
`_add_shifted` is the one accumulate loop under both.

Summation bounds are always structural: an outer index stops as soon as
the weight alone exceeds the truncation window, an inner index as soon as
a binomial top argument drops below its bottom.  Nothing is truncated
heuristically.

All builders are pure and the expensive ones are memoized, so verify
calls for distinct parameters can run in parallel workers; each worker
process simply warms its own caches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable

from .partitions import schur_gf_oracle
from .qcoeff import (
    MonomialBase,
    gauss_binomial,
    pochhammer_finite,
    pochhammer_infinite_truncated,
    round_trinomial,
    series_reciprocal_truncated,
    t0_trinomial_nonneg,
    t0_trinomial_truncated,
    t_trinomial,
)
from .qpoly import QPoly, XSeries

_ONE_Q_Q2 = QPoly.from_q_coeffs({0: 1, 1: 1, 2: 1})  # 1 + q + q^2


# ---------------------------------------------------------------------------
# quadratic weights

def weight_a(n1: int, n2: int, m: int) -> int:
    """Size of the minimal admissible configuration with chain lengths
    n1, n2 and m singletons: (2m+s+1)(2m+s)/2 + m*s + s^2 - n1, s=n1+n2."""
    s = n1 + n2
    u = 2 * m + s
    return u * (u + 1) // 2 + m * s + s * s - n1


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


def _triple_sum(N: int, weight: Callable[[int, int, int, int], int]) -> QPoly:
    """sum of q^(weight/2) [3V,m]_q [V+floor(n1/2), floor(n1/2)]_{q^6}
    [V+floor(n2/2), floor(n2/2)]_{q^6} over n1, n2, m >= 0 with
    V = N-m-n1-n2 >= 0, the weight taken in half-steps.

    Fixing V and s = n1 + n2 fixes m, so the n1/n2 sum folds into one pair
    slice per (V, s) and only the slice meets the base-q binomial."""
    acc: dict[int, int] = {}
    for v in range(N + 1):
        for s in range(N - v + 1):
            m = N - v - s
            if m > 3 * v:
                continue
            pairs: dict[int, int] = {}
            for n1 in range(s + 1):
                n2 = s - n1
                _add_shifted(pairs, gauss_binomial(v + n1 // 2, n1 // 2, 6)
                             * gauss_binomial(v + n2 // 2, n2 // 2, 6),
                             weight(n1, n2, m, N))
            pair_slice = QPoly.from_pairs(pairs.items())
            _add_shifted(acc, gauss_binomial(3 * v, m) * pair_slice, 0)
    return QPoly.from_pairs(acc.items())


def _add_shifted(row: dict[int, int], term: QPoly, shift: int) -> None:
    for e, c in term.items():
        key = e + shift
        s = row.get(key, 0) + c
        if s:
            row[key] = s
        else:
            del row[key]


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
    if N < 0:
        return QPoly.zero()
    total = QPoly.zero()
    for j in range(-N, N + 1):
        tri = round_trinomial(N, j, j, 3)
        if tri:
            total = total + tri.shift(j * (3 * j - 1))
    return total


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

@lru_cache(maxsize=None)
def t0_half_sum(N: int) -> QPoly:
    """sum over |j| <= N of q^((N+j)/2) T0(N; q^3 choose j), exact.  This
    is the base-change dual of the round-trinomial side, renormalized by
    q^(N/2) so it is a genuine polynomial."""
    total = QPoly.zero()
    for j in range(-N, N + 1):
        t0 = t0_trinomial_nonneg(N, j, 3)
        if t0:
            total = total + t0.shift(N + j)
    return total


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
    rhs = QPoly.zero()
    for k in range(N + 1):
        rhs = rhs + (gauss_binomial(N, k, 3) * pochhammer_finite(mq2, N - k)).shift(2 * k)
    return t0_half_sum(N), rhs


def t0_half_sum_truncated(N: int, T: int) -> QPoly:
    """t0_half_sum(N) mod q^(T+1/2) without building the full polynomial:
    for large N only a few k survive per j, so the truncated window is
    cheap even at N well beyond exact-computation comfort."""
    total = QPoly.zero()
    for j in range(-N, N + 1):
        outer = N + j  # half-steps contributed by q^((N+j)/2)
        if outer > 2 * T:
            continue
        t0 = t0_trinomial_truncated(N, j, 3, 2 * T - outer)
        if t0:
            total = total + t0.shift(outer)
    return total


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
    acc: dict[int, int] = {}
    y = 0
    while y * (3 * y + 1) // 2 <= T:
        recip = _recip_poch(6, y, T)
        for m in range(3 * y + 1):
            if m * (m - 1) // 2 + y * (3 * y + 1) // 2 > T:
                break
            bin_m = gauss_binomial(3 * y, m)
            n1 = 0
            while m * (m - 1) // 2 + y * (3 * y + 1) // 2 + n1 <= T:
                w = weight_q(t, m, n1, y)
                if w <= T:
                    term = bin_m * gauss_binomial(y + n1 // 2, y, 6)
                    _add_shifted(acc, (term * recip).truncate(T - w), 2 * w)
                n1 += 1
        y += 1
    return QPoly.from_pairs(acc.items())


def summation_formula_sides(M: int) -> tuple[QPoly, QPoly]:
    """Finite product formula: LHS the quadruple sum with weight
    q^(3N^2/2 + B - A) and the extra [M,N]_{q^3}; RHS the closed product
    (-q; q^3)_M (-q^2; q^3)_M."""
    if M < 0:
        raise ValueError("summation sides need M >= 0")
    acc: dict[int, int] = {}
    for N in range(M + 1):
        # q^(3N^2/2) against the dual's q^(N/2): N(3N-1) half-steps
        _add_shifted(acc, gauss_binomial(M, N, 3) * _triple_sum(N, _dual_weight),
                     N * (3 * N - 1))
    rhs = (pochhammer_finite(MonomialBase.of_q(-1, 1, 3), M)
           * pochhammer_finite(MonomialBase.of_q(-1, 2, 3), M))
    return QPoly.from_pairs(acc.items()), rhs


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
    return QPoly.from_pairs(acc.items())


def warnaar_sides(L: int, a: int) -> tuple[QPoly, QPoly]:
    """One-variable T0 summation: sum_i q^(i^2/2) [L,i]_q T0(i;q choose a)
    against q^(a^2/2) [2L, L-a]_q."""
    if L < 0:
        raise ValueError("warnaar sides need L >= 0")
    lhs = QPoly.zero()
    for i in range(L + 1):
        t0 = t_trinomial(0, i, a, 1)
        if t0:
            lhs = lhs + (gauss_binomial(L, i) * t0).shift(i * i)
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
    return XSeries(T, {x: QPoly.from_pairs(row.items())
                       for x, row in strata.items()})


def _cells(T: int, weight: Callable[[int, int, int], int]):
    # (n1, n2, m, w) for every cell with w = weight(n1, n2, m) <= T; each
    # weight grows in every index, so each loop stops at its first cell
    # past the window.
    n1 = 0
    while weight(n1, 0, 0) <= T:
        n2 = 0
        while weight(n1, n2, 0) <= T:
            m = 0
            while (w := weight(n1, n2, m)) <= T:
                yield n1, n2, m, w
                m += 1
            n2 += 1
        n1 += 1


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


def _xseries_discrepancy(lhs: XSeries, rhs: XSeries) -> dict[str, Any] | None:
    for x in sorted(set(lhs.x_degrees()) | set(rhs.x_degrees())):
        d = _qpoly_discrepancy(lhs.stratum(x), rhs.stratum(x), x_degree=x)
        if d:
            return d
    return None


def _int_discrepancy(lhs: int, rhs: int) -> dict[str, Any] | None:
    if lhs == rhs:
        return None
    return {"x_degree": None, "exponent_half_steps": 0,
            "lhs": str(lhs), "rhs": str(rhs)}


def _need_int(params: dict, name: str, default: int | None = None,
              minimum: int | None = None) -> int:
    if name in params:
        value = params[name]
    elif default is not None:
        value = default
    else:
        raise UsageError("missing parameter %r" % name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError("parameter %r must be an integer" % name)
    if minimum is not None and value < minimum:
        raise UsageError("parameter %r must be >= %d" % (name, minimum))
    return value


def _perturbation(params: dict) -> QPoly:
    # Testing hook: {"_perturb": {"exponent_half_steps": e, "delta": d}}
    # adds d*q^(e/2) to the left side before comparing, so report plumbing
    # can be exercised against a guaranteed discrepancy.
    hook = params.get("_perturb")
    if hook is None:
        return QPoly.zero()
    return QPoly.monomial(int(hook["delta"]), int(hook["exponent_half_steps"]))


def _perturb_xseries(series: XSeries, params: dict) -> XSeries:
    poly = _perturbation(params)
    if poly.is_zero():
        return series
    return series + XSeries.term(series.truncation, 0, poly)


def _int_perturbation(params: dict) -> int:
    hook = params.get("_perturb")
    return int(hook["delta"]) if hook else 0


def _run_schur_poly(p: dict) -> dict | None:
    N = _need_int(p, "N", minimum=0)
    return _qpoly_discrepancy(lhs_schur(N) + _perturbation(p), rhs_schur(N))


def _run_dual(p: dict) -> dict | None:
    lhs, rhs = dual_sides(_need_int(p, "N", minimum=0))
    return _qpoly_discrepancy(lhs + _perturbation(p), rhs)


def _run_t0_binom(p: dict) -> dict | None:
    lhs, rhs = t0_binomial_sides(_need_int(p, "N", minimum=0))
    return _qpoly_discrepancy(lhs + _perturbation(p), rhs)


def _run_t0_limit(p: dict) -> dict | None:
    N = _need_int(p, "N", default=40, minimum=0)
    T = _need_int(p, "T", default=40, minimum=0)
    if T > N:
        raise UsageError(
            "window T=%d exceeds the convergence range of the N=%d partial "
            "sum (the two sides genuinely differ from q^(N+1) on)" % (T, N))
    return _qpoly_discrepancy(t0_half_sum_truncated(N, T) + _perturbation(p),
                              t0_limit_product(T))


def _run_qt_limit(p: dict) -> dict | None:
    t = _need_int(p, "t")
    T = _need_int(p, "T", default=50, minimum=0)
    if t not in (1, 2):
        raise UsageError("t must be 1 or 2")
    return _qpoly_discrepancy(qt_limit_sum(t, T) + _perturbation(p),
                              t0_limit_product(T))


def _run_summation(p: dict) -> dict | None:
    lhs, rhs = summation_formula_sides(_need_int(p, "M", minimum=0))
    return _qpoly_discrepancy(lhs + _perturbation(p), rhs)


def _run_warnaar(p: dict) -> dict | None:
    L = _need_int(p, "L", minimum=0)
    if "a" in p:
        sweep = [_need_int(p, "a")]
    else:
        sweep = range(-L, L + 1)
    for a in sweep:
        lhs, rhs = warnaar_sides(L, a)
        d = _qpoly_discrepancy(lhs + _perturbation(p), rhs)
        if d:
            return d
    return None


def _run_rec_andrews(p: dict) -> dict | None:
    N = _need_int(p, "N", minimum=2)
    return _qpoly_discrepancy(
        recurrence_residual(IdentityId.REC_ANDREWS, N) + _perturbation(p),
        QPoly.zero())


def _run_rec_l(p: dict) -> dict | None:
    N = _need_int(p, "N", minimum=4)
    return _qpoly_discrepancy(
        recurrence_residual(IdentityId.REC_L, N) + _perturbation(p),
        QPoly.zero())


def _run_rec_summand(p: dict) -> dict | None:
    N = _need_int(p, "N", minimum=4)
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
        d = _qpoly_discrepancy(
            recurrence_residual(IdentityId.REC_SUMMAND, N, m, n1, n2)
            + _perturbation(p), QPoly.zero())
        if d:
            return d
    return None


def _run_gf_bounded(p: dict) -> dict | None:
    N = _need_int(p, "N", minimum=0)
    T = _need_int(p, "T", default=45, minimum=0)
    return _xseries_discrepancy(_perturb_xseries(bounded_gf(N, T), p),
                                schur_gf_oracle(T, largest_part=N))


def _run_gf_ali_eq_kursungoz(p: dict) -> dict | None:
    T = _need_int(p, "T", default=60, minimum=0)
    return _xseries_discrepancy(_perturb_xseries(ali_gf_truncated(T), p),
                                kursungoz_gf_truncated(T))


def _run_gf_even_odd(p: dict) -> dict | None:
    T = _need_int(p, "T", default=60, minimum=0)
    return _xseries_discrepancy(_perturb_xseries(even_odd_split_lhs(T), p),
                                kursungoz_gf_truncated(T))


def _run_analytic_schur(p: dict) -> dict | None:
    T = _need_int(p, "T", default=60, minimum=0)
    return _qpoly_discrepancy(ali_gf_truncated(T).at_x_one() + _perturbation(p),
                              schur_product_truncated(T))


def _run_q1_triple(p: dict) -> dict | None:
    M = _need_int(p, "M", minimum=0)
    return _int_discrepancy(q1_triple_value(M) + _int_perturbation(p), 3 ** M)


def _run_q1_quad(p: dict) -> dict | None:
    M = _need_int(p, "M", minimum=0)
    return _int_discrepancy(q1_quad_value(M) + _int_perturbation(p), 4 ** M)


def _run_exponent_diff(p: dict) -> dict | None:
    bound = _need_int(p, "max", default=20, minimum=0)
    for n1 in range(bound + 1):
        for n2 in range(bound + 1):
            for m in range(bound + 1):
                lhs = weight_a(2 * n1, 2 * n2, m) - weight_k(n1, n2, m)
                d = _int_discrepancy(lhs + _int_perturbation(p), 2 * m)
                if d:
                    return d
    return None


# Each identity's runner and the parameter names it reads; verify rejects
# any other name that is not an underscore-prefixed testing hook.
_DISPATCH: dict[IdentityId,
                tuple[Callable[[dict], dict | None], tuple[str, ...]]] = {
    IdentityId.SCHUR_POLY: (_run_schur_poly, ("N",)),
    IdentityId.DUAL: (_run_dual, ("N",)),
    IdentityId.T0_BINOM: (_run_t0_binom, ("N",)),
    IdentityId.T0_LIMIT: (_run_t0_limit, ("N", "T")),
    IdentityId.QT_LIMIT: (_run_qt_limit, ("t", "T")),
    IdentityId.SUMMATION_M: (_run_summation, ("M",)),
    IdentityId.WARNAAR: (_run_warnaar, ("L", "a")),
    IdentityId.REC_ANDREWS: (_run_rec_andrews, ("N",)),
    IdentityId.REC_L: (_run_rec_l, ("N",)),
    IdentityId.REC_SUMMAND: (_run_rec_summand, ("N", "m", "n1", "n2")),
    IdentityId.GF_BOUNDED: (_run_gf_bounded, ("N", "T")),
    IdentityId.GF_ALI_EQ_KURSUNGOZ: (_run_gf_ali_eq_kursungoz, ("T",)),
    IdentityId.GF_EVEN_ODD_SPLIT: (_run_gf_even_odd, ("T",)),
    IdentityId.ANALYTIC_SCHUR: (_run_analytic_schur, ("T",)),
    IdentityId.Q1_TRIPLE: (_run_q1_triple, ("M",)),
    IdentityId.Q1_QUAD: (_run_q1_quad, ("M",)),
    IdentityId.EXPONENT_DIFF: (_run_exponent_diff, ("max",)),
}


def verify(identity: "IdentityId | str", params: dict[str, Any] | None = None,
           timings: bool = False) -> VerificationReport:
    """Build both sides of the named identity at the given parameters and
    compare exactly.  Returns a report; bad parameters, and parameter
    names the identity does not read, raise UsageError.

    The params echoed in the report exclude underscore-prefixed testing
    hooks.  elapsed_ms is 0 unless timings is requested, keeping default
    reports byte-stable across runs.
    """
    try:
        ident = IdentityId(identity)
    except ValueError:
        raise UsageError("unknown identity %r" % (identity,)) from None
    p = dict(params or {})
    run, names = _DISPATCH[ident]
    unknown = [k for k in p if k not in names and not k.startswith("_")]
    if unknown:
        raise UsageError("%s does not take parameter %s" % (
            ident.value, ", ".join(repr(k) for k in unknown)))
    start = time.monotonic()
    disc = run(p)
    elapsed = int((time.monotonic() - start) * 1000) if timings else 0
    echo = {k: v for k, v in p.items() if not k.startswith("_")}
    return VerificationReport(
        identity=ident.value,
        params=echo,
        status="verified" if disc is None else "failed",
        first_discrepancy=disc,
        elapsed_ms=elapsed,
    )
