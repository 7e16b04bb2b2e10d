"""Pochhammer symbols, Gaussian binomials and two q-trinomial families.

Every function returns an exact `QPoly`.  Bases other than q itself are
handled by an integer `modulus` argument: modulus 3 reads the whole
expression in q^3, modulus 6 in q^6, and so on.  Arguments of Pochhammer
symbols are restricted to signed monomials, which is all the series in
this package ever need.

Both trinomial families rest on one k-walk, `_trinomial_terms`: the T_n
family is the round one at q -> 1/q.  Its terms are pairs of dense
binomial tables, summed by `qpoly._packed_sum`; the round-trinomial side
and the T0 half sums of `schur_sums` feed every j's walk to one such sum,
each under the leading exponent of its own k-terms.

Caching: the coefficient tables of base-q binomials and the finite
Pochhammer products are memoized (they are requested thousands of times
by the sum builders).  `functools.lru_cache` is safe under threads; under
`--jobs` each worker process simply grows its own cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .qpoly import QPoly, _packed_sum


@dataclass(frozen=True)
class MonomialBase:
    """The argument a = sign * q^(half_exponent/2) of (a; q^modulus)_n."""

    sign: int
    half_exponent: int
    modulus: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")

    @classmethod
    def of_q(cls, sign: int, q_exponent: int, modulus: int = 1) -> "MonomialBase":
        """Convenience builder with the exponent given in q-units."""
        return cls(sign, 2 * q_exponent, modulus)


@lru_cache(maxsize=None)
def pochhammer_finite(a: MonomialBase, n: int) -> QPoly:
    """(a; q^modulus)_n = prod_{i=0}^{n-1} (1 - a q^(modulus*i)); n = 0 is 1."""
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    if n == 0:
        return QPoly.one()
    prev = pochhammer_finite(a, n - 1)
    step = a.half_exponent + 2 * a.modulus * (n - 1)
    return prev - prev.shift(step) * a.sign


def pochhammer_infinite_truncated(a: MonomialBase, T: int) -> QPoly:
    """The infinite product (a; q^modulus)_inf reduced mod q^(T+1/2).

    Only bases with positive exponent converge coefficient-wise; factors
    whose monomial already exceeds the bound multiply to 1 mod q^(T+1/2),
    so the product is finite.
    """
    if a.half_exponent <= 0:
        raise ValueError("infinite product needs a base with positive exponent")
    p = QPoly.one()
    i = 0
    while a.half_exponent + 2 * a.modulus * i <= 2 * T:
        step = a.half_exponent + 2 * a.modulus * i
        p = (p - p.shift(step) * a.sign).truncate(T)
        i += 1
    return p


def series_reciprocal_truncated(p: QPoly, T: int) -> QPoly:
    """r with p*r = 1 mod q^(T+1/2), by incremental coefficient solving.

    Needs constant term +-1 (no rational arithmetic then) and no negative
    exponents.
    """
    c0 = p.coefficient(0)
    if c0 not in (1, -1):
        raise ValueError("reciprocal needs constant term +1 or -1")
    lo = p.min_half_exponent()
    if lo is not None and lo < 0:
        raise ValueError("reciprocal needs non-negative exponents")
    cut = 2 * T
    tail = sorted((e, v) for e, v in p.items() if 0 < e <= cut)
    r: dict[int, int] = {0: c0}
    for e in range(1, cut + 1):
        s = 0
        for f, v in tail:
            if f > e:
                break
            t = r.get(e - f)
            if t:
                s += v * t
        if s:
            r[e] = -c0 * s
    return QPoly.from_pairs(r.items())


@lru_cache(maxsize=None)
def _gauss_coeffs(top: int, bottom: int) -> tuple[int, ...]:
    # Dense base-q coefficient table of [top choose bottom], degree
    # bottom*(top-bottom).  Built by alternating one cyclotomic-style
    # multiplication with one exact synthetic division, which keeps every
    # intermediate value an integer.
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


def gauss_binomial(top: int, bottom: int, modulus: int = 1) -> QPoly:
    """[top choose bottom] in base q^modulus; zero unless 0 <= bottom <= top."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if bottom < 0 or top < bottom:
        return QPoly.zero()
    # every coefficient of a Gaussian binomial is positive, so the dict
    # is already canonical
    step = 2 * modulus
    return QPoly._raw({step * i: v
                       for i, v in enumerate(_gauss_coeffs(top, bottom))})


def _trinomial_terms(m: int, a: int, lead: Callable[[int], int],
                     cut: int | None = None):
    """(lead(k), [m-k,k+a], [m,k]) for every k where both binomials are
    nonzero, the binomials as `_gauss_coeffs` tables.  [m,k] is the right
    table: the walks for every a of one m share it, so a `_packed_sum`
    over them multiplies it once per k.  With cut given, k-terms whose
    lead passes it are never built."""
    for k in range(max(0, -a), min(m, (m - a) // 2) + 1):
        shift = lead(k)
        if cut is None or shift <= cut:
            yield shift, _gauss_coeffs(m - k, k + a), _gauss_coeffs(m, k)


def round_trinomial(m: int, b: int, a: int, modulus: int = 1) -> QPoly:
    """Round q-trinomial: sum_k q^(modulus*k(k+b)) [m,k] [m-k,k+a], base q^modulus.

    k runs over every index where both binomials are nonzero; negative a
    shifts the start of that range, negative b only tilts the q-weight.
    An empty range (in particular any m < 0) gives 0.
    """
    terms = list(_trinomial_terms(m, a, lambda k: 2 * modulus * k * (k + b)))
    # with b < a the sum can lead below q^0: sum from its least lead, then
    # move the sum back down
    base = min([0] + [shift for shift, _, _ in terms])
    return _packed_sum([(shift - base, left, right)
                        for shift, left, right in terms],
                       2 * modulus).shift(base)


def t_trinomial(n_sub: int, m: int, a: int, modulus: int = 1) -> QPoly:
    """T_n family: q^(modulus*(m(m-n)-a(a-n))/2) times the b = a-n round
    trinomial taken at q -> 1/q.  Carries half-step exponents whenever
    m(m-n)-a(a-n) is odd."""
    pre_half = modulus * (m * (m - n_sub) - a * (a - n_sub))
    inner = round_trinomial(m, a - n_sub, a, modulus).substitute_q_power(-1)
    return inner.shift(pre_half)

