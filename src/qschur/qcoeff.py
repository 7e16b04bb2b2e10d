"""Partition products, Gaussian binomials and two q-trinomial families.

Every q-product of the package counts partitions into a fixed multiset
of parts, and one private kernel, `_parts_series`, builds them all as
dense coefficient tables on whole q-steps: Schur's
(-q;q^3)_inf (-q^2;q^3)_inf, the finite (-q;q^3)_M (-q^2;q^3)_M and
(-q^2;q^3)_j, the T0 limit 1/((q^2;q^3)_inf (q;q^6)_inf) and the
reciprocals 1/(q^6;q^6)_h and 1/(q;q)_m of the limit and bivariate
series.  A part used at most once is a factor 1 + q^p, one descending
pass over the table; a part used freely is a factor 1/(1 - q^p), one
ascending pass.

The public functions return exact `QPoly` values.  Bases other than q
itself are handled by an integer `modulus` argument: modulus 3 reads the
whole expression in q^3, modulus 6 in q^6, and so on.

Both trinomial families rest on one k-walk, `_trinomial_terms`: the T_n
family is the round one at q -> 1/q.  Its terms are pairs of dense
binomial tables, summed by `qpoly._packed_sum`; the round-trinomial side
and the T0 half sums of `schur_sums` feed every j's walk to one such sum,
each under the leading exponent of its own k-terms.

Caching: the coefficient tables of base-q binomials are memoized (they
are requested thousands of times by the sum builders).
`functools.lru_cache` is safe under threads; under `--jobs` each worker
process simply grows its own cache.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .qpoly import QPoly, _packed_sum


def _parts_series(T: int, once: Iterable[int] = (), free: Iterable[int] = (),
                  start: Sequence[int] = (1,)) -> list[int]:
    """start times prod (1 + q^p) over the parts p of once, times
    prod 1/(1 - q^p) over the parts p of free, mod q^(T+1/2), as the dense
    table of its coefficients at q^0..q^T (start is such a table too, cut
    or padded to T).  From start = 1, entry n counts the partitions of n
    into parts of free, each used any number of times, and parts of once,
    each listed occurrence used at most once.  A part listed twice is two
    factors; a part above T changes nothing.  Parts must be >= 1."""
    if T < 0:
        raise ValueError("T must be >= 0")
    c = list(start[:T + 1])
    c += [0] * (T + 1 - len(c))
    for p in once:
        # descending, so each c[n - p] is read before p reaches it
        for n in range(T, p - 1, -1):
            c[n] += c[n - p]
    for p in free:
        # ascending, so c[n - p] already holds every use of p below n
        for n in range(p, T + 1):
            c[n] += c[n - p]
    return c


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

