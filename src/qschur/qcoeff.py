"""Partition products, Gaussian binomials and the T_n q-trinomials.

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

The T_n family, and the round-trinomial side and T0 half sums of
`schur_sums`, are one k-walk, `_trinomial_sum`: the k-terms of a list
of j, each two dense binomial tables under its exponent, summed by one
`qpoly._packed_sum`.  The T_n exponent is stated once, `_t_exponents`;
the round one, q^(k(k+b)) in base q^modulus, lives in its one reader,
`schur_sums._round_walk`.  The T_n family is the round one at q -> 1/q.

Caching: `_gauss_coeffs` keeps one table per unordered bottom, one tuple
for [top, k] and [top, top-k].  It builds [top, k], k <= top/2, in a loop
from the cached [top, k-1]: one multiply by (1 - q^(top-k+1)) and one
exact division by (1 - q^k), each O(degree) and run on the lower half
alone; the upper half holds the same int objects in mirror order (the
table is a palindrome).  Every lower bottom stays cached; measured as
tuples plus distinct ints, the tables hold 39.5K entries in about 0.7 MB
after `report`, 23 MB at `schur-poly --N 60` and 20 MB at
`t0-binom --N 80`, half or less of what one table per request took.  A
row only ever grows, by slice assignment, so threads racing on it leave
equal tables; under `--jobs` each worker process grows its own cache.
Each table is registered in the kernel's held memo (`qpoly._hold`) as
it is built, so a sum reads its coefficient sum and its pack from there.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Callable, Iterable, Sequence

from .qpoly import QPoly, _hold, _packed_sum


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


# _ROWS[top][k] is the table of [top, k], for k from 0 up to the largest
# bottom <= top/2 built so far
_ROWS: dict[int, list[tuple[int, ...]]] = {}
_ONE = _hold((1,))  # [top, 0] for every top, and 1 as a dense table


def _gauss_coeffs(top: int, bottom: int) -> tuple[int, ...]:
    """Dense base-q coefficient table of [top choose bottom], degree
    bottom*(top-bottom), for 0 <= bottom <= top; bottom and top-bottom
    share one tuple."""
    k = min(bottom, top - bottom)
    if k < 0:
        raise ValueError("needs 0 <= bottom <= top")
    row = _ROWS.setdefault(top, [_ONE])
    while len(row) <= k:
        i = len(row)
        # a slice, not append: a table another thread put at i first is
        # replaced by an equal one, never pushed up a bottom
        row[i:i + 1] = [_hold(_gauss_step(row[i - 1], top, i))]
    return row[k]


def _gauss_step(prev: tuple[int, ...], top: int, k: int) -> tuple[int, ...]:
    # [top, k] from prev = [top, k-1], for 1 <= k <= top/2: times
    # (1 - q^(top-k+1)), then divided exactly by (1 - q^k), one prefix sum
    # per residue class mod k.  Both steps are lower-triangular, so the
    # lower half needs only prev's lower half; the upper half mirrors it
    degree = k * (top - k)
    half = degree // 2 + 1
    c = list(prev[:half])
    c += [0] * (half - len(c))
    m = top - k + 1
    c[m:] = map(sub, c[m:], c)
    for s in range(k):
        c[s::k] = accumulate(c[s::k])
    return tuple(c + c[degree - half::-1])


def gauss_binomial(top: int, bottom: int, modulus: int = 1) -> QPoly:
    """[top choose bottom] in base q^modulus; zero unless 0 <= bottom <= top."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if bottom < 0 or top < bottom:
        return QPoly.zero()
    return QPoly.from_table(_gauss_coeffs(top, bottom), 0, 2 * modulus)


def _t_exponents(n_sub: int, m: int, a: int, ks: range, modulus: int) -> list[int]:
    # the T_n family's k-term exponents, in half-steps
    return [modulus * (m - a - 2 * k) * (m - a - 2 * k - n_sub) for k in ks]


def _trinomial_sum(m: int, js: Iterable[int], modulus: int,
                   leads: Callable[[int, range], list[int]],
                   cut: int | None = None) -> QPoly:
    """sum of q^(e/2) [m,k] [m-k,k+j] over j in js and every k where both
    binomials, in base q^modulus, are nonzero (none when m < 0), with
    leads(j, ks) the half-steps e of j's k-terms ks; mod q^(cut/2 + 1/2)
    when cut is given, a k-term past the cut never built.  One
    `_packed_sum` from the least e, so e may be negative; [m,k] is the
    right table, multiplied once per k."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    terms = []
    for j in js:
        ks = range(max(0, -j), min(m, (m - j) // 2) + 1)
        for k, shift in zip(ks, leads(j, ks)):
            if cut is None or shift <= cut:
                terms.append((shift, _gauss_coeffs(m - k, k + j),
                              _gauss_coeffs(m, k)))
    base = min([0] + [shift for shift, _, _ in terms])
    return _packed_sum([(shift - base, left, right) for shift, left, right in terms],
                       2 * modulus, None if cut is None else cut - base).shift(base)


def t_trinomial(n_sub: int, m: int, a: int, modulus: int = 1) -> QPoly:
    """T_n family: sum_k q^(modulus*(m-a-2k)(m-a-2k-n)/2) [m,k] [m-k,k+a],
    base q^modulus, over every k where both binomials are nonzero: the
    round trinomial sum_k q^(modulus*k(k+b)) [m,k] [m-k,k+a] at b = a-n,
    taken at q -> 1/q, times q^(modulus*(m(m-n)-a(a-n))/2).  Carries
    half-step exponents whenever modulus*(m-a)(m-a-n) is odd."""
    return _trinomial_sum(m, [a], modulus,
                          lambda j, ks: _t_exponents(n_sub, m, j, ks, modulus))
