"""Weight functions, side builders for every verified identity, and the
registry-driven verifier.

Layout: quadratic weights first (`weight_a` is re-exported from
`bijection`), then the polynomial side builders (the left/right sides of
each identity as exact `QPoly` or `XSeries` values), then the identity
registry (`IdentityId`, `check_params`, `verify`, `VerificationReport`).

The registry holds every row kind of the verification report, the
composite ones included: brute-force partition counts against the product
side, the bounded-sum corollary, and the bijection sweep.  Each entry
declares its integer parameters (a minimum, a default or none, and the
CLI's hard cap) and a runner that returns the (left, right) pairs to
compare; the series the CLI prints are declared beside it, in `_SERIES`.
One validator reads every declaration, the caps bound or not
(`check_params`); `verify` compares the pairs exactly and reports the
first discrepancy.  The registry also declares the report sweep: its
entries are in report order, and a swept parameter names the last value
it reaches, so `acceptance_matrix` builds every report row from them.

One private walk carries each sum family.  `_triple_sum(N, weight)` is
the triple q-binomial sum over (n1, n2, m); the central left side, the
q -> 1/q dual and both summation formulas differ only in the weight they
pass it, and the q = 1 value is the central left side at q = 1.  Its
(n1, n2) pair slices, one per parity class, come from one cached family
shared across N and both weights, `_pair_sum`.
`_graded_sum(T, weight, pieces)` is the one place the windowed cell
series accumulate: it walks `bijection._cells(T, weight)`, shared with
the motion sweep, collects each cell's x-graded pieces, each a product
of two tables, and sums each grade as one `_packed_sum` cut at the
window.  The chain-indexed, pair-indexed, even/odd and
largest-part-bounded series differ only in the weight and the pieces
they pass it, and `qt_limit_sum` grades (y, m, n1) by y on the floor of
weight_q, keeps each cell on its exact weight, and meets 1/(q^6;q^6)_y
once per y-slice.  The round-trinomial side and both T0 half sums are
each one call of the k-walk `qcoeff._trinomial_sum` over every j.

Every product of binomial tables is a term of `qpoly._packed_sum`, the
one Kronecker kernel, which sums products of dense nonnegative
coefficient tables as big integers.  A binomial in q^3 or q^6, or a
product of two in q^6, is laid on whole q-steps by the cached
`_spread`; a built side or layer enters as the table `QPoly.table`
reads off it, and a memoized side as its memo table.  With its
subtracted terms the kernel also takes every recurrence residual,
declared as data in `_RECURRENCES`, where rec-l and rec-summand read the
one L4 table: a summand enters as its two binomial tables, never cached
assembled, and a residual that vanishes is settled by comparing two
integers per class, without unpacking.
`schur_summand` is the uncached QPoly form of one summand, by
schoolbook products.

Every q-product is a count of partitions into a fixed multiset of parts,
built by the one kernel `qcoeff._parts_series` on a dense table, down
to the reciprocal factor of each graded cell, `_recip_cell`, cut to the
room its weight leaves.  Both truncated limit sums are one loop,
`_limit_sum`, which hands each y-slice or N-layer to the kernel as its
start table, so 1/(q^6;q^6)_y and 1/(q^3;q^3)_N are applied to it part
by part, never built and multiplied.

Summation bounds are always structural: an outer index stops as soon as
the weight alone exceeds the truncation window, an inner index as soon as
a binomial top argument drops below its bottom.  Nothing is truncated
heuristically.

All builders are pure and the expensive ones are memoized, so verify
calls for distinct parameters can run in parallel workers; each worker
process simply warms its own caches.  The four sides that later rows
read again, `lhs_schur`, `rhs_schur`, the dual triple sum `_dual_table`
and `t0_half_sum`, are each built once as a `QPoly` by their walk and
held in one memo as (least half-step, dense table), the table in
`qpoly._compact` form: an array on the narrowest unsigned typecode that
holds the side, or a tuple once a coefficient needs more than 8 bytes.
A memo table is shared and never mutated, and every call of a public
side builds a fresh `QPoly` from it.  The rows that read only a side's
table pass it on as it is, never through a dict: rec-l and rec-andrews
(`recurrence_residual`) and summation-m (`summation_formula_sides`) to
the kernel, and q1-triple and q1-quad (`q1_triple_value`) to `sum`.
analytic-schur (`summation_limit_sum`) reads a window of each dual
layer, so it builds the layer's `QPoly` (N <= 6 at T = 60) and reads
the window off that.
The table caches `_pair_sum`, `_spread` and `_t0_table` register each
table they build in the kernel's held memo (`qpoly._hold`), as
`qcoeff._gauss_coeffs` does its rows; the memo keeps a table alive past
its cache's `cache_clear`.  The four sides' memo tables are not
registered there: their held packs would only add memory.
"""

from __future__ import annotations

import json
import math
import time
from enum import Enum
from functools import lru_cache
from itertools import count, takewhile
from operator import add, sub
from typing import Any, Callable, Iterable, NamedTuple, Sequence

# weight_a (re-exported) and _cells live with the motion bijection
from .bijection import _cells, certify_range, max_motions, weight_a
from .partitions import distinct_pm1_counts, schur_counts, schur_gf_oracle
from .qcoeff import (_ONE, _gauss_coeffs, _parts_series, _t_exponents,
                     _trinomial_sum, gauss_binomial, t_trinomial)
from .qpoly import QPoly, XSeries, _compact, _hold, _packed_sum

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


# t of weight_q and qt-limit: the parity class of the discarded bound
_QT_T = (1, 2)


def weight_q(t: int, m: int, n1: int, y: int) -> int:
    """Parity-split limit weight: C(m,2) + y(3y+1)/2 + n1 + 3y*r(m+y+t,2)
    + 6y*r(n1,2)*r(m+y+1+t,2), with r the mod-2 remainder and t in
    `_QT_T` selecting the parity class of the discarded bound."""
    if t not in _QT_T:
        raise ValueError("t must be %s" % " or ".join(map(str, _QT_T)))
    return (m * (m - 1) // 2 + y * (3 * y + 1) // 2 + n1
            + 3 * y * ((m + y + t) % 2)
            + 6 * y * (n1 % 2) * ((m + y + 1 + t) % 2))


# ---------------------------------------------------------------------------
# the triple-sum kernel and the graded cell walk

def _plain_weight(n1: int, n2: int, m: int, N: int) -> int:
    return 2 * weight_a(n1, n2, m)


def _dual_weight(n1: int, n2: int, m: int, N: int) -> int:
    # q^(B-A) of the q -> 1/q image, times q^(N/2)
    return weight_b_half(n1, n2, m, N) - 2 * weight_a(n1, n2, m) + N


def _table(p: QPoly) -> tuple[int, tuple[int, ...]]:
    # p as (least exponent, dense table on whole q-steps from there); a
    # product term needs whole q-steps, so a half-step between raises
    if not p:
        return 0, ()
    lo = p.min_half_exponent()
    return lo, tuple(p.table(lo, p.max_half_exponent()))


def _side_table(p: QPoly) -> tuple[int, Sequence[int]]:
    # a memoized side: `_table` of p, its table in `_compact` form
    lo, table = _table(p)
    return lo, _compact(table)


def _side(memo: tuple[int, Sequence[int]]) -> QPoly:
    # a fresh polynomial from a memoized side
    lo, table = memo
    return QPoly.from_table(table, lo)


@lru_cache(maxsize=None)
def _spread(k: int, *binomials: tuple[int, int]) -> tuple[int, ...]:
    """The product of [top, bottom]_{q^k} over the (top, bottom) pairs
    given, at most two and each with 0 <= bottom <= top, as a dense table
    on whole q-steps from q^0: the base-q^k table, two factors multiplied
    by one `_packed_sum` as base-q tables, laid out with k - 1 zeros
    between its entries."""
    tables = [_gauss_coeffs(*b) for b in binomials]
    if len(tables) == 2:
        tables = [_table(_packed_sum([(0, *tables)], 2))[1]]
    base = tables[0] if tables else _ONE
    out = [0] * (k * len(base) - k + 1)
    out[::k] = base
    return _hold(tuple(out))


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
    return _hold(_table(_packed_sum(terms, 12))[1])


def _triple_sum(N: int, weight: Callable[[int, int, int, int], int]) -> QPoly:
    """sum of q^(weight/2) [3V,m]_q [V+floor(n1/2), floor(n1/2)]_{q^6}
    [V+floor(n2/2), floor(n2/2)]_{q^6} over n1, n2, m >= 0 with
    V = N-m-n1-n2 >= 0, the weight taken in half-steps; zero for N < 0.

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


def _graded_sum(T: int, weight: Callable[[int, int, int], int],
                pieces: Callable[[int, int, int, int],
                                 Iterable[tuple[int, int, Sequence[int], Sequence[int]]]]
                ) -> XSeries:
    """sum of x^grade q^w L R mod q^(T+1/2) over the (grade, w, L, R)
    pieces of every cell (n1, n2, m, w) of `_cells(T, weight)`, with L and
    R dense tables on whole q-steps from q^0: the one accumulate loop of
    the windowed cell series.  Each grade is one `_packed_sum` cut at the
    window, which drops a piece past it and trims each table to its room
    T - w."""
    if T < 0:
        raise ValueError("T must be >= 0")
    grades: dict[int, list] = {}
    for cell in _cells(T, weight):
        for grade, w, left, right in pieces(*cell):
            grades.setdefault(grade, []).append((2 * w, left, right))
    return XSeries(T, {x: _packed_sum(terms, 2, 2 * T) for x, terms in grades.items()})


# ---------------------------------------------------------------------------
# the central polynomial identity

@lru_cache(maxsize=None)
def _lhs_table(N: int) -> tuple[int, Sequence[int]]:
    return _side_table(_triple_sum(N, _plain_weight))


def lhs_schur(N: int) -> QPoly:
    """Triple sum side: sum of q^weight_a times [3V,m]_q
    [V+floor(n1/2), floor(n1/2)]_{q^6} [V+floor(n2/2), floor(n2/2)]_{q^6}
    over all cells with V = N-m-n1-n2 >= 0.  Zero for negative N."""
    return _side(_lhs_table(N))


def _round_walk(N: int) -> QPoly:
    # q^(j(3j-1)/2) times the k-terms q^(3k(k+j)) [N,k]_{q^3}
    # [N-k,k+j]_{q^3} of the (N; j; q^3 choose j) round trinomial
    return _trinomial_sum(N, range(-N, N + 1), 3, lambda j, ks: [
        j * (3 * j - 1) + 6 * k * (k + j) for k in ks])


@lru_cache(maxsize=None)
def _rhs_table(N: int) -> tuple[int, Sequence[int]]:
    return _side_table(_round_walk(N))


def rhs_schur(N: int) -> QPoly:
    """Round-trinomial side: sum over |j| <= N of q^(j(3j-1)/2) times the
    (N; j; q^3 choose j) round trinomial.  Zero for negative N."""
    return _side(_rhs_table(N))


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


def _summand_factors(N: int, m: int, n1: int, n2: int
                    ) -> tuple[int, Sequence[int], Sequence[int]]:
    # schur_summand(N, m, n1, n2) as (least half-step, [3V,m]_q, its q^6
    # pair on whole q-steps), both tables empty where the summand is zero
    v = N - m - n1 - n2
    if m < 0 or n1 < 0 or n2 < 0 or v < 0 or m > 3 * v:
        return 0, (), ()
    return (2 * weight_a(n1, n2, m), _gauss_coeffs(3 * v, m),
            _spread(6, (v + n1 // 2, n1 // 2), (v + n2 // 2, n2 // 2)))


# Each recurrence, left minus right, as terms (sign, (c, d), powers,
# steps): sign * q^(cN+d) * (the sum of q^p over p in powers) times the
# side at the indices (N, m, n1, n2) less the steps.  rec-andrews steps N
# through rhs_schur.  rec-l and rec-summand read one table, L4: rec-l
# takes its N-step alone, through lhs_schur; rec-summand steps every
# index of schur_summand, n1 and n2 by 2, as the summand reads them only
# through their floored halves.
_L4 = (
    (1, (0, 0), (0,), (0, 0, 0, 0)),
    (-1, (0, 0), (0,), (1, 0, 0, 0)),
    (-1, (6, -5), (0,), (2, 0, 0, 2)),
    (-1, (6, -7), (0,), (2, 0, 2, 0)),
    (-1, (3, -3), (0, 1, 2), (2, 1, 0, 0)),
    (-1, (6, -8), (0, 1, 2), (3, 2, 0, 0)),
    (1, (12, -24), (0,), (4, 0, 2, 2)),
    (-1, (9, -15), (0,), (4, 3, 0, 0)),
)
_RECURRENCES: dict[str, tuple[tuple, ...]] = {
    "rec-andrews": (
        (1, (0, 0), (0,), (0,)),
        (-1, (0, 0), (0,), (1,)),
        (-1, (3, -2), (0, 1), (1,)),
        (-1, (3, -3), (0,), (2,)),
        (1, (6, -6), (0,), (2,)),
    ),
    "rec-l": _L4,
    "rec-summand": _L4,
}


def recurrence_residual(kind: "IdentityId | str", N: int,
                        m: int | None = None, n1: int | None = None,
                        n2: int | None = None) -> QPoly:
    """Left minus right of the named recurrence; the zero polynomial
    means the instance holds.  Builders treat negative shifted indices
    as zero, so the caller picks N large enough for the instance to be
    meaningful (2 for the two-term form, 4 for the four-term forms).

    The residual is one signed `_packed_sum` over the `_RECURRENCES`
    terms of its kind, one per power; one that vanishes is never unpacked."""
    kind = IdentityId(kind)
    if kind is IdentityId.REC_SUMMAND:
        if m is None or n1 is None or n2 is None:
            raise ValueError("summand recurrence needs m, n1, n2")
        at: tuple[int, ...] = (N, m, n1, n2)
        side = _summand_factors
    elif kind in (IdentityId.REC_L, IdentityId.REC_ANDREWS):
        whole = _lhs_table if kind is IdentityId.REC_L else _rhs_table

        def side(n: int) -> tuple[int, Sequence[int], Sequence[int]]:
            lo, table = whole(n)
            return lo, _ONE, table
        at = (N,)
    else:
        raise ValueError("not a recurrence id: %s" % kind.value)
    terms: tuple[list, list] = ([], [])
    tables: dict[tuple[int, ...], Any] = {}  # terms at one index share them
    for sign, (c, d), powers, steps in _RECURRENCES[kind]:
        # map stops at the end of at, so rec-l reads the N-step alone
        index = tuple(map(sub, at, steps))
        if index not in tables:
            tables[index] = side(*index)
        lo, left, right = tables[index]
        if left and right:
            terms[sign < 0].extend((2 * (c * N + d + p) + lo, left, right)
                                   for p in powers)
    return _packed_sum(terms[0], 2, minus=terms[1])


# ---------------------------------------------------------------------------
# dual identity and the T0 suite

def _t0_half_walk(N: int, T: int | None = None) -> QPoly:
    # sum over |j| <= N of q^((N+j)/2) T0(N; q^3 choose j), mod
    # q^(T+1/2) when T is given; every exponent is >= 0
    return _trinomial_sum(N, range(-N, N + 1), 3, lambda j, ks: [
        N + j + e for e in _t_exponents(0, N, j, ks, 3)],
        None if T is None else 2 * T)


@lru_cache(maxsize=None)
def _t0_half_table(N: int) -> tuple[int, Sequence[int]]:
    return _side_table(_t0_half_walk(N))


def t0_half_sum(N: int) -> QPoly:
    """sum over |j| <= N of q^((N+j)/2) T0(N; q^3 choose j), exact.  This
    is the base-change dual of the round-trinomial side, renormalized by
    q^(N/2) so it is a genuine polynomial."""
    return _side(_t0_half_table(N))


@lru_cache(maxsize=None)
def _dual_table(N: int) -> tuple[int, Sequence[int]]:
    # the triple sum at the dual weight: the dual's left side and the
    # N-layer of both summation formulas
    return _side_table(_triple_sum(N, _dual_weight))


def dual_sides(N: int) -> tuple[QPoly, QPoly]:
    """Both sides of the q -> 1/q image of the central identity, each
    multiplied by q^(N/2): LHS the triple sum with weight q^(B-A), RHS
    the T0 sum.  Cross-checked in tests against the independent oracle
    q^(3N^2/2 + N/2) * lhs_schur(N)(1/q)."""
    if N < 0:
        raise ValueError("dual sides need N >= 0")
    return _side(_dual_table(N)), t0_half_sum(N)


def t0_binomial_sides(N: int) -> tuple[QPoly, QPoly]:
    """The T0 sum against its single-binomial form:
    sum_k q^k [N,k]_{q^3} (-q^2; q^3)_{N-k}."""
    if N < 0:
        raise ValueError("t0 binomial sides need N >= 0")
    # (-q^2; q^3)_j for j = 0..N, each the one before times its own part
    poch = [[1]]
    for part in range(2, 3 * N, 3):
        poch.append(_parts_series(len(poch[-1]) - 1 + part, once=[part],
                                  start=poch[-1]))
    rhs = _packed_sum([(2 * k, _spread(3, (N, k)), poch[N - k])
                       for k in range(N + 1)], 2)
    return t0_half_sum(N), rhs


def t0_half_sum_truncated(N: int, T: int) -> QPoly:
    """t0_half_sum(N) mod q^(T+1/2) without building the full polynomial:
    for large N only a few k survive per j, so the truncated window is
    cheap even at N well beyond exact-computation comfort."""
    if T < 0:
        raise ValueError("T must be >= 0")
    return _t0_half_walk(N, T)


def t0_limit_product(T: int) -> QPoly:
    """1/((q^2;q^3)_inf (q;q^6)_inf) mod q^(T+1/2): partitions into parts
    congruent to 2 mod 3 or to 1 mod 6, each used freely."""
    return QPoly.from_table(_parts_series(T, free=[
        p for p in range(1, T + 1) if p % 3 == 2 or p % 6 == 1]))


def _limit_sum(T: int, k: int, layers: Iterable[tuple[int, int, QPoly]]) -> QPoly:
    """sum of q^(lead/2) p / (q^k;q^k)_n mod q^(T+1/2) over the (n, lead,
    p) layers, lead in half-steps: each layer's `QPoly.table` from q^0 to
    q^T is the start table of `_parts_series`, the parts k..kn each used
    freely."""
    if T < 0:
        raise ValueError("T must be >= 0")
    acc = [0] * (T + 1)
    for n, lead, p in layers:
        acc = list(map(add, acc, _parts_series(
            T, free=range(k, k * n + 1, k), start=p.table(-lead, 2 * T - lead))))
    return QPoly.from_table(acc)


def qt_limit_sum(t: int, T: int) -> QPoly:
    """Parity-split limit sum mod q^(T+1/2):
    sum q^weight_q(t,m,n1,y) / (q^6;q^6)_y * [3y,m]_q
    [y+floor(n1/2), y]_{q^6} over m, n1, y >= 0.  Equal for t = 1 and
    t = 2, and equal to t0_limit_product(T).  A t outside `_QT_T` raises
    weight_q's ValueError on the first cell."""

    def floor(y: int, m: int, n1: int) -> int:
        # weight_q without its nonnegative parity terms
        return m * (m - 1) // 2 + y * (3 * y + 1) // 2 + n1

    def pieces(y: int, m: int, n1: int, _: int):
        # graded by y; the cells of one y and floor(n1/2) share their
        # q^6 table, so the kernel multiplies it once
        if m <= 3 * y:
            yield (y, weight_q(t, m, n1, y), _gauss_coeffs(3 * y, m),
                   _spread(6, (y + n1 // 2, y)))

    slices = _graded_sum(T, floor, pieces)
    # each y-slice over (q^6;q^6)_y
    return _limit_sum(T, 6, ((y, 0, slices.stratum(y)) for y in slices.x_degrees()))


def summation_formula_sides(M: int) -> tuple[QPoly, QPoly]:
    """Finite product formula: LHS the quadruple sum with weight
    q^(3N^2/2 + B - A) and the extra [M,N]_{q^3}; RHS the closed product
    (-q; q^3)_M (-q^2; q^3)_M."""
    if M < 0:
        raise ValueError("summation sides need M >= 0")
    # q^(3N^2/2) against the dual's q^(N/2): N(3N-1) half-steps
    terms = []
    for N in range(M + 1):
        lo, dual = _dual_table(N)
        terms.append((N * (3 * N - 1) + lo, _spread(3, (M, N)), dual))
    lhs = _packed_sum(terms, 2)
    # distinct parts below 3M, none divisible by 3; they sum to 3M^2
    rhs = QPoly.from_table(_parts_series(3 * M * M, once=[
        p for p in range(1, 3 * M) if p % 3]))
    return lhs, rhs


def summation_limit_sum(T: int) -> QPoly:
    """The M -> infinity image of the quadruple sum: the outer binomial
    becomes 1/(q^3;q^3)_N.  Truncated at T; the N-layer is q^(N(3N-1)/2)
    times the dual-weight triple sum, so the loop stops at the first N
    with N(3N-1)/2 > T.  Equals schur_product_truncated(T), as the
    analytic-schur row checks."""
    return _limit_sum(T, 3, ((N, N * (3 * N - 1), _side(_dual_table(N)))
                             for N in takewhile(lambda N: N * (3 * N - 1) <= 2 * T,
                                                count())))


@lru_cache(maxsize=None)
def _t0_table(m: int, a: int) -> tuple[int, tuple[int, ...]]:
    # T0(m; q choose a) as (least half-step, dense whole-step table), the
    # right factor of every Warnaar left side with L >= m
    lead, table = _table(t_trinomial(0, m, a, 1))
    return lead, _hold(table)


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
    return sum(_lhs_table(M)[1])


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
    side of the partition theorem, its parts the ones not divisible by 3."""
    return QPoly.from_table(_parts_series(T, once=[p for p in range(1, T + 1) if p % 3]))


def _recip_cell(h1: int, h2: int, m: int, room: int) -> list[int]:
    # 1 / ((q^6;q^6)_h1 (q^6;q^6)_h2 (q;q)_m) mod q^(room+1/2) as a dense
    # table: the parts 6..6h1, 6..6h2 and 1..m, each used freely
    parts = [*range(6, 6 * h1 + 1, 6), *range(6, 6 * h2 + 1, 6), *range(1, m + 1)]
    return _parts_series(room, free=parts)


def ali_gf_truncated(T: int) -> XSeries:
    """Chain-indexed series: sum over n1, n2, m of
    x^(n1+n2+m) q^weight_a / ((q^6;q^6)_{floor(n1/2)} (q^6;q^6)_{floor(n2/2)} (q)_m)
    mod q^(T+1/2).  x marks the number of parts."""
    return _graded_sum(T, weight_a, lambda n1, n2, m, a: [
        (n1 + n2 + m, a, _recip_cell(n1 // 2, n2 // 2, m, T - a), _ONE)])


def kursungoz_gf_truncated(T: int) -> XSeries:
    """Pair-indexed series: sum over n1, n2, m of
    x^(2n1+2n2+m) q^weight_k / ((q^6;q^6)_{n1} (q^6;q^6)_{n2} (q)_m)
    mod q^(T+1/2).  Same bivariate series as ali_gf_truncated."""
    return _graded_sum(T, weight_k, lambda n1, n2, m, k: [
        (2 * n1 + 2 * n2 + m, k, _recip_cell(n1, n2, m, T - k), _ONE)])


def even_odd_split_lhs(T: int) -> XSeries:
    """Even-odd regrouping of the chain-indexed series: the pair-indexed
    summand at weight q^(weight_k + 2m) times the four-piece factor
    (1 + x q^(6n1+6n2+3m+1) + x q^(6n1+6n2+3m+2) + x^2 q^(12n1+12n2+6m+6)),
    mod q^(T+1/2).  Equals kursungoz_gf_truncated(T)."""
    def weight(n1: int, n2: int, m: int) -> int:
        return weight_k(n1, n2, m) + 2 * m

    def pieces(n1: int, n2: int, m: int, base: int):
        # one cell for all four pieces, at the room of the first
        denom = _recip_cell(n1, n2, m, T - base)
        x0 = 2 * n1 + 2 * n2 + m
        s6 = 6 * n1 + 6 * n2 + 3 * m
        return [(x0, base, denom, _ONE), (x0 + 1, base + s6 + 1, denom, _ONE),
                (x0 + 1, base + s6 + 2, denom, _ONE),
                (x0 + 2, base + 2 * s6 + 6, denom, _ONE)]

    return _graded_sum(T, weight, pieces)


def _bounded_cell(N: int, n1: int, n2: int, m: int
                  ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    # One summand of the bounded series, before its weight, as its two
    # tables, or None where the cell does not fit under N.  Each block's
    # motions under the caps of max_motions are counted by [cap + k, k]
    # for its k movers: [r + m, m]_q for the singletons, and the product
    # of the chains' pair binomials in q^6.  A block with no movers
    # contributes the empty motion set, factor 1.
    caps = max_motions(n1, n2, m, N)
    if caps is None:
        return None
    pair = [(caps[key] + k, k)
            for key, k in (("rho1", n1 // 2), ("rho2", n2 // 2)) if k]
    return (_gauss_coeffs(caps["r"] + m, m) if m else _ONE), _spread(6, *pair)


def bounded_gf(N: int, T: int) -> XSeries:
    """Largest-part-bounded chain-indexed series mod q^(T+1/2): every
    motion count is capped by max_motions, the room below the bound N,
    which turns each reciprocal Pochhammer factor into a binomial
    [cap + k, k] over the block's k movers."""
    if N < 0:
        raise ValueError("largest-part bound must be >= 0")
    def pieces(n1: int, n2: int, m: int, a: int):
        tables = _bounded_cell(N, n1, n2, m)
        return [(n1 + n2 + m, a, *tables)] if tables else []

    return _graded_sum(T, weight_a, pieces)


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


class VerificationReport:
    """One identity's verdict: status "failed" exactly when a first
    discrepancy is given.  Equal by value, and unhashable (mutable)."""
    __hash__ = None

    def __init__(self, identity: str, params: dict[str, Any], status: str,
                 first_discrepancy: dict[str, Any] | None, elapsed_ms: int = 0):
        if (status == "failed") != (first_discrepancy is not None):
            raise ValueError("status must be failed iff a discrepancy is present")
        self.identity = identity
        self.params = params
        self.status = status
        self.first_discrepancy = first_discrepancy
        self.elapsed_ms = elapsed_ms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return "VerificationReport(%s)" % ", ".join(
            "%s=%r" % pair for pair in self.as_dict().items())

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
    # equal sides, as every verified row has, are never subtracted
    if lhs == rhs:
        return None
    e = (lhs - rhs).min_half_exponent()
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
    # adds d*q^(e/2) to the first left side (to its x^0 stratum for a
    # series, d to a count) before comparing, so report plumbing can be
    # exercised against a guaranteed discrepancy.  A text side already
    # names a failure and is kept.
    if isinstance(side, str):
        return side
    if isinstance(side, int):
        return side + int(hook["delta"])
    poly = QPoly.monomial(int(hook["delta"]), int(hook["exponent_half_steps"]))
    if isinstance(side, XSeries):
        # to stratum 0, present or not; the constructor cuts it to the window
        strata = {x: side.stratum(x) for x in side.x_degrees()}
        strata[0] = side.stratum(0) + poly
        return XSeries(side.truncation, strata)
    return side + poly


# The CLI's hard caps: MAX_INDEX, the default, on indices, largest parts and
# the partition oracle's windows (it bounds the walk's time); MAX_WINDOW on
# every other window.
MAX_INDEX, MAX_WINDOW = 100, 500


class _Param(NamedTuple):
    # one declared integer parameter; with neither a default nor optional
    # set, the caller must give it
    minimum: int | None = None
    default: int | None = None
    optional: bool = False   # omitted without a default: the runner sees no key
    last: int | None = None  # the report sweeps it from minimum to last
    cap: int = MAX_INDEX     # the CLI's hard cap on |value|

    def check(self, name: str, value: Any, capped: bool = False) -> int:
        # value, if this declaration admits it; the cap binds only if capped
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError("parameter %r must be an integer" % name)
        if capped and abs(value) > self.cap:
            raise UsageError("%s=%d exceeds the hard cap %d" % (name, value, self.cap))
        if self.minimum is not None and value < self.minimum:
            raise UsageError("parameter %r must be >= %d" % (name, self.minimum))
        return value


_Pairs = Iterable[tuple[Any, Any]]


def _run_t0_limit(p: dict) -> _Pairs:
    if p["T"] > p["N"]:
        raise UsageError(
            "window T=%d exceeds the convergence range of the N=%d partial "
            "sum (the two sides genuinely differ from q^(N+1) on)" % (p["T"], p["N"]))
    return [(t0_half_sum_truncated(p["N"], p["T"]), t0_limit_product(p["T"]))]


def _run_qt_limit(p: dict) -> _Pairs:
    ts = swept_values(IdentityId.QT_LIMIT, "t")
    if p["t"] not in ts:
        raise UsageError("t must be %s" % " or ".join(map(str, ts)))
    return [(qt_limit_sum(p["t"], p["T"]), t0_limit_product(p["T"]))]


def _run_warnaar(p: dict) -> _Pairs:
    L = p["L"]
    if abs(p.get("a", 0)) > L:
        raise UsageError("warnaar needs |a| <= L=%d, else both sides vanish" % L)
    for a in [p["a"]] if "a" in p else range(-L, L + 1):
        yield warnaar_sides(L, a)


def _run_analytic_schur(p: dict) -> _Pairs:
    # two analytic forms of the partition theorem against one product:
    # the chain-indexed series at x = 1, and the summation formula's
    # M -> infinity image
    T = p["T"]
    product = schur_product_truncated(T)
    yield ali_gf_truncated(T).at_x_one(), product
    yield summation_limit_sum(T), product


def _run_rec_summand(p: dict) -> _Pairs:
    N = p["N"]
    given = tuple(p[name] for name in ("m", "n1", "n2") if name in p)
    if len(given) not in (0, 3):
        raise UsageError("give all of m, n1, n2 or none of them")
    cells = [given] if given else [(m, n1, n2)
                                   for m in range(N + 1)
                                   for n1 in range(N + 1 - m)
                                   for n2 in range(N + 1 - m - n1)]
    cells = [(m, n1, n2) for m, n1, n2 in cells if m <= 3 * (N - m - n1 - n2)]
    if given and not cells:
        raise UsageError("rec-summand needs m <= 3(N-m-n1-n2), else the "
                         "summand and every shifted one vanish")
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
        yield QPoly.from_table(counts), product


def _run_bijection_sweep(p: dict) -> _Pairs:
    # a failed certification is its own discrepancy; a clean one must
    # round-trip exactly as many partitions as the enumeration finds
    summary = certify_range(p["max_size"])
    if summary["status"] != "verified":
        return [(json.dumps(summary["failure"], sort_keys=True), "clean sweep")]
    return [(summary["partitions"], sum(schur_counts(p["max_size"])))]


# Each identity's declared parameters and its runner: resolved parameters
# -> the (left, right) side pairs to compare exactly, left side first.
# Rules that tie parameters together stay in the runners.  The entries are
# in report order, and each declares the rows it adds to the report (see
# acceptance_matrix).
_REGISTRY: dict[IdentityId, tuple[dict[str, _Param], Callable[[dict], _Pairs]]] = {
    # schur-poly's, rec-andrews', rec-l's, cor1-bounded-sum's, dual's and
    # t0-binom's N, summation-m's, q1-triple's and q1-quad's M and warnaar's
    # L take caps of their own: time climbs steeply with them, and each cap
    # is a round value that verifies in under 10 s, whole process, on a
    # 2-vCPU Xeon VM
    IdentityId.SCHUR_POLY: ({"N": _Param(0, last=25, cap=60)}, lambda p: [
        (lhs_schur(p["N"]), rhs_schur(p["N"]))]),
    IdentityId.REC_ANDREWS: ({"N": _Param(2, last=25, cap=80)}, lambda p: [(
        recurrence_residual(IdentityId.REC_ANDREWS, p["N"]), QPoly.zero())]),
    IdentityId.REC_L: ({"N": _Param(4, last=25, cap=50)}, lambda p: [(
        recurrence_residual(IdentityId.REC_L, p["N"]), QPoly.zero())]),
    # rec-summand's N takes a cap of its own: a row checks O(N^3) cells,
    # each over tables that grow with N
    IdentityId.REC_SUMMAND: (
        {"N": _Param(4, last=12, cap=25), "m": _Param(0, optional=True),
         "n1": _Param(0, optional=True), "n2": _Param(0, optional=True)},
        _run_rec_summand),
    IdentityId.SCHUR_COUNTS: ({"max_n": _Param(0, 60)}, _run_schur_counts),
    IdentityId.GF_BOUNDED: (
        {"N": _Param(0, last=15), "T": _Param(0, 45)}, lambda p: [(
            bounded_gf(p["N"], p["T"]),
            schur_gf_oracle(p["T"], largest_part=p["N"]))]),
    IdentityId.COR1_BOUNDED_SUM: (
        {"N": _Param(1, last=10, cap=40)}, lambda p: [cor1_bounded_sum(p["N"])]),
    IdentityId.GF_ALI_EQ_KURSUNGOZ: ({"T": _Param(0, 60, cap=MAX_WINDOW)}, lambda p: [(
        ali_gf_truncated(p["T"]), kursungoz_gf_truncated(p["T"]))]),
    IdentityId.GF_EVEN_ODD_SPLIT: ({"T": _Param(0, 60, cap=MAX_WINDOW)}, lambda p: [(
        even_odd_split_lhs(p["T"]), kursungoz_gf_truncated(p["T"]))]),
    IdentityId.ANALYTIC_SCHUR: ({"T": _Param(0, 60, cap=MAX_WINDOW)},
                                _run_analytic_schur),
    IdentityId.DUAL: (
        {"N": _Param(0, last=20, cap=60)}, lambda p: [dual_sides(p["N"])]),
    IdentityId.T0_BINOM: (
        {"N": _Param(0, last=20, cap=80)}, lambda p: [t0_binomial_sides(p["N"])]),
    IdentityId.T0_LIMIT: (
        {"N": _Param(0, 40), "T": _Param(0, 40, cap=MAX_WINDOW)}, _run_t0_limit),
    IdentityId.QT_LIMIT: (
        {"t": _Param(_QT_T[0], last=_QT_T[-1]), "T": _Param(0, 50, cap=MAX_WINDOW)},
        _run_qt_limit),
    IdentityId.SUMMATION_M: (
        {"M": _Param(0, last=12, cap=50)},
        lambda p: [summation_formula_sides(p["M"])]),
    IdentityId.WARNAAR: (
        {"L": _Param(0, last=12, cap=50), "a": _Param(optional=True)}, _run_warnaar),
    IdentityId.Q1_TRIPLE: ({"M": _Param(0, last=15, cap=60)}, lambda p: [
        (q1_triple_value(p["M"]), 3 ** p["M"])]),
    IdentityId.Q1_QUAD: ({"M": _Param(0, last=15, cap=50)}, lambda p: [
        (q1_quad_value(p["M"]), 4 ** p["M"])]),
    IdentityId.BIJECTION_SWEEP: (
        {"max_size": _Param(0, 40)}, _run_bijection_sweep),
    IdentityId.EXPONENT_DIFF: ({"max": _Param(0, 20)}, _run_exponent_diff),
}

# Each series `qschur series` prints: its builder and its declared
# parameters, in argument order.  lhs and rhs read schur-poly's N.
_SERIES: dict[str, tuple[Callable[..., Any], dict[str, _Param]]] = {
    "lhs": (lhs_schur, _REGISTRY[IdentityId.SCHUR_POLY][0]),
    "rhs": (rhs_schur, _REGISTRY[IdentityId.SCHUR_POLY][0]),
    "ali": (ali_gf_truncated, {"T": _Param(0, cap=MAX_WINDOW)}),
    "kursungoz": (kursungoz_gf_truncated, {"T": _Param(0, cap=MAX_WINDOW)}),
    "even-odd": (even_odd_split_lhs, {"T": _Param(0, cap=MAX_WINDOW)}),
    "bounded": (bounded_gf, {"largest_part": _Param(0), "T": _Param(0, cap=MAX_WINDOW)}),
    "oracle": (schur_gf_oracle, {"T": _Param(0), "largest_part": _Param(0, optional=True)}),
    "product": (schur_product_truncated, {"T": _Param(0, cap=MAX_WINDOW)}),
}


def swept_values(identity: "IdentityId | str", name: str) -> range:
    """The values the report sweeps a parameter over: from its declared
    minimum to its declared last."""
    spec = _REGISTRY[IdentityId(identity)][0][name]
    return range(spec.minimum, spec.last + 1)


def acceptance_matrix() -> list[dict[str, Any]]:
    """The full verification matrix, in reporting order: for each registry
    entry, every value of its swept parameter from its minimum to its last,
    with every other parameter at its default and optional ones left out."""
    rows: list[dict[str, Any]] = []
    for ident, (declared, _) in _REGISTRY.items():
        params: list[dict[str, int]] = [{}]
        for name, spec in declared.items():
            if spec.last is not None:
                values = swept_values(ident, name)
            elif spec.default is not None:
                values = [spec.default]
            else:
                continue
            params = [{**p, name: v} for p in params for v in values]
        rows.extend({"check": ident.value, "params": p} for p in params)
    return rows


def _resolve(label: str, declared: dict[str, _Param], params: dict[str, Any],
             capped: bool) -> dict[str, int]:
    # every declared parameter, defaults filled in, in declaration order
    unknown = [k for k in params if k not in declared and not k.startswith("_")]
    if unknown:
        raise UsageError("%s does not take parameter %s" % (
            label, ", ".join(repr(k) for k in unknown)))
    resolved: dict[str, int] = {}
    for name, spec in declared.items():
        if name not in params and spec.default is None:
            if spec.optional:
                continue
            raise UsageError("missing parameter %r" % name)
        resolved[name] = spec.check(name, params.get(name, spec.default), capped)
    return resolved


def check_params(identity: "IdentityId | str", params: dict[str, Any],
                 capped: bool = False) -> tuple[IdentityId, dict[str, int]]:
    """Resolve a verification request against the registry: the identity,
    and every parameter it declares, defaults filled in.  Raises
    UsageError for an unknown identity, a name it does not declare (other
    than an underscore-prefixed testing hook), a missing or non-integer
    value, a value below its declared minimum, or, when capped (the CLI's
    hard caps), a value past its declared cap."""
    try:
        ident = IdentityId(identity)
    except ValueError:
        raise UsageError("unknown identity %r" % (identity,)) from None
    return ident, _resolve(ident.value, _REGISTRY[ident][0], params, capped)


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
