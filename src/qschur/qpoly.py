"""Exact sparse Laurent polynomials in q^(1/2), plus an x-graded extension.

Conventions used throughout the package:

* Exponents are integers counting half-steps of q^(1/2).  The monomial q^n
  is stored under the key 2n, q^(1/2) under the key 1, q^(-3/2) under -3.
  A single global denominator of 2 is enough for every series we build and
  it keeps exponent arithmetic in plain ints.
* Coefficients are arbitrary-precision signed ints and are always exact.
* The zero polynomial is the empty map; no zero coefficient is ever stored,
  so ``==`` is structural equality of canonical forms.

`QPoly` values are immutable by convention: no public method mutates, every
operation returns a fresh value, so they are safe to share across threads
and to memoize.

`XSeries` grades `QPoly` values by a power of a formal marker x (we use it
to count parts of a partition) and fixes one q-truncation bound for every
stratum at construction time.

`_packed_sum` is the one Kronecker kernel: it adds up products of dense
nonnegative coefficient tables, less an optional second such sum, as
one big integer per side and residue class of the shifts.  The triple
and trinomial sums, the recurrence residuals and the packed route of
`QPoly.__mul__` (its factors' sign parts) go through it.  `_add_shifted`
adds a `QPoly` into a dict in place, for the builders whose terms carry
coefficients of both signs or are graded by x; `schur_sums._graded_sum`
is the one place the windowed cell series accumulate through it.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from math import gcd
from operator import sub
from typing import Iterable, Iterator, Mapping, Sequence

# Up to this many coefficient pairs the plain dict convolution wins over
# the packed route.  Replaying the products of `qschur report`, and of
# the `verify` rows gf-even-odd-split and analytic-schur at T = 240 and
# qt-limit at T = 100 ("series"), through each route (best of 21, us per
# product; 2-vCPU Xeon VM, CPython 3.11): dict led on both up to 256
# pairs, the lead at 257-320 changed sides between runs, packed led past.
#
#   pairs               129-192  193-256  257-320  321-384  385-512
#   report     dict        18       25       30       38       45
#              packed      25       29       31       36       38
#   series     dict        20       26       35       40       88
#              packed      27       28       32       32       69
#
# scripts/mul_crossover.py's even-length binomials cross sooner, at 169.
_PACK_THRESHOLD = 256

# Unsigned array typecodes by item size, for the slot widths the packed
# route moves through `array` in C; wider slots go through `bytes`.
_SLOT_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _dense(c: dict[int, int], lo: int, hi: int, g: int) -> list[int]:
    """c's coefficients at exponents lo, lo + g, ..., hi, zero where c has
    none."""
    return list(map(c.get, range(lo, hi + 1, g), repeat(0)))


def _sign_parts(c: dict[int, int], lo: int, hi: int,
                g: int) -> tuple[list[int], list[int]]:
    """c laid out by `_dense` as its positive part and the absolute value
    of its negative part, [] for a part with no entry."""
    dense = _dense(c, lo, hi, g)
    if min(c.values()) > 0:
        return dense, []
    if max(c.values()) < 0:
        return [], [-v for v in dense]
    return [v if v > 0 else 0 for v in dense], [-v if v < 0 else 0 for v in dense]


def _slot(bound: int) -> tuple[int, str | None]:
    """Slot width in bytes for values up to bound, and the array typecode
    that moves it: 1, 2, 4 or 8 bytes through `array`, wider through
    `bytes`."""
    w = max(1, (bound.bit_length() + 7) // 8)
    for width in (1, 2, 4, 8):
        if w <= width and width in _SLOT_CODES:
            return width, _SLOT_CODES[width]
    return w, None


def _pack(dense: Sequence[int], w: int, code: str | None) -> int:
    # Slot i holds dense[i] in w bytes, slot 0 at the low end of the int
    # on every host, so a packed value shifted left by j slots is the same
    # table moved j steps up.  Slots are unsigned: a negative entry raises
    # OverflowError.
    if code:
        slots = array(code, dense)
        if _BIG_ENDIAN:
            slots.byteswap()
        return int.from_bytes(slots.tobytes(), "little")
    return int.from_bytes(b"".join(v.to_bytes(w, "little") for v in dense),
                          "little")


def _unpack(x: int, n: int, w: int, code: str | None) -> list[int]:
    buf = x.to_bytes(n * w, "little")
    if code:
        slots = array(code, buf)
        if _BIG_ENDIAN:
            slots.byteswap()
        return slots.tolist()
    return [int.from_bytes(buf[i:i + w], "little")
            for i in range(0, n * w, w)]


class QPoly:
    __slots__ = ("_c",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if terms:
            for e, v in terms.items():
                if v:
                    c[int(e)] = int(v)
        self._c = c

    @classmethod
    def _raw(cls, c: dict[int, int]) -> "QPoly":
        # Trusted constructor: c must already be canonical (no zeros).
        p = cls.__new__(cls)
        p._c = c
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "QPoly":
        return cls._raw({0: 1})

    @classmethod
    def monomial(cls, coeff: int, half_steps: int) -> "QPoly":
        """coeff * q^(half_steps / 2)."""
        if coeff == 0:
            return cls._raw({})
        return cls._raw({half_steps: coeff})

    @classmethod
    def q_power(cls, n: int) -> "QPoly":
        """q^n for integer n (possibly negative)."""
        return cls._raw({2 * n: 1})

    @classmethod
    def from_q_coeffs(cls, coeffs: Mapping[int, int]) -> "QPoly":
        """Build from a map of integer q-exponents to coefficients."""
        return cls._raw({2 * e: int(v) for e, v in coeffs.items() if v})

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def items(self) -> Iterator[tuple[int, int]]:
        """(half-step exponent, coefficient) pairs, unordered."""
        return iter(self._c.items())

    def coefficient(self, half_steps: int) -> int:
        return self._c.get(half_steps, 0)

    def coefficient_q(self, n: int) -> int:
        """Coefficient of q^n, n an integer q-exponent."""
        return self._c.get(2 * n, 0)

    def min_half_exponent(self) -> int | None:
        return min(self._c) if self._c else None

    def max_half_exponent(self) -> int | None:
        return max(self._c) if self._c else None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    # Mutable-by-construction dict inside; structural equality only.
    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> "QPoly":
        return QPoly._raw({e: -v for e, v in self._c.items()})

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        c = dict(a)
        for e, v in b.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return QPoly._raw(c)

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) - v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return QPoly._raw(c)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            if not other:
                return QPoly._raw({})
            return QPoly._raw({e: v * other for e, v in self._c.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return QPoly._raw({})
        if len(a) == 1:
            (ea, ca), = a.items()
            return QPoly._raw({ea + e: ca * v for e, v in b.items()})
        if len(b) == 1:
            (eb, cb), = b.items()
            return QPoly._raw({eb + e: cb * v for e, v in a.items()})
        if len(a) * len(b) <= _PACK_THRESHOLD:
            return self._mul_dict(a, b)
        return self._mul_packed(a, b)

    __rmul__ = __mul__

    @staticmethod
    def _mul_dict(a: dict[int, int], b: dict[int, int]) -> "QPoly":
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        get = c.get
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                s = get(e, 0) + va * vb
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        return QPoly._raw(c)

    @staticmethod
    def _mul_packed(a: dict[int, int], b: dict[int, int]) -> "QPoly":
        # one signed `_packed_sum` of the factors' sign parts, laid out from
        # their least exponents along one common stride; no coefficient of
        # either side, nor any entry, exceeds min(len) max|a| max|b|
        amin, amax = min(a), max(a)
        bmin, bmax = min(b), max(b)
        g = gcd(*[e - amin for e in a], *[e - bmin for e in b]) or 1
        n_out = (amax - amin) // g + (bmax - bmin) // g + 1
        bound = (min(len(a), len(b)) * max(map(abs, a.values()))
                 * max(map(abs, b.values())))
        # a slot costs about the bound's bytes packed plus an 8-byte list
        # pointer while it is laid out; past 64 MB the dict route runs
        if n_out * ((bound.bit_length() + 7) // 8 + 8) > 1 << 26:
            return QPoly._mul_dict(a, b)
        ap, an = _sign_parts(a, amin, amax, g)
        bp, bn = _sign_parts(b, bmin, bmax, g)
        return _packed_sum([(0, ap, bp), (0, an, bn)], g, bound=bound,
                           minus=[(0, ap, bn), (0, an, bp)]).shift(amin + bmin)

    def substitute_q_power(self, k: int) -> "QPoly":
        """Map q to q^k for nonzero integer k; k = -1 is the q -> 1/q dual."""
        if k == 0:
            raise ValueError("substitute_q_power requires k != 0")
        return QPoly._raw({k * e: v for e, v in self._c.items()})

    def shift(self, half_steps: int) -> "QPoly":
        """Multiply by q^(half_steps / 2)."""
        if not half_steps:
            return self
        return QPoly._raw({e + half_steps: v for e, v in self._c.items()})

    def truncate(self, max_q_degree: int) -> "QPoly":
        """Drop all terms with exponent above q^max_q_degree.

        The bound is in q-units; a term q^(e/2) survives iff e <= 2*bound,
        so half-step terms strictly between the bound and the next integer
        are dropped as well (reduction mod q^(bound + 1/2)).
        """
        cut = 2 * max_q_degree
        if not self._c:
            return self
        c = {e: v for e, v in self._c.items() if e <= cut}
        return QPoly._raw(c) if len(c) != len(self._c) else self

    def eval_at_one(self) -> int:
        return sum(self._c.values())

    def to_pairs(self) -> list[list]:
        """Serialization form: [[half-step exponent, coeff as str], ...]."""
        return [[e, str(self._c[e])] for e in sorted(self._c)]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable]) -> "QPoly":
        return cls._raw({int(e): int(v) for e, v in pairs if int(v)})

    def __str__(self) -> str:
        """Terms in ascending powers, e.g. ``1 + q - 2*q^(3/2)``; ``0`` when
        zero."""
        if not self._c:
            return "0"
        bits = []
        for e in sorted(self._c):
            v = self._c[e]
            if e == 0:
                bits.append(str(v))
                continue
            if e == 2:
                mono = "q"
            elif e % 2 == 0:
                mono = "q^%d" % (e // 2)
            else:
                mono = "q^(%d/2)" % e
            if v == 1:
                bits.append(mono)
            elif v == -1:
                bits.append("-" + mono)
            else:
                bits.append("%d*%s" % (v, mono))
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return "QPoly(%s)" % self


def _packed_sum(terms: Iterable[tuple[int, Sequence[int], Sequence[int]]],
                g: int, cut: int | None = None,
                minus: Iterable[tuple[int, Sequence[int], Sequence[int]]] = (),
                bound: int | None = None) -> QPoly:
    """Exact sum of q^(shift/2) L R over the (shift, L, R) terms, less the
    same sum over the minus terms, where L and R are dense coefficient
    tables on stride g half-steps (L[i] is the coefficient of q^(g*i/2)),
    every entry and every shift >= 0.  With cut given, only exponents
    <= cut half-steps are kept: terms that start past it are skipped, each
    table is cut to the prefix that can reach the window, and the sum is
    cut once at the end.

    Kronecker substitution over a whole sum: a table packed w bytes a
    slot is its polynomial at X = 2^(8w), so sums and products of packed
    values are exact whatever their slots hold, and each side of the sum
    is one integer per residue class of the shifts mod g.  A side reads
    back right when every coefficient of it, and every entry packed, is
    below X.  No entry is negative, so no coefficient of a side exceeds
    the sum over its terms of sum(L) sum(R), and no entry its own table's
    sum; the slot width covers both sides.  Terms of one side and class
    that share their right table (the same object) are multiplied once:
    their left tables are summed first, shifted by whole slots.  A class
    whose two sides are equal integers contributes nothing and is never
    unpacked; only an unequal class is cut back into slots.  A negative
    entry or shift raises ValueError.  A product AB of signed tables goes
    in split by sign, A = A+ - A- (A- the absolute value of the negative
    part, [] when empty): A+B+ and A-B- less A+B- and A-B+.  A caller
    that knows a smaller bound on all of these passes it as bound."""
    kept = []
    bounds = [0, 0]
    top = 0
    # (side, residue, id(R)) -> [least slot, R]; side 0 adds, 1 subtracts
    groups: dict[tuple[int, int, int], list] = {}
    ends: dict[int, int] = {}                # residue -> slots in the sum
    for side, side_terms in enumerate((terms, minus)):
        for shift, left, right in side_terms:
            if shift < 0:
                raise ValueError("packed sum needs shifts >= 0")
            if cut is not None:
                if shift > cut:
                    continue
                room = (cut - shift) // g + 1
                left, right = left[:room], right[:room]
            if left and right:
                i, r = divmod(shift, g)
                key = side, r, id(right)
                kept.append((i, key, left))
                group = groups.setdefault(key, [i, right])
                group[0] = min(group[0], i)
                ends[r] = max(ends.get(r, 0), i + len(left) + len(right) - 1)
                if bound is None:
                    sl, sr = sum(left), sum(right)
                    bounds[side] += sl * sr
                    top = max(top, sl, sr)
    w, code = _slot(max(*bounds, top) if bound is None else bound)
    lefts = dict.fromkeys(groups, 0)
    sums: dict[tuple[int, int], int] = {}    # (side, residue) -> packed sum
    try:
        for i, key, left in kept:
            lefts[key] += _pack(left, w, code) << 8 * w * (i - groups[key][0])
        for key, (i, right) in groups.items():
            sums[key[:2]] = (sums.get(key[:2], 0)
                             + (lefts[key] * _pack(right, w, code) << 8 * w * i))
    except OverflowError:
        raise ValueError("packed sum needs entries >= 0") from None
    out: dict[int, int] = {}
    for r, n in ends.items():
        pos, neg = sums.get((0, r), 0), sums.get((1, r), 0)
        if cut is not None and r + g * (n - 1) > cut:
            n = (cut - r) // g + 1
            mask = (1 << 8 * w * n) - 1
            pos, neg = pos & mask, neg & mask
        if pos == neg:
            continue
        vals = _unpack(pos, n, w, code)
        if neg:
            vals = list(map(sub, vals, _unpack(neg, n, w, code)))
        for e, v in zip(range(r, r + g * n, g), vals):
            if v:
                out[e] = v
    return QPoly._raw(out)


def _add_shifted(row: dict[int, int], term: QPoly, shift: int) -> None:
    # row += term * q^(shift/2) in place, keeping row canonical (a + b
    # copies the whole sum): the accumulate step of the builders whose
    # terms carry coefficients of both signs or are graded by x;
    # _packed_sum serves the rest
    for e, c in term._c.items():
        key = e + shift
        s = row.get(key, 0) + c
        if s:
            row[key] = s
        else:
            del row[key]


class XSeries:
    """Finite family of q-truncated QPoly strata graded by a power of x.

    All strata share one truncation bound (in q-units) fixed at
    construction; combining two series with different bounds is an error,
    never a silent re-truncation.
    """

    __slots__ = ("_trunc", "_s")

    def __init__(self, trunc: int, strata: Mapping[int, QPoly] | None = None):
        if trunc < 0:
            raise ValueError("truncation bound must be >= 0")
        self._trunc = trunc
        s: dict[int, QPoly] = {}
        if strata:
            for x, p in strata.items():
                if x < 0:
                    raise ValueError("x-degrees must be >= 0")
                p = p.truncate(trunc)
                if p:
                    s[int(x)] = p
        self._s = s

    @classmethod
    def term(cls, trunc: int, x_degree: int, p: QPoly) -> "XSeries":
        return cls(trunc, {x_degree: p})

    @property
    def truncation(self) -> int:
        return self._trunc

    def stratum(self, x_degree: int) -> QPoly:
        return self._s.get(x_degree, QPoly.zero())

    def x_degrees(self) -> list[int]:
        return sorted(self._s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        return self._trunc == other._trunc and self._s == other._s

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "XSeries") -> "XSeries":
        if not isinstance(other, XSeries):
            return NotImplemented
        if self._trunc != other._trunc:
            raise ValueError(
                "truncation bounds differ: %d vs %d"
                % (self._trunc, other._trunc))
        s = dict(self._s)
        for x, p in other._s.items():
            q = s.get(x)
            r = p if q is None else q + p
            if r:
                s[x] = r
            else:
                s.pop(x, None)
        out = XSeries.__new__(XSeries)
        out._trunc = self._trunc
        out._s = s
        return out

    def at_x_one(self) -> QPoly:
        acc: dict[int, int] = {}
        for p in self._s.values():
            _add_shifted(acc, p, 0)
        return QPoly._raw(acc)

    def to_strata_pairs(self) -> list[list]:
        return [[x, self._s[x].to_pairs()] for x in sorted(self._s)]

    def __repr__(self) -> str:
        parts = ", ".join(
            "x^%d -> %r" % (x, self._s[x]) for x in sorted(self._s))
        return "XSeries(trunc=%d, %s)" % (self._trunc, parts or "0")
