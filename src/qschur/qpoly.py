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
one big integer per side and residue class of the shifts.  Every sum of
products the package builds goes through it: the triple and trinomial
sums, the windowed cell series and the recurrence residuals.
`QPoly.__mul__` is the plain schoolbook convolution, kept for the
uncached `schur_sums.schur_summand`, the tests' reference forms and the
multiply spans of perfbench.

The kernel reads the tables of the package's process-lifetime caches
from a held memo, `_HELD`: the binomial rows of `qcoeff._gauss_coeffs`
and the tables of `schur_sums._pair_sum`, `_spread` and `_t0_table`,
each registered by `_hold` when its cache builds it.  A held table
brings its coefficient sum, which sizes the slots, and its pack at the
last slot width an exact sum used, so a later term reads both instead of
summing and packing the table again: one `report` packs 6.8K tables
where it packed 36.8K.  Only packs on the array route (slots of 8 bytes
or less) from exact sums are held, to keep the memo's memory to what
the report's speed needs.  Whole process on a 2-vCPU Xeon VM, CPython
3.11, holding bytes-route packs too took `verify --identity schur-poly
--N 60` from 67 to 89 MB max RSS and `t0-binom --N 80` from 61 to
81 MB, and holding the packs of windowed sums too took
`cor1-bounded-sum --N 40` from 47 to 58 MB.

Dense tables cross module lines only through two conversions,
`QPoly.from_table` and `QPoly.table`; no other module reads or builds a
`QPoly`'s dict.  `_compact` stores a table of coefficients >= 0 in the
narrowest unsigned `array` typecode that `_slot` picks for its largest
entry, or as a tuple once an entry needs more than 8 bytes.
`schur_sums` holds its four memoized sides that way (the central left
and right sides, the dual triple sum and the T0 half sum), and the rows
that read a side pass its table straight to `_packed_sum`, `sum` or
`QPoly.from_table`.  Packed ints live only inside `_packed_sum` and its
held memo.
"""

from __future__ import annotations

import sys
from array import array
from itertools import count, repeat
from operator import sub
from typing import Iterable, Iterator, Mapping, Sequence

# Unsigned array typecodes by item size, for the slot widths `_packed_sum`
# moves through `array` in C; wider slots go through `bytes`.
_SLOT_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _put(c: dict[int, int], table: Iterable[int], lo: int, g: int) -> dict[int, int]:
    # c, with each nonzero entry of a dense table on stride g half-steps
    # from lo written in place
    for e, v in zip(count(lo, g), table):
        if v:
            c[e] = v
    return c


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


def _compact(table: Sequence[int]) -> Sequence[int]:
    """table as an array in the narrowest unsigned typecode that `_slot`
    picks for its largest entry, or as a tuple once an entry needs more
    than 8 bytes; the empty table is an array of 1-byte items.  A
    negative entry raises ValueError."""
    if table and min(table) < 0:
        raise ValueError("a compact table needs entries >= 0")
    code = _slot(max(table, default=0))[1]
    return array(code, table) if code else tuple(table)


class QPoly:
    __slots__ = ("_c",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._c = {int(e): int(v) for e, v in (terms or {}).items() if v}

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
    def from_q_coeffs(cls, coeffs: Mapping[int, int]) -> "QPoly":
        """Build from a map of integer q-exponents to coefficients."""
        return cls._raw({2 * e: int(v) for e, v in coeffs.items() if v})

    @classmethod
    def from_table(cls, table: Iterable[int], lo: int = 0, g: int = 2) -> "QPoly":
        """sum of table[i] q^((lo + g*i)/2): a dense table of int
        coefficients on stride g half-steps from lo; zeros are dropped."""
        return cls._raw(_put({}, table, lo, g))

    def table(self, lo: int, hi: int) -> list[int]:
        """The coefficients at half-steps lo, lo + 2, ..., hi, zero where
        there is no term.  A term inside [lo, hi] between those steps
        would be lost, so it raises ValueError."""
        c = self._c
        out = list(map(c.get, range(lo, hi + 1, 2), repeat(0)))
        if (len(out) - out.count(0) != len(c)
                and any((e - lo) % 2 for e in c if lo <= e <= hi)):
            raise ValueError("a term lies between the table's steps")
        return out

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def items(self) -> Iterator[tuple[int, int]]:
        """(half-step exponent, coefficient) pairs, unordered."""
        return iter(self._c.items())

    def coefficient(self, half_steps: int) -> int:
        return self._c.get(half_steps, 0)

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
        # schoolbook convolution over the shorter factor
        a, b = self._c, other._c
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

    __rmul__ = __mul__

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
        c = {e: v for e, v in self._c.items() if e <= cut}
        return QPoly._raw(c) if len(c) != len(self._c) else self

    def to_pairs(self) -> list[list]:
        """Serialization form: [[half-step exponent, coeff as str], ...]."""
        return [[e, str(self._c[e])] for e in sorted(self._c)]

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


# id(table) -> [table, sum(table), (w, table packed w bytes a slot) or
# None]: the held memo, one entry per table a process-lifetime cache
# registered with `_hold`.  The entry holds its table, so no id it keys
# can pass to another object while it lives, even once the cache that
# built the table is cleared.  The width and its int are one tuple,
# replaced whole, so a thread never reads a width with another width's
# int.
_HELD: dict[int, list] = {}


def _hold(table: tuple[int, ...]) -> tuple[int, ...]:
    """table, registered in the held memo for the life of the process:
    `_packed_sum` then reads its sum, and its pack at the last array slot
    width an exact sum used, instead of rebuilding them per term.  Only a
    cache's own immutable tables belong here."""
    _HELD[id(table)] = [table, sum(table), None]
    return table


def _packed_sum(terms: Iterable[tuple[int, Sequence[int], Sequence[int]]],
                g: int, cut: int | None = None,
                minus: Iterable[tuple[int, Sequence[int], Sequence[int]]] = ()
                ) -> QPoly:
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
    their left tables are summed first, shifted by whole slots, and the
    right table is cut once, to the room of the group's earliest term.
    The products that a later term thus gains all land past the cut, so
    only the slots that the cut drops may overflow.  A class
    whose two sides are equal integers contributes nothing and is never
    unpacked; only an unequal class is cut back into slots.  A negative
    entry or shift raises ValueError.  A product AB of signed tables goes
    in split by sign, A = A+ - A- (A- the absolute value of the negative
    part, [] when empty): A+B+ and A-B- less A+B- and A-B+.

    A table is packed once a sum, and a held table (`_hold`) brings its
    sum, and its pack when an earlier sum left one at this width, from
    the held memo; an exact sum on the array route leaves its held
    tables' packs there.  A window that cuts a table makes a new object,
    so its prefix is summed and packed like any other table."""
    # id(L) -> (L, [(least slot, group key) of each term L is left of])
    kept: dict[int, tuple[Sequence[int], list]] = {}
    bounds = [0, 0]
    top = 0
    # (side, residue, id(R)) -> [least slot, R cut to its room]; side 0
    # adds, 1 subtracts
    groups: dict[tuple[int, int, int], list] = {}
    # residue -> slots in the sum, read off the uncut right tables: a group
    # multiplies its earliest term's cut, which may pass a later term's
    ends: dict[int, int] = {}
    for side, side_terms in enumerate((terms, minus)):
        for shift, left, right in side_terms:
            if shift < 0:
                raise ValueError("packed sum needs shifts >= 0")
            cut_right = right
            if cut is not None:
                if shift > cut:
                    continue
                room = (cut - shift) // g + 1
                left, cut_right = left[:room], right[:room]
            if left and cut_right:
                i, r = divmod(shift, g)
                key = side, r, id(right)
                use = kept.get(id(left))
                if use is None:
                    use = kept[id(left)] = left, []
                use[1].append((i, key))
                group = groups.setdefault(key, [i, cut_right])
                if i < group[0]:
                    group[:] = i, cut_right
                ends[r] = max(ends.get(r, 0), i + len(left) + len(right) - 1)
                held = _HELD.get(id(left))
                sl = held[1] if held else sum(left)
                held = _HELD.get(id(cut_right))
                sr = held[1] if held else sum(cut_right)
                bounds[side] += sl * sr
                top = max(top, sl, sr)
    w, code = _slot(max(*bounds, top))
    # packs are held from exact sums on the array route alone
    store = cut is None and code is not None

    def pack(table: Sequence[int]) -> int:
        held = _HELD.get(id(table))
        rec = held[2] if held else None
        if rec and rec[0] == w:
            return rec[1]
        x = _pack(table, w, code)
        if held and store:
            held[2] = w, x
        return x

    lefts = dict.fromkeys(groups, 0)
    sums: dict[tuple[int, int], int] = {}    # (side, residue) -> packed sum
    try:
        for left, uses in kept.values():
            x = pack(left)
            for i, key in uses:
                lefts[key] += x << 8 * w * (i - groups[key][0])
        for key, (i, right) in groups.items():
            sums[key[:2]] = (sums.get(key[:2], 0)
                             + (lefts[key] * pack(right) << 8 * w * i))
    except OverflowError:
        raise ValueError("packed sum needs entries >= 0") from None
    out: dict[int, int] = {}
    for r, n in ends.items():
        pos, neg = sums.pop((0, r), 0), sums.pop((1, r), 0)
        if cut is not None and r + g * (n - 1) > cut:
            n = (cut - r) // g + 1
            mask = (1 << 8 * w * n) - 1
            pos, neg = pos & mask, neg & mask
        if pos == neg:
            continue
        vals = _unpack(pos, n, w, code)
        if neg:
            vals = list(map(sub, vals, _unpack(neg, n, w, code)))
        _put(out, vals, r, g)
    return QPoly._raw(out)


class XSeries:
    """Finite family of q-truncated QPoly strata graded by a power of x.

    All strata share one truncation bound (in q-units) fixed at
    construction, and each stratum given is cut to it.
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

    def at_x_one(self) -> QPoly:
        acc = QPoly.zero()
        for p in self._s.values():
            acc = acc + p
        return acc

    def to_strata_pairs(self) -> list[list]:
        return [[x, self._s[x].to_pairs()] for x in sorted(self._s)]

    def __repr__(self) -> str:
        parts = ", ".join(
            "x^%d -> %r" % (x, self._s[x]) for x in sorted(self._s))
        return "XSeries(trunc=%d, %s)" % (self._trunc, parts or "0")
