"""Ring and truncation behaviour of the exact polynomial core."""

import math
import operator
import sys
import threading
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur import qpoly
from qschur.qpoly import QPoly, XSeries, _SLOT_CODES, _compact, _packed_sum, _slot
from reference import substitute


def poly_strategy(max_terms=6, max_half=40, max_coeff=10 ** 6, min_half=None):
    lo = -max_half if min_half is None else min_half
    pair = st.tuples(st.integers(lo, max_half),
                     st.integers(-max_coeff, max_coeff))
    return st.lists(pair, max_size=max_terms).map(
        lambda ps: QPoly._raw({e: c for e, c in ps if c}))


polys = poly_strategy()
nonneg_polys = poly_strategy(min_half=0)


def test_constructors_agree():
    assert not QPoly.zero()
    assert QPoly.one() == 1
    assert QPoly.monomial(1, 6) == QPoly({6: 1})
    assert QPoly.from_q_coeffs({0: 1, 5: 2}) == \
        QPoly.one() + QPoly.monomial(2, 10)


def test_text_forms():
    p = QPoly({0: 3, 1: -1, 2: 1, 6: -2})
    assert str(p) == "3 - q^(1/2) + q - 2*q^3"
    assert repr(p) == "QPoly(3 - q^(1/2) + q - 2*q^3)"
    assert str(QPoly.zero()) == "0"
    assert repr(QPoly.zero()) == "QPoly(0)"


def test_zero_coefficients_are_dropped():
    p = QPoly({4: 0, 2: 1})
    assert list(p.items()) == [(2, 1)]
    assert not p - p


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, polys)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


def at_one(p):
    # p at q = 1: the sum of its coefficients
    return sum(v for _, v in p.items())


@given(polys, polys)
def test_eval_at_one_is_multiplicative(a, b):
    assert at_one(a * b) == at_one(a) * at_one(b)


@given(polys)
def test_negation_cancels(a):
    assert not a + (QPoly.zero() - a)
    assert a - a == QPoly.zero()


@given(polys, st.integers(-8, 8))
def test_shift_adds_to_exponents(a, h):
    shifted = a.shift(h)
    assert at_one(shifted) == at_one(a)
    for e, c in a.items():
        assert shifted.coefficient(e + h) == c


@given(polys, st.integers(1, 4))
def test_substitute_stretches_exponents(a, k):
    sub = substitute(a, k)
    for e, c in a.items():
        assert sub.coefficient(e * k) == c
    assert at_one(sub) == at_one(a)


@given(polys)
def test_substitute_inverse_is_an_involution(a):
    assert substitute(substitute(a, -1), -1) == a


@given(nonneg_polys, nonneg_polys, st.integers(0, 25))
def test_truncated_product_consistent(a, b, t):
    # cutting inputs at degree t cannot change the product below t,
    # provided no negative exponents can pull high terms back down
    full = (a * b).truncate(t)
    short = (a.truncate(t) * b.truncate(t)).truncate(t)
    assert full == short


@given(polys, st.integers(0, 25))
def test_truncate_bound(a, t):
    cut = a.truncate(t)
    top = cut.max_half_exponent()
    assert top is None or top <= 2 * t


@st.composite
def factor_terms(draw):
    """Raw term dicts on one exponent stride (odd and negative exponents
    included), all positive, all negative or mixed in sign, with
    coefficients sized to reach every slot width of `_packed_sum`."""
    stride = draw(st.sampled_from((1, 2, 3, 6)))
    offset = draw(st.integers(-40, 40))
    coeff = st.integers(1, 1 << draw(st.sampled_from((1, 5, 12, 28, 60, 100))))
    sign = draw(st.sampled_from(("+", "-", "mixed")))
    if sign == "-":
        coeff = coeff.map(operator.neg)
    elif sign == "mixed":
        coeff = st.builds(operator.mul, coeff, st.sampled_from((1, -1)))
    exponent = st.integers(0, 30).map(lambda i: offset + stride * i)
    return draw(st.dictionaries(exponent, coeff, max_size=8))


def signed_packed_product(a, b):
    # a * b for nonempty term dicts as one signed `_packed_sum`: each
    # factor laid out from its least exponent along the common stride g,
    # split into its positive part and the absolute value of its negative
    # part, A+B+ and A-B- less A+B- and A-B+
    lo_a, lo_b = min(a), min(b)
    g = math.gcd(*[e - lo_a for e in a], *[e - lo_b for e in b]) or 1

    def parts(c, lo):
        dense = [c.get(e, 0) for e in range(lo, max(c) + 1, g)]
        return [max(v, 0) for v in dense], [max(-v, 0) for v in dense]

    (ap, an), (bp, bn) = parts(a, lo_a), parts(b, lo_b)
    return _packed_sum([(0, ap, bp), (0, an, bn)], g,
                       minus=[(0, ap, bn), (0, an, bp)]).shift(lo_a + lo_b)


# (a, b, the slot width in bytes `_packed_sum` takes for a * b): the
# larger of the two sides' sums of sum(A) sum(B) over their sign parts,
# so twenty ones times twenty ones take 400, two bytes; widths past 8
# bytes go through `bytes`
SLOT_EXAMPLES = [
    ({0: 1, 2: 1}, {0: 1, 2: 1}, 1),
    ({2 * i: 1 for i in range(20)}, {2 * i: 1 for i in range(20)}, 2),
    ({0: 100, 2: 3}, {0: 100, 4: -1}, 2),
    ({1: 30000, 3: 1}, {-3: 30000, 5: 7}, 4),
    ({0: 1 << 30, 6: 5}, {0: -(1 << 30), 12: -3}, 8),
    ({0: 3, 5: -2, 11: 7}, {-4: 1, 3: 10 ** 30}, 13),
]


@example({}, {0: 5, 2: -1})                               # empty factor
@example({7: -3}, {0: 1, 4: 2})                           # single term
@given(factor_terms(), factor_terms())
def test_kronecker_product_against_schoolbook(a, b):
    expected = QPoly._raw(a) * QPoly._raw(b)
    assert expected == QPoly._raw(b) * QPoly._raw(a)
    if a and b:
        widths = []

        def recording(bound):
            widths.append(_slot(bound))
            return widths[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qpoly, "_slot", recording)
            assert signed_packed_product(a, b) == expected
        for ea, eb, width in SLOT_EXAMPLES:
            if (a, b) == (ea, eb):
                assert [w for w, _ in widths] == [width]


for _a, _b, _ in SLOT_EXAMPLES:
    test_kronecker_product_against_schoolbook = example(_a, _b)(
        test_kronecker_product_against_schoolbook)


def naive_packed_sum(terms, g, cut=None):
    # Reference: every term a schoolbook QPoly product, added up
    total = QPoly.zero()
    for shift, left, right in terms:
        a = QPoly._raw({g * i: v for i, v in enumerate(left) if v})
        b = QPoly._raw({g * i: v for i, v in enumerate(right) if v})
        total = total + (a * b).shift(shift)
    return QPoly._raw({e: v for e, v in total.items() if cut is None or e <= cut})


@st.composite
def packed_sum_terms(draw):
    """(g, terms, cut): shifts over several residue classes mod g, right
    tables drawn from a small pool so that some terms share one, empty
    tables included, entries sized to reach every slot width."""
    g = draw(st.sampled_from((1, 2, 3, 6, 12)))
    entry = st.integers(0, 1 << draw(st.sampled_from((3, 7, 15, 31, 63, 100))))
    table = st.lists(entry, max_size=7)
    rights = draw(st.lists(table, min_size=1, max_size=3))
    term = st.tuples(st.integers(0, 60), table,
                     st.sampled_from(range(len(rights))))
    terms = [(shift, left, rights[i]) for shift, left, i
             in draw(st.lists(term, max_size=8))]
    return g, terms, draw(st.none() | st.integers(0, 150))


@example((6, [(0, [1, 2], [3]), (7, [4], [5, 6]), (14, [], [1]),
              (3, [1], [])], None))                          # residues, empties
@example((2, [(0, [255, 1], [1]), (4, [2, 3], [1, 1])], 3))   # window
@example((1, [(0, [0], [256])], None))     # all-zero factor, wide entry
@given(packed_sum_terms())
def test_packed_sum_against_dict_accumulator(case):
    g, terms, cut = case
    assert _packed_sum(terms, g, cut) == naive_packed_sum(terms, g, cut)


@pytest.mark.parametrize("w, wider", [(1, 2), (2, 4), (4, 8), (8, 9), (9, 10)])
def test_packed_sum_at_slot_bounds(w, wider):
    # one coefficient reaches the bound sum(L) sum(R) exactly: at
    # 2^(8w) - 1 it fits w-byte slots, at 2^(8w) it needs the next width
    # (widths past 8 bytes go through `bytes`)
    for bound, width in ((2 ** (8 * w) - 1, w), (2 ** (8 * w), wider)):
        assert _slot(bound) == (width, _SLOT_CODES.get(width))
        shared = [1]
        for terms in ([(4, [bound - 1], [1]), (2, [0, 1], [1])],
                      [(4, [bound - 1], shared), (4, [1], shared)]):
            total = _packed_sum(terms, 2)
            assert total == naive_packed_sum(terms, 2)
            assert total.coefficient(4) == bound


def test_shared_right_table_is_cut_once_to_its_earliest_room(monkeypatch):
    # three terms at q^(1/2) share the right table of a term at q^0; the
    # group packs it once, cut to the first term's room of two slots, so
    # each later term's product runs one slot past the cut.  Every
    # coefficient the cut keeps fits the 1-byte slots (bound 101 + 3 * 50),
    # but the q^1 slot past it gets 3 * 50 * 100 and carries upwards
    shared = (1, 100)
    terms = [(0, [1], shared)] + [(1, [50], shared)] * 3
    packed, widths = [], []
    pack, slot = qpoly._pack, qpoly._slot

    def recording_pack(table, *args):
        packed.append(len(table))
        return pack(table, *args)

    def recording_slot(bound):
        widths.append(slot(bound)[0])
        return slot(bound)

    monkeypatch.setattr(qpoly, "_pack", recording_pack)
    monkeypatch.setattr(qpoly, "_slot", recording_slot)
    assert _packed_sum(terms, 1, cut=1) == QPoly._raw({0: 1, 1: 250})
    assert widths == [1]
    assert sorted(packed) == [1, 1, 1, 1, 2]
    assert naive_packed_sum(terms, 1, cut=1) == QPoly._raw({0: 1, 1: 250})


def test_packed_sum_refuses_negative_entries_and_shifts():
    for terms in ([(0, [1, -1], [1])], [(0, [1], [2, -3])],
                  [(0, [1], [1]), (2, [-(1 << 80)], [1])],
                  [(-2, [1], [1])]):
        with pytest.raises(ValueError):
            _packed_sum(terms, 2)
    assert _packed_sum([], 2) == QPoly.zero()
    assert _packed_sum([(0, [], [1]), (2, [3], [])], 2) == QPoly.zero()
    with pytest.raises(ValueError):
        _packed_sum([(0, [1], [1])], 2, minus=[(0, [1], [-1])])


@given(packed_sum_terms(), st.data())
def test_signed_packed_sum_against_dict_accumulator(case, data):
    g, terms, cut = case
    # the subtracted side: some of the added terms in another order, so
    # that whole classes can cancel, then terms of its own
    minus = data.draw(st.permutations(terms))[:data.draw(st.integers(0, len(terms)))]
    minus += data.draw(packed_sum_terms())[1][:data.draw(st.integers(0, 3))]
    assert (_packed_sum(terms, g, cut, minus)
            == naive_packed_sum(terms, g, cut) - naive_packed_sum(minus, g, cut))


def test_signed_packed_sum_on_wide_slots(monkeypatch):
    # entries of 2^64 and more need slots wider than 8 bytes, which go
    # through `bytes`
    big = 1 << 64
    shared = [big, 1]
    terms = [(0, [big + 3, 2], [1, 1]), (4, [1], shared), (10, [5], shared),
             (3, [big], [big, 7])]
    minus = [(0, [big + 3], [1, 1]), (4, [2, 1], shared), (3, [big], [big, 6])]
    assert _slot(big * big)[1] is None
    total = _packed_sum(terms, 2, minus=minus)
    assert total == naive_packed_sum(terms, 2) - naive_packed_sum(minus, 2)
    # big^2 cancels at q^(3/2) while the class's q^(5/2) keeps 7big - 6big
    assert total.coefficient(3) == 0 and total.coefficient(5) == big
    assert total.coefficient(4) == 2 - big
    assert _packed_sum(terms, 2, cut=5, minus=minus) == QPoly._raw(
        {e: v for e, v in total.items() if e <= 5})
    # sides that are equal class by class are never cut back into slots
    monkeypatch.setattr(qpoly, "_unpack", None)
    assert _packed_sum(terms, 2, minus=terms[::-1]) == QPoly.zero()
    assert _packed_sum(terms, 2, cut=5, minus=terms) == QPoly.zero()


def kernel_bound(terms, g, cut):
    # (sum of sum(L) sum(R), largest table sum) over the terms a window
    # keeps, each table cut to its own room: what `_packed_sum` sizes its
    # slots by for one side
    total = top = 0
    for shift, left, right in terms:
        if cut is not None:
            if shift > cut:
                continue
            room = (cut - shift) // g + 1
            left, right = left[:room], right[:room]
        if left and right:
            total += sum(left) * sum(right)
            top = max(top, sum(left), sum(right))
    return total, top


# the slot widths a held table walks through, 9 standing for the bytes
# route, and back to 1; each width's least bound
WIDTH_WALK = (1, 2, 4, 8, 9, 1)
WIDTH_FLOOR = {1: 0, 2: 1 << 8, 4: 1 << 16, 8: 1 << 32, 9: 1 << 64}


@st.composite
def held_width_walk(draw):
    """(g, pool, steps): tables to hold, and for each width of WIDTH_WALK
    an exact sum and then a windowed one over them, with added and
    subtracted terms, each (terms, minus, cut).  A scale term (c) (1)
    lifts each sum's bound into its width.  A tailed table ends in entries
    too wide for the slot its head picks; it enters windowed sums only,
    at a shift whose room ends before its tail."""
    g = draw(st.sampled_from((1, 2, 3)))
    head = st.lists(st.integers(0, 2), min_size=1, max_size=3)
    light = [tuple(draw(head)) for _ in range(draw(st.integers(1, 3)))]
    tailed = []
    for _ in range(draw(st.integers(1, 2))):
        h = draw(head)
        tail = draw(st.lists(st.integers(1 << 8, 1 << 70), min_size=1, max_size=2))
        tailed.append((len(h), tuple(h + tail)))
    term = st.tuples(st.integers(0, 12), st.sampled_from(light), st.sampled_from(light))
    steps = []
    for width in WIDTH_WALK:
        for windowed in (False, True):
            terms = draw(st.lists(term, max_size=3))
            minus = draw(st.lists(term, max_size=3))
            cut = draw(st.integers(0, 24)) if windowed else None
            if windowed:
                for n, table in tailed:
                    terms.append((max(0, cut - g * (n - 1)), table,
                                  draw(st.sampled_from(light))))
            total = kernel_bound(terms, g, cut)[0]
            c = draw(st.integers(max(0, WIDTH_FLOOR[width] - total),
                                 (1 << 8 * width) - 1 - total))
            steps.append((terms + [(0, (c,), (1,))], minus, cut))
    return g, light + [t for _, t in tailed], steps


@settings(max_examples=60, deadline=None)
@given(held_width_walk())
def test_held_tables_are_exact_at_every_width_window_and_side(walk):
    # one set of held tables serves sums whose slots go 1, 2, 4, 8 bytes,
    # the bytes route and 1 byte again; each sum, windowed or exact, must
    # equal the schoolbook one and size its slots from the prefixes its
    # window keeps, never from a held table's uncut sum
    g, pool, steps = walk
    bounds = []
    slot = qpoly._slot

    def recording(bound):
        bounds.append(bound)
        return slot(bound)

    for table in pool:
        qpoly._hold(table)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qpoly, "_slot", recording)
            for terms, minus, cut in steps:
                assert (_packed_sum(terms, g, cut, minus)
                        == naive_packed_sum(terms, g, cut) - naive_packed_sum(minus, g, cut))
                assert bounds.pop() == max(*kernel_bound(terms, g, cut),
                                           *kernel_bound(minus, g, cut))
    finally:
        for table in pool:
            del qpoly._HELD[id(table)]


def test_held_packs_stay_whole_under_threads():
    # two threads sum over the same held tables on four slot widths, in
    # opposite orders, while the interpreter switches threads as often as
    # it can: a width read with another width's int would give a wrong sum
    tables = [qpoly._hold(tuple(range(1, n + 2))) for n in range(4)]
    cases = []
    for scale in (1, 300, 1 << 20, 1 << 40):    # 1, 2, 4 and 8 byte slots
        terms = [(2 * i, t, tables[i - 1]) for i, t in enumerate(tables)]
        terms.append((0, (scale,), (1,)))
        cases.append((terms, naive_packed_sum(terms, 2)))
    wrong = []

    def run(mine):
        # a torn read may also overflow a slot; the thread reports it
        try:
            for _ in range(3000):
                for terms, want in mine:
                    if _packed_sum(terms, 2) != want:
                        wrong.append(terms[-1])
        except Exception as e:
            wrong.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(mine,)) for mine in (cases, cases[::-1])]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        for table in tables:
            del qpoly._HELD[id(table)]
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_fresh_tables_never_enter_the_held_memo():
    # only a cache's own tables are held: tuples and lists made for one
    # call leave the memo as they found it, in exact, windowed and signed
    # sums on both slot routes
    size = len(qpoly._HELD)
    shared = [7, 1]
    for big in (1, 1 << 70):
        terms = [(0, (1, 2), [3, big]), (2, [5], shared), (3, (6, 7), shared)]
        assert _packed_sum(terms, 2) == naive_packed_sum(terms, 2)
        assert _packed_sum(terms, 2, cut=3) == naive_packed_sum(terms, 2, cut=3)
        assert (_packed_sum(terms, 1, minus=terms[1:])
                == naive_packed_sum(terms[:1], 1))
    assert len(qpoly._HELD) == size


def test_big_coefficients_survive_roundtrip():
    p = QPoly.monomial(10 ** 40 + 7, 3)
    assert QPoly({e: int(c) for e, c in p.to_pairs()}) == p


def test_comparison_with_ints():
    assert QPoly.from_q_coeffs({0: 5}) == 5
    assert QPoly.zero() == 0
    assert QPoly.monomial(1, 2) != 1


def test_min_max_exponent_on_zero():
    assert QPoly.zero().min_half_exponent() is None
    assert QPoly.zero().max_half_exponent() is None


@st.composite
def grid_windows(draw):
    # a polynomial on the whole q-steps lo + 2i, i from -3 past either end
    # of the window [lo, hi]; hi may fall between steps, and the window be
    # empty
    lo = draw(st.integers(-9, 9))
    n = draw(st.integers(-1, 10))
    hi = lo + 2 * n + draw(st.integers(0, 1))
    steps = draw(st.dictionaries(st.integers(-3, n + 3), st.integers(-5, 5)))
    return QPoly({lo + 2 * i: v for i, v in steps.items()}), lo, hi


@example((QPoly({2: 3}), -2, 6))     # zero-filled on both sides
@example((QPoly({1: 1, 7: -2}), 3, 5))  # a window between the terms
@given(grid_windows())
def test_table_reads_back_through_from_table(case):
    p, lo, hi = case
    table = p.table(lo, hi)
    assert len(table) == len(range(lo, hi + 1, 2))
    cut = QPoly({e: v for e, v in p.items() if lo <= e <= hi})
    assert QPoly.from_table(table, lo) == cut


def test_table_is_zero_filled_and_from_table_drops_zeros():
    assert QPoly({2: 3}).table(-2, 6) == [0, 0, 3, 0, 0]
    assert QPoly.zero().table(0, 4) == [0] * 3
    assert QPoly({0: 1}).table(2, 1) == []
    p = QPoly.from_table([0, 5, 0, -1], 3, 4)
    assert p == QPoly({7: 5, 15: -1}) and len(p) == 2
    assert QPoly.from_table([1, 2]) == QPoly.from_q_coeffs({0: 1, 1: 2})


def test_table_refuses_a_term_between_its_steps():
    # a half-step term inside a whole-step window would be lost
    with pytest.raises(ValueError, match="between the table's steps"):
        QPoly({0: 1, 1: 1}).table(0, 1)
    with pytest.raises(ValueError, match="between the table's steps"):
        QPoly({0: 1, 3: 1, 8: 1}).table(0, 4)
    # one outside the window is not read
    assert QPoly({-1: 4, 0: 1, 5: 1, 8: 1}).table(0, 4) == [1, 0, 0]


# bit lengths of a table's largest entry that take each form of
# `_compact`, the packed form of a memoized side: 1, 2, 4 and 8 bytes an
# item as an `array`, 25 bytes as a tuple
ROUTE_BITS = {8: 1, 16: 2, 32: 4, 64: 8, 200: 25}


@st.composite
def packed_tables(draw):
    """A table of nonnegative entries below 2^bits for one form's bits, up
    to 2^200, zeros at either end; or the empty table."""
    bits = draw(st.sampled_from(sorted(ROUTE_BITS)))
    inner = draw(st.lists(st.integers(0, 2 ** bits - 1), max_size=10))
    zeros = st.lists(st.just(0), max_size=3)
    return draw(zeros) + inner + draw(zeros)


def assert_compact(form, table):
    # form holds table's items, as an array on the narrowest unsigned
    # typecode that holds its largest entry, or as a tuple past 8 bytes
    w, code = _slot(max(table, default=0))
    assert list(form) == list(table)
    if code is None:
        assert type(form) is tuple and w > 8
    else:
        assert isinstance(form, array)
        assert (form.typecode, form.itemsize) == (code, w)


@example([0, 0, 2 ** 200 - 1, 0, 5, 0])   # zeros at both ends
@example([0, 0])                         # the zero polynomial
@example([])                             # the empty table
@given(packed_tables())
def test_packed_form_reads_back_as_the_table(table):
    assert_compact(_compact(table), table)
    assert_compact(_compact(tuple(table)), table)


@pytest.mark.parametrize("bits, width", sorted(ROUTE_BITS.items()))
def test_packed_form_on_every_slot_route(bits, width):
    top = 2 ** bits - 1
    table = [0, top, 0, 1, top // 3, 0, 0]
    form = _compact(table)
    assert _slot(max(table)) == (width, _SLOT_CODES.get(width))
    assert_compact(form, table)


def test_packed_form_refuses_negative_coefficients_and_odd_steps():
    # a negative entry as an array (narrow items, whatever its size) and
    # as a tuple (entries wider than 8 bytes)
    narrow = _SLOT_CODES[1]
    for table, code in (([1, -1], narrow), ([-5], narrow),
                        ([1, -2 ** 100], narrow), ([2 ** 200, 0, -1], None)):
        assert _slot(max(table))[1] == code
        with pytest.raises(ValueError, match="entries >= 0"):
            _compact(table)
    # a side's table is read on whole q-steps, so a term between them
    # is refused before it reaches the form
    with pytest.raises(ValueError, match="between the table's steps"):
        _compact(QPoly({0: 1, 3: 1}).table(0, 4))


def test_xseries_strata_and_sum():
    q = QPoly.monomial(1, 2)
    s = XSeries(10, {0: QPoly.one(), 1: QPoly.zero(), 2: q})
    assert s.x_degrees() == [0, 2]
    assert not s.stratum(1)
    assert s.at_x_one() == QPoly.one() + q


@settings(max_examples=30)
@given(poly_strategy(max_terms=4, max_half=80),
       poly_strategy(max_terms=4, max_half=80))
def test_xseries_at_x_one_is_additive(a, b):
    # each stratum is cut to the window, q^30, as it is given
    s = XSeries(30, {0: a, 1: b})
    assert s.at_x_one() == a.truncate(30) + b.truncate(30)
