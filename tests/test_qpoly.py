"""Ring and truncation behaviour of the exact polynomial core."""

import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur import qpoly
from qschur.qpoly import (QPoly, XSeries, _SLOT_CODES, _add_shifted,
                          _packed_sum, _slot)


def poly_strategy(max_terms=6, max_half=40, max_coeff=10 ** 6, min_half=None):
    lo = -max_half if min_half is None else min_half
    pair = st.tuples(st.integers(lo, max_half),
                     st.integers(-max_coeff, max_coeff))
    return st.lists(pair, max_size=max_terms).map(
        lambda ps: QPoly._raw({e: c for e, c in ps if c}))


polys = poly_strategy()
nonneg_polys = poly_strategy(min_half=0)


def test_constructors_agree():
    assert QPoly.zero().is_zero()
    assert QPoly.one() == 1
    assert QPoly.q_power(3) == QPoly.monomial(1, 6)
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
    assert (p - p).is_zero()


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, polys)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_eval_at_one_is_multiplicative(a, b):
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


@given(polys)
def test_negation_cancels(a):
    assert (a + (-a)).is_zero()
    assert a - a == QPoly.zero()


@given(polys, st.integers(-8, 8))
def test_shift_adds_to_exponents(a, h):
    shifted = a.shift(h)
    assert shifted.eval_at_one() == a.eval_at_one()
    for e, c in a.items():
        assert shifted.coefficient(e + h) == c


@given(polys, st.integers(1, 4))
def test_substitute_stretches_exponents(a, k):
    sub = a.substitute_q_power(k)
    for e, c in a.items():
        assert sub.coefficient(e * k) == c
    assert sub.eval_at_one() == a.eval_at_one()


@given(polys)
def test_substitute_inverse_is_an_involution(a):
    assert a.substitute_q_power(-1).substitute_q_power(-1) == a


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
    coefficients sized to reach every slot width of the packed route."""
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


# (a, b, the slot width in bytes `_packed_sum` takes for a * b): widths
# past 8 bytes go through `bytes`.  `_mul_packed` passes the bound
# min(len) max|a| max|b|: twenty ones times twenty ones bound 20, one
# byte, where the tables' sums would bound 400
SLOT_EXAMPLES = [
    ({0: 1, 2: 1}, {0: 1, 2: 1}, 1),
    ({2 * i: 1 for i in range(20)}, {2 * i: 1 for i in range(20)}, 1),
    ({0: 100, 2: 3}, {0: 100, 4: -1}, 2),
    ({1: 30000, 3: 1}, {-3: 30000, 5: 7}, 4),
    ({0: 1 << 30, 6: 5}, {0: -(1 << 30), 12: -3}, 8),
    ({0: 3, 5: -2, 11: 7}, {-4: 1, 3: 10 ** 30}, 13),
]


@example({}, {0: 5, 2: -1})                               # empty factor
@example({7: -3}, {0: 1, 4: 2})                           # single term
@given(factor_terms(), factor_terms())
def test_kronecker_product_against_schoolbook(a, b):
    expected = QPoly._mul_dict(a, b)
    # empty and single-term products take their own branch of __mul__
    assert QPoly._raw(a) * QPoly._raw(b) == expected
    if a and b:
        # called directly, so the pair-count threshold does not pick it
        widths = []

        def recording(bound):
            widths.append(_slot(bound))
            return widths[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qpoly, "_slot", recording)
            assert QPoly._mul_packed(a, b) == expected
        for ea, eb, width in SLOT_EXAMPLES:
            if (a, b) == (ea, eb):
                assert [w for w, _ in widths] == [width]


for _a, _b, _ in SLOT_EXAMPLES:
    test_kronecker_product_against_schoolbook = example(_a, _b)(
        test_kronecker_product_against_schoolbook)


@pytest.mark.parametrize("span, scale", [
    (1 << 40, 1),           # 2^40 slots of 1 byte
    (1 << 20, 10 ** 300),   # 2^21 slots of 126 bytes: 268 MB laid out
], ids=["narrow-slots", "wide-slots"])
def test_packed_product_of_a_wide_span_takes_the_dict_route(
        monkeypatch, span, scale):
    # 12-term factors of mixed signs, exponents `span` apart on stride 1:
    # the guard weighs the span by the slot width, so nothing is laid out
    a = {e: (-1) ** e * (e + 1) * scale for e in range(6)}
    a.update({span + e: 7 - e for e in range(6)})
    b = {e: e + 2 for e in range(-3, 3)}
    b.update({span - e: -3 * e - 1 for e in range(6)})
    expected = QPoly._mul_dict(a, b)
    monkeypatch.setattr(qpoly, "_dense", None)
    monkeypatch.setattr(qpoly, "_packed_sum", None)
    assert QPoly._mul_packed(a, b) == expected


def naive_packed_sum(terms, g, cut=None):
    # Reference: every term through QPoly.__mul__ and the dict accumulator
    row = {}
    for shift, left, right in terms:
        a = QPoly._raw({g * i: v for i, v in enumerate(left) if v})
        b = QPoly._raw({g * i: v for i, v in enumerate(right) if v})
        _add_shifted(row, a * b, shift)
    return QPoly._raw({e: v for e, v in row.items() if cut is None or e <= cut})


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


def test_big_coefficients_survive_roundtrip():
    p = QPoly.monomial(10 ** 40 + 7, 3)
    assert QPoly.from_pairs(p.to_pairs()) == p


def test_comparison_with_ints():
    assert QPoly.from_q_coeffs({0: 5}) == 5
    assert QPoly.zero() == 0
    assert QPoly.q_power(1) != 1


def test_min_max_exponent_on_zero():
    assert QPoly.zero().min_half_exponent() is None
    assert QPoly.zero().max_half_exponent() is None


def test_xseries_strata_and_sum():
    s = XSeries.term(10, 0, QPoly.one()) + XSeries.term(10, 2, QPoly.q_power(1))
    assert s.x_degrees() == [0, 2]
    assert s.stratum(1).is_zero()
    assert s.at_x_one() == QPoly.one() + QPoly.q_power(1)


def test_xseries_mismatched_truncation_rejected():
    a = XSeries(5)
    b = XSeries(6)
    with pytest.raises(ValueError):
        a + b


@settings(max_examples=30)
@given(poly_strategy(max_terms=4, max_half=12),
       poly_strategy(max_terms=4, max_half=12))
def test_xseries_at_x_one_is_additive(a, b):
    sa = XSeries.term(30, 0, a.truncate(30))
    sb = XSeries.term(30, 1, b.truncate(30))
    assert (sa + sb).at_x_one() == a.truncate(30) + b.truncate(30)
