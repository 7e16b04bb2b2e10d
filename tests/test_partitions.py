"""The brute-force enumerators that everything else is checked against."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qschur import partitions
from qschur.partitions import (
    _pm1_follows,
    _schur_follows,
    _walk,
    distinct_pm1_counts,
    format_partition,
    is_schur_admissible,
    parse_partition,
    schur_counts,
    schur_gf_oracle,
)
from qschur.qpoly import QPoly
from qschur.schur_sums import verify

# counts of gap-admissible partitions of 0..20, frozen from a one-off
# subset-sum enumeration over distinct parts +-1 mod 3 (a third route,
# independent of both enumerators in the package)
GAP_COUNTS_20 = [1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 5, 6, 7, 8, 9, 10, 12,
                 14, 16, 18]


def test_admissibility_basics():
    assert is_schur_admissible(())
    assert is_schur_admissible((4,))
    assert is_schur_admissible((1, 4, 8))
    assert not is_schur_admissible((1, 3))       # gap 2
    assert not is_schur_admissible((3, 6))       # both multiples, gap 3
    assert is_schur_admissible((3, 7))
    assert is_schur_admissible((3, 9))
    assert not is_schur_admissible((0, 4))       # nonpositive part
    assert not is_schur_admissible((4, 1))       # descending


def test_known_counts():
    assert schur_counts(20) == GAP_COUNTS_20


def test_the_two_classes_are_equinumerous():
    n = 45
    assert schur_counts(n) == distinct_pm1_counts(n)


def schur_walk(n_max, largest_part=None):
    return list(_walk(n_max, largest_part, _schur_follows))


def test_enumeration_is_admissible_and_sorted():
    walk = schur_walk(24)
    assert [parts for _, parts in walk] == sorted(parts for _, parts in walk)
    for n, parts in walk:
        assert sum(parts) == n
        assert is_schur_admissible(parts)


def test_distinct_class_members():
    walk = list(_walk(18, None, _pm1_follows))
    assert [parts for _, parts in walk] == sorted(parts for _, parts in walk)
    for n, parts in walk:
        assert sum(parts) == n
        assert len(set(parts)) == len(parts)
        assert all(p % 3 != 0 for p in parts)


def test_largest_part_bound_filters():
    want = [(n, p) for n, p in schur_walk(20) if not p or p[-1] <= 7]
    assert schur_walk(20, largest_part=7) == want


def test_oracle_strata_match_enumeration():
    T = 18
    series = schur_gf_oracle(T)
    walk = schur_walk(T)
    for x in series.x_degrees():
        stratum = series.stratum(x)
        for n in range(T + 1):
            want = sum(1 for size, p in walk if size == n and len(p) == x)
            assert stratum.coefficient(2 * n) == want


def test_oracle_at_x_one_counts_everything():
    T = 22
    totals = schur_gf_oracle(T).at_x_one()
    counts = schur_counts(T)
    for n in range(T + 1):
        assert totals.coefficient(2 * n) == counts[n]


def sizes(walk):
    return [size for size, _ in walk]


@pytest.mark.parametrize("largest_part", [None, 0, 1, 4, 7, 10])
def test_streamed_counts_match_enumeration(largest_part):
    # the counting functions read the walk without storing it; here the
    # same walk is stored and counted by hand
    for n in range(41):
        walk = schur_walk(n, largest_part)
        assert schur_counts(n, largest_part) == [
            sizes(walk).count(k) for k in range(n + 1)]
        series = schur_gf_oracle(n, largest_part)
        assert set(series.x_degrees()) == {len(p) for _, p in walk}
        for x in series.x_degrees():
            assert series.stratum(x) == QPoly.from_q_coeffs(
                {k: sum(1 for size, p in walk if size == k and len(p) == x)
                 for k in range(n + 1)})
        if largest_part is None:
            pm1 = sizes(_walk(n, None, _pm1_follows))
            assert distinct_pm1_counts(n) == [pm1.count(k) for k in range(n + 1)]


# Two changes of the gap rule at its one statement, `_min_gap`, each with
# a pair it turns admissible: a smallest gap of 2, and no tightening to 6
# between multiples of 3.
RULE_MUTANTS = {
    "gap-2": (lambda rule: lambda prev, nxt: nxt - prev == 2 or rule(prev, nxt),
              (1, 3)),
    "no-multiple-of-3-exclusion": (lambda rule: lambda prev, nxt: nxt - prev >= 3,
                                   (3, 6)),
}


@pytest.mark.parametrize("mutant", sorted(RULE_MUTANTS))
def test_a_changed_gap_rule_fails_the_oracle_rows(monkeypatch, mutant):
    # the walk, is_schur_admissible and the motion bijection all read the
    # rule from _min_gap, so one change there must reach every row that
    # checks against the oracle
    mutate, flipped = RULE_MUTANTS[mutant]
    assert not is_schur_admissible(flipped)
    monkeypatch.setattr(partitions, "_min_gap", mutate(partitions._min_gap))
    assert is_schur_admissible(flipped)
    for identity, params in (("schur-counts", {}), ("gf-bounded", {"N": 6}),
                             ("bijection-sweep", {"max_size": 20})):
        assert not verify(identity, params).verified, identity


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        schur_counts(-1)
    with pytest.raises(ValueError):
        distinct_pm1_counts(-2)
    with pytest.raises(ValueError):
        schur_counts(10, largest_part=-1)
    with pytest.raises(ValueError):
        schur_gf_oracle(10, largest_part=-1)


@given(st.lists(st.integers(1, 60), max_size=6).map(
    lambda xs: tuple(sorted(set(xs)))))
def test_format_parse_roundtrip(parts):
    assert parse_partition(format_partition(parts)) == parts


def test_parse_rejects_garbage():
    assert parse_partition("") == ()
    assert parse_partition(" 1, 4 , 8 ") == (1, 4, 8)
    with pytest.raises(ValueError):
        parse_partition("1,x")
    with pytest.raises(ValueError):
        parse_partition("4,1")
    with pytest.raises(ValueError):
        parse_partition("0,3")
