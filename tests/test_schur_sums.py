"""Identity-by-identity checks of the series builders at small sizes.

Expected values fall in three groups: frozen low-order polynomials
(goldens), equalities between two builders computed by unrelated routes,
and counts replayed against the brute-force enumerators.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import schur_sums as ss
from qschur.partitions import schur_counts, schur_gf_oracle
from qschur.qcoeff import (MonomialBase, gauss_binomial, pochhammer_finite,
                           series_reciprocal_truncated)
from qschur.qpoly import QPoly

# frozen coefficient lists of lhs_schur(0..3), ascending q-powers
GOLDEN_LOW = {
    0: [1],
    1: [1, 1, 1],
    2: [1, 1, 1, 1, 1, 2, 1, 1],
    3: [1, 1, 1, 1, 1, 2, 2, 3, 3, 2, 2, 2, 2, 2, 1, 1],
}


@pytest.mark.parametrize("N", sorted(GOLDEN_LOW))
def test_low_order_goldens(N):
    want = QPoly.from_q_coeffs(
        {i: c for i, c in enumerate(GOLDEN_LOW[N])})
    assert ss.lhs_schur(N) == want
    assert ss.rhs_schur(N) == want


@pytest.mark.parametrize("N", range(0, 11))
def test_central_identity_small(N):
    assert ss.lhs_schur(N) == ss.rhs_schur(N)


def naive_triple_sum(N, weight_half):
    # Reference walk: one three-binomial product per (n1, n2, m) cell.
    total = QPoly.zero()
    for n1 in range(N + 1):
        for n2 in range(N + 1 - n1):
            for m in range(N + 1 - n1 - n2):
                v = N - m - n1 - n2
                term = (gauss_binomial(3 * v, m)
                        * gauss_binomial(v + n1 // 2, n1 // 2, 6)
                        * gauss_binomial(v + n2 // 2, n2 // 2, 6))
                total = total + term.shift(weight_half(n1, n2, m))
    return total


def naive_dual(N):
    return naive_triple_sum(N, lambda n1, n2, m: (
        ss.weight_b_half(n1, n2, m, N) - 2 * ss.weight_a(n1, n2, m) + N))


@pytest.mark.parametrize("N", range(0, 9))
def test_triple_sum_kernel_matches_naive_walk(N):
    assert ss.lhs_schur(N) == naive_triple_sum(
        N, lambda n1, n2, m: 2 * ss.weight_a(n1, n2, m))
    assert ss.dual_sides(N)[0] == naive_dual(N)
    summed = QPoly.zero()
    for k in range(N + 1):
        summed = summed + (gauss_binomial(N, k, 3) * naive_dual(k)
                           ).shift(k * (3 * k - 1))
    assert ss.summation_formula_sides(N)[0] == summed


def naive_trinomial_walk(N, lead_half):
    # Reference for the trinomial sides: one product of two q^3-binomials
    # per (j, k), shifted by lead_half(j, k) half-steps
    total = QPoly.zero()
    for j in range(-N, N + 1):
        for k in range(N + 1):
            term = gauss_binomial(N, k, 3) * gauss_binomial(N - k, k + j, 3)
            total = total + term.shift(lead_half(j, k))
    return total


def test_wide_slot_sums_match_naive_walks():
    # rhs_schur(41) sums to 3^41 > 2^64 at q = 1, so its packed sum runs
    # on slots wider than 8 bytes
    assert 3 ** 41 > 2 ** 64
    assert ss.rhs_schur(41) == naive_trinomial_walk(
        41, lambda j, k: j * (3 * j - 1) + 6 * k * (k + j))
    assert ss.t0_half_sum(12) == naive_trinomial_walk(
        12, lambda j, k: 12 + j + 3 * (12 - j - 2 * k) ** 2)
    # the triple sum's bound 3^N needs 4-byte slots at N = 20, 8 at 21
    assert 3 ** 20 < 2 ** 32 < 3 ** 21
    for N in (20, 21):
        assert ss.lhs_schur(N) == naive_triple_sum(
            N, lambda n1, n2, m: 2 * ss.weight_a(n1, n2, m)), N


def naive_warnaar_lhs(L, a):
    # Reference for the Warnaar left side, uncached: T0(i; q choose a) as
    # its k-walk sum_k q^((i-a-2k)^2/2) [i,k] [i-k,k+a], one product per
    # (i, k)
    total = QPoly.zero()
    for i in range(L + 1):
        for k in range(i + 1):
            term = (gauss_binomial(L, i) * gauss_binomial(i, k)
                    * gauss_binomial(i - k, k + a))
            total = total + term.shift(i * i + (i - a - 2 * k) ** 2)
    return total


def test_warnaar_t0_cache_matches_naive_walk():
    # L up then down, so every cached T0 table is read back at other L;
    # a runs past both ends of the range where the sides are nonzero
    for L in [0, 1, 3, 6, 9, 6, 3, 1, 0]:
        for a in (-L - 1, -L, -3, -1, 0, 2, L, L + 1):
            lhs, rhs = ss.warnaar_sides(L, a)
            assert lhs == naive_warnaar_lhs(L, a) == rhs, (L, a)


def test_pair_sum_cache_serves_every_N_and_both_weights():
    # one process, N up then down: a stale or mis-keyed _pair_sum entry
    # would show against the naive walk
    for N in list(range(15)) + list(range(14, -1, -1)):
        assert ss._triple_sum(N, ss._plain_weight) == naive_triple_sum(
            N, lambda n1, n2, m: 2 * ss.weight_a(n1, n2, m)), N
        assert ss._triple_sum(N, ss._dual_weight) == naive_dual(N), N
    # E_v(k), a dense table in whole q-steps, is the direct convolution,
    # in either orientation
    for v in range(9):
        A = lambda j: gauss_binomial(v + j, j, 6)
        for k in range(7):
            direct = QPoly.zero()
            for a in range(k + 1):
                direct = direct + (A(a) * A(k - a)).shift(4 * (k - a))
            table = dict(enumerate(ss._pair_sum(v, k)))
            assert QPoly.from_q_coeffs(table) == direct, (v, k)
    # inside every parity class of a (V, s) slice the weight steps by -4
    # (plain) or +4 (dual) per unit of floor(n1/2)
    for weight, slope in ((ss._plain_weight, -4), (ss._dual_weight, 4)):
        for N in range(15):
            for v in range(N + 1):
                for s in range(N - v + 1):
                    m = N - v - s
                    for n1 in range(s - 1):
                        assert (weight(n1 + 2, s - n1 - 2, m, N)
                                - weight(n1, s - n1, m, N)) == slope


def test_summands_tile_the_sum():
    for N in range(7):
        total = QPoly.zero()
        for n1 in range(N + 1):
            for n2 in range(N + 1 - n1):
                for m in range(N + 1 - n1 - n2):
                    total = total + ss.schur_summand(N, m, n1, n2)
        assert total == ss.lhs_schur(N)


def test_summand_out_of_range_is_zero():
    assert ss.schur_summand(-1, 0, 0, 0).is_zero()
    assert ss.schur_summand(3, -1, 0, 0).is_zero()
    assert ss.schur_summand(2, 0, 2, 1).is_zero()   # V < 0
    assert ss.schur_summand(1, 3, 0, 0).is_zero()   # m > 3V


@pytest.mark.parametrize("N", range(2, 12))
def test_rhs_recurrence(N):
    assert ss.recurrence_residual(ss.IdentityId.REC_ANDREWS, N).is_zero()


@pytest.mark.parametrize("N", range(4, 12))
def test_lhs_recurrence(N):
    assert ss.recurrence_residual(ss.IdentityId.REC_L, N).is_zero()


def test_termwise_recurrence_small_sweep():
    bad = []
    for N in range(4, 9):
        for m in range(N + 5):
            for n1 in range(N + 5 - m):
                for n2 in range(N + 5 - m - n1):
                    r = ss.recurrence_residual(
                        ss.IdentityId.REC_SUMMAND, N, m=m, n1=n1, n2=n2)
                    if not r.is_zero():
                        bad.append((N, m, n1, n2))
    assert bad == []


def test_termwise_recurrence_needs_all_indices():
    with pytest.raises(ValueError):
        ss.recurrence_residual(ss.IdentityId.REC_SUMMAND, 5, m=1)


@pytest.mark.parametrize("N", range(0, 13))
def test_dual_transform(N):
    lhs, rhs = ss.dual_sides(N)
    assert lhs == rhs
    # the dual weight is the plain one seen from q -> 1/q
    assert lhs == ss.lhs_schur(N).substitute_q_power(-1).shift(3 * N * N + N)


@pytest.mark.parametrize("N", range(0, 13))
def test_half_sum_as_single_binomial(N):
    lhs, rhs = ss.t0_binomial_sides(N)
    assert lhs == rhs


def test_half_sum_truncation_windows():
    for N in (6, 9, 12):
        full = ss.t0_half_sum(N)
        for T in (0, 3, 11):
            cut = QPoly._raw(
                {e: c for e, c in full.items() if e <= 2 * T})
            assert ss.t0_half_sum_truncated(N, T) == cut


def test_half_sum_limit_window():
    # once N is comfortably past T the truncated sum stops moving and
    # equals the closed product
    T = 16
    stable = ss.t0_half_sum_truncated(T + 2, T)
    assert ss.t0_half_sum_truncated(T + 5, T) == stable
    assert ss.t0_limit_product(T) == stable


@pytest.mark.parametrize("t", [1, 2])
def test_parity_split_limits(t):
    T = 18
    assert ss.qt_limit_sum(t, T) == ss.t0_limit_product(T)


def test_parity_split_rejects_other_t():
    with pytest.raises(ValueError):
        ss.qt_limit_sum(3, 10)


def naive_qt_limit_sum(t, T):
    # Reference walk: one product with 1/(q^6;q^6)_y per (y, m, n1) cell.
    total = QPoly.zero()
    y = 0
    while y * (3 * y + 1) // 2 <= T:
        recip = series_reciprocal_truncated(
            pochhammer_finite(MonomialBase.of_q(1, 6, 6), y), T)
        for m in range(3 * y + 1):
            if m * (m - 1) // 2 + y * (3 * y + 1) // 2 > T:
                break
            n1 = 0
            while m * (m - 1) // 2 + y * (3 * y + 1) // 2 + n1 <= T:
                w = ss.weight_q(t, m, n1, y)
                if w <= T:
                    term = (gauss_binomial(3 * y, m)
                            * gauss_binomial(y + n1 // 2, y, 6) * recip)
                    total = total + term.truncate(T - w).shift(2 * w)
                n1 += 1
        y += 1
    return total


@pytest.mark.parametrize("t", [1, 2])
def test_parity_split_kernel_matches_naive_walk(t):
    for T in range(31):
        assert ss.qt_limit_sum(t, T) == naive_qt_limit_sum(t, T), T


@pytest.mark.parametrize("M", range(0, 8))
def test_finite_summation_formula(M):
    lhs, rhs = ss.summation_formula_sides(M)
    assert lhs == rhs


def test_summation_limit_reaches_the_product():
    T = 25
    assert ss.summation_limit_sum(T) == ss.schur_product_truncated(T)


def test_warnaar_small_grid():
    for L in range(0, 7):
        for a in range(-L, L + 1):
            lhs, rhs = ss.warnaar_sides(L, a)
            assert lhs == rhs, (L, a)


@pytest.mark.parametrize("M", range(0, 10))
def test_q1_collapse(M):
    assert ss.q1_triple_value(M) == 3 ** M
    assert ss.q1_quad_value(M) == 4 ** M


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_weight_gap_is_twice_m(n1, n2, m):
    assert ss.weight_a(2 * n1, 2 * n2, m) - ss.weight_k(n1, n2, m) == 2 * m


def test_weight_a_is_minimal_configuration_size():
    from qschur.bijection import minimal_configuration
    for n1 in range(5):
        for n2 in range(5):
            for m in range(5):
                assert sum(minimal_configuration(n1, n2, m)) == \
                    ss.weight_a(n1, n2, m)


def test_weight_b_half_needs_room():
    with pytest.raises(ValueError):
        ss.weight_b_half(2, 2, 2, 4)


def test_weight_q_rejects_bad_t():
    with pytest.raises(ValueError):
        ss.weight_q(0, 1, 1, 1)


def test_product_side_counts_by_size():
    T = 30
    prod = ss.schur_product_truncated(T)
    counts = schur_counts(T)
    for n in range(T + 1):
        assert prod.coefficient_q(n) == counts[n]


def test_pair_series_agree_with_each_other_and_the_oracle():
    T = 24
    ali = ss.ali_gf_truncated(T)
    kur = ss.kursungoz_gf_truncated(T)
    split = ss.even_odd_split_lhs(T)
    oracle = schur_gf_oracle(T)
    assert ali == kur
    assert ali == split
    assert ali == oracle


def test_pair_series_at_x_one_is_the_product():
    T = 24
    assert ss.ali_gf_truncated(T).at_x_one() == ss.schur_product_truncated(T)


@pytest.mark.parametrize("N", range(0, 8))
def test_bounded_series_vs_bounded_oracle(N):
    T = 24
    assert ss.bounded_gf(N, T) == schur_gf_oracle(T, largest_part=N)


@pytest.mark.parametrize("N", range(1, 7))
def test_bounded_sum_collapses_to_central_lhs(N):
    lhs, rhs = ss.cor1_bounded_sum(N)
    assert lhs == rhs


def test_analytic_product_identity_small():
    # (-q;q^3)(-q^2;q^3) infinite products expanded two ways
    T = 24
    prod = ss.schur_product_truncated(T)
    direct = (pochhammer_finite(MonomialBase.of_q(-1, 1, 3), T)
              * pochhammer_finite(MonomialBase.of_q(-1, 2, 3), T)).truncate(T)
    assert prod == direct


def test_verify_wrapper_smoke():
    rep = ss.verify(ss.IdentityId.SCHUR_POLY, {"N": 4})
    assert rep.status == "verified"
    assert rep.first_discrepancy is None
    d = rep.as_dict()
    assert d["identity"] == "schur-poly"
    assert d["params"]["N"] == 4


def test_verify_reports_forced_mismatch():
    rep = ss.verify(ss.IdentityId.SCHUR_POLY, {
        "N": 3, "_perturb": {"delta": 1, "exponent_half_steps": 4}})
    assert rep.status == "failed"
    fd = rep.first_discrepancy
    assert fd is not None
    assert fd["exponent_half_steps"] == 4
    assert fd["lhs"] != fd["rhs"]


def test_verify_rejects_bad_params():
    with pytest.raises(ss.UsageError):
        ss.verify(ss.IdentityId.QT_LIMIT, {"t": 3, "T": 10})
    with pytest.raises(ss.UsageError):
        ss.verify("no-such-identity", {})
