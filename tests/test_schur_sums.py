"""Identity-by-identity checks of the series builders at small sizes.

Expected values fall in three groups: frozen low-order polynomials
(goldens), equalities between two builders computed by unrelated routes,
and counts replayed against the brute-force enumerators.
"""

from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur import qcoeff, qpoly, schur_sums as ss
from qschur.partitions import schur_counts, schur_gf_oracle
from qschur.qcoeff import gauss_binomial
from qschur.qpoly import QPoly, XSeries, _slot
from reference import naive_trinomial, substitute
from test_qcoeff import naive_parts_series, t_by_reversal

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


def test_wide_slot_sums_match_naive_walks():
    # rhs_schur(41) sums to 3^41 > 2^64 at q = 1, so its packed sum runs
    # on slots wider than 8 bytes
    assert 3 ** 41 > 2 ** 64
    assert ss.rhs_schur(41) == naive_trinomial(
        41, range(-41, 42), 3, lambda j, k: j * (3 * j - 1) + 6 * k * (k + j))
    assert ss.t0_half_sum(12) == naive_trinomial(
        12, range(-12, 13), 3, lambda j, k: 12 + j + 3 * (12 - j - 2 * k) ** 2)
    # the triple sum's bound 3^N needs 4-byte slots at N = 20, 8 at 21
    assert 3 ** 20 < 2 ** 32 < 3 ** 21
    for N in (20, 21):
        assert ss.lhs_schur(N) == naive_triple_sum(
            N, lambda n1, n2, m: 2 * ss.weight_a(n1, n2, m)), N


def test_t0_half_walk_matches_the_defining_trinomials():
    # the walk's lead, q^((N+j)/2 + 3(N-j-2k)^2/2) per k-term, against T0
    # as defined: the round trinomial at q -> 1/q, times its prefactor
    for N in range(10):
        want = QPoly.zero()
        for j in range(-N, N + 1):
            want = want + t_by_reversal(0, N, j, 3).shift(N + j)
        assert ss.t0_half_sum(N) == want, N
        assert want.min_half_exponent() >= 0, N


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


# each memoized side, its memo of (least half-step, compact table), and a
# fresh uncached build of it
MEMOS = {
    "lhs_schur": (ss._lhs_table, lambda N: ss._triple_sum(N, ss._plain_weight)),
    "dual": (ss._dual_table, lambda N: ss._triple_sum(N, ss._dual_weight)),
    "rhs_schur": (ss._rhs_table, ss._round_walk),
    "t0_half_sum": (ss._t0_half_table, ss._t0_half_walk),
}
# the least N whose four sides all take a coefficient past 8 bytes, so
# their memo tables are tuples: lhs_schur and rhs_schur sum to 3^N at
# q = 1 and the dual triple sum and the T0 half sum to 3^N as well
WIDE_N = 47


def test_memoized_sides_equal_fresh_builds():
    # N up then down in one process, so a stale or mis-keyed memo entry
    # shows against the uncached walk
    public = {"lhs_schur": ss.lhs_schur, "rhs_schur": ss.rhs_schur,
              "t0_half_sum": ss.t0_half_sum,
              "dual": lambda N: ss.dual_sides(N)[0]}
    for N in list(range(16)) + list(range(15, -1, -1)):
        for name, (memo, fresh) in MEMOS.items():
            want = fresh(N)
            assert ss._side(memo(N)) == want, (name, N)
            assert public[name](N) == want, (name, N)
    assert ss.lhs_schur(-1) == ss.rhs_schur(-2) == QPoly.zero()


def test_memoized_sides_come_back_as_fresh_equal_values():
    for side in (ss.lhs_schur, ss.rhs_schur, ss.t0_half_sum,
                 lambda N: ss.dual_sides(N)[0]):
        first, second = side(7), side(7)
        assert first == second and first is not second
    # a caller that changes its copy leaves the memo as it was
    mine = ss.lhs_schur(5)
    mine._c.clear()
    assert ss.lhs_schur(5) == ss._triple_sum(5, ss._plain_weight)


def test_side_readers_read_what_the_polynomials_hold():
    # the tables rec-l, rec-andrews and summation-m read, the windows of
    # the summation limit, and the q1-triple value, each straight off a
    # memo, against the same read of the uncached polynomial; each memo
    # table an array on the narrowest unsigned typecode that holds its
    # largest coefficient, or a tuple past 8 bytes, and none in the
    # kernel's held memo.  Each fresh build is made once per N.  At WIDE_N
    # each triple sum is read against a fresh build of the other side of
    # its identity, which takes a sixth of the time, and each fresh build
    # serves two memos
    peers = {"lhs_schur": "rhs_schur", "dual": "t0_half_sum"}
    for N in [*range(-2, 26), WIDE_N]:
        polys = {}
        for name, (memo, _) in MEMOS.items():
            build = peers.get(name, name) if N == WIDE_N else name
            if build not in polys:
                polys[build] = MEMOS[build][1](N)
            (lo, table), poly = memo(N), polys[build]
            assert (lo, tuple(table)) == ss._table(poly), (name, N)
            code = _slot(max(table, default=0))[1]
            assert getattr(table, "typecode", None) == code, (name, N)
            assert isinstance(table, array if code else tuple), (name, N)
            assert (code is None) == (N >= WIDE_N), (name, N)
            assert id(table) not in qpoly._HELD, (name, N)
        if 0 <= N < 26:
            assert ss.q1_triple_value(N) == sum(
                v for _, v in polys["lhs_schur"].items())
            poly = polys["dual"]
            lead = N * (3 * N - 1)
            for T in (0, 1, N * N, 60, 3 * N * N):
                window = -lead, 2 * T - lead
                assert (ss._side(ss._dual_table(N)).table(*window)
                        == poly.table(*window)), (N, T)


def test_summands_tile_the_sum():
    for N in range(7):
        total = QPoly.zero()
        for n1 in range(N + 1):
            for n2 in range(N + 1 - n1):
                for m in range(N + 1 - n1 - n2):
                    total = total + ss.schur_summand(N, m, n1, n2)
        assert total == ss.lhs_schur(N)


def test_summand_out_of_range_is_zero():
    assert not ss.schur_summand(-1, 0, 0, 0)
    assert not ss.schur_summand(3, -1, 0, 0)
    assert not ss.schur_summand(2, 0, 2, 1)   # V < 0
    assert not ss.schur_summand(1, 3, 0, 0)   # m > 3V


@pytest.mark.parametrize("N", range(2, 12))
def test_rhs_recurrence(N):
    assert not ss.recurrence_residual(ss.IdentityId.REC_ANDREWS, N)


@pytest.mark.parametrize("N", range(4, 12))
def test_lhs_recurrence(N):
    assert not ss.recurrence_residual(ss.IdentityId.REC_L, N)


def test_termwise_recurrence_small_sweep():
    bad = []
    for N in range(4, 9):
        for m in range(N + 5):
            for n1 in range(N + 5 - m):
                for n2 in range(N + 5 - m - n1):
                    r = ss.recurrence_residual(
                        ss.IdentityId.REC_SUMMAND, N, m=m, n1=n1, n2=n2)
                    if r:
                        bad.append((N, m, n1, n2))
    assert bad == []


def test_termwise_recurrence_needs_all_indices():
    with pytest.raises(ValueError):
        ss.recurrence_residual(ss.IdentityId.REC_SUMMAND, 5, m=1)


def test_recurrence_residual_names_a_non_recurrence_by_its_id():
    with pytest.raises(ValueError, match="not a recurrence id: schur-poly$"):
        ss.recurrence_residual("schur-poly", 5)


def reference_residual(kind, N, m=None, n1=None, n2=None, shift_6n=-5,
                       with_12n=True):
    # Reference for recurrence_residual: each recurrence as a chain of
    # QPoly products, the summands from the uncached schur_summand.  The
    # mutation knobs move the q^(6N-5) term to q^(6N + shift_6n) and drop
    # the q^(12N-24) term.
    def q(n):
        return QPoly.monomial(1, 2 * n)
    one_q_q2 = QPoly.from_q_coeffs({0: 1, 1: 1, 2: 1})
    last = q(12 * N - 24) if with_12n else QPoly.zero()
    if kind == "rec-andrews":
        c1 = QPoly.one() + q(3 * N - 2) + q(3 * N - 1)
        c2 = q(3 * N - 3) - q(6 * N - 6)
        R = ss.rhs_schur
        return R(N) - c1 * R(N - 1) - c2 * R(N - 2)
    if kind == "rec-l":
        c2 = q(3 * N - 3) * one_q_q2 + q(6 * N - 7) + q(6 * N + shift_6n)
        c3 = q(6 * N - 8) * one_q_q2
        c4 = q(9 * N - 15) - last
        L = ss.lhs_schur
        return L(N) - L(N - 1) - c2 * L(N - 2) - c3 * L(N - 3) - c4 * L(N - 4)
    F = ss.schur_summand
    return (F(N, m, n1, n2)
            - F(N - 1, m, n1, n2)
            - q(6 * N + shift_6n) * F(N - 2, m, n1, n2 - 2)
            - q(6 * N - 7) * F(N - 2, m, n1 - 2, n2)
            - q(3 * N - 3) * one_q_q2 * F(N - 2, m - 1, n1, n2)
            - q(6 * N - 8) * one_q_q2 * F(N - 3, m - 2, n1, n2)
            + last * F(N - 4, m, n1 - 2, n2 - 2)
            - q(9 * N - 15) * F(N - 4, m - 3, n1, n2))


@st.composite
def summand_cells(draw):
    # N below the recurrence's range included, where residuals are nonzero
    N = draw(st.integers(-2, 14))
    index = st.integers(-3, N + 4)
    return N, draw(index), draw(index), draw(index)


# the four cells of the range whose residual is nonzero
@example((0, 0, 0, 0))
@example((1, 0, 0, 1))
@example((1, 0, 1, 0))
@example((2, 0, 1, 1))
@given(summand_cells())
@settings(max_examples=300, deadline=None)
def test_summand_residual_matches_reference_chain(cell):
    assert (ss.recurrence_residual("rec-summand", *cell)
            == reference_residual("rec-summand", *cell))


@pytest.mark.parametrize("kind", ["rec-l", "rec-andrews"])
def test_side_residuals_match_reference_chains(kind):
    # every N of the property's range, the ones below the recurrence's
    # own range (nonzero residuals) included
    for N in range(-2, 15):
        assert ss.recurrence_residual(kind, N) == reference_residual(kind, N), N


@given(summand_cells())
@settings(max_examples=200, deadline=None)
def test_summand_table_is_the_summand_shifted_back(cell):
    # the residual term's two tables, multiplied as QPolys and moved up to
    # their least half-step, are the uncached summand
    lo, left, right = ss._summand_factors(*cell)

    product = QPoly.from_table(left) * QPoly.from_table(right)
    assert product.shift(lo) == ss.schur_summand(*cell)


def index_triples(N):
    # every (m, n1, n2) with m + n1 + n2 <= N, in the runner's order
    return [(m, n1, n2) for m in range(N + 1) for n1 in range(N + 1 - m)
            for n2 in range(N + 1 - m - n1)]


def summand_cells_in_row_order(N):
    # the cells a rec-summand row at N checks, in the runner's order: the
    # rest have m > 3(N-m-n1-n2), where every summand of the recurrence
    # vanishes
    return [(m, n1, n2) for m, n1, n2 in index_triples(N)
            if m <= 3 * (N - m - n1 - n2)]


def test_summand_rows_sweep_only_the_cells_one_cell_verify_accepts(monkeypatch):
    swept = []
    residual = ss.recurrence_residual

    def counted(kind, N, m, n1, n2):
        swept.append((N, (m, n1, n2)))
        return residual(kind, N, m, n1, n2)

    monkeypatch.setattr(ss, "recurrence_residual", counted)
    rows = range(4, 13)  # the report's rec-summand rows
    for N in rows:
        assert ss.verify("rec-summand", {"N": N}).verified, N
    # 494 of the 1,785 index triples are left out
    assert len(swept) == 1291
    row_cells = list(swept)
    for N in rows:
        cells = [cell for n, cell in row_cells if n == N]
        assert cells == summand_cells_in_row_order(N), N
        for cell in index_triples(N):
            params = {"N": N, **dict(zip(("m", "n1", "n2"), cell))}
            if cell in cells:
                assert ss.verify("rec-summand", params).verified, params
            else:
                with pytest.raises(ss.UsageError, match="vanish"):
                    ss.verify("rec-summand", params)


@pytest.mark.parametrize("kind", ["rec-l", "rec-summand"])
@pytest.mark.parametrize("mutation", ["shift-6n-4", "drop-12n-24"])
def test_mutated_recurrence_fails_at_the_reference_residual(
        monkeypatch, kind, mutation):
    # a term moved from q^(6N-5) to q^(6N-4), or the q^(12N-24) term
    # dropped, must fail the row at the least term of the first nonzero
    # reference residual
    # both kinds read one L4 table; the mutant replaces it for one kind
    assert ss._RECURRENCES["rec-l"] is ss._RECURRENCES["rec-summand"]
    shift_6n, with_12n = (-4, True) if mutation == "shift-6n-4" else (-5, False)
    terms = []
    for sign, shift, powers, steps in ss._RECURRENCES[kind]:
        if shift == (6, -5):
            shift = (6, shift_6n)
        if shift == (12, -24) and not with_12n:
            continue
        terms.append((sign, shift, powers, steps))
    assert len(terms) + (not with_12n) == len(ss._RECURRENCES[kind])
    monkeypatch.setitem(ss._RECURRENCES, kind, tuple(terms))
    N = 6
    cells = [()] if kind == "rec-l" else summand_cells_in_row_order(N)
    for cell in cells:
        want = reference_residual(kind, N, *cell, shift_6n=shift_6n,
                                  with_12n=with_12n)
        if want:
            break
    assert want, "the mutation left every residual of the row zero"
    e = want.min_half_exponent()
    report = ss.verify(kind, {"N": N})
    assert report.status == "failed"
    assert report.first_discrepancy == {
        "x_degree": None, "exponent_half_steps": e,
        "lhs": str(want.coefficient(e)), "rhs": "0"}


@pytest.mark.parametrize("N", range(0, 13))
def test_dual_transform(N):
    lhs, rhs = ss.dual_sides(N)
    assert lhs == rhs
    # the dual weight is the plain one seen from q -> 1/q
    assert lhs == substitute(ss.lhs_schur(N), -1).shift(3 * N * N + N)


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
        recip = naive_parts_series(T, free=range(6, 6 * y + 1, 6))
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


binomial_pairs = st.tuples(st.integers(0, 14), st.integers(0, 14)).map(
    lambda tb: (max(tb), min(tb)))


@example(6, [])                                      # the empty product
@example(3, [(5, 2)])                                # t0-binom's [N,k]_{q^3}
@given(st.sampled_from([1, 3, 6]), st.lists(binomial_pairs, max_size=2))
@settings(max_examples=200, deadline=None)
def test_spread_is_the_binomial_product_on_whole_steps(k, binomials):
    want = QPoly.one()
    for top, bottom in binomials:
        want = want * gauss_binomial(top, bottom, k)
    table = ss._spread(k, *binomials)
    assert table[0] == 1 and table[-1] != 0
    assert QPoly.from_table(table) == want


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


def test_summation_limit_at_each_layer_threshold():
    # the N-layer starts at q^(N(3N-1)/2), so at T = 0, 1, 5, 12, 22 and
    # 35 the last layer read has one term in the window: a loop that
    # stops a layer early misses it
    for T in range(41):
        assert ss.summation_limit_sum(T) == ss.schur_product_truncated(T), T


def test_a_product_term_needs_whole_q_steps():
    assert ss._table(QPoly({3: 2, 7: 1})) == (3, (2, 0, 1))
    assert ss._table(QPoly.zero()) == (0, ())
    with pytest.raises(ValueError, match="between the table's steps"):
        ss._table(QPoly({0: 1, 1: 1}))


def test_a_changed_summation_limit_fails_the_analytic_row(monkeypatch):
    # analytic-schur's second pair reads the summation limit: q^T added
    # to it must fail the row at q^T
    T = 60
    limit = ss.summation_limit_sum
    monkeypatch.setattr(ss, "summation_limit_sum",
                        lambda T: limit(T) + QPoly.monomial(1, 2 * T))
    c = ss.schur_product_truncated(T).coefficient(2 * T)
    report = ss.verify("analytic-schur", {"T": T})
    assert report.status == "failed"
    assert report.first_discrepancy == {
        "x_degree": None, "exponent_half_steps": 2 * T,
        "lhs": str(c + 1), "rhs": str(c)}


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
        assert prod.coefficient(2 * n) == counts[n]


@pytest.mark.parametrize("T", [0, 1, 2, 7, 24])
def test_pair_series_agree_with_each_other_and_the_oracle(T):
    # windows below 6 drop the even/odd split's x^2 piece at every cell
    ali = ss.ali_gf_truncated(T)
    kur = ss.kursungoz_gf_truncated(T)
    split = ss.even_odd_split_lhs(T)
    oracle = schur_gf_oracle(T)
    assert ali == kur
    assert ali == split
    assert ali == oracle


@pytest.mark.parametrize("build", [
    ss.ali_gf_truncated, ss.kursungoz_gf_truncated, ss.even_odd_split_lhs,
    lambda T: ss.bounded_gf(3, T), lambda T: ss.qt_limit_sum(1, T),
    ss.schur_product_truncated, ss.t0_limit_product,
    lambda T: ss.t0_half_sum_truncated(3, T), ss.summation_limit_sum],
    ids=["ali", "kursungoz", "even-odd", "bounded", "qt-limit", "product",
         "t0-limit", "t0-half", "summation-limit"])
def test_windowed_series_reject_negative_window(build):
    with pytest.raises(ValueError, match="T must be >= 0"):
        build(-1)


def test_pair_series_at_x_one_is_the_product():
    T = 24
    assert ss.ali_gf_truncated(T).at_x_one() == ss.schur_product_truncated(T)


@pytest.mark.parametrize("N", range(0, 8))
def test_bounded_series_vs_bounded_oracle(N):
    T = 24
    assert ss.bounded_gf(N, T) == schur_gf_oracle(T, largest_part=N)


def reference_bounded_cell(N, n1, n2, m):
    # One summand of the bounded series as a schoolbook QPoly product, one
    # factor at a time.  A component with zero movers contributes factor
    # 1, whatever its printed binomial's top argument would be
    term = QPoly.one()
    if m:
        term = gauss_binomial(N - 3 * (n1 + n2 + m) + 1, m)
    if n1:
        top = (N - (3 * (n1 - 1) + 1)) // 3 - m - n2 + n1 // 2
        term = term * gauss_binomial(top, n1 // 2, 6)
    if n2:
        top = (N - (3 * (n1 + n2 - 1) + 2)) // 3 - m + n2 // 2
        term = term * gauss_binomial(top, n2 // 2, 6)
    return term


def reference_bounded_gf(N, T):
    # the bounded series cell by cell: each summand cut to its room T - w
    # and added into its grade n1 + n2 + m
    strata = {}
    for n1, n2, m, w in ss._cells(T, ss.weight_a):
        term = reference_bounded_cell(N, n1, n2, m).truncate(T - w).shift(2 * w)
        strata[n1 + n2 + m] = strata.get(n1 + n2 + m, QPoly.zero()) + term
    return XSeries(T, strata)


@example(0, 0)
@example(29, 145)                            # cor1-bounded-sum at N = 10
@given(st.integers(0, 40), st.integers(0, 90))
@settings(max_examples=60, deadline=None)
def test_bounded_series_matches_the_per_cell_schoolbook_reference(N, T):
    assert ss.bounded_gf(N, T) == reference_bounded_gf(N, T)


@pytest.mark.parametrize("N", range(1, 7))
def test_bounded_sum_collapses_to_central_lhs(N):
    lhs, rhs = ss.cor1_bounded_sum(N)
    assert lhs == rhs


def test_analytic_product_identity_small():
    # (-q;q^3)(-q^2;q^3) infinite products expanded two ways: against the
    # naive product of its first T factors of each kind, cut to q^T
    T = 24
    prod = ss.schur_product_truncated(T)
    direct = naive_parts_series(T, once=[3 * i + r for i in range(T)
                                         for r in (1, 2)])
    assert prod == direct


def test_report_rows_of_cell_products_make_no_polynomial_products(monkeypatch):
    # every cell product of these report rows is a `_packed_sum` term.
    # The caches are cleared first, so a table that a product once built
    # and a cache kept would show as well
    kinds = {"gf-ali-eq-kursungoz", "gf-even-odd-split", "analytic-schur",
             "gf-bounded", "cor1-bounded-sum", "qt-limit", "rec-summand"}
    cleared = set()
    for name, f in vars(ss).items():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
            cleared.add(name)
    # the four memoized sides among them
    assert {"_lhs_table", "_rhs_table", "_dual_table", "_t0_half_table"} <= cleared

    def product(self, other):
        raise AssertionError("QPoly product")

    monkeypatch.setattr(QPoly, "__mul__", product)
    monkeypatch.setattr(QPoly, "__rmul__", product)
    rows = [r for r in ss.acceptance_matrix() if r["check"] in kinds]
    assert {r["check"] for r in rows} == kinds
    for row in rows:
        assert ss.verify(row["check"], row["params"]).verified, row


def row_sides(rows):
    # the (left, right) pairs each row compares
    out = []
    for row in rows:
        ident, params = ss.check_params(row["check"], row["params"])
        out.append(list(ss._REGISTRY[ident][1](params)))
    return out


def test_rows_after_every_cache_clear_equal_their_values_before():
    # the held memo keeps each cache's table alive past the cache's clear,
    # so no id it holds can pass to a table built later.  These rows read
    # tables of every cache that holds them: `_gauss_coeffs`' rows,
    # `_pair_sum`, `_spread` and `_t0_table`, in exact and windowed sums
    kinds = {"schur-poly", "dual", "rec-l", "rec-summand", "t0-binom",
             "summation-m", "warnaar", "gf-bounded"}
    rows = [r for r in ss.acceptance_matrix() if r["check"] in kinds]
    before = row_sides(rows)
    assert all(left == right for pairs in before for left, right in pairs)
    for _ in range(3):
        for f in vars(ss).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        qcoeff._ROWS.clear()
        assert row_sides(rows) == before
        assert all(id(held[0]) == key for key, held in qpoly._HELD.items())


def test_a_second_report_pass_repacks_no_held_table_at_its_held_width(monkeypatch):
    # a held table is packed again only for a sum on another slot width
    # than its held pack's; the rows of a second pass alternate widths, so
    # some are, but none is packed where its held pack would serve
    repacked = []
    pack = qpoly._pack

    def counting(table, w, code):
        held = qpoly._HELD.get(id(table))
        if held and held[2] and held[2][0] == w:
            repacked.append((len(table), w))
        return pack(table, w, code)

    monkeypatch.setattr(qpoly, "_pack", counting)
    rows = ss.acceptance_matrix()
    for _ in range(2):
        for row in rows:
            assert ss.verify(row["check"], row["params"]).verified, row
        assert any(held[2] for held in qpoly._HELD.values())
    assert repacked == []


def test_equal_sides_are_never_subtracted(monkeypatch):
    # a verified row compares its sides for equality alone: the central
    # identity, and a row of x-graded series against the oracle
    def subtract(self, other):
        raise AssertionError("QPoly subtraction")

    monkeypatch.setattr(QPoly, "__sub__", subtract)
    assert ss.verify("schur-poly", {"N": 10}).verified
    assert ss.verify("gf-bounded", {"N": 6, "T": 45}).verified


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


def test_perturb_adds_one_monomial_to_stratum_zero():
    # the fault hook on a series: delta q^(e/2) on the x^0 stratum, made
    # if absent and dropped if it cancels; every other stratum and the
    # window kept, and a monomial past the window dropped
    bounded = ss.bounded_gf(4, 16)
    assert bounded.stratum(0) == QPoly.one()
    bare = XSeries(5, {1: QPoly.monomial(2, 4)})
    for side in (bounded, bare):
        T = side.truncation
        for delta, e in ((3, 6), (-2, 2 * T), (-1, 0), (5, -3)):
            out = ss._perturb(side, {"delta": delta, "exponent_half_steps": e})
            assert out.truncation == T
            assert out.stratum(0) == side.stratum(0) + QPoly.monomial(delta, e)
            assert set(out.x_degrees()) - {0} == set(side.x_degrees()) - {0}
            for x in side.x_degrees():
                if x:
                    assert out.stratum(x) == side.stratum(x)
        for e in (2 * T + 1, 2 * T + 2, 4 * T):
            assert ss._perturb(side, {"delta": 7, "exponent_half_steps": e}) == side
    assert ss._perturb(bounded, {"delta": -1, "exponent_half_steps": 0}
                       ).x_degrees() == bounded.x_degrees()[1:]
    assert ss._perturb(bare, {"delta": 1, "exponent_half_steps": 0}
                       ).x_degrees() == [0, 1]


def test_verify_rejects_bad_params():
    with pytest.raises(ss.UsageError):
        ss.verify(ss.IdentityId.QT_LIMIT, {"t": 3, "T": 10})
    with pytest.raises(ss.UsageError):
        ss.verify("no-such-identity", {})
