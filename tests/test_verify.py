"""The verify() entry point: reports, parameter handling, fault paths."""

import json

import pytest

from qschur.schur_sums import (
    IdentityId,
    UsageError,
    VerificationReport,
    check_params,
    verify,
)

# identities with cheap parameter choices, used to walk the whole registry
CHEAP_PARAMS = {
    IdentityId.SCHUR_POLY: {"N": 4},
    IdentityId.DUAL: {"N": 5},
    IdentityId.T0_BINOM: {"N": 6},
    IdentityId.T0_LIMIT: {"N": 12, "T": 12},
    IdentityId.QT_LIMIT: {"t": 1, "T": 14},
    IdentityId.SUMMATION_M: {"M": 4},
    IdentityId.WARNAAR: {"L": 4},
    IdentityId.REC_ANDREWS: {"N": 5},
    IdentityId.REC_L: {"N": 6},
    IdentityId.REC_SUMMAND: {"N": 5},
    IdentityId.GF_BOUNDED: {"N": 4, "T": 16},
    IdentityId.GF_ALI_EQ_KURSUNGOZ: {"T": 16},
    IdentityId.GF_EVEN_ODD_SPLIT: {"T": 16},
    IdentityId.ANALYTIC_SCHUR: {"T": 16},
    IdentityId.Q1_TRIPLE: {"M": 5},
    IdentityId.Q1_QUAD: {"M": 5},
    IdentityId.EXPONENT_DIFF: {"max": 5},
    IdentityId.SCHUR_COUNTS: {"max_n": 20},
    IdentityId.COR1_BOUNDED_SUM: {"N": 2},
    IdentityId.BIJECTION_SWEEP: {"max_size": 16},
}


@pytest.mark.parametrize("ident", list(IdentityId))
def test_every_identity_verifies_at_small_parameters(ident):
    rep = verify(ident, CHEAP_PARAMS[ident])
    assert rep.status == "verified"
    assert rep.verified
    assert rep.first_discrepancy is None
    assert rep.identity == ident.value


@pytest.mark.parametrize("ident", list(IdentityId))
def test_injected_fault_is_caught_everywhere(ident):
    # the hook adds 1 to the left side; every runner must notice
    params = dict(CHEAP_PARAMS[ident])
    params["_perturb"] = {"delta": 1, "exponent_half_steps": 0}
    rep = verify(ident, params)
    assert rep.status == "failed"
    fd = rep.first_discrepancy
    assert fd is not None
    assert set(fd) == {"x_degree", "exponent_half_steps", "lhs", "rhs"}
    assert fd["lhs"] != fd["rhs"]
    # hooks are not echoed back
    assert "_perturb" not in rep.params


def test_report_roundtrips_through_json():
    rep = verify(IdentityId.SCHUR_POLY, {"N": 3})
    doc = json.loads(json.dumps(rep.as_dict()))
    assert doc["identity"] == "schur-poly"
    assert doc["params"] == {"N": 3}
    assert doc["status"] == "verified"
    assert doc["first_discrepancy"] is None
    assert doc["elapsed_ms"] == 0


def test_timings_flag_controls_elapsed():
    silent = verify(IdentityId.SCHUR_POLY, {"N": 3})
    assert silent.elapsed_ms == 0
    timed = verify(IdentityId.SCHUR_POLY, {"N": 8}, timings=True)
    assert timed.elapsed_ms >= 0


def test_string_names_are_accepted():
    rep = verify("rec-andrews", {"N": 4})
    assert rep.status == "verified"


def test_unknown_identity_is_a_usage_error():
    with pytest.raises(UsageError):
        verify("schur_poly", {"N": 3})
    with pytest.raises(UsageError):
        verify("", {})


def test_missing_and_malformed_parameters():
    with pytest.raises(UsageError):
        verify(IdentityId.SCHUR_POLY, {})
    with pytest.raises(UsageError):
        verify(IdentityId.SCHUR_POLY, {"N": "4"})
    with pytest.raises(UsageError):
        verify(IdentityId.SCHUR_POLY, {"N": True})
    with pytest.raises(UsageError):
        verify(IdentityId.WARNAAR, {"L": -1})
    with pytest.raises(UsageError):
        verify(IdentityId.SCHUR_POLY, {"N": -3})
    # a parameter the identity does not read is an error, not an echo
    with pytest.raises(UsageError, match="'T'"):
        verify(IdentityId.SCHUR_POLY, {"N": 1, "T": 5})
    with pytest.raises(UsageError, match="'L'"):
        verify(IdentityId.DUAL, {"N": 2, "L": 3})


def test_parity_split_t_is_restricted():
    with pytest.raises(UsageError):
        verify(IdentityId.QT_LIMIT, {"t": 3, "T": 10})
    with pytest.raises(UsageError):
        verify(IdentityId.QT_LIMIT, {"T": 10})   # t has no default


def test_partial_sum_window_guard():
    # beyond T = N the partial sum genuinely differs from the limit, so
    # wider windows are rejected up front rather than reported failed
    with pytest.raises(UsageError):
        verify(IdentityId.T0_LIMIT, {"N": 10, "T": 11})
    rep = verify(IdentityId.T0_LIMIT, {"N": 10, "T": 10})
    assert rep.status == "verified"


def test_termwise_recurrence_cell_selection():
    rep = verify(IdentityId.REC_SUMMAND, {"N": 6, "m": 1, "n1": 1, "n2": 1})
    assert rep.status == "verified"
    with pytest.raises(UsageError):
        verify(IdentityId.REC_SUMMAND, {"N": 6, "m": 1})
    with pytest.raises(UsageError):
        verify(IdentityId.REC_SUMMAND, {"N": 3})
    # a negative index selects a zero summand, which would pass vacuously
    with pytest.raises(UsageError, match="'m'"):
        verify(IdentityId.REC_SUMMAND, {"N": 6, "m": -1, "n1": 1, "n2": 1})
    # so does a cell with m > 3(N-m-n1-n2): the summand and every shifted
    # one vanish, so the cell is refused rather than verified
    for cell in ((5, 0, 0), (1, 1, 2), (4, 0, 0)):
        with pytest.raises(UsageError, match="vanish"):
            verify(IdentityId.REC_SUMMAND,
                   {"N": 4, **dict(zip(("m", "n1", "n2"), cell))})
    # m = 3(N-m-n1-n2) still checks a nonzero summand
    rep = verify(IdentityId.REC_SUMMAND, {"N": 4, "m": 3, "n1": 0, "n2": 0})
    assert rep.status == "verified"


def test_warnaar_single_a_selection():
    for L, a in ((5, -2), (3, 3), (3, -3)):
        assert verify(IdentityId.WARNAAR, {"L": L, "a": a}).status == "verified"
    # past |a| = L both sides vanish: refused rather than verified
    for a in (4, -4, 5):
        with pytest.raises(UsageError, match="vanish"):
            verify(IdentityId.WARNAAR, {"L": 3, "a": a})


def test_library_verify_is_not_held_to_the_cli_caps():
    # the declared caps bind only when the caller asks, as the CLI does
    assert verify(IdentityId.T0_LIMIT, {"N": 101, "T": 5}).status == "verified"
    with pytest.raises(UsageError, match="N=101 exceeds the hard cap 100"):
        check_params(IdentityId.T0_LIMIT, {"N": 101, "T": 5}, capped=True)


def test_report_invariant_is_enforced():
    with pytest.raises(ValueError):
        VerificationReport("schur-poly", {}, "failed", None)
    with pytest.raises(ValueError):
        VerificationReport("schur-poly", {}, "verified", {"lhs": "0"})


def test_report_is_a_mutable_value():
    # equal by value, unhashable, and its repr names every field in order
    rep = verify(IdentityId.SCHUR_POLY, {"N": 3})
    assert rep == VerificationReport("schur-poly", {"N": 3}, "verified", None)
    assert rep != VerificationReport("schur-poly", {"N": 4}, "verified", None)
    with pytest.raises(TypeError, match="unhashable"):
        hash(rep)
    rep.elapsed_ms = 5
    assert repr(rep) == ("VerificationReport(identity='schur-poly', "
                         "params={'N': 3}, status='verified', "
                         "first_discrepancy=None, elapsed_ms=5)")


def test_fault_injection_pinpoints_the_exponent():
    rep = verify(IdentityId.SCHUR_POLY, {
        "N": 3, "_perturb": {"delta": 2, "exponent_half_steps": 7}})
    fd = rep.first_discrepancy
    assert fd["exponent_half_steps"] == 7
    assert int(fd["lhs"]) - int(fd["rhs"]) == 2
