"""Motion encoding: examples, invariants, and the certification sweep."""

import gc
import os
import pickle
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qschur import bijection
from qschur.bijection import (
    DecodeError,
    MotionData,
    MotionRuleError,
    _advance_pair,
    _unstep_candidates,
    apply_motions,
    certify_range,
    decode,
    enumerate_motion_data,
    max_motions,
    minimal_configuration,
)
from qschur.partitions import (_schur_follows, _walk, is_schur_admissible,
                               schur_counts)
from qschur.qpoly import QPoly, XSeries
from qschur.schur_sums import bounded_gf, weight_a


def test_minimal_configuration_examples():
    assert minimal_configuration(0, 0, 0) == ()
    assert minimal_configuration(1, 1, 0) == (1, 5)
    assert minimal_configuration(2, 1, 1) == (1, 4, 8, 12)
    assert minimal_configuration(0, 3, 0) == (2, 5, 8)
    assert minimal_configuration(0, 0, 3) == (3, 7, 11)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_minimal_configuration_is_admissible_with_declared_size(n1, n2, m):
    parts = minimal_configuration(n1, n2, m)
    assert is_schur_admissible(parts)
    assert sum(parts) == weight_a(n1, n2, m)
    assert len(parts) == n1 + n2 + m


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
def test_minimal_configuration_decodes_to_zero_budgets(n1, n2, m):
    want = MotionData(n1, n2, m, r=(0,) * m, rho2=(0,) * (n2 // 2),
                      rho1=(0,) * (n1 // 2))
    assert decode(minimal_configuration(n1, n2, m)) == want


def test_apply_motions_examples():
    assert apply_motions(MotionData(0, 0, 1, r=(2,))) == (5,)
    assert apply_motions(MotionData(0, 2, 0, rho2=(1,))) == (5, 8)
    # all-zero budgets: the minimal configuration itself
    still = MotionData(2, 1, 1, r=(0,), rho1=(0,))
    assert apply_motions(still) == minimal_configuration(2, 1, 1)


def test_unobstructed_pairs_slide_freely():
    for k in range(5):
        assert apply_motions(MotionData(2, 0, 0, rho1=(k,))) == \
            (1 + 3 * k, 4 + 3 * k)
        assert apply_motions(MotionData(0, 2, 0, rho2=(k,))) == \
            (2 + 3 * k, 5 + 3 * k)


def test_motion_data_validation():
    with pytest.raises(ValueError):
        MotionData(0, 0, 1)                    # r must have length 1
    with pytest.raises(ValueError):
        MotionData(2, 0, 0, rho1=(1, 2))       # one pair, two step counts
    with pytest.raises(ValueError):
        MotionData(0, 0, 2, r=(3, 1))          # not weakly increasing
    with pytest.raises(ValueError):
        MotionData(0, 0, 1, r=(-1,))
    with pytest.raises(ValueError):
        MotionData(-1, 0, 0)


def test_motion_data_dict_roundtrip():
    d = MotionData(3, 2, 2, r=(0, 4), rho2=(2,), rho1=(1,))
    assert MotionData.from_dict(d.as_dict()) == d


def test_motion_data_is_a_frozen_value_without_dataclasses():
    # importing the package loads neither dataclasses nor inspect (nor, with
    # them, ast, dis and tokenize), in a fresh interpreter
    script = ("import sys\n"
              "import qschur\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(bijection.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    # MotionData stays an immutable value: no field or other attribute can
    # be set or deleted, it compares and hashes by value, and it keeps the
    # repr that decode orders ambiguous pre-images by
    d = MotionData(3, 2, 2, r=[0, 4], rho2=(2,), rho1=(1,))
    for name in ("n1", "r", "extra"):
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
            setattr(d, name, 0)
    with pytest.raises(AttributeError, match="cannot delete field 'm'"):
        del d.m
    twin = MotionData(3, 2, 2, r=(0, 4), rho2=[2], rho1=[1])
    assert d == twin and hash(d) == hash(twin) and len({d, twin}) == 1
    assert d != MotionData(3, 2, 2, r=(1, 3), rho2=(2,), rho1=(1,))
    assert d != (3, 2, 2, (0, 4), (2,), (1,))
    assert repr(d) == "MotionData(n1=3, n2=2, m=2, r=(0, 4), rho2=(2,), rho1=(1,))"
    assert pickle.loads(pickle.dumps(d)) == d


@pytest.mark.parametrize("key", ["rho", "R", "n3", "extra"])
def test_motion_data_with_another_key_is_a_value_error(key):
    # a key the reader does not take is refused, never ignored
    d = {**MotionData(0, 0, 1, r=(2,)).as_dict(), key: [5]}
    with pytest.raises(ValueError, match="motion data takes no key '%s'" % key):
        MotionData.from_dict(d)


@pytest.mark.parametrize("d", [[], 5, None, "n1", [["n1", 0]]],
                         ids=["list", "int", "null", "string", "pairs"])
def test_motion_data_from_non_object_is_a_value_error(d):
    with pytest.raises(ValueError, match="motion data must be a JSON object"):
        MotionData.from_dict(d)


motion_data = st.builds(
    lambda n1, n2, m, rs, p2, p1: MotionData(
        n1, n2, m,
        r=tuple(sorted(rs[:m])),
        rho2=tuple(sorted(p2[:n2 // 2])),
        rho1=tuple(sorted(p1[:n1 // 2]))),
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 3),
    st.lists(st.integers(0, 6), min_size=3, max_size=3),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
)


@given(motion_data)
def test_size_additivity_and_admissibility(data):
    # every no-rule gap known in the rule table sits above size 52
    assume(data.size <= 52)
    result = apply_motions(data)
    assert sum(result) == data.size
    assert is_schur_admissible(result)
    assert len(result) == data.n1 + data.n2 + data.m


@given(motion_data)
def test_decode_inverts_apply(data):
    assume(data.size <= 40)
    assert decode(apply_motions(data)) == data


@given(motion_data)
# the rare crossings of three parts: a cluster (8, 11, 15) and a run
# (8, 11, 14), both faced by the pair (1, 4)
@example(MotionData(2, 2, 1, r=(0,), rho2=(0,), rho1=(1,)))
@example(MotionData(2, 3, 0, rho2=(0,), rho1=(1,)))
def test_every_forward_step_is_undone(data):
    # the inverse is derived from the jump, not from the rule table: it
    # must find every step the forward rules take, and nothing else
    assume(data.size <= 52)
    steps = []

    def recording(state, bottom):
        pre = list(state)
        new_bottom = _advance_pair(state, bottom)
        steps.append((pre, bottom, tuple(state), new_bottom))
        return new_bottom

    with mock.patch.object(bijection, "_advance_pair", recording):
        apply_motions(data)
    for pre, bottom, post, new_bottom in steps:
        candidates = list(_unstep_candidates(list(post), new_bottom))
        assert (pre, bottom) in candidates
        for cand, cand_bottom in candidates:
            probe = list(cand)
            assert _advance_pair(probe, cand_bottom) == new_bottom
            assert tuple(probe) == post


def test_decode_examples():
    assert decode(()) == MotionData(0, 0, 0)
    assert decode((5, 8)) == MotionData(0, 2, 0, rho2=(1,))
    assert decode((1, 4, 8, 12)) == MotionData(2, 1, 1, r=(0,), rho1=(0,))
    assert decode((5,)) == MotionData(0, 0, 1, r=(2,))
    # an odd chain 1 keeps part 1 as its remainder, so (4, 7) is the pair
    assert decode((1, 4, 7)) == MotionData(3, 0, 0, rho1=(0,))
    # one inverse step, two candidates: both lead back to (1, 4, 7), with
    # bottom 4 or bottom 1; with part 1 the remainder, (4, 7) is the pair
    assert decode((1, 7, 10)) == MotionData(3, 0, 0, rho1=(1,))


def _labelings(values, k, reserved, idx=0, acc=()):
    # every choice of k disjoint (v, v+3) pairs among the same-residue
    # values other than reserved, as ascending pair bottoms
    usable = [v for v in values if v != reserved]
    if k == 0:
        yield list(acc)
        return
    for i in range(idx, len(usable) - 1):
        if usable[i + 1] == usable[i] + 3:
            yield from _labelings(usable, k - 1, None, i + 2, acc + (usable[i],))


def _unwinds(state, bottoms, docks, floor=0):
    # every (state, step counts) of inverse-step runs that take each pair,
    # lowest first, back to its dock with weakly increasing counts,
    # backtracking over every candidate of every step
    if not bottoms:
        yield state, ()
        return
    for unwound, steps in _pair_unwinds(state, bottoms[0], docks[0], 0):
        if steps >= floor:
            for rest_state, rest in _unwinds(unwound, bottoms[1:], docks[1:], steps):
                yield rest_state, (steps,) + rest


def _pair_unwinds(state, b, dock, steps):
    if b == dock:
        yield state, steps
    elif b > dock:
        for pre, pre_b in _unstep_candidates(state, b):
            yield from _pair_unwinds(pre, pre_b, dock, steps + 1)


def reference_decode(partition):
    """decode by exhaustive search: every split into chain lengths, every
    pair labelling and every inverse path, each survivor replayed.  It
    shares only the inverse step, `_unstep_candidates`, with decode."""
    p = tuple(partition)
    if not is_schur_admissible(p):
        raise ValueError("partition violates the gap conditions: %s" % (p,))
    n, size = len(p), sum(p)
    zeros = sum(1 for v in p if v % 3 == 0)
    found = set()
    for n1 in range(n + 1):
        for n2 in range(n + 1 - n1):
            m = n - n1 - n2
            if weight_a(n1, n2, m) > size or zeros > m:
                continue
            rem1 = 1 if n1 % 2 else None
            rem2 = 3 * n1 + 2 if n2 % 2 else None
            if rem1 is not None and rem1 not in p:
                continue
            if rem2 is not None and not any(
                    v <= rem2 and v % 6 == rem2 % 6 for v in p):
                continue
            res1 = [v for v in p if v % 3 == 1]
            res2 = [v for v in p if v % 3 == 2]
            if len(res1) - (rem1 is not None) < n1 - n1 % 2 or \
                    len(res2) - (rem2 is not None) < n2 - n2 % 2:
                continue
            dock = minimal_configuration(n1, n2, m)
            chain = set(dock[:n1 + n2])
            docks1 = bijection._pair_docks(dock, 0, n1)
            docks2 = bijection._pair_docks(dock, n1, n2)
            for bottoms1 in _labelings(res1, n1 // 2, rem1):
                for state1, rho1 in _unwinds(list(p), bottoms1, docks1):
                    state1_res2 = [v for v in state1 if v % 3 == 2]
                    for bottoms2 in _labelings(state1_res2, n2 // 2, rem2):
                        for state0, rho2 in _unwinds(state1, bottoms2, docks2):
                            if not chain <= set(state0):
                                continue
                            singles = sorted(v for v in state0 if v not in chain)
                            r = tuple(v - z for v, z in zip(singles, dock[n1 + n2:]))
                            if any(a > b for a, b in zip((0,) + r, r)):
                                continue
                            d = MotionData(n1, n2, m, r=r, rho2=rho2, rho1=rho1)
                            if apply_motions(d) == p:
                                found.add(d)
    if not found:
        raise DecodeError("no motion pre-image for %s" % (p,))
    if len(found) > 1:
        raise DecodeError("ambiguous motion pre-image for %s: %s"
                          % (p, [d.as_dict() for d in sorted(found, key=repr)]))
    return found.pop()


def outcome(decoder, partition):
    # the decoded data, or the class and message of the error raised
    try:
        return decoder(partition)
    except ValueError as exc:
        return type(exc), str(exc)


def test_decode_agrees_with_the_exhaustive_search():
    # every admissible partition up to 40: the read-off split and labels
    # find what the search over every split and labelling finds
    walked = 0
    for _, p in _walk(40, None, _schur_follows):
        walked += 1
        assert outcome(decode, p) == outcome(reference_decode, p), p
    assert walked == sum(schur_counts(40))


@given(motion_data)
@example(MotionData(3, 0, 0, rho1=(1,)))
def test_decode_agrees_with_the_exhaustive_search_on_drawn_data(data):
    try:
        p = apply_motions(data)
    except MotionRuleError:
        assume(False)
    assert outcome(decode, p) == outcome(reference_decode, p)


def test_decode_refuses_two_pre_images():
    # two splits of (1, 9) reach the replay, (0, 0, 2) and (1, 0, 1); were
    # both to replay, decode must refuse rather than pick one
    def every_split_replays(p, n1, n2, m, *rest):
        return MotionData(n1, n2, m, r=(0,) * m)

    with mock.patch.object(bijection, "_decode_split", every_split_replays):
        with pytest.raises(DecodeError) as info:
            decode((1, 9))
    message = str(info.value)
    assert message.startswith("ambiguous motion pre-image for (1, 9): ")
    for data in (MotionData(0, 0, 2, r=(0, 0)), MotionData(1, 0, 1, r=(0,))):
        assert str(data.as_dict()) in message


def test_decode_rejects_inadmissible():
    with pytest.raises(ValueError):
        decode((1, 3))
    with pytest.raises(ValueError):
        decode((3, 6))


def _closed_form_caps(n1, n2, m, N):
    # the caps written out as arithmetic on n1, n2, m: a reference that
    # shares no dock lookup with max_motions
    r_cap = N - (3 * (n1 + n2) + 3 + 4 * (m - 1)) if m else None
    rho2_cap = (N - (3 * (n1 + n2 - 1) + 2)) // 3 - m if n2 >= 2 else None
    rho1_cap = (N - (3 * (n1 - 1) + 1)) // 3 - m - n2 if n1 >= 2 else None
    return {"r": r_cap, "rho2": rho2_cap, "rho1": rho1_cap}


def _nested_walk(max_size, largest_part=None):
    # enumerate_motion_data written as its own (n1, n2, m) while-nest: a
    # reference for the order and stops of the walk on _cells
    n1 = 0
    while weight_a(n1, 0, 0) <= max_size:
        n2 = 0
        while weight_a(n1, n2, 0) <= max_size:
            m = 0
            while True:
                a = weight_a(n1, n2, m)
                if a > max_size:
                    break
                if largest_part is not None:
                    caps = _closed_form_caps(n1, n2, m, largest_part)
                    if (n1 % 2 and largest_part < 1) or \
                            (n2 % 2 and largest_part < 3 * n1 + 2):
                        m += 1
                        continue
                else:
                    caps = {"r": None, "rho2": None, "rho1": None}
                budget = max_size - a
                for r in bijection._weakly_increasing(m, budget, caps["r"]):
                    left = budget - sum(r)
                    for rho2 in bijection._weakly_increasing(
                            n2 // 2, left // 6, caps["rho2"]):
                        left2 = left - 6 * sum(rho2)
                        for rho1 in bijection._weakly_increasing(
                                n1 // 2, left2 // 6, caps["rho1"]):
                            yield MotionData(n1, n2, m, r, rho2, rho1)
                m += 1
            n2 += 1
        n1 += 1


def test_max_motions_examples():
    caps = max_motions(0, 0, 1, 5)
    assert caps["r"] == 2
    assert caps["rho2"] is None and caps["rho1"] is None
    caps = max_motions(0, 2, 0, 8)
    assert caps["rho2"] == 1
    caps = max_motions(0, 0, 0, 0)
    assert caps == {"r": None, "rho2": None, "rho1": None}
    # the lone singleton docks at 3, the lone chain-2 part at 2
    assert max_motions(0, 0, 1, 2) is None and max_motions(0, 1, 0, 1) is None
    for n1 in range(7):
        for n2 in range(7):
            for m in range(7):
                for N in range(41):
                    caps = max_motions(n1, n2, m, N)
                    if max(minimal_configuration(n1, n2, m), default=0) > N:
                        assert caps is None, (n1, n2, m, N)
                        continue
                    assert caps == _closed_form_caps(n1, n2, m, N), (n1, n2, m, N)
                    assert all(c >= 0 for c in caps.values() if c is not None), \
                        (n1, n2, m, N)


def test_max_motions_caps_are_sharp():
    # the cap value is reachable, one more breaks the bound
    for config, key, budget in (
            ((0, 0, 1), "r", lambda v: MotionData(0, 0, 1, r=(v,))),
            ((0, 2, 0), "rho2", lambda v: MotionData(0, 2, 0, rho2=(v,))),
            ((2, 0, 0), "rho1", lambda v: MotionData(2, 0, 0, rho1=(v,)))):
        for N in range(4, 14):
            caps = max_motions(*config, N)
            if caps is None:
                # the component cannot fit under the bound at all
                assert max(minimal_configuration(*config)) > N
                continue
            cap = caps[key]
            assert max(apply_motions(budget(cap))) <= N
            assert max(apply_motions(budget(cap + 1))) > N


def test_enumeration_respects_size_bound():
    seen = set()
    for data in enumerate_motion_data(18):
        assert data.size <= 18
        assert data not in seen
        seen.add(data)
    # and its image is exactly the admissible partitions up to 18
    images = sorted(apply_motions(d) for d in seen)
    assert len(images) == len(set(images)) == sum(schur_counts(18))
    # the walk order is the old nest's: certify_range reports the first
    # failure in it
    for max_size in range(25):
        for largest_part in (None, 0, 1, 4, 7, 10):
            assert list(enumerate_motion_data(max_size, largest_part)) == \
                list(_nested_walk(max_size, largest_part)), \
                (max_size, largest_part)


def test_enumeration_with_largest_part_bound():
    for N in (4, 7, 10):
        images = [apply_motions(d) for d in enumerate_motion_data(20, largest_part=N)]
        assert all(not p or p[-1] <= N for p in images)
        capped = sum(schur_counts(20, largest_part=N))
        assert len(set(images)) == len(images) == capped


def test_bounded_series_counts_the_capped_motion_data():
    # each cell's binomials [cap + k, k] count its motion data under the
    # caps of max_motions; no motion is played forward, so this holds
    # whatever the rules do
    for T in (0, 12, 40):
        for N in range(31):
            strata: dict[int, list[int]] = {}
            for d in enumerate_motion_data(T, largest_part=N):
                strata.setdefault(d.n1 + d.n2 + d.m, [0] * (T + 1))[d.size] += 1
            counted = XSeries(T, {x: QPoly.from_table(row) for x, row in strata.items()})
            assert bounded_gf(N, T) == counted, (N, T)


def test_certification_sweep():
    report = certify_range(30)
    assert report["status"] == "verified"
    assert report["failure"] is None
    assert report["partitions"] == sum(schur_counts(30))


# (3, 9) and (4, 8), both of size 12, from the two singletons' budgets
TWIN, TWIN_IMAGE_OF = MotionData(0, 0, 2, r=(0, 2)), MotionData(0, 0, 2, r=(1, 1))


def test_certify_catches_two_data_with_one_image():
    # no image is stored: the datum whose image another owns decodes to
    # the other, so the shared image shows up as a failed round trip
    real = bijection.apply_motions
    image = real(TWIN_IMAGE_OF)

    def twinned(data):
        return image if data == TWIN else real(data)
    with mock.patch.object(bijection, "apply_motions", twinned):
        report = certify_range(20)
    assert report["status"] == "failed"
    assert report["failure"] == {"kind": "round-trip", "partition": list(image),
                                 "encoded": TWIN.as_dict(),
                                 "decoded": TWIN_IMAGE_OF.as_dict()}


def test_certify_counts_coverage_against_the_oracle():
    # a datum the enumeration leaves out leaves its size one image short
    real = bijection.enumerate_motion_data

    def without_twin(max_size):
        return (d for d in real(max_size) if d != TWIN)
    with mock.patch.object(bijection, "enumerate_motion_data", without_twin):
        report = certify_range(20)
    assert report["status"] == "failed"
    assert report["failure"] == {"kind": "coverage", "size": 12,
                                 "images": 5, "oracle": 6}


def test_certify_rejects_an_inadmissible_image():
    real = bijection.apply_motions

    def crowded(data):
        return (1, 3) if data == TWIN else real(data)
    with mock.patch.object(bijection, "apply_motions", crowded):
        report = certify_range(20)
    assert report["status"] == "failed"
    assert report["failure"] == {"kind": "inadmissible-image",
                                 "data": TWIN.as_dict(), "partition": [1, 3]}


def test_certify_and_decode_leave_no_reference_cycles():
    # the search generators are module-level, so no call leaves a
    # function <-> cell cycle for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        assert certify_range(24)["status"] == "verified"
        for data in enumerate_motion_data(24):
            assert decode(apply_motions(data)) == data
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_certification_rejects_negative_bound():
    with pytest.raises(ValueError):
        certify_range(-1)


def test_uncovered_cluster_signals_instead_of_guessing():
    # A 1 mod 3 pair facing a singleton at +3 with a docked 2 mod 3 pair
    # at +7, +10 matches no motion rule.  The contract is a loud
    # MotionRuleError naming the state, never a silently skipped or
    # invented step.  Smallest instance: size 58.
    data = MotionData(2, 2, 1, r=(1,), rho2=(1,), rho1=(2,))
    assert data.size == 58
    with pytest.raises(MotionRuleError) as exc:
        apply_motions(data)
    assert exc.value.family == 1
    assert exc.value.bottom == 4
    assert exc.value.state == (4, 7, 10, 14, 17)


def test_decode_finds_no_pre_image_at_the_gap():
    # the smallest admissible partition without a pre-image (size 58)
    with pytest.raises(DecodeError):
        decode((4, 8, 11, 16, 19))


def test_certify_reports_the_known_gap_without_raising():
    # the sweep surfaces the same uncovered cluster as data, not a crash
    report = certify_range(58)
    assert report["status"] == "failed"
    assert report["failure"]["kind"] == "no-rule"
    assert report["failure"]["data"] == {
        "n1": 2, "n2": 2, "m": 1, "r": [1], "rho2": [1], "rho1": [2]}
