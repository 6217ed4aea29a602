import random
import re
from functools import partial

import pytest

from leetile import (
    AbelianGroup,
    DeltaReport,
    MultiplicityProfile,
    RejectedCandidateError,
    TilingCandidate,
    check_identities_k2,
    check_identities_k4,
    predicted_profile_mod3,
    profile,
)
from leetile.group_ring import GroupRingElement
from leetile.profiles import IdentityCheck, _power_product

from conftest import ARMS_N1, random_symmetric_arms

# Frozen histograms, derived by enumerating all ordered pair sums by hand:
# n=1 over Z5 with arms {0, 1, 4} and n=2 over Z13 with arms {0, 1, 12, 5, 8}.
N1_K2 = {0: 0, 1: 1, 2: 4}
N1_K4 = {0: 0, 1: 2, 2: 2, 3: 1}
N2_K2 = {0: 0, 1: 5, 2: 4, 3: 4}
N2_K4 = {0: 0, 1: 5, 2: 4, 3: 4}


def delta_by_pair_counting(candidate):
    """Independent oracle for the overlap correction: count unordered pairs
    of distinct non-identity doubled arms whose doubled difference is again
    a doubled arm, then shift by -2n."""
    group = candidate.group
    doubled = sorted({group.scale(t, 2) for t in candidate.arms})
    identity = group.identity()
    nonid = [a for a in doubled if a != identity]
    doubled_set = set(doubled)
    raw = 0
    for i in range(len(nonid)):
        for j in range(i + 1, len(nonid)):
            diff = group.add(nonid[j], group.neg(nonid[i]))
            if group.scale(diff, 2) in doubled_set:
                raw += 1
    return raw - 2 * candidate.n


def test_profile_frozen_histograms(candidate_n1, candidate_n2):
    assert profile(candidate_n1, 2).histogram == N1_K2
    assert profile(candidate_n1, 4).histogram == N1_K4
    assert profile(candidate_n2, 2).histogram == N2_K2
    assert profile(candidate_n2, 4).histogram == N2_K4
    assert profile(candidate_n1, 2).max_index == 2
    assert profile(candidate_n2, 4).max_index == 3


def test_profile_totals(candidate_n2):
    p = profile(candidate_n2, 2)
    assert p.total() == 13
    assert p.weighted_sum() == 25  # (2n+1)^2 at n=2


def test_profile_requires_verified_candidate(z13):
    bad = TilingCandidate(z13, 2, ((0,), (1,), (12,), (2,), (11,)))
    with pytest.raises(RejectedCandidateError):
        profile(bad, 2)


def test_profile_rejects_other_exponents(candidate_n1):
    with pytest.raises(ValueError):
        profile(candidate_n1, 3)


@pytest.mark.parametrize(
    "call, value",
    [
        (partial(profile, TilingCandidate(AbelianGroup((5,)), 1, ARMS_N1)), 4.0),
        (partial(profile, TilingCandidate(AbelianGroup((5,)), 1, ARMS_N1)), 2.0),
        (predicted_profile_mod3, 4.0),
        (predicted_profile_mod3, True),
    ],
    ids=["profile-k4-float", "profile-k2-float", "predicted-n-float", "predicted-n-bool"],
)
def test_non_int_input_rejected_naming_the_value(call, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


def test_k2_identities_real_instances(candidate_n1, candidate_n2):
    for cand in (candidate_n1, candidate_n2):
        report = check_identities_k2(profile(cand, 2))
        assert report.all_passed


def test_k2_identities_synthetic_violation():
    base = dict(N2_K2)
    base[0] += 1  # breaks the covering identity and nothing else
    broken = MultiplicityProfile(k=2, n=2, histogram=base)
    report = check_identities_k2(broken)
    assert not report.check("class-sizes-cover-group").passed
    assert report.check("weighted-class-sum").passed
    assert report.check("distinct-element-count").passed


def test_k4_identities_real_instances(candidate_n1, candidate_n2):
    for cand, expected_delta, ok1_rhs in (
        (candidate_n1, -1, 12),
        (candidate_n2, 0, 30),
    ):
        delta_report, report = check_identities_k4(profile(cand, 4))
        assert report.all_passed
        assert delta_report.delta == expected_delta
        assert delta_report.delta_raw == expected_delta + 2 * cand.n
        assert report.check("small-class-lower-bound").rhs == ok1_rhs


def test_delta_matches_pair_counting_oracle(candidate_n1, candidate_n2):
    for cand in (candidate_n1, candidate_n2):
        delta_report, _ = check_identities_k4(profile(cand, 4))
        assert delta_report.delta == delta_by_pair_counting(cand)


def test_k4_all_mass_on_class_one():
    # with every element in class 1 the solved correction is forced to
    # total - (4n+1), here 13 - 9 = 4, outside [-4, 0]
    p = MultiplicityProfile(k=4, n=2, histogram={0: 0, 1: 13})
    delta_report, report = check_identities_k4(p)
    assert delta_report.delta == 13 - (4 * 2 + 1)
    assert not report.check("delta-within-bounds").passed


@pytest.mark.parametrize("ones, delta, passed", [(9, 0, True), (5, -4, True), (4, -5, False)])
def test_k4_delta_bracket_is_inclusive(ones, delta, passed):
    # with only class 1 occupied at n = 2 the correction is ones - 9, so
    # these three profiles sit on 0, on -2n and just below -2n
    p = MultiplicityProfile(k=4, n=2, histogram={0: 13 - ones, 1: ones})
    delta_report, report = check_identities_k4(p)
    assert delta_report.delta == delta
    assert delta_report.delta_raw == delta + 4
    assert report.check("delta-within-bounds").passed is passed


def test_k4_small_class_lower_bound_violation():
    # 2 * 9 elements of class 1 fall short of 4n^2 + 6n + 2 = 30 at n = 2
    p = MultiplicityProfile(k=4, n=2, histogram={0: 4, 1: 9})
    _, report = check_identities_k4(p)
    check = report.check("small-class-lower-bound")
    assert (check.relation, check.lhs, check.rhs) == (">=", 18, 30)
    assert not check.passed
    assert not report.all_passed


def test_max_index_ignores_empty_top_classes():
    # the closed form at n = 2 carries an explicit empty class 4
    p = MultiplicityProfile(k=2, n=2, histogram=predicted_profile_mod3(2).histogram)
    assert p.histogram[4] == 0
    assert p.max_index == 3
    assert MultiplicityProfile(k=2, n=2, histogram={0: 13, 1: 0}).max_index == 0


def test_k_mismatch_between_profile_and_checker(candidate_n1):
    with pytest.raises(ValueError):
        check_identities_k2(profile(candidate_n1, 4))
    with pytest.raises(ValueError):
        check_identities_k4(profile(candidate_n1, 2))


# ---------------------------------------------------------------------------
# predicted profiles
# ---------------------------------------------------------------------------


def test_predicted_n4():
    p = predicted_profile_mod3(4)
    assert p.is_closed_form
    assert p.histogram == {0: 8, 1: 1, 2: 16, 3: 16}
    assert sum(p.histogram.values()) == 41
    assert sum(i * c for i, c in p.histogram.items()) == 81


def test_predicted_n5():
    p = predicted_profile_mod3(5)
    assert p.histogram == {0: 0, 1: 31, 2: 10, 3: 10, 4: 10}


def test_predicted_residue_zero():
    p = predicted_profile_mod3(6)
    assert not p.is_closed_form
    assert p.residue_class_sums == {0: 0, 1: 13, 2: 72}


def test_predicted_rejects_small_n():
    with pytest.raises(ValueError):
        predicted_profile_mod3(1)


def test_predicted_matches_real_n2(candidate_n2):
    # the closed form carries an explicit empty class 4 at n = 2
    predicted = predicted_profile_mod3(2).histogram
    real = profile(candidate_n2, 2).histogram
    assert {i: c for i, c in predicted.items() if c} == {i: c for i, c in real.items() if c}


def predicted_identities_hold(n):
    p = predicted_profile_mod3(n)
    hist = p.histogram
    order = 2 * n * n + 2 * n + 1
    if sum(hist.values()) != order:
        return False
    if sum(i * c for i, c in hist.items()) != (2 * n + 1) ** 2:
        return False
    support = sum(c for i, c in hist.items() if i >= 1)
    incl_excl = 4 * n + 1 + sum(
        (s - 1) * (s - 2) // 2 * c for s, c in hist.items() if s >= 3
    )
    return support == incl_excl


def test_predicted_consistency_sample():
    for n in range(2, 2000):
        if n % 3 == 0:
            continue
        assert predicted_identities_hold(n)


def test_predicted_x0_empty_for_residue_two():
    for n in (2, 5, 8, 11, 3002):
        assert predicted_profile_mod3(n).histogram[0] == 0


def test_derived_fields_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        DeltaReport(n=2, delta=0, delta_raw=99)
    with pytest.raises(TypeError):
        MultiplicityProfile(k=2, n=2, histogram=dict(N2_K2), max_index=7)
    with pytest.raises(TypeError):
        IdentityCheck("weighted-class-sum", "==", 25, 25, False)


def test_to_dict_writes_derived_fields(candidate_n2):
    p = profile(candidate_n2, 4)
    assert p.to_dict() == {
        "k": 4, "n": 2, "histogram": {"0": 0, "1": 5, "2": 4, "3": 4}, "max_index": 3,
    }
    delta_report, identities = check_identities_k4(p)
    assert delta_report.to_dict() == {"n": 2, "delta": 0, "delta_raw": 4}
    assert identities.to_dict()["checks"][2] == {
        "name": "delta-within-bounds", "relation": "within", "lhs": 0, "rhs": (-4, 0), "passed": True,
    }
    assert identities.to_dict()["all_passed"] is True


def test_top_class_negation_symmetric(candidate_n1, candidate_n2):
    # the elements receiving the top coefficient form a negation-closed set
    for cand in (candidate_n1, candidate_n2):
        group = cand.group
        arms = GroupRingElement.from_set(group, cand.arms)
        prod = arms.power_map(2) * arms
        top = max(c for _, c in prod.items())
        top_class = {g for g, c in prod.items() if c == top}
        assert {group.neg(g) for g in top_class} == top_class


@pytest.mark.parametrize("factors, n", [((5,), 1), ((13,), 2), ((25,), 3), ((5, 5), 3), ((5, 5, 65), 28)])
def test_power_product_matches_group_ring(factors, n):
    # random symmetric arm sets: tilings exist only over Z5 and Z13
    group, rng = AbelianGroup(factors), random.Random(sum(factors) + n)
    for _ in range(8):
        arms = random_symmetric_arms(group, n, rng)
        a = GroupRingElement.from_set(group, arms)
        for k in (2, 4):
            product = a.power_map(k) * a
            assert _power_product(group, arms, k) == [product.coefficient(g) for g in group.elements()]
