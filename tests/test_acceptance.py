"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s`` to see them) and enforcing its time budget."""

import itertools
import random
from contextlib import contextmanager
from time import perf_counter

from leetile import (
    AbelianGroup,
    ArmCollisionError,
    LatticeBasis,
    TilingCandidate,
    certify,
    certify_range,
    check_conditions,
    check_identities_k2,
    check_identities_k4,
    enumerate_groups,
    predicted_profile_mod3,
    profile,
    search_all,
    search_group,
    sphere_points,
    sphere_size,
    to_group_model,
    verify_lattice,
)
from leetile.certify import TABLE_OPEN_CASES
from leetile.group_ring import GroupRingElement

from conftest import ARMS_N1, ARMS_N2
from oracles import brute_force_search, pair_multiplicity


@contextmanager
def criterion(number, description, limit_seconds):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"[FAIL] criterion {number}: {description} (took {elapsed:.2f}s, limit {limit_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s")
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_sphere_sizes():
    with criterion(1, "sphere sizes match enumeration (n <= 8, r <= 5)", 1.0):
        for n in range(1, 9):
            assert sphere_size(n, 2) == 2 * n * n + 2 * n + 1 == len(sphere_points(n, 2))
        for n in range(1, 9):
            for r in range(0, 6):
                assert sphere_size(n, r) == len(sphere_points(n, r))


def test_criterion_2_ground_truth_and_perturbations():
    with criterion(2, "real instances accept; 24 one-pair swaps reject with witnesses", 1.0):
        z5 = AbelianGroup((5,))
        z13 = AbelianGroup((13,))
        assert check_conditions(TilingCandidate(z5, 1, ARMS_N1)).accepted
        assert check_conditions(TilingCandidate(z13, 2, ARMS_N2)).accepted

        # Perturb each of the three automorphic images of the dimension-2
        # solution by swapping one inverse pair for another.  Only 12
        # distinct swapped sets exist, so the >= 20 rejected variants are
        # counted as perturbation events (base, swap) below.
        bases = [(1, 5), (2, 3), (4, 6)]
        all_reps = (1, 2, 3, 4, 5, 6)
        rejected = 0
        for base in bases:
            for out_rep in base:
                for in_rep in all_reps:
                    if in_rep in base:
                        continue
                    reps = [r for r in base if r != out_rep] + [in_rep]
                    arms = [(0,)]
                    for r in reps:
                        arms.append((r,))
                        arms.append((13 - r,))
                    report = check_conditions(TilingCandidate(z13, 2, tuple(sorted(arms))))
                    assert not report.accepted
                    assert report.failed_condition == "quadratic-identity"
                    assert report.witness is not None
                    assert {"element", "expected", "actual"} <= set(report.witness)
                    rejected += 1
        assert rejected == 24 >= 20

        # the unique one-pair swap of the dimension-1 instance is the
        # automorphic image {0, 2, 3}, which is itself a solution
        swapped = TilingCandidate(z5, 1, ((0,), (2,), (3,)))
        assert check_conditions(swapped).accepted


def test_criterion_3_verifier_equivalence():
    with criterion(3, "geometric and algebraic verifiers agree on all 2x2 bases with |det| = 13", 10.0):
        span = range(-6, 7)
        tested = 0
        accepted = 0
        for a, b, c, d in itertools.product(span, repeat=4):
            if abs(a * d - b * c) != 13:
                continue
            basis = LatticeBasis(((a, b), (c, d)))
            geometric = verify_lattice(basis, 2).accepted
            try:
                algebraic = check_conditions(to_group_model(basis)).accepted
            except ArmCollisionError:
                algebraic = False
            assert geometric == algebraic, (a, b, c, d)
            tested += 1
            accepted += geometric
        assert tested > 0
        assert 0 < accepted < tested  # both verdicts occur


def test_criterion_4_identity_suite():
    with criterion(4, "all counting identities hold exactly on both real instances", 1.0):
        z5 = AbelianGroup((5,))
        z13 = AbelianGroup((13,))
        for group, n, arms in ((z5, 1, ARMS_N1), (z13, 2, ARMS_N2)):
            cand = TilingCandidate(group, n, arms)
            assert check_identities_k2(profile(cand, 2)).all_passed
            delta_report, k4 = check_identities_k4(profile(cand, 4))
            assert k4.all_passed
            assert -2 * n <= delta_report.delta <= 0
            doubled = {group.scale(t, 2) for t in arms}
            for g in group.elements():
                if g == group.identity():
                    continue
                assert pair_multiplicity(cand, g) == (1 if g in doubled else 2)


def test_criterion_5_predicted_profile_consistency():
    with criterion(5, "predicted profiles integral and identity-consistent for n <= 10^6", 60.0):
        for n in range(2, 10**6 + 1):
            if n % 3 == 0:
                continue
            hist = predicted_profile_mod3(n).histogram
            assert all(c >= 0 for c in hist.values())
            order = 2 * n * n + 2 * n + 1
            assert sum(hist.values()) == order
            assert sum(i * c for i, c in hist.items()) == (2 * n + 1) ** 2
            support = sum(c for i, c in hist.items() if i >= 1)
            incl_excl = 4 * n + 1 + sum(
                (s - 1) * (s - 2) // 2 * c for s, c in hist.items() if s >= 3
            )
            assert support == incl_excl


def test_criterion_6_search_reproduces_small_dimensions():
    with criterion(6, "search: solutions at n = 1, 2; empty for n = 3..6; brute force agrees for n <= 3", 300.0):
        plain = {"use_automorphism_reduction": False}
        for n, expected_count in ((1, 2), (2, 3)):
            outcomes = search_all(n, **plain)
            assert len(outcomes) == 1
            assert outcomes[0].exhausted
            assert len(outcomes[0].solutions) == expected_count
            for sol in outcomes[0].solutions:
                assert check_conditions(TilingCandidate(outcomes[0].group, n, sol)).accepted
        for n in (3, 4, 5, 6):
            outcomes = search_all(n, **plain)
            assert len(outcomes) == len(enumerate_groups(2 * n * n + 2 * n + 1))
            for o in outcomes:
                assert o.exhausted
                assert o.solutions == ()
        for n in (1, 2, 3):
            for group in enumerate_groups(2 * n * n + 2 * n + 1):
                assert search_group(group, n, **plain).solutions == brute_force_search(group, n)


def test_criterion_7_certification_totality():
    with criterion(7, "certify_range(3, 10^4) complete; open cases by inequality; spot values", 10.0):
        summary = certify_range(3, 10**4)
        assert summary.complete
        assert len(summary.certificates) == 10**4 - 2
        for n in sorted(TABLE_OPEN_CASES):
            assert certify(n).justification == "inequality"
        c16 = certify(16)
        assert c16.poly == (4, -64, 12) and c16.evaluated_value == 12
        c92 = certify(92)
        assert c92.poly == (2, -46, -6) and c92.evaluated_value == 12690


def test_criterion_8_group_ring_property_suite():
    with criterion(8, "ring axioms, sum multiplicativity, cube congruence on 200+ random instances", 10.0):
        rng = random.Random(987654321)
        trials = 0
        while trials < 200:
            order = rng.randint(2, 50)
            groups = enumerate_groups(order)
            group = groups[rng.randrange(len(groups))]
            elems = list(group.elements())

            def rand_elem():
                support = rng.sample(elems, rng.randint(0, min(len(elems), 6)))
                return GroupRingElement(group, {g: rng.randint(-3, 3) for g in support})

            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b).coefficient_sum() == a.coefficient_sum() * b.coefficient_sum()
            subset = rng.sample(elems, rng.randint(0, min(len(elems), 6)))
            t = GroupRingElement.from_set(group, subset)
            assert (t * t * t - t.power_map(3)).reduce_coefficients(3).is_zero()
            trials += 1
