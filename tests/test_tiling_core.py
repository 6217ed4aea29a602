import random

import pytest

from leetile import (
    AbelianGroup,
    ArmCollisionError,
    LatticeBasis,
    TilingCandidate,
    check_conditions,
    pair_multiplicity,
    sphere_size,
    to_group_model,
    verify_lattice,
)
from leetile.tiling_core import (
    FAILED_COLLISION,
    FAILED_DETERMINANT,
    FAILED_IDENTITY,
    FAILED_ORDER,
    FAILED_QUADRATIC,
    FAILED_SIZE,
    FAILED_SYMMETRY,
)

from conftest import ARMS_N2, det


def count_pairs(group, arms, target):
    """Oracle: count ordered pairs by full double loop."""
    return sum(1 for a in arms for b in arms if group.add(a, b) == target)


# ---------------------------------------------------------------------------
# algebraic verifier
# ---------------------------------------------------------------------------


def test_real_instances_accept(candidate_n1, candidate_n2):
    assert check_conditions(candidate_n1).accepted
    assert check_conditions(candidate_n2).accepted


def test_reject_wrong_pair(z13):
    bad = TilingCandidate(z13, 2, ((0,), (1,), (12,), (2,), (11,)))
    report = check_conditions(bad)
    assert not report.accepted
    assert report.failed_condition == FAILED_QUADRATIC
    # first mismatch in lexicographic scan order
    assert report.witness == {"element": [1], "expected": 2, "actual": 4}
    # the coefficient at 2 is also off: pairs (1,1), (0,2), (2,0)
    assert count_pairs(z13, bad.arms, (2,)) == 3


def test_reject_order_mismatch(z5):
    bad = TilingCandidate(z5, 2, ((0,), (1,), (4,), (2,), (3,)))
    report = check_conditions(bad)
    assert report.failed_condition == FAILED_ORDER


def test_reject_size(z13):
    report = check_conditions(TilingCandidate(z13, 2, ((0,), (1,), (12,))))
    assert report.failed_condition == FAILED_SIZE


def test_reject_missing_identity(z13):
    bad = TilingCandidate(z13, 2, ((1,), (12,), (5,), (8,), (2,)))
    assert check_conditions(bad).failed_condition == FAILED_IDENTITY


def test_reject_asymmetric(z13):
    bad = TilingCandidate(z13, 2, ((0,), (1,), (12,), (5,), (6,)))
    report = check_conditions(bad)
    assert report.failed_condition == FAILED_SYMMETRY
    assert report.witness == {"element": [5]}


def test_candidate_duplicate_arm_rejected(z13):
    with pytest.raises(ValueError):
        TilingCandidate.from_arm_set(z13, 2, [(0,), (1,), (1,)])


# ---------------------------------------------------------------------------
# pair multiplicities
# ---------------------------------------------------------------------------


def test_pair_multiplicity_examples(candidate_n1, candidate_n2):
    assert pair_multiplicity(candidate_n2, (2,)) == 1  # doubled arm
    assert pair_multiplicity(candidate_n2, (6,)) == 2  # pairs (1,5) and (5,1)
    assert pair_multiplicity(candidate_n1, (3,)) == 1  # only (-1,-1)


def test_pair_multiplicity_identity_excluded(candidate_n2):
    with pytest.raises(ValueError):
        pair_multiplicity(candidate_n2, (0,))


def test_pair_multiplicity_pattern(candidate_n1, candidate_n2):
    for cand in (candidate_n1, candidate_n2):
        group = cand.group
        doubled = {group.scale(t, 2) for t in cand.arms}
        for g in group.elements():
            if g == group.identity():
                continue
            m = pair_multiplicity(cand, g)
            assert m == (1 if g in doubled else 2)
            assert m == count_pairs(group, cand.arms, g)


def test_square_pairs_are_unique(candidate_n1, candidate_n2):
    # the only ordered pair summing to a doubled non-identity arm is the arm
    # with itself (at the identity every inverse pair contributes)
    for cand in (candidate_n1, candidate_n2):
        group = cand.group
        for t in cand.arms:
            if t == group.identity():
                continue
            target = group.scale(t, 2)
            pairs = [
                (a, b) for a in cand.arms for b in cand.arms if group.add(a, b) == target
            ]
            assert pairs == [(t, t)]


def test_arms_meet_doubled_arms_only_at_identity(candidate_n1, candidate_n2):
    for cand in (candidate_n1, candidate_n2):
        group = cand.group
        doubled = {group.scale(t, 2) for t in cand.arms}
        assert set(cand.arms) & doubled == {group.identity()}


# ---------------------------------------------------------------------------
# geometric verifier
# ---------------------------------------------------------------------------


def test_lattice_accepts_z13_basis():
    basis = LatticeBasis.from_columns([(13, 0), (-5, 1)])
    assert verify_lattice(basis, 2).accepted


def test_lattice_accepts_classical_radius_one():
    # kernel lattice of x -> sum i * x_i mod (2n+1)
    for n in range(1, 7):
        m = 2 * n + 1
        cols = [[0] * n for _ in range(n)]
        cols[0][0] = m
        for j in range(1, n):
            cols[j][0] = -(j + 1)
            cols[j][j] = 1
        basis = LatticeBasis.from_columns(cols)
        assert abs(det(basis.rows)) == sphere_size(n, 1)
        assert verify_lattice(basis, 1).accepted


def test_lattice_rejects_collision():
    basis = LatticeBasis.from_columns([(13, 0), (-1, 1)])
    report = verify_lattice(basis, 2)
    assert report.failed_condition == FAILED_COLLISION
    w = report.witness
    # the reported pair is the first collision in lexicographic scan order,
    # and the two points really are congruent modulo the lattice: their
    # difference is an integer combination of the columns
    diff = tuple(a - b for a, b in zip(w["first_point"], w["second_point"]))
    # solve diff = x * (13, 0) + y * (-1, 1) over the integers
    y = diff[1]
    assert (diff[0] + y) % 13 == 0
    # the pair named by the construction also collides: (1,0) and (0,1)
    assert (1 - 0 + (0 - 1)) % 13 == 0


def test_lattice_rejects_wrong_determinant():
    report = verify_lattice(LatticeBasis(((1, 0), (0, 1))), 2)
    assert report.failed_condition == FAILED_DETERMINANT
    assert report.witness == {"determinant": 1, "expected": 13}


@pytest.mark.parametrize("rows", [((1, 2), (2, 4)), ((0,),)])
def test_lattice_rejects_singular_basis(rows):
    # |det| comes from the Smith normal form, which finds no full set of
    # pivots here; the rejection still reports determinant 0
    report = verify_lattice(LatticeBasis(rows), 2)
    assert report.failed_condition == FAILED_DETERMINANT
    assert report.witness == {"determinant": 0, "expected": sphere_size(len(rows), 2)}


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------


def test_to_group_model_examples():
    cand = to_group_model(LatticeBasis.from_columns([(13, 0), (-5, 1)]))
    assert cand.group.invariant_factors == (13,)
    assert cand.arms == ARMS_N2
    assert check_conditions(cand).accepted

    cand1 = to_group_model(LatticeBasis(((5,),)))
    assert cand1.group.invariant_factors == (5,)
    assert cand1.arms == ((0,), (1,), (4,))

    cand2 = to_group_model(LatticeBasis.from_columns([(2, 3), (3, -2)]))
    assert cand2.group.order == 13
    assert check_conditions(cand2).accepted


def test_to_group_model_arm_collision():
    # e1 is itself a lattice vector, so its arm collapses onto the identity
    basis = LatticeBasis.from_columns([(1, 0), (0, 13)])
    with pytest.raises(ArmCollisionError):
        to_group_model(basis)


def test_to_group_model_determinant_mismatch():
    with pytest.raises(ValueError):
        to_group_model(LatticeBasis(((1, 0), (0, 1))))


@pytest.mark.parametrize("rows, expected", [(((1, 2), (2, 4)), 13), (((0,),), 5)])
def test_to_group_model_singular_basis(rows, expected):
    with pytest.raises(ValueError) as info:
        to_group_model(LatticeBasis(rows))
    assert str(info.value).startswith(f"|det| = 0, need {expected} ")


def agree(basis, radius=2):
    geometric = verify_lattice(basis, radius).accepted
    try:
        algebraic = check_conditions(to_group_model(basis)).accepted
    except ArmCollisionError:
        algebraic = False
    return geometric == algebraic, geometric


def test_equivalence_on_random_det25_bases():
    # random 3x3 bases with |det| = 25, built from a diagonal seed by
    # bounded unimodular row/column operations
    rng = random.Random(20240816)
    seeds = [((1, 0, 0), (0, 5, 0), (0, 0, 5)), ((1, 0, 0), (0, 1, 0), (0, 0, 25))]
    for trial in range(60):
        m = [list(r) for r in seeds[trial % 2]]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            if rng.random() < 0.5:
                for k in range(3):
                    m[i][k] += q * m[j][k]
            else:
                for k in range(3):
                    m[k][i] += q * m[k][j]
        basis = LatticeBasis(tuple(tuple(r) for r in m))
        assert abs(det(basis.rows)) == 25
        ok, _ = agree(basis)
        assert ok
