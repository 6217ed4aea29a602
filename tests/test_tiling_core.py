import hashlib
import random
import tracemalloc

import pytest

from leetile import (
    AbelianGroup,
    ArmCollisionError,
    LatticeBasis,
    TilingCandidate,
    check_conditions,
    enumerate_groups,
    search_all,
    sphere_size,
    to_group_model,
    verify_lattice,
)
from leetile.abelian_groups import quotient_map
from leetile.cli import main
from leetile.group_ring import GroupRingElement
from leetile.lee_geometry import sphere_points
from leetile.tiling_core import (
    FAILED_COLLISION,
    FAILED_DETERMINANT,
    FAILED_IDENTITY,
    FAILED_ORDER,
    FAILED_QUADRATIC,
    FAILED_SIZE,
    FAILED_SYMMETRY,
    radius2_group_order,
)

from conftest import ARMS_N2, det, kernel_columns, random_arms, random_symmetric_arms, scrambled
from oracles import pair_multiplicity, project


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
        TilingCandidate(z13, 2, ((0,), (1,), (1,)))


@pytest.mark.parametrize(
    "bad",
    [(13,), (-1,), (1.0,), (1, 0)],
    ids=["out-of-range", "negative", "float", "wrong-length"],
)
def test_candidate_arm_outside_the_group_rejected(z13, bad):
    arms = ((0,), bad, (1,), (12,), (5,))
    with pytest.raises(ValueError):
        TilingCandidate(z13, 2, arms)


# ---------------------------------------------------------------------------
# the integer square against the group-ring square
# ---------------------------------------------------------------------------


def reference_conditions(candidate):
    """``check_conditions(candidate).to_dict()`` for a symmetric arm set
    holding the identity, computed in the group ring: the square A * A of
    the arm element A and the doubled arms ``A.power_map(2)``, read element
    by element in lexicographic order."""
    group = candidate.group
    arms = GroupRingElement.from_set(group, candidate.arms)
    square = arms * arms
    doubled = arms.power_map(2).support()
    for g in group.elements():
        if g == group.identity():
            expected = 2 * candidate.n + 1
        elif g in doubled:
            expected = 1
        else:
            expected = 2
        actual = square.coefficient(g)
        if actual != expected:
            witness = {"element": list(g), "expected": expected, "actual": actual}
            return {"verdict": "reject", "failed_condition": FAILED_QUADRATIC, "witness": witness}
    return {"verdict": "accept", "failed_condition": None, "witness": None}


def oracle_candidates():
    rng = random.Random(20261019)
    cases = []
    # n = 28 gives Z1625, Z5 x Z325 and the rank-3 group Z5 x Z5 x Z65
    for n, trials in ((1, 10), (2, 40), (3, 40), (20, 10), (28, 10)):
        for group in enumerate_groups(radius2_group_order(n)):
            cases += [TilingCandidate(group, n, random_symmetric_arms(group, n, rng)) for _ in range(trials)]
    for n in (1, 2):
        for outcome in search_all(n, use_automorphism_reduction=False):
            cases += [TilingCandidate(outcome.group, n, sol) for sol in outcome.solutions]
    for basis, radius in oracle_bases():
        if radius == 2:
            try:
                cases.append(to_group_model(basis))
            except (ArmCollisionError, ValueError):
                pass
    return cases


def test_check_conditions_matches_group_ring_square():
    seen = set()
    for candidate in oracle_candidates():
        got = check_conditions(candidate).to_dict()
        assert got == reference_conditions(candidate), (candidate.group, candidate.arms)
        seen.add((candidate.group.rank, got["verdict"]))
    assert seen == {(1, "accept"), (1, "reject"), (2, "reject"), (3, "reject")}


def test_large_interval_arm_set_rejects_at_the_first_element():
    # {0, +-1, ..., +-150} in Z45301: the element 1 is the sum of 300
    # ordered pairs (a, 1 - a) with a, 1 - a in [-150, 150].
    group, n = AbelianGroup((45301,)), 150
    candidate = TilingCandidate(group, n, tuple((a % 45301,) for a in range(-n, n + 1)))
    report = check_conditions(candidate).to_dict()
    assert report["witness"] == {"element": [1], "expected": 2, "actual": 300}
    assert report == reference_conditions(candidate)


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
    # the first collision in lexicographic scan order: (-1, -1) is the first
    # point whose coset an earlier point, (-2, 0), already holds
    w = report.witness
    assert w == {"first_point": [-2, 0], "second_point": [-1, -1], "coset": [11]}
    # the two points really are congruent modulo the lattice: their
    # difference is an integer combination of the columns
    diff = tuple(a - b for a, b in zip(w["first_point"], w["second_point"]))
    # solve diff = x * (13, 0) + y * (-1, 1) over the integers
    y = diff[1]
    assert (diff[0] + y) % 13 == 0


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


# ---------------------------------------------------------------------------
# geometric verifier against a per-point reference scan
# ---------------------------------------------------------------------------


def reference_scan(basis, radius):
    """``verify_lattice(basis, radius).to_dict()`` computed the slow way:
    |det| by sympy, then every sphere point projected on its own, in
    lexicographic order; the first coset met twice is the witness."""
    n = basis.n
    expected = sphere_size(n, radius)
    volume = abs(det(basis.rows))
    if volume != expected:
        witness = {"determinant": volume, "expected": expected}
        return {"verdict": "reject", "failed_condition": FAILED_DETERMINANT, "witness": witness}
    group, images = quotient_map(basis)
    seen = {}
    for point in sphere_points(n, radius):
        coset = project(group, images, point)
        if coset in seen:
            witness = {"first_point": list(seen[coset]), "second_point": list(point), "coset": list(coset)}
            return {"verdict": "reject", "failed_condition": FAILED_COLLISION, "witness": witness}
        seen[coset] = point
    return {"verdict": "accept", "failed_condition": None, "witness": None}


def oracle_bases():
    rng = random.Random(20261018)
    cases = []  # (columns, radius)
    # every sublattice of Z^2 of index 13, in Hermite normal form
    cases += [([(13, 0), (-c, 1)], 2) for c in range(13)] + [([(1, 0), (0, 13)], 2)]
    # Golomb-Welch tilings of Z^2, and radius-1 tilings, cyclic and not
    tilings = [([(r + 1, r), (-r, r + 1)], r) for r in range(13)]
    tilings += [(kernel_columns((2 * n + 1,), [(i,) for i in range(1, n + 1)]), 1) for n in range(1, 13)]
    tilings += [(kernel_columns((3, 3), [(1, 0), (0, 1), (1, 1), (1, 2)]), 1)]
    cases += [(scrambled(cols, rng), r) for cols, r in tilings]
    # radius-2 candidates of |det| = 2n^2 + 2n + 1, none of which tiles; the
    # forced collision gives two basis vectors the same image up to sign
    for n in range(3, 9):
        m = radius2_group_order(n)
        for factors in [(m,)] + ([(5, 5)] if m == 25 else []):
            for collide in (False, True):
                arms = random_arms(factors, n, rng)
                if collide:
                    arms[-1] = rng.choice((arms[-2], tuple(-a % d for a, d in zip(arms[-2], factors))))
                cases.append((scrambled(kernel_columns(factors, arms), rng), 2))
    # |det| off by a factor, off by one entry, or zero
    for cols, r in tilings[1::3]:
        cols = [list(c) for c in cols]
        i = rng.randrange(len(cols))
        cols[i] = [v * rng.choice((2, 3)) for v in cols[i]]
        cases.append((scrambled(cols, rng), r))
    cases += [([(3, 2), (-2, 4)], 2), ([(1, 2), (2, 4)], 2)]
    # radius 0 and dimension 1
    cases += [([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 0), ([(2,)], 0), ([(1,)], 0)]
    cases += [([(2 * r + 1,)], r) for r in range(5)] + [([(4,)], 2), ([(5,)], 1)]
    return [(LatticeBasis.from_columns(cols), r) for cols, r in cases]


def test_lattice_matches_reference_scan():
    verdicts = set()
    for basis, radius in oracle_bases():
        got = verify_lattice(basis, radius).to_dict()
        assert got == reference_scan(basis, radius), (basis.rows, radius)
        verdicts.add(got["failed_condition"])
    assert verdicts == {None, FAILED_COLLISION, FAILED_DETERMINANT}


def test_lattice_matches_reference_scan_on_large_bases():
    # oracle_bases stops at radius and dimension 12; these reach the sizes
    # of the benchmark's largest bases, on both coset representations:
    # residues for a cyclic quotient, tuples for Z5 x Z5.
    rng = random.Random(20261019)
    cases = [(scrambled([(r + 1, r), (-r, r + 1)], rng), r) for r in (30, 75)]
    cases += [(scrambled(kernel_columns((81,), [(i,) for i in range(1, 41)]), rng), 1) for _ in range(2)]
    for factors, n in (((221,), 10), ((5, 5), 3)):
        cases.append((scrambled(kernel_columns(factors, random_arms(factors, n, rng)), rng), 2))
    got = []
    for cols, radius in cases:
        basis = LatticeBasis.from_columns(cols)
        report = verify_lattice(basis, radius).to_dict()
        assert report == reference_scan(basis, radius), (basis.rows, radius)
        got.append((quotient_map(basis)[0].invariant_factors, report["failed_condition"]))
    assert got == [
        ((1861,), None),
        ((11401,), None),
        ((81,), None),
        ((81,), None),
        ((221,), FAILED_COLLISION),
        ((5, 5), FAILED_COLLISION),
    ]


def test_early_collision_on_a_large_cyclic_quotient_allocates_little():
    # Two equal arms make the second sphere point collide with the first.
    # |S_8(40)| is about 4.7e10, so a coset marker of m bytes would zero-fill
    # 47 GB before the walk; m = |S_8(10)| = 1256465 is just above the size
    # up to which the verifier does mark residues in an m-byte array.
    for n, r in ((10, 8), (40, 8)):
        m = sphere_size(n, r)
        arms = [(1,), (1,)] + [(i,) for i in range(2, n)]
        basis = LatticeBasis.from_columns(kernel_columns((m,), arms))
        tracemalloc.start()
        try:
            report = verify_lattice(basis, r).to_dict()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, peak)
        assert report == {
            "verdict": "reject",
            "failed_condition": FAILED_COLLISION,
            "witness": {
                "first_point": [-8] + [0] * (n - 1),
                "second_point": [-7, -1] + [0] * (n - 2),
                "coset": [m - 8],
            },
        }


def test_radius_zero_and_dimension_one():
    assert verify_lattice(LatticeBasis(((1, 0), (0, 1))), 0).accepted
    assert verify_lattice(LatticeBasis(((2,),)), 0).to_dict() == {
        "verdict": "reject",
        "failed_condition": FAILED_DETERMINANT,
        "witness": {"determinant": 2, "expected": 1},
    }
    assert verify_lattice(LatticeBasis(((5,),)), 2).accepted


# sha256 of stdout of ``verify --basis FILE --r 2 --json``, pinned when the
# output format was last changed on purpose
VERIFY_BASIS_GOLDEN = {
    "accept": ("2\n3 -2\n2 3\n", 0, "aed36845ac042fd4c9cab2cb0700e5474e063157914eaaef5aca697d1ca25fd0"),
    "collision": ("2\n13 -1\n0 1\n", 1, "ee3c47c8d22b9274f5a5748bc52bd2438153e3550c274512cfa719f0b245423e"),
    "determinant": ("2\n1 0\n0 1\n", 1, "2e5c22cb5f3819af88e771c82421dfaf085f1910f91fce34c5dc89613c5202bb"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_BASIS_GOLDEN))
def test_verify_basis_json_is_byte_identical(capsys, tmp_path, case):
    text, code, digest = VERIFY_BASIS_GOLDEN[case]
    path = tmp_path / "basis.txt"
    path.write_text(text)
    assert main(["verify", "--basis", str(path), "--r", "2", "--json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
