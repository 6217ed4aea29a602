import math
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from leetile import (
    AbelianGroup,
    FactorizationError,
    LatticeBasis,
    SingularMatrixError,
    enumerate_groups,
    factorize,
    quotient_map,
    smith_normal_form,
)
from leetile.abelian_groups import project

from conftest import det


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def test_scale_identity_fixed():
    g = AbelianGroup((7, 21))
    for t in (-3, 0, 1, 5, 100):
        assert g.scale(g.identity(), t) == g.identity()


def test_scale_cyclic():
    g = AbelianGroup((13,))
    assert g.scale((5,), 2) == (10,)
    assert g.scale((5,), -1) == g.neg((5,)) == (8,)


def test_add_product_group():
    g = AbelianGroup((5, 5))
    assert g.add((1, 2), (4, 4)) == (0, 1)


def test_foreign_element_rejected():
    g = AbelianGroup((5,))
    with pytest.raises(ValueError):
        g.check_element((7,))
    with pytest.raises(ValueError):
        g.check_element((1, 2))


def test_invariant_factor_validation():
    with pytest.raises(ValueError):
        AbelianGroup((1, 5))
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))  # 4 does not divide 6


def test_element_enumeration_lexicographic():
    g = AbelianGroup((2, 4))
    elems = list(g.elements())
    assert elems == sorted(elems)
    assert len(elems) == 8
    assert [g.element_index(e) for e in elems] == list(range(8))


# ---------------------------------------------------------------------------
# group enumeration
# ---------------------------------------------------------------------------


def test_enumerate_prime():
    assert [g.invariant_factors for g in enumerate_groups(13)] == [(13,)]


def test_enumerate_prime_square():
    assert [g.invariant_factors for g in enumerate_groups(25)] == [(25,), (5, 5)]


def test_enumerate_squarefree():
    assert [g.invariant_factors for g in enumerate_groups(85)] == [(85,)]


def test_enumerate_order_16():
    assert [g.invariant_factors for g in enumerate_groups(16)] == [
        (16,),
        (2, 8),
        (4, 4),
        (2, 2, 4),
        (2, 2, 2, 2),
    ]


def test_enumerate_order_36():
    assert [g.invariant_factors for g in enumerate_groups(36)] == [
        (36,),
        (2, 18),
        (3, 12),
        (6, 6),
    ]


def test_enumerate_trivial():
    assert [g.invariant_factors for g in enumerate_groups(1)] == [()]


def is_squarefree(m):
    return all(e == 1 for e in factorize(m).values())


def test_class_counts_to_1e4():
    for order in range(2, 10**4 + 1):
        fac = factorize(order)
        if len(fac) == 1:
            (p, e), = fac.items()
            if e == 1:
                assert len(enumerate_groups(order)) == 1
            elif e == 2:
                assert len(enumerate_groups(order)) == 2
        elif is_squarefree(order):
            assert len(enumerate_groups(order)) == 1


def test_enumerated_groups_are_canonical():
    for order in (360, 1024, 4725):
        for g in enumerate_groups(order):
            assert math.prod(g.invariant_factors) == order
            for a, b in zip(g.invariant_factors, g.invariant_factors[1:]):
                assert b % a == 0


def test_spec_string_round_trip():
    for text, factors in (
        ("Z13", (13,)),
        ("Z5xZ5", (5, 5)),
        ("5,5", (5, 5)),
        ("3,5", (15,)),  # canonicalized
        ("Z2xZ18", (2, 18)),
    ):
        g = AbelianGroup.from_spec(text)
        assert g.invariant_factors == factors
        assert AbelianGroup.from_spec(g.spec_string()) == g


def test_bad_spec():
    for text in ("", "Zx", "Z5x", "five", "Z5,Z5"):
        with pytest.raises(ValueError):
            AbelianGroup.from_spec(text)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2 * 3**4 * 1009) == {2: 1, 3: 4, 1009: 1}


def test_factorize_matches_sympy():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(2, 10**9)
        assert factorize(m) == sympy.factorint(m)


def test_factorize_large_prime_cofactor():
    # both primes lie above the 10**6 trial bound; Pollard rho splits them
    p = 1_000_003
    q = 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_explicit_rejection():
    p = 10**12 + 39
    q = 10**13 + 37
    assert sympy.isprime(p) and sympy.isprime(q)
    # Composite cofactor above (10**6)**4 is rejected instead of factored.
    with pytest.raises(FactorizationError):
        factorize(p * q)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_identity():
    eye = ((1, 0), (0, 1))
    d, u, v = smith_normal_form(eye)
    assert d == eye
    assert matmul(matmul(u, eye), v) == d


def test_snf_column_example():
    m = ((13, -5), (0, 1))  # columns (13, 0) and (-5, 1)
    d, u, v = smith_normal_form(m)
    assert d == ((1, 0), (0, 13))
    assert matmul(matmul(u, m), v) == d


def test_snf_already_chained():
    m = ((2, 0), (0, 4))
    d, _, _ = smith_normal_form(m)
    assert d == m


def test_snf_singular_rejected():
    # rank 1, the 1x1 zero, the 2x2 zero, and rank 2 in dimension 3
    for matrix in (
        ((1, 2), (2, 4)),
        ((0,),),
        ((0, 0), (0, 0)),
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    ):
        with pytest.raises(SingularMatrixError):
            smith_normal_form(matrix)


def test_snf_random_against_sympy():
    rng = random.Random(20240811)
    trials = 0
    while trials < 40:
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if det(m) == 0:
            continue
        trials += 1
        d, u, v = smith_normal_form(m)
        # defining equation and unimodularity
        assert matmul(matmul(u, m), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i][i] for i in range(n)]
        assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert math.prod(diag) == abs(det(m))
        # independent oracle for the invariant factors
        ref = sympy_snf(sympy.Matrix([list(r) for r in m]))
        ref_diag = sorted(abs(int(ref[i, i])) for i in range(n))
        assert sorted(diag) == ref_diag


# ---------------------------------------------------------------------------
# lattice quotients
# ---------------------------------------------------------------------------


def subgroup_generated(group, gens):
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        g = frontier.pop()
        for h in gens:
            s = group.add(g, h)
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


def test_quotient_z13_example():
    basis = LatticeBasis.from_columns([(13, 0), (-5, 1)])
    group, images = quotient_map(basis)
    assert group.invariant_factors == (13,)
    # both generating columns must map to the identity
    for j in range(2):
        assert project(group, images, basis.column(j)) == group.identity()
    assert len(subgroup_generated(group, images)) == 13


def test_quotient_cyclic_one_dimensional():
    basis = LatticeBasis(((7,),))
    group, images = quotient_map(basis)
    assert group.invariant_factors == (7,)
    assert images == ((1,),)


def test_quotient_relations_example():
    basis = LatticeBasis.from_columns([(2, 3), (3, -2)])
    group, (g, h) = quotient_map(basis)
    assert group.order == 13
    assert group.add(group.scale(g, 2), group.scale(h, 3)) == group.identity()
    assert group.add(group.scale(g, 3), group.scale(h, -2)) == group.identity()


def test_quotient_unimodular_is_trivial():
    basis = LatticeBasis(((1, 4), (0, 1)))
    group, images = quotient_map(basis)
    assert group.order == 1
    assert all(img == () for img in images)


def test_quotient_random_kernel_and_surjectivity():
    rng = random.Random(99)
    trials = 0
    while trials < 25:
        n = rng.randint(1, 3)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        basis = LatticeBasis(rows)
        if det(rows) == 0:
            continue
        trials += 1
        group, images = quotient_map(basis)
        assert group.order == abs(det(rows))
        for j in range(n):
            assert project(group, images, basis.column(j)) == group.identity()
        assert len(subgroup_generated(group, images)) == group.order


def test_basis_text_formats(tmp_path):
    text = "2\n13 -5\n0 1\n"
    path = tmp_path / "basis.txt"
    path.write_text(text)
    b1 = LatticeBasis.from_file(path)
    jpath = tmp_path / "basis.json"
    jpath.write_text("[[13, -5], [0, 1]]")
    b2 = LatticeBasis.from_file(jpath)
    assert b1 == b2
    assert b1.column(0) == (13, 0)
    assert det(b1.rows) == 13


def test_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis(((1, 2),))
    with pytest.raises(ValueError):
        LatticeBasis.from_text("2\n1 2 3\n")
