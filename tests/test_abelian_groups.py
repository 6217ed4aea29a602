import dataclasses
import hashlib
import math
import random
import re

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from leetile import (
    AbelianGroup,
    FactorizationError,
    LatticeBasis,
    SingularMatrixError,
    TilingCandidate,
    abelian_groups,
    enumerate_groups,
    factorize,
    quotient_map,
    smith_normal_form,
)

from leetile.abelian_groups import _MR_BASES

from conftest import det, kernel_columns, random_arms, scrambled
from oracles import order_census, project


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


@pytest.mark.parametrize("factors", [(), (7,), (2, 4), (5, 5, 65)])
def test_strides_number_the_elements_lexicographically(factors):
    g = AbelianGroup(factors)
    assert len(g.strides) == g.rank
    elems = list(g.elements())
    assert [sum(r * s for r, s in zip(e, g.strides)) for e in elems] == list(range(g.order))
    assert [g.element_index(e) for e in elems] == list(range(g.order))
    assert [g.element_at(i) for i in range(g.order)] == elems


def test_index_data_matches_its_definition():
    groups = [AbelianGroup(())] + [g for m in range(1, 401) for g in enumerate_groups(m)]
    for g in groups:
        factors = g.invariant_factors
        assert g.rank == len(factors)
        assert g.order == math.prod(factors)
        assert g.strides == tuple(math.prod(factors[i + 1:]) for i in range(len(factors)))
        assert g.exponent == (factors[-1] if factors else 1)


@pytest.mark.parametrize("factors", [(), (13,), (2, 4), (5, 5, 65)])
def test_equality_hash_and_repr_see_the_factors_alone(factors):
    g, twin = AbelianGroup(factors), AbelianGroup(list(factors))
    assert g == twin and hash(g) == hash(twin)
    assert hash(g) == hash((factors,))
    assert repr(g) == f"AbelianGroup(invariant_factors={factors!r})"
    assert g != AbelianGroup((7,) if factors != (7,) else (11,))
    for name in ("rank", "order", "strides", "exponent"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, getattr(g, name))


CONTAINS_PROBES = [
    (), (0,), (12,), (13,), (-1,), (True,), (1.0,), (0, 0), [5], "5", None,
    (1, 3), (1, 4), (2, 0), (-1, 0), (0, -1), (0, True), (False, 1), (1, 2.0), (0, 0, 0),
]


def _contains_reference(group, g):
    return (
        isinstance(g, tuple)
        and len(g) == len(group.invariant_factors)
        and all(type(r) is int and 0 <= r < d for r, d in zip(g, group.invariant_factors))
    )


@pytest.mark.parametrize("factors", [(), (13,), (2, 4)])
def test_contains_rejects_exactly_the_non_elements(factors):
    group = AbelianGroup(factors)
    for g in CONTAINS_PROBES + list(group.elements()):
        assert group.contains(g) == _contains_reference(group, g), g


@pytest.mark.parametrize("factors", [(25,), (5, 5), (3, 3, 9), ()])
def test_scaled_matches_group_scale(factors):
    group = AbelianGroup(factors)
    for t in (-1, 2, 13):
        assert group.scaled_indices(t) == [group.element_index(group.scale(g, t)) for g in group.elements()]


@pytest.mark.parametrize("factors", [(5,), (5, 5), (3, 3, 9), ()])
def test_sum_codes_fold_to_the_index_of_the_sum(factors):
    group = AbelianGroup(factors)
    weights, fold = group.sum_codes()
    code = {g: sum(r * w for r, w in zip(g, weights)) for g in group.elements()}
    for a in group.elements():
        for b in group.elements():
            assert fold[code[a] + code[b]] == group.element_index(group.add(a, b))


@pytest.mark.parametrize(
    "make",
    [
        lambda: AbelianGroup((13,)).check_element((True,)),
        lambda: AbelianGroup((13.6,)),
        lambda: AbelianGroup((5.0, 5)),
        lambda: LatticeBasis(((1.7, 0), (0, 13.9))),
        lambda: LatticeBasis(((1, 0), (0, True))),
        lambda: LatticeBasis.from_columns([(13.0, 0), (0, 1)]),
        lambda: LatticeBasis.from_text("[[13, -5], [0, 1.0]]"),
        lambda: LatticeBasis.from_text("[[13, -5], [0, true]]"),
        lambda: smith_normal_form([[2.5, 0], [0, 1]]),
        lambda: smith_normal_form([[2, 0], [0, True]]),
        lambda: TilingCandidate(AbelianGroup((13,)), 2.0, ((0,), (1,), (12,), (5,), (8,))),
        lambda: TilingCandidate(AbelianGroup((5,)), True, ((0,), (1,), (4,))),
    ],
    ids=[
        "bool-residue", "float-factor", "float-factor-chain",
        "float-basis", "bool-basis", "float-column", "json-float", "json-bool",
        "float-snf", "bool-snf", "float-n", "bool-n",
    ],
)
def test_non_int_input_rejected_not_coerced(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "call, value",
    [
        (factorize, 12.0),
        (factorize, True),
        (enumerate_groups, 25.0),
        (enumerate_groups, True),
        (lambda m: AbelianGroup.from_cyclic_orders([5, m]), 5.0),
        (lambda m: AbelianGroup.from_cyclic_orders([5, m]), True),
        (lambda m: AbelianGroup.from_cyclic_orders([5, m]), 0),
    ],
    ids=["factorize-float", "factorize-bool", "enumerate-float", "enumerate-bool",
         "cyclic-float", "cyclic-bool", "cyclic-zero"],
)
def test_non_int_order_rejected_naming_the_value(call, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call",
    [lambda t: AbelianGroup((5,)).scale((1,), t), lambda t: AbelianGroup((5, 5)).scaled_indices(t)],
    ids=["scale", "scaled_indices"],
)
def test_non_int_multiplier_rejected_naming_the_value(call, value):
    # a float multiplier used to give float residues that contains rejects
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


def test_element_enumeration_lexicographic():
    g = AbelianGroup((2, 4))
    elems = list(g.elements())
    assert elems == sorted(elems)
    assert len(elems) == 8
    assert [g.element_index(e) for e in elems] == list(range(8))
    assert [g.element_at(i) for i in range(8)] == elems
    g = AbelianGroup((5, 5, 65))
    assert [g.element_at(i) for i in range(g.order)] == list(g.elements())


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
    # order 1 takes the general path: no primes, one empty product
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


SPECS = (
    ("Z13", (13,)),
    ("Z5xZ5", (5, 5)),
    ("5,5", (5, 5)),
    ("3,5", (15,)),  # canonicalized
    ("Z2xZ18", (2, 18)),
)


def test_spec_string_round_trip():
    for text, factors in SPECS:
        g = AbelianGroup.from_spec(text)
        assert g.invariant_factors == factors
        assert AbelianGroup.from_spec(g.spec_string()) == g


def test_specs_parse_without_factoring(monkeypatch):
    def refuse(m):
        raise AssertionError(f"factorize({m}) called")

    monkeypatch.setattr(abelian_groups, "factorize", refuse)
    # a composite that passes Miller-Rabin on every base factorize uses
    m = 3317044064679887385961981
    for text, factors in SPECS + ((f"Z{m}", (m,)), (f"{m},6,{m}", (m, 6 * m))):
        assert AbelianGroup.from_spec(text).invariant_factors == factors


def _orders_with_product_at_most(rng, bound):
    orders = []
    for _ in range(rng.randint(0, 5)):
        a = rng.randint(1, min(bound, rng.choice((4, 12, bound))))
        orders.append(a)
        bound //= a
    return orders


def test_from_cyclic_orders_matches_the_census_of_the_product():
    rng = random.Random(32)
    for _ in range(400):
        orders = _orders_with_product_at_most(rng, 2000)
        rng.shuffle(orders)
        g = AbelianGroup.from_cyclic_orders(orders)
        assert order_census(g.invariant_factors) == order_census(orders), orders


def test_enumerated_groups_have_distinct_censuses():
    for m in range(1, 513):
        censuses = [order_census(g.invariant_factors) for g in enumerate_groups(m)]
        assert all(sum(c.values()) == m for c in censuses), m
        assert len({tuple(sorted(c.items())) for c in censuses}) == len(censuses), m


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


def test_factorize_strong_pseudoprimes():
    # The least composites that pass Miller-Rabin on every prime base up to
    # 37 and up to 41: the first needs base 41 to split, the second is above
    # the bound where the test proves anything, so it is rejected.
    split = 318665857834031151167461
    unproven = 3317044064679887385961981
    assert sympy.factorint(split) == {399165290221: 1, 798330580441: 1}
    assert factorize(split) == {399165290221: 1, 798330580441: 1}
    assert sympy.factorint(unproven) == {1287836182261: 1, 2575672364521: 1}
    assert all(_strong_probable_prime(unproven, a) for a in _MR_BASES)
    with pytest.raises(FactorizationError, match="not proven prime"):
        factorize(unproven)


def _strong_probable_prime(m, a):
    """Whether odd m passes the Miller-Rabin round for base a."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    return x in (1, m - 1) or any(pow(x, 2**i, m) == m - 1 for i in range(1, s))


@pytest.mark.parametrize(
    "m",
    [
        10**25 + 13,  # m - 1 = 2^2 * 11 * 23 * 9881422924901185770751
        2**89 - 1,
        2**127 - 1,
        10**30 + 57,  # m - 1 needs Pollard rho
    ],
    ids=["1e25+13", "M89", "M127", "1e30+57"],
)
def test_factorize_proves_primes_above_the_miller_rabin_bound(m):
    assert m >= 3317044064679887385961981 and sympy.isprime(m)
    assert factorize(m) == {m: 1}
    assert factorize(2 * m) == {2: 1, m: 1}


def test_factorize_proves_a_prime_whose_predecessor_needs_a_short_rho():
    # m - 1 = 2^3 * 5 * 11 * 17 * 12973 * 1821309023 * 56581485446137975519811:
    # after trial division its cofactor is above (10**6)**4, and the single
    # short rho attempt such a cofactor gets splits it for the Lucas test
    m = 10**40 + 121
    assert sympy.isprime(m)
    assert sympy.factorint(m - 1) == {
        2: 3, 5: 1, 11: 1, 17: 1, 12973: 1, 1821309023: 1, 56581485446137975519811: 1
    }
    assert factorize(m) == {m: 1}


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def assert_snf(m, d, u):
    """D is a positive divisibility chain on the diagonal, U is unimodular,
    and the V with U*M*V = D that the function does not return is a
    unimodular integer matrix: V = (U*M)^-1 * D, computed by sympy."""
    n = len(m)
    diag = [d[i][i] for i in range(n)]
    assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert abs(det(u)) == 1
    v = (sympy.Matrix(u) * sympy.Matrix(m)).inv() * sympy.Matrix(d)
    assert all(x.is_integer for x in v)
    assert abs(v.det()) == 1


def test_snf_identity():
    eye = ((1, 0), (0, 1))
    d, u = smith_normal_form(eye)
    assert d == eye
    assert_snf(eye, d, u)


def test_snf_column_example():
    m = ((13, -5), (0, 1))  # columns (13, 0) and (-5, 1)
    d, u = smith_normal_form(m)
    assert d == ((1, 0), (0, 13))
    assert_snf(m, d, u)


def test_snf_already_chained():
    m = ((2, 0), (0, 4))
    d, _ = smith_normal_form(m)
    assert d == m


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], []], ids=["ragged", "empty"])
def test_snf_rejects_a_matrix_that_is_not_a_basis(matrix):
    # the matrix is made into a LatticeBasis, which checks it is square and
    # nonempty
    with pytest.raises(ValueError, match="square and nonempty"):
        smith_normal_form(matrix)


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


def _random_kernel_basis(n, rng):
    """A scrambled kernel basis in dimension n of x -> sum x_i * arms[i]
    onto a group of order 2n^2 + 2n + 1: Z_m, or Z_p x Z_{m/p} where some
    p^2 divides m.  Its Smith form meets the sparse, mostly-unit pivots of
    the geometric verifier."""
    m = 2 * n * n + 2 * n + 1
    groups = [(m,)] + [(p, m // p) for p in range(3, math.isqrt(m) + 1, 2) if m % (p * p) == 0]
    factors = rng.choice(groups)
    cols = scrambled(kernel_columns(factors, random_arms(factors, n, rng)), rng)
    return LatticeBasis.from_columns(cols).rows


def test_snf_random_against_sympy():
    rng = random.Random(20240811)
    cases = []
    while len(cases) < 40:
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if det(m) != 0:
            cases.append(m)
    # scrambled kernel bases up to n = 12, with determinants 2n^2 + 2n + 1
    cases += [_random_kernel_basis(n, rng) for n in range(2, 13)]
    for m in cases:
        n = len(m)
        d, u = smith_normal_form(m)
        assert_snf(m, d, u)
        diag = [d[i][i] for i in range(n)]
        assert math.prod(diag) == abs(det(m))
        # independent oracle for the invariant factors
        ref = sympy_snf(sympy.Matrix([list(r) for r in m]))
        ref_diag = sorted(abs(int(ref[i, i])) for i in range(n))
        assert sorted(diag) == ref_diag


def reference_smith_normal_form(matrix):
    """The elimination ``smith_normal_form`` ran before it followed the
    pivot row's nonzeros: the same pivot rule, offender fold and sign fix,
    with each row operation rebuilding all 2n entries of a row and each
    column swap running over every row.  Kept as the oracle that the
    faster form must match, D and U alike."""
    n = len(matrix)
    a = [[*r, *[0] * i, 1, *[0] * (n - 1 - i)] for i, r in enumerate(matrix)]
    for k in range(n):
        while True:
            best = 0
            for i in range(k, n):
                row = a[i]
                for j in range(k, n):
                    val = row[j]
                    if val:
                        if val < 0:
                            val = -val
                        if not best or val < best:
                            best, pi, pj = val, i, j
                            if val == 1:
                                break
                if best == 1:
                    break
            if not best:
                raise SingularMatrixError("matrix is singular")
            a[k], a[pi] = a[pi], a[k]
            if pj != k:
                for row in a:
                    row[k], row[pj] = row[pj], row[k]
            p = a[k][k]
            for i in range(k + 1, n):
                if a[i][k]:
                    q = a[i][k] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            touched = [row for row in a[k:] if row[k]]
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // p
                    for row in touched:
                        row[j] -= q * row[k]
            if best == 1:
                break
            if any(a[i][k] for i in range(k + 1, n)) or any(a[k][j] for j in range(k + 1, n)):
                continue
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
    return tuple(tuple(r[:n]) for r in a), tuple(tuple(r[n:]) for r in a)


def test_snf_matches_reference_on_dense_matrices():
    # Same (D, U), or SingularMatrixError from both, on sizes 1..8 with
    # entries -30..30, every 10th of size > 1 singular (its last row a
    # combination of the others), and every 7th all 0 and +-1.
    rng = random.Random(20261020)
    for t in range(1500):
        n = rng.randint(1, 8)
        span = 1 if t % 7 == 0 else 30
        m = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if t % 10 == 0 and n > 1:
            cs = [rng.randint(-3, 3) for _ in range(n - 1)]
            m[-1] = [sum(c * m[i][j] for i, c in enumerate(cs)) for j in range(n)]
        try:
            want = reference_smith_normal_form(m)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                smith_normal_form(m)
        else:
            assert smith_normal_form(m) == want


@pytest.mark.parametrize("n", [60, 100, 150])
def test_snf_matches_reference_on_large_kernel_bases(n):
    # Beyond the sizes the golden digests pin, and passed as a LatticeBasis,
    # whose entries the form does not check again.  Radius-2 candidates
    # with and without an arm collision, and a radius-1 tiling with one
    # column doubled, whose elimination meets non-unit pivots.
    rng = random.Random(n)
    m = 2 * n * n + 2 * n + 1
    arms = random_arms((m,), n, rng)
    collided = arms[:-1] + arms[-2:-1]
    radius_1 = kernel_columns((2 * n + 1,), [(i,) for i in range(1, n + 1)])
    i = rng.randrange(n)
    radius_1[i] = [2 * v for v in radius_1[i]]
    for cols in (kernel_columns((m,), arms), kernel_columns((m,), collided), radius_1):
        basis = LatticeBasis.from_columns(scrambled(cols, rng))
        assert smith_normal_form(basis) == reference_smith_normal_form(basis.rows)


def snf_digest(matrices):
    """sha256 over repr((D, U)) of each matrix, or b"singular" where the
    form raises SingularMatrixError, in order; and the singular count."""
    h = hashlib.sha256()
    singular = 0
    for m in matrices:
        try:
            h.update(repr(smith_normal_form(m)).encode())
        except SingularMatrixError:
            h.update(b"singular")
            singular += 1
    return h.hexdigest(), singular


def test_snf_golden():
    # D and U pin the quotient images and so every witness; the pivot rule,
    # its row-major tie-break, the offender fold and the sign fix must all
    # stay as they are.  The digests come from the separate-matrices
    # elimination that also built V.  2400 matrices of size 1..6 with
    # entries -20..20, every 25th of size > 1 forced singular (its last row
    # a combination of the others), then 12 matrices of size 20..24.
    rng = random.Random(20261018)
    small = []
    for t in range(2400):
        n = rng.randint(1, 6)
        m = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        if t % 25 == 0 and n > 1:
            cs = [rng.randint(-3, 3) for _ in range(n - 1)]
            m[-1] = [sum(c * m[i][j] for i, c in enumerate(cs)) for j in range(n)]
        small.append(m)
    large = []
    for _ in range(12):
        n = rng.randint(20, 24)
        large.append([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
    assert snf_digest(small) == ("f719f35dff8e2a14574b239f7c1a98df74fa0b6e26e715a835254f90e06ad17a", 88)
    assert snf_digest(large) == ("06a5cc8e178254bde0dfbc27640f487f12d19f43d39fd5c55d40bf391353679d", 0)


def test_snf_golden_sparse():
    # The matrices the geometric verifier meets: mostly 0 and +-1, where the
    # pivot scan can stop at the first unit.  The digest was recorded with
    # the full-rescan pivot search, so the pivot rule and its row-major
    # tie-break among units, the offender fold and the column pass over
    # the rows with a nonzero pivot-column entry must all leave D and U as
    # they were.  Every basis is scrambled with multipliers +-1 only, as the
    # verify benchmark does above dimension 2, so that entries stay small.
    # Scrambled radius-1 kernel bases at n = 20, 40 and 80,
    # every index-13 sublattice of Z^2 three times, and radius-2 candidates
    # of |det| = 2n^2+2n+1 up to n = 40, with and without an arm collision,
    # over Z_m and over every Z_p x Z_{m/p} with p^2 | m.  Last, radius-1
    # bases at n = 2..20 with one column times 2 or 3, as in the benchmark's
    # determinant rejects: the only family here whose elimination meets a
    # non-unit pivot that fails to divide the rest, and so folds an offender.
    rng = random.Random(20261019)
    scramble = lambda cols: scrambled(cols, rng, mults=(-1, 1))
    radius_1 = lambda n: kernel_columns((2 * n + 1,), [(i,) for i in range(1, n + 1)])
    cases = []
    for n in (20, 20, 40, 40, 80):
        cases.append(scramble(radius_1(n)))
    sweep = [[(13, 0), (-c, 1)] for c in range(13)] + [[(1, 0), (0, 13)]]
    cases += [scramble(cols) for cols in sweep for _ in range(3)]
    for n in [*range(3, 13), 16, 20, 25, 30, 35, 40]:
        m = 2 * n * n + 2 * n + 1
        groups = [(m,)] + [(p, m // p) for p in range(3, math.isqrt(m) + 1, 2) if m % (p * p) == 0]
        for factors in groups:
            for collide in (False, True):
                arms = random_arms(factors, n, rng)
                if collide:
                    arms[-1] = arms[-2]
                cases.append(scramble(kernel_columns(factors, arms)))
    for n in range(2, 21):
        cols = radius_1(n)
        i = rng.randrange(n)
        cols[i] = [v * rng.choice((2, 3)) for v in cols[i]]
        cases.append(scramble(cols))
    matrices = [LatticeBasis.from_columns(cols).rows for cols in cases]
    assert snf_digest(matrices) == ("94363b25e67b9a06913888f42d02503160d64318b77835fcae750f454381eb48", 0)


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
