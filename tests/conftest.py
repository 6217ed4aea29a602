import pytest

from leetile import AbelianGroup, TilingCandidate

# The two real constructions: dimension 1 over Z5 and dimension 2 over Z13.
ARMS_N1 = ((0,), (1,), (4,))
ARMS_N2 = ((0,), (1,), (5,), (8,), (12,))


def det(rows):
    """Exact determinant by sympy: an oracle independent of the Smith
    normal form that the verifiers read |det| from."""
    import sympy

    return int(sympy.Matrix([list(r) for r in rows]).det())


def kernel_columns(factors, arms):
    """Columns spanning the kernel of x -> sum x_i * arms[i] onto
    Z_{d1} x ... x Z_{dk}; arms[i] must be the i-th unit element for i < k."""
    n, k = len(arms), len(factors)
    cols = []
    for i in range(n):
        col = [0] * n
        if i < k:
            col[i] = factors[i]
        else:
            col[i] = 1
            for j in range(k):
                col[j] = -arms[i][j]
        cols.append(col)
    return cols


def scrambled(cols, rng, mults=(-2, -1, 1, 2)):
    """The same lattice under a new basis (column additions with a multiplier
    drawn from mults, swaps and sign flips), seen through a random signed
    permutation of the coordinates, which maps every Lee sphere onto itself."""
    cols = [list(c) for c in cols]
    n = len(cols)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.choice(mults)
            cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
        else:
            cols[i] = [-a for a in cols[i]]
    rng.shuffle(cols)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[k] * c[perm[k]] for k in range(n)] for c in cols]


def random_arms(factors, n, rng):
    """n elements of Z_{d1} x ... x Z_{dk}, the first k the unit elements,
    the rest nonzero and distinct up to sign."""
    k = len(factors)
    neg = lambda g: tuple(-a % d for a, d in zip(g, factors))
    arms = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    used = {(0,) * k, *arms, *map(neg, arms)}
    while len(arms) < n:
        g = tuple(rng.randrange(d) for d in factors)
        if g not in used:
            arms.append(g)
            used.update((g, neg(g)))
    return arms


def random_symmetric_arms(group, n, rng):
    """The identity and n random pairs {g, -g}."""
    arms = {group.identity()}
    while len(arms) < 2 * n + 1:
        g = tuple(rng.randrange(d) for d in group.invariant_factors)
        arms.update((g, group.neg(g)))
    return tuple(arms)


@pytest.fixture
def z5():
    return AbelianGroup((5,))


@pytest.fixture
def z13():
    return AbelianGroup((13,))


@pytest.fixture
def candidate_n1(z5):
    return TilingCandidate(z5, 1, ARMS_N1)


@pytest.fixture
def candidate_n2(z13):
    return TilingCandidate(z13, 2, ARMS_N2)
