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
