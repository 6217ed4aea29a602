"""Lee metric geometry on Z^n: distances, sphere enumeration, exact sizes.

A Lee sphere of radius r in dimension n is the set of integer points whose
coordinate absolute values sum to at most r.  All sizes are computed with
arbitrary-precision integers.
"""

from dataclasses import dataclass
from math import comb

LeeVector = tuple[int, ...]


@dataclass(frozen=True)
class LeeSphereSpec:
    """Dimension and radius of a Lee sphere centered at the origin."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.r < 0:
            raise ValueError(f"radius must be >= 0, got {self.r}")


def lee_distance(x, y) -> int:
    """Sum of coordinate-wise absolute differences between two integer
    vectors of equal length."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def sphere_points(n: int, r: int) -> list[LeeVector]:
    """All integer points with coordinate-absolute-value sum <= r, in
    lexicographic order (so outputs are reproducible)."""
    spec = LeeSphereSpec(n, r)
    point = [0] * spec.n
    points = []
    # Depth first over the coordinates, one iterator over the values of each
    # open coordinate, kept on a list rather than the call stack so large n
    # cannot exceed the recursion limit.  Coordinates past the current one
    # are 0, so a prefix that spends the whole radius is a point at once.
    left = [spec.r]  # left[d]: radius not yet spent before coordinate d
    levels = [iter(range(-spec.r, spec.r + 1))]
    while levels:
        d = len(levels) - 1
        for v in levels[-1]:
            point[d] = v
            rest = left[d] - abs(v)
            if rest and d + 1 < spec.n:
                left.append(rest)
                levels.append(iter(range(-rest, rest + 1)))
                break
            points.append(tuple(point))
        else:
            point[d] = 0
            levels.pop()
            left.pop()
    return points


def sphere_size(n: int, r: int) -> int:
    """Number of points in the radius-r Lee sphere of dimension n.

    Evaluates sum over i of 2^i * C(n, i) * C(r, i); for r = 2 this is
    2n^2 + 2n + 1.
    """
    spec = LeeSphereSpec(n, r)
    return sum(
        (1 << i) * comb(spec.n, i) * comb(spec.r, i)
        for i in range(min(spec.n, spec.r) + 1)
    )
