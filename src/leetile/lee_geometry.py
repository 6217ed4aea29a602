"""Lee metric geometry on Z^n: sphere enumeration and exact sizes.

A Lee sphere of radius r in dimension n is the set of integer points whose
coordinate absolute values sum to at most r.  All sizes are computed with
arbitrary-precision integers.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from math import comb

LeeVector = tuple[int, ...]


def _check_sphere(n, r) -> None:
    """Reject n < 1, r < 0 and any n or r that is not an int exactly (a
    float or a bool is rejected, never coerced); the one check of every
    sphere's dimension and radius."""
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension must be an int >= 1, got {n!r}")
    if type(r) is not int or r < 0:
        raise ValueError(f"radius must be an int >= 0, got {r!r}")


def walk_sphere(n: int, r: int, steps, add, origin) -> Iterator[tuple[list[int], object]]:
    """Yield ``(point, value)`` for every integer point with
    coordinate-absolute-value sum <= r, in lexicographic order.

    A point's value is ``origin`` folded with ``add`` over the entries
    ``steps[d][x_d + r]`` of its coordinates, and the walk carries the value
    of each prefix, so a point costs one ``add``.  Coordinates after the last
    one the walk sets are 0, so ``steps[d][r]`` must leave a value unchanged.
    The walk never looks inside a value: a caller picks the cheapest form,
    such as an int residue mod m with ``add`` reducing the sum, or a residue
    tuple added componentwise.  The walk is lazy: a caller may stop at any
    point.  ``point`` is one list that the walk reuses, changed in place
    after each yield; a caller that keeps a point copies it.
    """
    _check_sphere(n, r)
    point = [0] * n
    # Depth first over the coordinates, one iterator over the values of each
    # open coordinate, kept on a list rather than the call stack so large n
    # cannot exceed the recursion limit.  Coordinates past the current one
    # are 0, so a prefix that spends the whole radius is a point at once.
    left = [r]  # left[d]: radius not yet spent before coordinate d
    values = [origin]  # values[d]: value of the prefix before coordinate d
    levels = [iter(range(-r, r + 1))]
    while levels:
        d = len(levels) - 1
        row, prefix = steps[d], values[d]
        for v in levels[-1]:
            point[d] = v
            value = add(prefix, row[v + r])
            rest = left[d] - abs(v)
            if rest and d + 1 < n:
                left.append(rest)
                values.append(value)
                levels.append(iter(range(-rest, rest + 1)))
                break
            yield point, value
        else:
            point[d] = 0
            levels.pop()
            left.pop()
            values.pop()


def sphere_points(n: int, r: int) -> list[LeeVector]:
    """All integer points with coordinate-absolute-value sum <= r, in
    lexicographic order (so outputs are reproducible)."""
    zeros = [[0] * (2 * r + 1)] * n
    return [tuple(point) for point, _ in walk_sphere(n, r, zeros, operator.add, 0)]


def sphere_size(n: int, r: int) -> int:
    """Number of points in the radius-r Lee sphere of dimension n.

    Evaluates sum over i of 2^i * C(n, i) * C(r, i); for r = 2 this is
    2n^2 + 2n + 1.
    """
    _check_sphere(n, r)
    return sum((1 << i) * comb(n, i) * comb(r, i) for i in range(min(n, r) + 1))
