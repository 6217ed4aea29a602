import itertools
import random

import pytest

from leetile import LatticeBasis, sphere_points, sphere_size, verify_lattice
from leetile.lee_geometry import walk_sphere

from oracles import lee_distance


def box_filter_points(n, r):
    """Independent oracle: filter the full coordinate box [-r, r]^n.
    Exponential in n, so only usable for small cases."""
    return [
        p
        for p in itertools.product(range(-r, r + 1), repeat=n)
        if sum(abs(c) for c in p) <= r
    ]


def test_distance_identity():
    assert lee_distance((3, -1, 7), (3, -1, 7)) == 0


def test_distance_examples():
    assert lee_distance((0, 0), (1, -2)) == 3
    assert lee_distance((1, 2, 3), (3, 2, 1)) == 4


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        lee_distance((0, 0), (1, 2, 3))


def test_distance_metric_properties():
    rng = random.Random(20240811)
    for _ in range(100):
        n = rng.randint(1, 5)
        x, y, z = (tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(3))
        assert lee_distance(x, y) == lee_distance(y, x) >= 0
        assert lee_distance(x, z) <= lee_distance(x, y) + lee_distance(y, z)


def test_points_interval():
    assert sphere_points(1, 2) == [(-2,), (-1,), (0,), (1,), (2,)]


def test_points_small_counts():
    assert len(sphere_points(2, 2)) == 13
    assert len(sphere_points(3, 2)) == 25


def test_points_match_box_oracle():
    for n in range(1, 5):
        for r in range(0, 4):
            assert sphere_points(n, r) == sorted(box_filter_points(n, r))


def test_points_lexicographic_and_negation_symmetric():
    for n, r in ((2, 3), (3, 2), (4, 1)):
        pts = sphere_points(n, r)
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        members = set(pts)
        assert all(tuple(-c for c in p) in members for p in pts)


def test_points_beyond_recursion_limit():
    # One coordinate per level used to recurse; n = 995 already crashed.
    pts = sphere_points(1500, 1)
    assert len(pts) == 3001
    assert pts[0] == (-1,) + (0,) * 1499
    assert pts[1500] == (0,) * 1500
    assert pts == sorted(pts)


def test_walk_carries_prefix_values():
    # a point's value is 7 + sum of x_d * 10^d over every coordinate; the
    # step of x_d = 0 adds 0, as the walk requires
    for n, r in ((1, 0), (1, 3), (3, 2), (4, 3)):
        steps = [[v * 10**d for v in range(-r, r + 1)] for d in range(n)]
        walked = [(tuple(p), value) for p, value in walk_sphere(n, r, steps, lambda a, b: a + b, 7)]
        assert [p for p, _ in walked] == sphere_points(n, r)
        assert all(value == 7 + sum(x * 10**d for d, x in enumerate(p)) for p, value in walked)


def test_walk_is_lazy():
    calls = []
    walk = walk_sphere(200, 2, [[0] * 5] * 200, lambda a, b: calls.append(b) or a, 0)
    point, value = next(walk)
    assert (tuple(point), value) == ((-2,) + (0,) * 199, 0)
    assert len(calls) == 1


def test_size_matches_enumeration():
    for n in range(1, 6):
        for r in range(0, 6):
            assert sphere_size(n, r) == len(sphere_points(n, r))


def test_size_radius_one():
    for n in range(1, 40):
        assert sphere_size(n, 1) == 2 * n + 1


def test_size_radius_two_quadratic():
    for n in range(1, 1001):
        assert sphere_size(n, 2) == 2 * n * n + 2 * n + 1


def test_size_examples():
    assert sphere_size(2, 2) == 13
    assert sphere_size(12, 2) == 313


DIMENSION_MESSAGE = "dimension must be an int >= 1"
RADIUS_MESSAGE = "radius must be an int >= 0"


def test_spec_validation():
    with pytest.raises(ValueError, match=RADIUS_MESSAGE):
        sphere_points(2, -1)
    # walk_sphere and sphere_size share one check and its messages
    for n, r, message in [(0, 1, DIMENSION_MESSAGE), (0, 2, DIMENSION_MESSAGE), (2, -1, RADIUS_MESSAGE)]:
        with pytest.raises(ValueError, match=message):
            next(walk_sphere(n, r, [[0] * 3] * 2, None, 0))
        with pytest.raises(ValueError, match=message):
            sphere_size(n, r)


# The Z13 tiling of the plane, whose radius-2 spheres tile Z^2.
PLANE = LatticeBasis.from_columns([(13, 0), (-5, 1)])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: sphere_size(2.0, 2), DIMENSION_MESSAGE),
        (lambda: next(walk_sphere(True, 2, [[0] * 5], None, 0)), DIMENSION_MESSAGE),
        (lambda: next(walk_sphere(3, 1.0, [[0] * 3] * 3, None, 0)), RADIUS_MESSAGE),
        (lambda: sphere_size(2, True), RADIUS_MESSAGE),
        (lambda: sphere_size(2, 2.0), RADIUS_MESSAGE),
        (lambda: sphere_points(True, 1), DIMENSION_MESSAGE),
        (lambda: verify_lattice(PLANE, True), RADIUS_MESSAGE),
        (lambda: verify_lattice(PLANE, 2.0), RADIUS_MESSAGE),
        (lambda: verify_lattice(PLANE, -1), RADIUS_MESSAGE),
        (lambda: next(walk_sphere(2, 2.0, [[0] * 5] * 2, None, 0)), RADIUS_MESSAGE),
        (lambda: next(walk_sphere(True, 1, [[0] * 3], None, 0)), DIMENSION_MESSAGE),
        (lambda: sphere_size(True, 2), DIMENSION_MESSAGE),
    ],
    ids=[
        "float-n", "bool-n", "float-r", "bool-r", "size-float-r", "points-bool-n",
        "verify-bool-r", "verify-float-r", "verify-negative-r",
        "walk-float-r", "walk-bool-n", "size-bool-n",
    ],
)
def test_non_int_rejected_not_coerced(make, message):
    with pytest.raises(ValueError, match=message):
        make()
