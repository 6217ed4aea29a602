import math
import random

import pytest

from leetile import AbelianGroup, enumerate_groups
from leetile.group_ring import GroupMismatchError, GroupRingElement

Z5 = AbelianGroup((5,))
Z13 = AbelianGroup((13,))


def elem(group, mapping):
    return GroupRingElement(group, {tuple(k) if isinstance(k, tuple) else (k,): v for k, v in mapping.items()})


# Hand-computed convolution tables used as frozen oracles.
# Z5, support {0, 1, 4}: the nine ordered pair sums are
# 0,1,4, 1,2,0, 4,0,3  ->  {0: 3, 1: 2, 2: 1, 3: 1, 4: 2}
Z5_SQUARE = {(0,): 3, (1,): 2, (2,): 1, (3,): 1, (4,): 2}


def test_construction_drops_zeros():
    a = elem(Z5, {0: 1, 2: 0})
    assert a.support() == {(0,)}
    assert a.coefficient((2,)) == 0


@pytest.mark.parametrize("coefficient", [True, False, 2.5, 2.0, "1", None])
def test_non_int_coefficient_rejected(coefficient):
    with pytest.raises(ValueError):
        GroupRingElement(Z5, {(1,): coefficient})
    with pytest.raises(ValueError):
        GroupRingElement.singleton(Z5, (1,), coefficient)


def test_from_set_duplicates_rejected():
    with pytest.raises(ValueError):
        GroupRingElement.from_set(Z5, [(0,), (1,), (0,)])


def test_foreign_element_rejected():
    with pytest.raises(ValueError):
        GroupRingElement.from_set(Z5, [(7,)])
    a = GroupRingElement.from_set(Z5, [(0,)])
    with pytest.raises(ValueError):
        a.coefficient((9,))


def test_add_zero_and_scale_zero():
    a = GroupRingElement.from_set(Z5, [(0,), (2,)])
    zero = GroupRingElement.zero(Z5)
    assert a + zero == a
    assert a * 0 == zero
    assert a - a == zero


def test_scale_all_ones():
    doubled = GroupRingElement.all_ones(Z5) * 2
    assert doubled.support_size() == 5
    assert all(c == 2 for _, c in doubled.items())


def test_all_ones_support():
    assert GroupRingElement.all_ones(Z13).support() == set(Z13.elements())


def test_mul_by_identity_singleton():
    a = elem(Z13, {1: 3, 5: -2})
    e = GroupRingElement.singleton(Z13, (0,))
    assert a * e == a


def test_mul_frozen_z5_table():
    t = GroupRingElement.from_set(Z5, [(0,), (1,), (4,)])
    assert dict((t * t).items()) == Z5_SQUARE
    assert (t * t).coefficient((0,)) == 3


def test_mul_z13_spot_coefficients():
    t = GroupRingElement.from_set(Z13, [(0,), (1,), (12,), (5,), (8,)])
    sq = t * t
    assert sq.coefficient((0,)) == 5
    assert sq.coefficient((6,)) == 2


def test_group_mismatch():
    a = GroupRingElement.from_set(Z5, [(0,)])
    b = GroupRingElement.from_set(Z13, [(0,)])
    with pytest.raises(GroupMismatchError):
        a + b
    with pytest.raises(GroupMismatchError):
        a * b


def test_power_map_one_is_identity():
    a = elem(Z13, {2: 5, 7: -1})
    assert a.power_map(1) == a


def test_power_map_negation_symmetric_set():
    t = GroupRingElement.from_set(Z13, [(0,), (1,), (12,), (5,), (8,)])
    assert t.power_map(-1) == t


def test_power_map_doubling_example():
    t = GroupRingElement.from_set(Z13, [(0,), (1,), (12,), (5,), (8,)])
    assert t.power_map(2).support() == {(0,), (2,), (11,), (10,), (3,)}


def test_power_map_preserves_coefficient_sum():
    rng = random.Random(5)
    for _ in range(50):
        a = random_element(rng, Z13)
        t = rng.randint(-20, 20)
        assert a.power_map(t).coefficient_sum() == a.coefficient_sum()


def random_group(rng):
    order = rng.randint(2, 50)
    groups = enumerate_groups(order)
    return groups[rng.randrange(len(groups))]


def random_element(rng, group, max_support=6, coeff_range=3):
    elems = list(group.elements())
    support = rng.sample(elems, min(len(elems), rng.randint(0, max_support)))
    return GroupRingElement(
        group, {g: rng.randint(-coeff_range, coeff_range) for g in support}
    )


def test_ring_axioms_randomized():
    rng = random.Random(20240812)
    for _ in range(200):
        group = random_group(rng)
        a = random_element(rng, group)
        b = random_element(rng, group)
        c = random_element(rng, group)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_coefficient_sum_is_multiplicative():
    rng = random.Random(20240813)
    for _ in range(200):
        group = random_group(rng)
        a = random_element(rng, group)
        b = random_element(rng, group)
        assert (a * b).coefficient_sum() == a.coefficient_sum() * b.coefficient_sum()


def coprime_exponent(rng, exponent):
    while True:
        x = rng.randint(1, 40)
        if math.gcd(x, exponent) == 1:
            return x


def test_power_map_composition_coprime_exponents():
    rng = random.Random(20240814)
    for _ in range(100):
        group = random_group(rng)
        a = random_element(rng, group)
        s = coprime_exponent(rng, group.exponent)
        t = coprime_exponent(rng, group.exponent)
        assert a.power_map(s).power_map(t) == a.power_map(s * t)


def test_cube_congruence_mod_three():
    # For any subset T, the convolution cube agrees with the power-3 image
    # coefficientwise mod 3.
    rng = random.Random(20240815)
    for _ in range(200):
        group = random_group(rng)
        elems = list(group.elements())
        subset = rng.sample(elems, rng.randint(0, min(len(elems), 7)))
        t = GroupRingElement.from_set(group, subset)
        diff = t * t * t - t.power_map(3)
        assert diff.reduce_coefficients(3).is_zero()


def test_reduce_coefficients():
    a = elem(Z5, {0: 3, 1: -1, 2: 6})
    assert dict(a.reduce_coefficients(3).items()) == {(1,): 2}
