"""Reference implementations the tests check the package against.

Each is the direct definition, with no shortcut: no run path of the
package calls them, so they live here rather than in ``leetile``.
"""

import math
from collections import Counter
from itertools import combinations, product

from leetile import TilingCandidate, check_conditions, radius2_group_order


def lee_distance(x, y) -> int:
    """Sum of coordinate-wise absolute differences between two integer
    vectors of equal length."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def project(group, images, vector):
    """Apply the quotient homomorphism x -> sum x_i * images[i] to an
    integer vector, one group operation per nonzero coordinate."""
    acc = group.identity()
    for coord, img in zip(vector, images):
        if coord:
            acc = group.add(acc, group.scale(img, coord))
    return acc


def order_census(orders) -> dict[int, int]:
    """Number of elements of each order in Z_{a_1} x ... x Z_{a_k}, for
    ints a_i >= 1, counted element by element: a residue x mod a has order
    a / gcd(x, a), and a tuple the lcm of its residues' orders.  Two finite
    abelian groups are isomorphic exactly when their censuses agree."""
    census = Counter()
    for g in product(*(range(a) for a in orders)):
        census[math.lcm(*(a // math.gcd(x, a) for x, a in zip(g, orders)))] += 1
    return dict(census)


def pair_multiplicity(candidate, g) -> int:
    """Number of ordered arm pairs (t1, t2) with t1 + t2 = g, counted
    directly.  On verified candidates this is 1 when g is a doubled arm and
    2 otherwise.  The identity is excluded: there every inverse pair
    contributes, so the two-valued pattern does not apply."""
    group = candidate.group
    group.check_element(g)
    if g == group.identity():
        raise ValueError("pair multiplicity is not defined at the identity")
    arm_set = set(candidate.arms)
    return sum(1 for t in candidate.arms if group.add(g, group.neg(t)) in arm_set)


def brute_force_search(group, n):
    """Pruning-free search: test every n-subset of inverse pairs through
    the verifier.  Only feasible for tiny n."""
    expected = radius2_group_order(n)
    if group.order != expected:
        raise ValueError(f"group order {group.order} != {expected} = 2n^2+2n+1 for n={n}")
    elems = sorted(group.elements())
    identity = group.identity()
    reps = [g for g in elems if g != identity and g < group.neg(g)]
    solutions = []
    for combo in combinations(reps, n):
        arms = [identity]
        for g in combo:
            arms.append(g)
            arms.append(group.neg(g))
        candidate = TilingCandidate(group, n, tuple(sorted(arms)))
        if check_conditions(candidate).accepted:
            solutions.append(candidate.arms)
    solutions.sort()
    return tuple(solutions)
