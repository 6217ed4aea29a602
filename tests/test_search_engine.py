import functools
import math
import random
import re

import pytest

from leetile import (
    AbelianGroup,
    check_conditions,
    TilingCandidate,
    LeeTileError,
    enumerate_groups,
    search_all,
    search_group,
)
from leetile.search_engine import _layout, _orbit_minimal

from oracles import brute_force_search

Z5 = AbelianGroup((5,))
Z13 = AbelianGroup((13,))

NO_REDUCTION = {"use_automorphism_reduction": False}

Z5_SOLUTIONS = (((0,), (1,), (4,)), ((0,), (2,), (3,)))
Z13_SOLUTIONS = (
    ((0,), (1,), (5,), (8,), (12,)),
    ((0,), (2,), (3,), (10,), (11,)),
    ((0,), (4,), (6,), (7,), (9,)),
)


def test_z5_unreduced():
    outcome = search_group(Z5, 1, **NO_REDUCTION)
    assert outcome.solutions == Z5_SOLUTIONS
    assert outcome.exhausted


def test_z5_reduced():
    outcome = search_group(Z5, 1, use_automorphism_reduction=True)
    assert outcome.solutions == (Z5_SOLUTIONS[0],)


def test_z13_unreduced():
    outcome = search_group(Z13, 2, **NO_REDUCTION)
    assert outcome.solutions == Z13_SOLUTIONS


def test_z13_reduced_single_representative():
    outcome = search_group(Z13, 2, use_automorphism_reduction=True)
    assert outcome.solutions == (Z13_SOLUTIONS[0],)


def test_solutions_reverify(candidate_n2):
    outcome = search_group(Z13, 2, **NO_REDUCTION)
    for sol in outcome.solutions:
        assert check_conditions(TilingCandidate(Z13, 2, sol)).accepted
    assert candidate_n2.arms in outcome.solutions


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_agrees_with_brute_force(n):
    order = 2 * n * n + 2 * n + 1
    for group in enumerate_groups(order):
        pruned = search_group(group, n, **NO_REDUCTION)
        assert pruned.solutions == brute_force_search(group, n)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda n: search_group(Z13, n), 2.0),
        (lambda n: search_group(Z5, n), True),
        (search_all, 2.0),
        (search_all, True),
    ],
    ids=["group-float", "group-bool", "all-float", "all-bool"],
)
def test_non_int_dimension_rejected_naming_the_value(call, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


def test_empty_for_n3_through_n5():
    for n in (3, 4, 5):
        outcomes = search_all(n, **NO_REDUCTION)
        assert len(outcomes) == len(enumerate_groups(2 * n * n + 2 * n + 1))
        for o in outcomes:
            assert o.exhausted
            assert o.solutions == ()


def test_search_all_n3_covers_both_groups():
    outcomes = search_all(3, **NO_REDUCTION)
    assert [o.group.invariant_factors for o in outcomes] == [(25,), (5, 5)]


def test_deterministic_across_runs():
    a = search_group(Z13, 2, **NO_REDUCTION)
    b = search_group(Z13, 2, **NO_REDUCTION)
    assert a.nodes_explored == b.nodes_explored
    assert a.solutions == b.solutions


def test_budget_exhaustion_reported():
    full = search_group(Z13, 2, **NO_REDUCTION)
    capped = search_group(Z13, 2, use_automorphism_reduction=False, node_budget=3)
    assert not capped.exhausted
    assert capped.nodes_explored == 3
    assert set(capped.solutions) <= set(full.solutions)
    generous = search_group(Z13, 2, use_automorphism_reduction=False, node_budget=10**6)
    assert generous.exhausted
    assert generous.solutions == full.solutions


def test_budget_required_for_large_n():
    group = enumerate_groups(2 * 7 * 7 + 2 * 7 + 1)[0]
    with pytest.raises(ValueError):
        search_group(group, 7)
    outcome = search_group(group, 7, node_budget=1000)
    assert not outcome.exhausted


def test_n7_exhausts_with_generous_budget():
    # stretch dimension: the reduced search over Z113 completes quickly
    group = enumerate_groups(2 * 7 * 7 + 2 * 7 + 1)[0]
    outcome = search_group(group, 7, node_budget=10**7)
    assert outcome.exhausted
    assert outcome.solutions == ()
    assert outcome.nodes_explored == 145187


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        search_group(Z5, 2)


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_dimension_rejected(n):
    with pytest.raises(ValueError):
        search_group(AbelianGroup(()), n)


# each search given only a node budget, which it checks before anything else
BUDGETED_SEARCHES = (functools.partial(search_group, Z13, 2), functools.partial(search_all, 2))


def test_negative_budget_rejected():
    for search in BUDGETED_SEARCHES:
        with pytest.raises(ValueError, match="-1"):
            search(node_budget=-1)


@pytest.mark.parametrize("budget", [math.inf, -math.inf, math.nan])
def test_non_finite_budget_rejected(budget):
    # None is the only "no cap"; the value is named in the message
    for search in BUDGETED_SEARCHES:
        with pytest.raises(ValueError, match=repr(budget)):
            search(node_budget=budget)


@pytest.mark.parametrize("budget", [2.0, 2.5, 5.25, True])
def test_non_int_budget_rejected(budget):
    # a budget is an int exactly, like every other integer input; the
    # value is named in the message
    for search in BUDGETED_SEARCHES:
        with pytest.raises(ValueError, match=re.escape(repr(budget))):
            search(node_budget=budget)


@pytest.mark.parametrize(
    "order, solution, minimal",
    [
        (13, (0, 2, 3, 10, 11), False),  # u = 7 maps it to (0, 1, 5, 8, 12)
        (13, (0, 1, 5, 8, 12), True),
        (25, (0, 2, 23), False),  # u = 12 maps it to (0, 1, 24), after the non-units 5 and 10
        (25, (0, 5, 20), True),  # only the non-units 5 and 10 map it lower, to (0, 0, 0)
    ],
)
def test_orbit_minimal(order, solution, minimal):
    assert _orbit_minimal(AbelianGroup((order,)), solution) is minimal


def test_outcome_to_dict():
    outcome = search_group(Z13, 2, **NO_REDUCTION)
    data = outcome.to_dict()
    assert data["group"] == [13] and data["group_spec"] == "Z13" and data["n"] == 2
    assert data["exhausted"] is True
    assert data["nodes_explored"] == outcome.nodes_explored
    assert data["solutions"] == [[list(g) for g in sol] for sol in outcome.solutions]
    assert len(data["solutions"]) == 3


# Node counts of the engine, per (reduce, n, group): one node per attempted
# pair.  Each case names its id, so adding one renames no other test; the ids
# are those the cases were first collected under, where factorsK is the K-th
# case in this list.
NODE_COUNTS = [
    pytest.param(True, 1, (5,), 1, id="True-1-factors0-1"),
    pytest.param(True, 2, (13,), 6, id="True-2-factors1-6"),
    pytest.param(True, 3, (25,), 69, id="True-3-factors2-69"),
    pytest.param(True, 3, (5, 5), 267, id="True-3-factors3-267"),
    pytest.param(True, 4, (41,), 316, id="True-4-factors4-316"),
    pytest.param(True, 5, (61,), 2154, id="True-5-factors5-2154"),
    pytest.param(True, 6, (85,), 33083, id="True-6-factors6-33083"),
    pytest.param(False, 1, (5,), 2, id="False-1-factors7-2"),
    pytest.param(False, 2, (13,), 21, id="False-2-factors8-21"),
    pytest.param(False, 3, (25,), 213, id="False-3-factors9-213"),
    pytest.param(False, 3, (5, 5), 267, id="False-3-factors10-267"),
    pytest.param(False, 4, (41,), 1958, id="False-4-factors11-1958"),
    pytest.param(False, 5, (61,), 17440, id="False-5-factors12-17440"),
    pytest.param(False, 6, (85,), 169699, id="False-6-factors13-169699"),
    # the full searches bench/baseline.json counts beyond these
    pytest.param(True, 8, (145,), 2272779, id="True-8-factors14-2272779"),
    pytest.param(False, 7, (113,), 1637233, id="False-7-factors15-1637233"),
]


@pytest.mark.parametrize("reduce, n, factors, nodes", NODE_COUNTS)
def test_node_counts_pinned(reduce, n, factors, nodes):
    outcome = search_group(AbelianGroup(factors), n, use_automorphism_reduction=reduce, node_budget=nodes)
    assert outcome.exhausted
    assert outcome.nodes_explored == nodes


@pytest.mark.parametrize("factors", [(25,), (5, 5), (3, 3, 9)])
def test_bitset_translation_matches_group_add(factors):
    group = AbelianGroup(factors)
    steps = _reference_translator(group)
    elems = list(group.elements())
    for g in elems:
        for a in elems:
            moved = _translate(1 << group.element_index(a), steps(g))
            assert moved == 1 << group.element_index(group.add(a, g))


def _layout_cases():
    for factors in [(25,), (5, 5), (3, 3, 9)]:
        group = AbelianGroup(factors)
        elems = list(group.elements())
        yield pytest.param(group, [(a, g) for g in elems for a in elems], id=group.spec_string())
    for factors in [(29, 29), (5, 5, 65)]:
        group = AbelianGroup(factors)
        rng = random.Random(group.order)
        elems = list(group.elements())
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(2000)]
        yield pytest.param(group, pairs, id=f"{group.spec_string()}-sampled")


@pytest.mark.parametrize("group, pairs", _layout_cases())
def test_padded_translation_matches_group_add(group, pairs):
    # the engine's translation: the right shift by the position of -g,
    # exact on one copy fewer than the word holds; the bits a shift leaves
    # outside that region never reach the real positions on a second shift
    pos, twice, thrice = _layout(group)
    assert pos == sorted(pos)  # bit order is element order
    real = sum(1 << p for p in pos)
    index = group.element_index
    for a, g in pairs:
        x = 1 << pos[index(a)]
        shift = pos[index(group.neg(g))]
        moved = 1 << pos[index(group.add(a, g))]
        assert (x * thrice >> shift) & real * twice == moved * twice
        assert (x * twice >> shift) & real == moved
        assert (x * thrice >> shift >> shift) & real == 1 << pos[index(group.add(a, group.add(g, g)))]


def test_group_order_limit():
    # Z4141 (n = 45) is inside the order limit, Z16745 (n = 91) above it
    outcome = search_group(AbelianGroup((4141,)), 45, node_budget=1000)
    assert not outcome.exhausted
    assert outcome.nodes_explored == 1000
    with pytest.raises(LeeTileError):
        search_group(AbelianGroup((16745,)), 91, node_budget=1)


# -- reference oracle -----------------------------------------------------------


def _reference_translator(group):
    """Return ``steps(g)``: the ``(mask, up, down)`` block rotations that
    translate a single-width bitset by the element g, one per nonzero
    residue.

    Along a factor d with index stride s, translating by t moves the bits
    whose residue is below d - t up by t*s and the others down by (d-t)*s;
    ``mask`` selects the former.
    """
    order = group.order
    axes = []
    for d, stride in zip(group.invariant_factors, group.strides):
        block = d * stride
        repunit = ((1 << order) - 1) // ((1 << block) - 1)
        masks = [((1 << ((d - t) * stride)) - 1) * repunit for t in range(d)]
        axes.append((d, stride, masks))

    def steps(g):
        return tuple(
            (masks[t], t * stride, (d - t) * stride)
            for t, (d, stride, masks) in zip(g, axes)
            if t
        )

    return steps


def _translate(bits, steps):
    """The set ``bits`` translated by the element whose
    ``_reference_translator`` steps are given."""
    for mask, up, down in steps:
        low = bits & mask
        bits = (low << up) | ((bits ^ low) >> down)
    return bits


def reference_search(group, n, use_automorphism_reduction=True, node_budget=None):
    """Pair-by-pair oracle for ``search_group``: each candidate pair is
    one node and is tested by translating the arm set by g and -g, the
    packing test of the engine's docstring read literally.  Returns
    (solutions, nodes_explored, exhausted)."""
    elems = list(group.elements())
    index = group.element_index
    steps = _reference_translator(group)
    pairs = []  # per representative: (g, -g, bits of {2g, -2g}, steps(g), steps(-g))
    for i, e in enumerate(elems):
        ne = group.neg(e)
        j = index(ne)
        if 0 < i < j:
            doubles = (1 << index(group.add(e, e))) | (1 << index(group.add(ne, ne)))
            pairs.append((i, j, doubles, steps(e), steps(ne)))
    m = group.order
    reduce_orbits = use_automorphism_reduction and group.is_cyclic() and m > 1
    top = [k for k, p in enumerate(pairs) if not reduce_orbits or p[0] == math.gcd(p[0], m)]
    budget = math.inf if node_budget is None else node_budget
    nodes = 0
    found = []

    class Abort(Exception):
        pass

    def place(candidates, remaining, arms, covered, chosen):
        nonlocal nodes
        for k in candidates:
            if nodes >= budget:
                raise Abort
            nodes += 1
            g, ng, doubles, steps_g, steps_ng = pairs[k]
            sums = _translate(arms, steps_g) | _translate(arms, steps_ng)
            if sums & covered or doubles & (sums | covered):
                continue
            if remaining == 1:
                found.append(chosen + (g, ng))
            else:
                place(
                    range(k + 1, len(pairs) - remaining + 2),
                    remaining - 1,
                    arms | (1 << g) | (1 << ng),
                    covered | sums | doubles,
                    chosen + (g, ng),
                )

    exhausted = True
    try:
        place(top, n, 1, 0, ())
    except Abort:
        exhausted = False
    solutions = sorted(
        tuple(elems[i] for i in indices)
        for indices in (tuple(sorted((0,) + sel)) for sel in found)
        if not reduce_orbits or _orbit_minimal(group, indices)
    )
    return tuple(solutions), nodes, exhausted


def _assert_matches_reference(group, n, **settings):
    outcome = search_group(group, n, **settings)
    got = (outcome.solutions, outcome.nodes_explored, outcome.exhausted)
    assert got == reference_search(group, n, **settings), (group, n, settings)
    return outcome


SMALL_CASES = [
    pytest.param(n, group, id=f"n{n}-{group.spec_string()}")
    for n in range(1, 7)
    for group in enumerate_groups(2 * n * n + 2 * n + 1)
]


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("n, group", SMALL_CASES)
def test_matches_reference_exhaustively(n, group, reduce):
    outcome = _assert_matches_reference(group, n, use_automorphism_reduction=reduce)
    assert outcome.exhausted


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize("n, factors", [(1, (5,)), (2, (13,)), (3, (25,)), (3, (5, 5))])
def test_matches_reference_under_every_budget(n, factors, reduce):
    group = AbelianGroup(factors)
    _, full, _ = reference_search(group, n, use_automorphism_reduction=reduce)
    for budget in range(full + 1):
        _assert_matches_reference(group, n, use_automorphism_reduction=reduce, node_budget=budget)


def test_matches_reference_under_sampled_budgets():
    # the reduced Z85 search (n = 6) has 33083 nodes; fixed-seed budgets
    # cut it at many depths, most inside a run of skipped pairs
    group = AbelianGroup((85,))
    budgets = [0, 1, 33082, 33083] + random.Random(85).sample(range(2, 33082), 26)
    for budget in budgets:
        _assert_matches_reference(group, 6, node_budget=budget)


# Budgets of the reduced Z85 search (n = 6) inside the counts a parent adds
# for a child it does not enter (a child whose one free pair is the last open
# pair of its level below): the child's first pair, its last pair and the
# last pair of its tail, for every 30th of its 345 such children and the last
# eight.  The budgets from 30987 up, the count without those tails, also
# catch an engine that loses a tail.
_UNENTERED_Z85 = [
    200, 223, 233, 2847, 2855, 5529, 5537, 5543, 9194, 9216, 9235, 13296, 13304, 16723, 16726, 19201,
    19207, 19213, 22125, 22130, 22134, 25764, 25767, 25770, 28996, 29001, 29004, 30429, 30439, 30440,
    32295, 32296, 32853, 32856, 32935, 32937, 33024, 33025, 33026, 33050, 33051, 33052, 33065, 33066,
    33067, 33069, 33074, 33075, 33077,
]


# Budgets that cut the engine where it counts a child without a call, the
# pairs before an entered child, and the popcount tail of a node.  Every
# budget of the reduced Z41 search, fixed-seed samples of the
# unreduced Z41 one, the Z61 (n = 5) searches, whose nodes with three
# pairs left run the C+-g pretest, and the reduced Z113 (n = 7) search
# cut at its last node, past it, and at sampled depths.
CUT_CASES = [
    pytest.param(4, (41,), True, range(318), id="n4-Z41-every"),
    pytest.param(4, (41,), False, random.Random(41).sample(range(1960), 200), id="n4-Z41-noreduce"),
    pytest.param(
    5, (61,), True, [0, 1, 2153, 2154] + random.Random(61).sample(range(2, 2153), 200), id="n5-Z61",
    ),
    pytest.param(5, (61,), False, random.Random(17440).sample(range(17441), 50), id="n5-Z61-noreduce"),
    pytest.param(
    7, (113,), True, [0, 1, 145186, 145187] + random.Random(113).sample(range(2, 145186), 12),
        id="n7-Z113",
    ),
    pytest.param(6, (85,), True, _UNENTERED_Z85, id="n6-Z85-unentered"),
]


@pytest.mark.parametrize("n, factors, reduce, budgets", CUT_CASES)
def test_matches_reference_where_counting_shortcuts_cut(n, factors, reduce, budgets):
    group = AbelianGroup(factors)
    for budget in budgets:
        _assert_matches_reference(group, n, use_automorphism_reduction=reduce, node_budget=budget)


# The non-cyclic groups of the larger dimensions, where the lower-axis
# rotations run on wide words: Z29xZ29 (n = 20), and Z5xZ325 and Z5xZ5xZ65
# (n = 28), cut at 0, 1 and fixed-seed budgets up to 20000.
@pytest.mark.parametrize(
    "n, factors", [(20, (29, 29)), (28, (5, 325)), (28, (5, 5, 65))], ids=["Z29xZ29", "Z5xZ325", "Z5xZ5xZ65"]
)
def test_matches_reference_on_non_cyclic_groups(n, factors):
    group = AbelianGroup(factors)
    for budget in [0, 1] + sorted(random.Random(group.order).sample(range(2, 20001), 10)):
        outcome = _assert_matches_reference(group, n, node_budget=budget)
        assert not outcome.exhausted
