"""Exhaustive, pruned backtracking search for arm sets over all abelian
groups of order 2n^2 + 2n + 1.

The arm set has the shape {identity} plus n inverse pairs, so the search
chooses pairs.  Every pair is represented by its lexicographically smaller
member, and pairs are chosen in strictly increasing representative order,
which removes all set-permutation symmetry.

Packing invariant: the group order is odd, so doubling is a bijection.
Off the identity, the convolution square A*A gains 2 on each sum a + b of
two distinct arms and 1 on the double of each arm.  A valid final square
carries at most 2 there and exactly 1 on every double, so the sums of
distinct arms and the doubles must all be distinct elements.  Adding the
pair {g, -g} to the arm set A is therefore legal exactly when A+g, A-g,
{2g} and {-2g} are pairwise disjoint and miss every element already
covered by earlier sums and doubles.  The engine skips the test of A+g
against A-g: if a+g = b-g for arms a != b, then 2g = b + (-a) is already
covered.  A counting argument shows the caps are tight at full depth, so
any surviving leaf is a solution; each reported set is still re-verified
post hoc through the independent verifier.

Sets of elements are Python ints used as bitsets over the mixed-radix
(lexicographic) element index.  Translating a set by g is one masked block
rotation per invariant factor, so a search node is a few big-int shifts
and ANDs, and each recursion level passes fresh ints down with nothing to
undo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .abelian_groups import AbelianGroup, GroupElement, enumerate_groups
from .errors import LeeTileError
from .tiling_core import TilingCandidate, check_conditions, radius2_group_order

_BUDGET_REQUIRED_FROM = 7  # combinatorial growth: demand an explicit cap
# The translation masks and the per-pair double bitsets take about
# order^2 / 8 bytes together (35 MB at this bound).
_MAX_ORDER = 1 << 14


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for ``search_group``/``search_all``.

    Automorphism reduction applies to cyclic groups only (multiplication by
    units); for other groups the flag is ignored.  ``node_budget`` caps
    explored nodes; subtrees are always traversed in canonical order, so
    the cut-off point is deterministic.
    """

    use_automorphism_reduction: bool = True
    node_budget: Optional[int] = None

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError(f"node_budget must be >= 0, got {self.node_budget}")


@dataclass(frozen=True)
class SearchOutcome:
    """Solutions found in one group, with the explored-node counter.

    ``exhausted`` is True exactly when the node budget was not hit, i.e.
    the reported solutions are provably all of them (up to automorphism
    reduction when enabled)."""

    group: AbelianGroup
    n: int
    solutions: tuple[tuple[GroupElement, ...], ...]
    nodes_explored: int
    exhausted: bool

    def to_dict(self) -> dict:
        return {
            "group": list(self.group.invariant_factors),
            "group_spec": self.group.spec_string(),
            "n": self.n,
            "solutions": [[list(g) for g in sol] for sol in self.solutions],
            "nodes_explored": self.nodes_explored,
            "exhausted": self.exhausted,
        }


class _Abort(Exception):
    """Internal: node budget exhausted."""


def _translator(group: AbelianGroup):
    """Return ``steps(g)``: the ``(mask, up, down)`` block rotations that
    translate a bitset by the element g, one per nonzero residue.

    Along a factor d with index stride s, translating by t moves the bits
    whose residue is below d - t up by t*s and the others down by (d-t)*s;
    ``mask`` selects the former.  It is one block pattern repeated by a
    repunit, so building all masks costs O(d) big-int products per factor.
    """
    order = group.order
    axes = []
    stride = order
    for d in group.invariant_factors:
        stride //= d
        block = d * stride
        repunit = ((1 << order) - 1) // ((1 << block) - 1)
        masks = [((1 << ((d - t) * stride)) - 1) * repunit for t in range(d)]
        axes.append((d, stride, masks))

    def steps(g: GroupElement) -> tuple:
        return tuple(
            (masks[t], t * stride, (d - t) * stride)
            for t, (d, stride, masks) in zip(g, axes)
            if t
        )

    return steps


def _translate(bits: int, steps: tuple) -> int:
    for mask, up, down in steps:
        low = bits & mask
        bits = (low << up) | ((bits ^ low) >> down)
    return bits


def _orbit_minimal(group: AbelianGroup, solution_indices: tuple[int, ...]) -> bool:
    """True when the (cyclic-group) solution is the lexicographic minimum of
    its orbit under multiplication by units."""
    m = group.order
    sol = tuple(sorted(solution_indices))
    for u in range(2, m):
        if math.gcd(u, m) != 1:
            continue
        image = tuple(sorted(u * x % m for x in sol))
        if image < sol:
            return False
    return True


def search_group(group: AbelianGroup, n: int, options: Optional[SearchOptions] = None) -> SearchOutcome:
    """Every arm set over ``group`` passing the radius-2 verifier, up to
    unit-multiplication reduction when enabled and the group is cyclic.

    Deterministic: elements are ordered lexicographically, pairs by their
    smaller member, and solutions are reported in canonical sorted order
    with a node counter that is identical across runs.  One node is
    counted per attempted pair.
    """
    opts = options or SearchOptions()
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    expected = radius2_group_order(n)
    if group.order != expected:
        raise ValueError(f"group order {group.order} != {expected} = 2n^2+2n+1 for n={n}")
    if n >= _BUDGET_REQUIRED_FROM and opts.node_budget is None:
        raise ValueError(
            f"an explicit node_budget is required for n >= {_BUDGET_REQUIRED_FROM}"
        )
    if group.order > _MAX_ORDER:
        raise LeeTileError(f"group order {group.order} too large for the search (max {_MAX_ORDER})")
    elems = list(group.elements())
    index = group.element_index
    steps = _translator(group)
    pairs = []  # per representative: (g, -g, bits of {2g, -2g}, steps(g), steps(-g))
    for i, e in enumerate(elems):
        ne = group.neg(e)
        j = index(ne)
        if 0 < i < j:
            doubles = (1 << index(group.add(e, e))) | (1 << index(group.add(ne, ne)))
            pairs.append((i, j, doubles, steps(e), steps(ne)))
    m = group.order
    reduce_orbits = opts.use_automorphism_reduction and group.is_cyclic() and m > 1
    # Under unit multiplication the orbit of r in Z_m is every element with
    # the same gcd with m, so only r == gcd(r, m) may be the first pair.
    top = [k for k, p in enumerate(pairs) if not reduce_orbits or p[0] == math.gcd(p[0], m)]

    budget = math.inf if opts.node_budget is None else opts.node_budget
    nodes = 0
    found: list[tuple[int, ...]] = []

    def place(candidates, remaining: int, arms: int, covered: int, chosen: tuple):
        nonlocal nodes
        for k in candidates:
            if nodes >= budget:
                raise _Abort
            nodes += 1
            g, ng, doubles, steps_g, steps_ng = pairs[k]
            sums = _translate(arms, steps_g) | _translate(arms, steps_ng)
            if sums & covered or doubles & (sums | covered):
                continue
            if remaining == 1:
                found.append(chosen + (g, ng))
            else:
                # deeper levels stop where too few pairs remain; the top
                # level does not, which the node counts depend on
                place(
                    range(k + 1, len(pairs) - remaining + 2),
                    remaining - 1,
                    arms | (1 << g) | (1 << ng),
                    covered | sums | doubles,
                    chosen + (g, ng),
                )

    exhausted = True
    try:
        place(top, n, 1, 0, ())  # the identity (index 0) is always an arm
    except _Abort:
        exhausted = False

    solutions = []
    for sel in found:
        indices = tuple(sorted((0,) + sel))
        if reduce_orbits and not _orbit_minimal(group, indices):
            continue
        solutions.append(tuple(elems[i] for i in indices))
    solutions.sort()

    for sol in solutions:
        report = check_conditions(TilingCandidate(group, n, sol))
        if not report.accepted:
            raise LeeTileError(
                f"internal error: search emitted a set the verifier rejects ({report.failed_condition})"
            )
    return SearchOutcome(
        group=group,
        n=n,
        solutions=tuple(solutions),
        nodes_explored=nodes,
        exhausted=exhausted,
    )


def search_all(n: int, options: Optional[SearchOptions] = None) -> list[SearchOutcome]:
    """Run the search over every isomorphism class of abelian groups of
    order 2n^2 + 2n + 1, one outcome per class in canonical group order."""
    order = radius2_group_order(n)
    return [search_group(g, n, options) for g in enumerate_groups(order)]


def brute_force_search(group: AbelianGroup, n: int) -> tuple[tuple[GroupElement, ...], ...]:
    """Pruning-free reference search: test every n-subset of inverse pairs
    through the verifier.  Only feasible for tiny n; used to validate the
    pruned engine."""
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
