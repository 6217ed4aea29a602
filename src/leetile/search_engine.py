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

Legality as set membership.  Write A for the arms and C for the covered
elements; by construction C = (A - A) minus {0}.  No candidate is an arm,
so pair {g, -g} is legal exactly when g lies outside B, H and T, where

    B = C - A           (A+g or A-g meets C),
    H = {x : 2x in C}   ({2g, -2g} meets C),
    T = {x : 3x in A}   (2g = a - g or -2g = a + g for an arm a).

All three are symmetric, and halving and thirding are bijections: the
order 2n^2+2n+1 is odd and never divisible by 3.  The engine carries the
union B | H | T as one bitset and grows it when it accepts g.  With
C' = C | (A+g) | (A-g) | {2g, -2g} the new covered set and A' = A | {g, -g}:

    B' = B | (C'+g) | (C'-g)        two translations,
    H' = H | (A/2 + g/2) | (A/2 - g/2)   two translations of the carried A/2,
    T' = T | {g/3, -g/3}.

B needs only two translations because every difference of arms is
covered.  B' = C' - A' is the union of B, C'+g, C'-g and the differences
(new covered element) - b for arms b.  Of the last, (a+g) - b = (a-b) + g
with a - b in C | {0}, and 2g - b = (g-b) + g with g - b in A+g, so each
lies in C'+g, except g itself, which is 2g - g; the cases with -g are
symmetric.  H' omits {g, -g}, the halves of {2g, -2g}: they are arms and
never tested.

So a level takes ``free = candidates & ~blocked`` once and walks its set
bits in pair order (element index order is pair order).  A blocked pair
costs no work but still counts as one node: the pairs passed over before
each legal one, and after the last, are counted by popcount of the
candidate mask, and a budget cut falls exactly where a pair-by-pair walk
would stop.  A child whose candidates are all blocked is counted the same
way without being entered.

Three shortcuts keep the work per free pair g small:

- The child's blocked set is built cheapest part first: the two T bits,
  then C' translated by g, then by -g, then the two translations of A/2.
  Building stops, and the child is counted by popcount, as soon as every
  pair of the child is blocked.  In the reduced Z113 search (n = 7) the
  C' translations stop 92% of the children that stop, T 1% and H 6%.
  The whole set is built only for a child that is entered.
- The children of a node are nested: the child of g is the pairs of the
  level below after g.  So once the node's own ``blocked`` covers a child,
  it covers every later one, as each child's set contains ``blocked``.  The
  free pairs from there on form the node's tail, which is counted without
  any translation: its candidate pairs plus each tail child's popcount.
- The translations and the node counting are written out in the loop,
  not called, and the budget is checked only before a child is entered,
  at each solution and at the end of a node.

Node counts do not depend on where these cuts fall: a blocked child is
counted by popcount whichever part of the set blocked it, and entering a
child whose pairs are all blocked would count the same pairs.  Between
two solutions the counts only add, so a popcount in place of a walk, or a
check made later, cuts the budget where the pair-by-pair walk would: the
search stops with the same solutions and reports the budget as its count.

Sets of elements are Python ints used as bitsets over the mixed-radix
(lexicographic) element index, and each recursion level passes fresh ints
down with nothing to undo.  The sets the engine translates are carried in
doubled form, x | x << m for a group of order m: the arms and A/2 from one
level to the next, and C' once per free pair, as soon as it is built.  The
top axis (residue 0, the largest index stride) rotates the whole index,
so translating a doubled set along it is one right shift, and in a cyclic
group that is the whole translation.  Each lower axis of a non-cyclic
group adds a masked block rotation, with masks over the doubled width.

A shift leaves stray bits above position m.  They are harmless wherever
the result is only ANDed with a set of candidate pairs, so a set is masked
to m bits only where it is stored or doubled again: C' and each arm set
found.  The per-pair table stays single-width; the pair and its halves are
doubled only when a child is entered.
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
# The per-pair table holds four bitsets per pair, about order^2 / 5 bytes
# (52 MiB at Z16381); cyclic groups build no translation masks.  A budgeted
# search of Z16381 (n = 90) peaks at 79 MiB RSS in a fresh process,
# interpreter included (Python 3.11, x86-64 Linux).
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
    """Return ``move(g)``: the ``(shift, steps)`` that translate a doubled
    bitset by the element g.

    A set x over the m elements is carried doubled, ``x | x << m``.  Along
    the top axis (residue 0, index stride s) translation by t is rotation
    of the whole index by t*s, which on the doubled word is the one right
    shift ``>> (m - t*s)``; its low m bits are the rotated set.  In a
    cyclic group that is the whole translation and ``steps`` is empty.
    Each lower axis keeps a masked block rotation ``(mask, up, down)``:
    along a factor d with stride s, the bits whose residue is below d - t
    move up by t*s and the others down by (d-t)*s.  The blocks tile both
    halves of the doubled word and the masks repeat over 2m bits, so the
    rotations keep a doubled word doubled and are applied before the
    shift.  A mask is one block pattern repeated by a repunit, so building
    them costs O(d) big-int products per lower factor.
    """
    m = group.order
    top = group.strides[0]
    axes = []
    for d, stride in zip(group.invariant_factors[1:], group.strides[1:]):
        block = d * stride
        repunit = ((1 << 2 * m) - 1) // ((1 << block) - 1)
        masks = [((1 << ((d - t) * stride)) - 1) * repunit for t in range(d)]
        axes.append((d, stride, masks))

    def move(g: GroupElement) -> tuple:
        steps = tuple(
            (masks[t], t * stride, (d - t) * stride)
            for t, (d, stride, masks) in zip(g[1:], axes)
            if t
        )
        return m - g[0] * top, steps

    return move


def _rotate(bits: int, steps: tuple) -> int:
    """The doubled set ``bits`` translated along the lower axes, one masked
    block rotation per ``(mask, up, down)`` of ``steps``."""
    for mask, up, down in steps:
        part = bits & mask
        bits = (part << up) | ((bits ^ part) >> down)
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
    counted per attempted pair; a pair skipped because it is blocked still
    counts.
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
    moves = list(map(_translator(group), elems))
    m = group.order
    neg, double, half, third = (
        group.scaled_indices(t) for t in (-1, 2, (m + 1) // 2, pow(3, -1, group.exponent))
    )
    # per representative g: (bits of {g, -g}, move(g), move(-g), bits of
    # {2g, -2g}, bits of {g/2, -g/2}, move(g/2), move(-g/2), bits of
    # {g/3, -g/3}), each move a (shift, steps) pair, all bits single-width
    table: list = [None] * m
    reps = []
    for g in range(1, m):
        ng = neg[g]
        if g < ng:
            hg, hng = half[g], half[ng]
            table[g] = (
                (1 << g) | (1 << ng), *moves[g], *moves[ng],
                (1 << double[g]) | (1 << double[ng]),
                (1 << hg) | (1 << hng), *moves[hg], *moves[hng],
                (1 << third[g]) | (1 << third[ng]),
            )
            reps.append(g)
    every = sum(1 << i for i in reps)
    reduce_orbits = opts.use_automorphism_reduction and group.is_cyclic() and m > 1
    # Under unit multiplication the orbit of r in Z_m is every element with
    # the same gcd with m, so only r == gcd(r, m) may be the first pair.
    top = sum(1 << i for i in reps if i == math.gcd(i, m)) if reduce_orbits else every
    # room[r]: the pairs a node below the top level may try when it has r
    # pairs still to place, all but the last r - 1; the top level does not
    # stop early, which the node counts depend on
    room = [0] + [every & ((2 << reps[-r]) - 1) for r in range(1, n)]

    # a pair-by-pair walk stops at the first whole count >= node_budget; the
    # counts below raise _Abort once past it, and the counter is cut back
    budget = math.inf if opts.node_budget is None else math.ceil(opts.node_budget)
    nodes = 0
    found: list[int] = []  # the arm set of each solution, as a bitset
    full = (1 << m) - 1

    # ``arms`` and ``halves`` are doubled words, ``covered`` and ``cand`` are
    # single-width; ``blocked`` may carry bits above m, which every use
    # clears by ANDing it with a set of pairs
    def place(cand, remaining: int, arms: int, halves: int, covered: int, blocked: int):
        nonlocal nodes
        free = cand & ~blocked
        if remaining == 1:  # each free pair completes an arm set
            while free:
                low = free & -free
                free ^= low
                passed = cand & ((low << 1) - 1)  # the blocked pairs before g, and g
                cand ^= passed
                nodes += passed.bit_count()
                if nodes > budget:
                    raise _Abort
                found.append((arms | table[low.bit_length() - 1][0]) & full)
            nodes += cand.bit_count()
            if nodes > budget:
                raise _Abort
            return
        below = room[remaining - 1]
        # The child of g holds the pairs of ``below`` after g.  From the
        # last pair of ``below`` outside ``blocked`` on, every child is
        # blocked already: those free pairs form the tail.
        head = free & ((1 << (below & ~blocked).bit_length()) - 1) >> 1
        tail = free ^ head
        while head:
            low = head & -head
            head ^= low
            g = low.bit_length() - 1
            child = below & -(low << 1)
            (pair, shift_g, steps_g, shift_ng, steps_ng, doubles,
             halves_g, shift_hg, steps_hg, shift_hng, steps_hng, thirds) = table[g]
            # The child's blocked set, cheapest part first, built only while
            # some pair of the child is still open: T, C'+g, C'-g, then H.
            # A translation is the lower-axis rotation, which cyclic groups
            # skip, then the shift; the bits it leaves above m are cleared
            # by the AND with ``child``.
            open_ = child & ~(blocked | thirds)
            if open_:
                sums_g = _rotate(arms, steps_g) if steps_g else arms
                sums_ng = _rotate(arms, steps_ng) if steps_ng else arms
                cov = covered | (sums_g >> shift_g | sums_ng >> shift_ng) & full | doubles
                wide = cov | cov << m
                b_g = (_rotate(wide, steps_g) if steps_g else wide) >> shift_g
                open_ &= ~b_g
            if open_:
                b_ng = (_rotate(wide, steps_ng) if steps_ng else wide) >> shift_ng
                open_ &= ~b_ng
            if open_:
                h_g = (_rotate(halves, steps_hg) if steps_hg else halves) >> shift_hg
                open_ &= ~h_g
            if open_:
                h_ng = (_rotate(halves, steps_hng) if steps_hng else halves) >> shift_hng
                open_ &= ~h_ng
            if open_:
                # counts only add until a child is entered, so the budget
                # is checked here, with every pair up to g now counted
                passed = cand & ((low << 1) - 1)
                cand ^= passed
                nodes += passed.bit_count()
                if nodes > budget:
                    raise _Abort
                blk = blocked | thirds | b_g | b_ng | h_g | h_ng
                place(child, remaining - 1, arms | pair | pair << m,
                      halves | halves_g | halves_g << m, cov, blk)
            else:  # every pair of the child is blocked: count them without a call
                nodes += child.bit_count()
        # the rest of the node by popcount: its pairs, and each tail child
        rest = cand.bit_count()
        while tail:
            low = tail & -tail
            tail ^= low
            rest += (below >> low.bit_length()).bit_count()
        nodes += rest
        if nodes > budget:
            raise _Abort

    exhausted = True
    try:
        # the identity (index 0) is always an arm and its own half; it
        # blocks only itself
        place(top, n, 1 | 1 << m, 1 | 1 << m, 0, 1)
    except _Abort:
        nodes, exhausted = budget, False

    solutions = []
    for arms in found:
        indices = tuple(i for i in range(m) if arms >> i & 1)
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
