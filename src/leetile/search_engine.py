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

So a level walks the set bits of ``free = candidates & ~blocked``, which
its parent hands it, in pair order (element index order is pair order).
A blocked pair costs no work but still counts as one node: the pairs
passed over before each legal one, and after the last, are counted by
popcount of the candidate mask, and a budget cut falls exactly where a
pair-by-pair walk would stop.  Four shortcuts keep the work per free
pair g small:

- The child's blocked set is built in two stages: T and C' translated by
  g and by -g together, then the two translations of A/2.  A child is
  counted by popcount, not entered, once every pair of it is blocked.
- One level above the leaves, at a node with three pairs left to place
  (its children are the last inner level), a pretest comes first: the
  node's ``blocked`` with C translated by g and by -g.  That union lies
  inside the child's set, as C is inside C' and ``covered`` is carried in
  two copies, so a child it covers is counted as blocked before C' is
  built.  In the reduced Z113 search (n = 7) it stops 3189 of the 3643
  children tested at that level (88%; the whole first stage stops 3490).
  One level up it would stop only 1504 of 5397 (28%), which costs more
  than it saves, so no other level runs it.  Of all the children that
  stop in that search, the pretest stops 54%, the first stage 39% (T
  alone 1.4%, too few for a test of its own) and H 6%.  Some other
  pretests are just as sound, because B' contains C' (the identity is an
  arm): the arms translated by g and -g in place of C, or the union with
  {2g, -2g} added, still lie inside the child's set.
- The children of a node are nested: the child of g is the pairs of the
  level below after g.  So once the node's own ``blocked`` covers a child,
  it covers every later one, as each child's set contains ``blocked``.
  Below the top level every free pair lies in the level below, so only
  its last open pair can be free from there on; a top-level free pair
  past the level below has an empty child.  So a node tries only its free
  pairs before that last open pair (its head), and the rest of the node
  is its candidate pairs, plus, when that last open pair is free, the
  pairs of the level below after it (its tail): no loop.  The parent
  works out a child's head and tail as soon as the child's blocked set
  survives both stages.  Each level holds one pair more than the level
  above it, so the last open pair of the child's level below is that
  extra pair when it is open, which is none of the child's pairs (head:
  every free pair, tail: 0), and otherwise the child's last free pair.
  A child with an empty head, whose one free pair is that last open
  pair, is counted there, its pairs plus its tail, and never entered.
  In the reduced Z113 search that is 1372 of the 4075 nodes with two or
  more pairs left (1300 of 3222 at three, all 42 at two), and 25222 of
  57887 at Z145 (n = 8).  A leaf, whose free pairs are solutions, is
  always entered, and the top node's head is worked out once; nothing of
  the level below it is blocked, so its tail is 0.
- The translations and the node counting are written out in the loop,
  not called, and the budget is checked only before a child is entered,
  at each solution and at the end of a node.  The and-not of a pair set x
  and a wider blocked word y is written ``x ^ (x & y)``, which works at
  the width of x, while ``x & ~y`` first builds the complement of y; at
  Z113 widths the first takes about 30% less time.

Node counts do not depend on where these cuts fall: a blocked child is
counted by popcount whichever part of the set blocked it, entering a
child whose pairs are all blocked would count the same pairs, and a
child with an empty head, counted by its parent, would count its pairs
and its tail.  Between two solutions the counts only add, so a popcount
in place of a walk, or a check made later (the next one comes before an
entered child, at a solution or at the end of a node), cuts the budget
where the pair-by-pair walk would: the search stops with the same
solutions and reports the budget as its count.

Sets of elements are Python ints used as bitsets, and each recursion
level passes fresh ints down with nothing to undo.  The layout is padded:
in Z_{d_0} x ... x Z_{d_{k-1}} the element r sits at bit sum(r_i * w_i),
with w_{k-1} = 1 and w_i = 3 * d_{i+1} * w_{i+1}, so each axis has room
for three copies of the one below.  Bit order is still element order, so
pair order is unchanged.  A word holds c copies of a set when each element
r is set at every sum((r_i + j_i * d_i) * w_i) with all j_i < c; one
multiplication by a precomputed product makes the copies.

Shifting such a word right by the position of -g subtracts (-g_i) mod d_i
from every digit at once.  A copy that lands at or above 0 on every axis
is the set translated by g; a digit that would go below 0 borrows instead
and lands in the third copy of its axis, at or above 2 * d_i.  So the
shifted word is the translate on one copy fewer: three copies give A+g on
the two-copy region, two copies give it on the real positions.  In every
group a translation is one right shift.

The arms are carried in three copies and A/2 in two, so C' = C | (A+g) |
(A-g) | {2g, -2g} comes out in two copies with no mask and no re-copying,
and every translation the engine reads is exact on the real positions.
Bits outside the region a word is exact on never shift into the region
that is read (a digit at or above 2 * d_i stays at or above d_i), so they
are harmless wherever the result is only ANDed with a set of candidate
pairs; only a found arm set is read at the real positions alone.  The
price is width: a set spans 3^(k-1) * m bits and an arm word 3^k * m, so a
cyclic group pays 3m bits and a non-cyclic one a factor 3 more per extra
axis.  Each pair's table entry is built the first time the search reaches
the pair, so memory follows the work done.
"""

from __future__ import annotations

import math

from ._record import Record
from .abelian_groups import AbelianGroup, GroupElement, enumerate_groups
from .errors import LeeTileError
from .tiling_core import TilingCandidate, check_conditions, radius2_group_order

_BUDGET_REQUIRED_FROM = 7  # combinatorial growth: demand an explicit cap
# Memory follows the work done: a pair's table entry, about 16 KiB at
# Z16381 (three words of 2-3 times the order in bits and the pairs after
# it, half the order), is built when the search first reaches the pair.  A
# search of Z16381 (n = 90) peaks at 23 MiB RSS with a budget of 1000 nodes
# and 26 MiB with 10^7, in a fresh process, interpreter included (Python
# 3.11, x86-64 Linux).  A search long enough to reach every pair would hold
# about 131 MiB of entries there (sys.getsizeof of each entry's ints).
_MAX_ORDER = 1 << 14


class SearchOutcome(Record):
    """Solutions found in one group, with the explored-node counter.

    ``exhausted`` is True exactly when the node budget was not hit, i.e.
    the reported solutions are provably all of them (up to automorphism
    reduction when enabled)."""

    _fields = ("group", "n", "solutions", "nodes_explored", "exhausted")

    def __init__(
        self,
        group: AbelianGroup,
        n: int,
        solutions: tuple[tuple[GroupElement, ...], ...],
        nodes_explored: int,
        exhausted: bool,
    ):
        self.__dict__.update(
            group=group, n=n, solutions=solutions, nodes_explored=nodes_explored, exhausted=exhausted
        )

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


def _layout(group: AbelianGroup) -> tuple[list[int], int, int]:
    """The padded element layout: ``(pos, twice, thrice)``.

    ``pos[i]`` is the bit of the element with lexicographic index i: r sits
    at ``sum(r_i * w_i)`` with ``w_{k-1} = 1`` and ``w_i = 3 * d_{i+1} *
    w_{i+1}``, so each axis has room for three copies of the one below and
    bit order is element order.  Multiplying a set by ``twice`` (``thrice``)
    copies it two (three) times along every axis, the product over i of
    ``sum(2**(j * d_i * w_i) for j < c)``.
    """
    pos = [0]
    twice = thrice = weight = 1
    for d in reversed(group.invariant_factors):
        pos = [r * weight + p for r in range(d) for p in pos]
        block = d * weight
        twice *= 1 | 1 << block
        thrice *= 1 | 1 << block | 1 << 2 * block
        weight = 3 * block
    return pos, twice, thrice


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


def _check_dimension(n) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension n must be an int >= 1, got {n!r}")


def search_group(
    group: AbelianGroup, n: int, *, use_automorphism_reduction: bool = True, node_budget: int | None = None
) -> SearchOutcome:
    """Every arm set over ``group`` passing the radius-2 verifier, up to
    unit-multiplication reduction when enabled and the group is cyclic.

    ``use_automorphism_reduction`` applies to cyclic groups only
    (multiplication by units); for other groups it is ignored.
    ``node_budget``, an int >= 0 or None for no cap, caps explored nodes;
    subtrees are always traversed in canonical order, so the cut-off point
    is deterministic.

    Deterministic: elements are ordered lexicographically, pairs by their
    smaller member, and solutions are reported in canonical sorted order
    with a node counter that is identical across runs.  One node is
    counted per attempted pair; a pair skipped because it is blocked still
    counts.
    """
    if node_budget is not None:
        if type(node_budget) is not int:  # 2.5, True or NaN would otherwise pass
            raise ValueError(f"node_budget must be an int, got {node_budget!r}")
        if node_budget < 0:
            raise ValueError(f"node_budget must be a finite number >= 0, got {node_budget!r}")
    _check_dimension(n)
    expected = radius2_group_order(n)
    if group.order != expected:
        raise ValueError(f"group order {group.order} != {expected} = 2n^2+2n+1 for n={n}")
    if n >= _BUDGET_REQUIRED_FROM and node_budget is None:
        raise ValueError(
            f"an explicit node_budget is required for n >= {_BUDGET_REQUIRED_FROM}"
        )
    if group.order > _MAX_ORDER:
        raise LeeTileError(f"group order {group.order} too large for the search (max {_MAX_ORDER})")
    m = group.order
    pos, twice, thrice = _layout(group)
    index = dict(zip(pos, range(m)))
    neg, double, half, third = (
        group.scaled_indices(t) for t in (-1, 2, (m + 1) // 2, pow(3, -1, group.exponent))
    )
    reps = [p for g, p in enumerate(pos) if 0 < g < neg[g]]
    every = sum(1 << p for p in reps)
    # Translating by g is the right shift by the position of -g.  Entry of
    # the representative at bit p, keyed by p + 1 (the bit length of its
    # bit) and built the first time the search reaches it: (the pairs after
    # p, {g, -g} in three copies, the shifts by g and -g, {2g, -2g} and
    # {g/2, -g/2} in two copies, the shifts by g/2 and -g/2, {g/3, -g/3} at
    # the real positions).  The pairs after p are a nonnegative mask: an AND
    # with a negative int costs a two's-complement copy of it.
    table: list = [None] * (pos[-1] + 2)

    def entry(key: int) -> tuple:
        p = key - 1
        g = index[p]
        ng = neg[g]
        hg, hng = half[g], half[ng]
        table[key] = e = (
            every & -(2 << p), ((1 << p) | (1 << pos[ng])) * thrice, pos[ng], p,
            ((1 << pos[double[g]]) | (1 << pos[double[ng]])) * twice,
            ((1 << pos[hg]) | (1 << pos[hng])) * twice, pos[hng], pos[hg],
            (1 << pos[third[g]]) | (1 << pos[third[ng]]),
        )
        return e

    reduce_orbits = use_automorphism_reduction and group.is_cyclic() and m > 1
    # Under unit multiplication the orbit of r in Z_m is every element with
    # the same gcd with m, so only r == gcd(r, m) may be the first pair
    # (a cyclic group's positions are its element indices).
    top = sum(1 << i for i in reps if i == math.gcd(i, m)) if reduce_orbits else every
    # room[r]: the pairs a node below the top level may try when it has r
    # pairs still to place, all but the last r - 1; the top level does not
    # stop early, which the node counts depend on
    room = [0] + [every & ((2 << reps[-r]) - 1) for r in range(1, n)]
    # levels[r], for a node with r >= 2 pairs to place: its children's
    # level, the level below theirs, the one pair that level has beyond
    # theirs (both 0 when the children are leaves), and whether the node
    # runs the C+-g pretest, the only level where it stops enough children
    levels = [None, None] + [
        (room[r - 1], room[r - 2], room[r - 2] & ~room[r - 1], r == 3) for r in range(2, n + 1)
    ]

    # a pair-by-pair walk stops at the first whole count >= node_budget; the
    # counts below raise _Abort once past it, and the counter is cut back
    budget = math.inf if node_budget is None else node_budget
    nodes = 0
    found: list[int] = []  # the arm set of each solution, in three copies

    # ``arms`` holds three copies, ``halves`` and ``covered`` two, ``cand``
    # and ``head`` the real positions; ``covered`` and ``blocked`` may carry
    # bits outside those regions, which no shift moves into them and every
    # use of ``blocked`` clears by ANDing it with a set of pairs.  ``head``
    # is the free pairs the node tries and ``tail`` what it counts after its
    # candidates, both from its parent; at a leaf they are every free pair
    # and 0.
    def place(cand, head, tail, remaining: int, arms: int, halves: int, covered: int, blocked: int):
        nonlocal nodes
        if remaining == 1:  # each free pair completes an arm set
            while head:
                low = head & -head
                head ^= low
                passed = cand & ((low << 1) - 1)  # the blocked pairs before g, and g
                cand ^= passed
                nodes += passed.bit_count()
                if nodes > budget:
                    raise _Abort
                key = low.bit_length()
                found.append(arms | (table[key] or entry(key))[1])
            nodes += cand.bit_count()
            if nodes > budget:
                raise _Abort
            return
        below, beyond, extra, pretest = levels[remaining]
        while head:
            low = head & -head
            head ^= low
            key = low.bit_length()
            (after, pair, shift_g, shift_ng, doubles,
             halves_g, shift_hg, shift_hng, thirds) = table[key] or entry(key)
            child = below & after
            if pretest and child & (blocked | covered >> shift_g | covered >> shift_ng) == child:
                nodes += child.bit_count()  # the pretest's set blocks every pair
                continue
            # The child's blocked set in two stages: T and C'+-g, then H,
            # the second built only while some pair of the child is open.
            cov = covered | arms >> shift_g | arms >> shift_ng | doubles
            blk = blocked | thirds | cov >> shift_g | cov >> shift_ng
            opened = child ^ (child & blk)
            if opened:
                blk |= halves >> shift_hg | halves >> shift_hng
                opened ^= opened & blk
                if opened:
                    # The child's head and tail.  The last open pair of
                    # ``beyond`` is ``extra`` when that is open, and no
                    # pair of the child, so the child tries every free
                    # pair; otherwise it is the child's last free pair.
                    if blk & extra:
                        last = opened.bit_length()
                        child_tail = (beyond >> last).bit_count()
                        opened ^= 1 << last - 1
                        if not opened:  # no pair to try: counted, not entered
                            nodes += child.bit_count() + child_tail
                            continue
                    else:
                        child_tail = 0
                    # counts only add until a child is entered, so the
                    # budget is checked here, with every pair up to g
                    # now counted
                    rest = cand & after
                    nodes += (cand ^ rest).bit_count()
                    cand = rest
                    if nodes > budget:
                        raise _Abort
                    place(child, opened, child_tail, remaining - 1, arms | pair, halves | halves_g, cov, blk)
                    continue
            nodes += child.bit_count()  # every pair of the child is blocked
        # the rest of the node by popcount: its pairs, and its tail
        nodes += cand.bit_count() + tail
        if nodes > budget:
            raise _Abort

    exhausted = True
    try:
        # the identity (index 0) is always an arm and its own half; it
        # blocks only itself.  So at the top every pair of the level below
        # is open: its last pair's child is empty and the top tail is 0.
        head = top
        if n > 1:
            head &= (1 << room[n - 1].bit_length() - 1) - 1
        place(top, head, 0, n, thrice, twice, 0, 1)
    except _Abort:
        nodes, exhausted = budget, False

    solutions = []
    for arms in found:
        indices = tuple(i for i, p in enumerate(pos) if arms >> p & 1)
        if reduce_orbits and not _orbit_minimal(group, indices):
            continue
        solutions.append(tuple(map(group.element_at, indices)))
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


def search_all(
    n: int, *, use_automorphism_reduction: bool = True, node_budget: int | None = None
) -> list[SearchOutcome]:
    """Run ``search_group`` over every isomorphism class of abelian groups
    of order 2n^2 + 2n + 1, one outcome per class in canonical group order."""
    _check_dimension(n)
    return [
        search_group(g, n, use_automorphism_reduction=use_automorphism_reduction, node_budget=node_budget)
        for g in enumerate_groups(radius2_group_order(n))
    ]
