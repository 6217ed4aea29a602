"""Both tiling verifiers and the bridge between them.

Geometric side: a lattice basis tiles Z^n with radius-r Lee spheres exactly
when |det| equals the sphere size and the quotient projection is injective
on the sphere.

Algebraic side (radius 2 only): a candidate is a group G of order
2n^2 + 2n + 1 together with an arm set of 2n + 1 elements.  It verifies
when the arm set contains the identity, is closed under negation, and its
convolution square puts coefficient 2n + 1 on the identity, 1 on every
doubled arm, and 2 everywhere else.  The square is counted on the group's
carry-free element codes (``AbelianGroup.sum_codes``) into a flat list
indexed by lexicographic position, which is compared with the pattern in
one step; ``GroupRingElement`` multiplication computes the same square one
residue tuple per term and serves as its reference in the tests.

``to_group_model`` converts a basis with |det| = 2n^2 + 2n + 1 into the
candidate whose arms are the identity plus the (+/-) images of the standard
basis vectors; the two verdicts agree on such bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional

from .abelian_groups import AbelianGroup, GroupElement, LatticeBasis, quotient_map
from .errors import ArmCollisionError, SingularMatrixError
from .lee_geometry import sphere_size, walk_sphere

# failed_condition labels carried by rejection reports
FAILED_ORDER = "order"
FAILED_SIZE = "size"
FAILED_IDENTITY = "identity-membership"
FAILED_SYMMETRY = "symmetry"
FAILED_QUADRATIC = "quadratic-identity"
FAILED_DETERMINANT = "determinant"
FAILED_COLLISION = "collision"


def radius2_group_order(n: int) -> int:
    """Order a radius-2 tiling quotient group must have: 2n^2 + 2n + 1."""
    return 2 * n * n + 2 * n + 1


@dataclass(frozen=True)
class TilingCandidate:
    """A group plus a candidate arm set for the radius-2 algebraic test."""

    group: AbelianGroup
    n: int
    arms: tuple[GroupElement, ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"dimension must be an int >= 1, got {self.n!r}")
        arms = tuple(sorted(map(self.group.check_element, self.arms)))
        if len(set(arms)) != len(arms):
            raise ValueError("arm set contains duplicates")
        object.__setattr__(self, "arms", arms)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of either verifier.  A rejection names the first failed
    condition and, where meaningful, a witness found in deterministic
    (sorted) scan order."""

    accepted: bool
    failed_condition: Optional[str] = None
    witness: Optional[dict] = None

    def __post_init__(self):
        if not self.accepted and self.failed_condition is None:
            raise ValueError("a rejection must name the failed condition")

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else "reject"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "failed_condition": self.failed_condition,
            "witness": self.witness,
        }


def _accept() -> VerificationReport:
    return VerificationReport(accepted=True)


def _reject(condition: str, witness: Optional[dict] = None) -> VerificationReport:
    return VerificationReport(accepted=False, failed_condition=condition, witness=witness)


def check_conditions(candidate: TilingCandidate) -> VerificationReport:
    """Radius-2 algebraic verifier.

    Checks, in order: group order, arm count, identity membership, negation
    closure, and then the convolution-square coefficient pattern element by
    element in lexicographic order.  The first mismatch becomes the witness
    with expected and actual coefficients.

    The square is counted on plain ints: each arm becomes its carry-free
    code (``AbelianGroup.sum_codes``), so a pair of arms adds to the code of
    its unreduced sum, which one lookup in the fold table turns into the
    lexicographic index of the reduced sum.  Each pair of distinct arms is
    counted once, for both orders.  The counts and the expected pattern are
    two lists over the group, compared in one step; only on a mismatch is
    the first differing index looked for and decoded into the witness.
    """
    group, n = candidate.group, candidate.n
    expected_order = radius2_group_order(n)
    if group.order != expected_order:
        return _reject(FAILED_ORDER, {"group_order": group.order, "expected": expected_order})
    arm_count = 2 * n + 1
    if len(candidate.arms) != arm_count:
        return _reject(FAILED_SIZE, {"arm_count": len(candidate.arms), "expected": arm_count})
    identity = group.identity()
    arm_set = set(candidate.arms)
    if identity not in arm_set:
        return _reject(FAILED_IDENTITY, {"identity": list(identity)})
    for t in candidate.arms:
        if group.neg(t) not in arm_set:
            return _reject(FAILED_SYMMETRY, {"element": list(t)})
    weights, fold = group.sum_codes()
    codes = [sum(map(mul, t, weights)) for t in candidate.arms]
    square = [0] * group.order
    pattern = [2] * group.order
    for i, a in enumerate(codes):
        doubled = fold[2 * a]
        square[doubled] += 1
        pattern[doubled] = 1
        for b in codes[i + 1:]:
            square[fold[a + b]] += 2
    pattern[0] = arm_count  # the identity, at index 0, is also the doubled arm 2 * 0
    if square == pattern:
        return _accept()
    index = 0
    while square[index] == pattern[index]:
        index += 1
    return _reject(
        FAILED_QUADRATIC,
        {"element": list(group.element_at(index)), "expected": pattern[index], "actual": square[index]},
    )


def _volume_and_quotient(basis: LatticeBasis):
    """|det| of the basis together with ``quotient_map(basis)``.  |det| is
    the order of the quotient group; a singular basis, on which the Smith
    normal form runs out of pivots, has |det| = 0 and no quotient."""
    try:
        group, images = quotient_map(basis)
    except SingularMatrixError:
        return 0, None, None
    return group.order, group, images


# Largest m for which a cyclic quotient's cosets are marked in an m-byte
# _ResidueSet.  It is zero-filled before the walk, which a collision can stop
# after a few points, so above this size (over 20 times the 45301 points of
# the r = 150 plane) the residues go into a plain dict that grows with the walk.
_RESIDUE_SET_MAX = 1 << 20


class _ResidueSet(bytearray):
    """The residues mod m marked in m bytes, one per residue, where a dict
    of ints takes tens of bytes per member: ``seen[c] = 1`` marks c, and
    ``c in seen`` reads its byte."""

    __contains__ = bytearray.__getitem__


def verify_lattice(basis: LatticeBasis, radius: int) -> VerificationReport:
    """Geometric verifier for any radius: the basis columns generate a
    lattice whose Lee-sphere translates partition Z^n exactly when |det|
    equals the sphere size and no two sphere points share a coset.

    Sphere points are scanned in lexicographic order and the scan stops at
    the first point whose coset an earlier point holds, so the reported
    collision (if any) is deterministic.  The walk carries the coset of each
    prefix; a point's coset is that coset plus the image of its last set
    coordinate, looked up in a table built once per call.  Every coset met
    is marked with ``seen[coset] = 1``.  Over a cyclic quotient Z_m a coset
    is a plain residue, added as an int and marked in a bytearray of m
    bytes, or for m above 2^20 in a dict, so that a walk a collision stops
    early never pays for all m; over any other group it is a residue tuple,
    kept in a dict.
    """
    n = basis.n
    expected = sphere_size(n, radius)
    volume, group, images = _volume_and_quotient(basis)
    if volume != expected:
        return _reject(FAILED_DETERMINANT, {"determinant": volume, "expected": expected})
    span = range(-radius, radius + 1)
    if group.rank == 1:
        (m,) = group.invariant_factors
        steps = [[g * v % m for v in span] for (g,) in images]
        add, zero = (lambda a, b: (a + b) % m), 0
        seen = _ResidueSet(m) if m <= _RESIDUE_SET_MAX else {}
        as_list = lambda c: [c]
    else:
        steps = [[group.scale(img, v) for v in span] for img in images]
        add, zero, seen, as_list = group.add, group.identity(), {}, list
    for point, coset in walk_sphere(n, radius, steps, add, zero):
        if coset in seen:
            # Only cosets are kept (a point per coset would hold a tuple per
            # sphere point), so the earlier point is found by walking again
            # up to the first one with this coset.
            first = next(p for p, c in walk_sphere(n, radius, steps, add, zero) if c == coset)
            return _reject(
                FAILED_COLLISION,
                {
                    "first_point": list(first),
                    "second_point": list(point),
                    "coset": as_list(coset),
                },
            )
        seen[coset] = 1
    return _accept()


def to_group_model(basis: LatticeBasis) -> TilingCandidate:
    """Candidate (G, arm set) induced by a basis with |det| = 2n^2 + 2n + 1:
    G is the quotient group and the arms are the identity together with the
    images of +/- each standard basis vector.

    A collision among the arms is an error rather than a rejection, since a
    collapsed arm set can never reach size 2n + 1 and silently continuing
    would mask modeling bugs.
    """
    n = basis.n
    expected = radius2_group_order(n)
    volume, group, images = _volume_and_quotient(basis)
    if volume != expected:
        raise ValueError(f"|det| = {volume}, need {expected} for a radius-2 model in dimension {n}")
    arms = {group.identity()}
    for img in images:
        arms.add(img)
        arms.add(group.neg(img))
    if len(arms) != 2 * n + 1:
        raise ArmCollisionError(
            f"arm images collapse: got {len(arms)} distinct arms, need {2 * n + 1}"
        )
    return TilingCandidate(group, n, tuple(arms))  # the candidate sorts its arms
