"""Multiplicity profiles of power-map products and their counting identities.

For a verified candidate with arm set A over a group of order
2n^2 + 2n + 1, the product A^(k) * A (k = 2 or 4) assigns each group
element a small non-negative coefficient.  The profile is the histogram
{coefficient -> number of elements receiving it}, always including the
0-class explicitly so the total equals the group order.

Three exact identities constrain the k = 2 profile, and the k = 4 profile
additionally determines an overlap-correction term ``delta`` confined to
[-2n, 0] along with a lower bound on its small classes.  Closed-form
predicted profiles exist for n = 1 and n = 2 mod 3; for n = 0 mod 3 only
residue-class sums are forced.

The product is counted as ``check_conditions`` counts A * A, on the
group's carry-free element codes (``AbelianGroup.sum_codes``) into a flat
list over the group; ``GroupRingElement`` is its reference in the tests.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .abelian_groups import AbelianGroup, GroupElement
from .errors import RejectedCandidateError
from .tiling_core import TilingCandidate, check_conditions, radius2_group_order


@dataclass(frozen=True)
class MultiplicityProfile:
    """Histogram of coefficients of A^(k) * A over the whole group.

    ``histogram`` maps every coefficient value from 0 up to ``max_index``
    to its class size (possibly 0 in between).
    """

    k: int
    n: int
    histogram: dict[int, int]

    @property
    def max_index(self) -> int:
        """The largest coefficient with a nonempty class."""
        return max((i for i, c in self.histogram.items() if c), default=0)

    def class_size(self, i: int) -> int:
        return self.histogram.get(i, 0)

    def total(self) -> int:
        """Sum of all class sizes, including the 0-class."""
        return sum(self.histogram.values())

    def support_count(self) -> int:
        """Number of elements with a nonzero coefficient."""
        return sum(c for i, c in self.histogram.items() if i >= 1)

    def weighted_sum(self) -> int:
        """Sum of i times the size of class i."""
        return sum(i * c for i, c in self.histogram.items())

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "histogram": {str(i): c for i, c in sorted(self.histogram.items())},
            "max_index": self.max_index,
        }


_RELATIONS = {
    "==": operator.eq,
    ">=": operator.ge,
    "within": lambda x, bounds: bounds[0] <= x <= bounds[1],
}


@dataclass(frozen=True)
class IdentityCheck:
    """One evaluated identity: lhs <relation> rhs."""

    name: str
    relation: str  # "==" or ">=" or "within"
    lhs: int
    rhs: object  # int, or (lo, hi) for "within"

    @property
    def passed(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "relation": self.relation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks], "all_passed": self.all_passed}


@dataclass(frozen=True)
class DeltaReport:
    """Overlap correction solved out of the k = 4 counting identity.

    ``delta`` lies in [-2n, 0] on any verified candidate; ``delta_raw`` is
    the shifted value delta + 2n, a pair count in [0, 2n].
    """

    n: int
    delta: int

    @property
    def delta_raw(self) -> int:
        return self.delta + 2 * self.n

    def to_dict(self) -> dict:
        return {"n": self.n, "delta": self.delta, "delta_raw": self.delta_raw}


@dataclass(frozen=True)
class PredictedProfile:
    """Closed-form class sizes forced by the mod-3 congruence (for n = 1, 2
    mod 3) or, for n = 0 mod 3, the forced sums of class sizes grouped by
    coefficient residue mod 3."""

    n: int
    histogram: Optional[dict[int, int]] = None
    residue_class_sums: Optional[dict[int, int]] = None

    @property
    def is_closed_form(self) -> bool:
        return self.histogram is not None


def profile(candidate: TilingCandidate, k: int) -> MultiplicityProfile:
    """Histogram of coefficients of A^(k) * A over all of G, 0-class
    included.  The candidate must verify; a rejection is raised as
    RejectedCandidateError."""
    if type(k) is not int or k not in (2, 4):
        raise ValueError(f"power-map exponent must be the int 2 or 4, got {k!r}")
    report = check_conditions(candidate)
    if not report.accepted:
        raise RejectedCandidateError(report)
    classes = Counter(_power_product(candidate.group, candidate.arms, k))
    histogram = {i: classes[i] for i in range(max(classes) + 1)}
    return MultiplicityProfile(k=k, n=candidate.n, histogram=histogram)


def _power_product(group: AbelianGroup, arms: tuple[GroupElement, ...], k: int) -> list[int]:
    """Coefficients of A^(k) * A in element-index order: at g, the number of
    arm pairs (a, b) with k*a + b = g, counted on carry-free codes."""
    weights, fold = group.sum_codes()
    codes = [sum(map(operator.mul, t, weights)) for t in arms]
    counts = [0] * group.order
    for t in arms:
        a = sum(map(operator.mul, group.scale(t, k), weights))
        for b in codes:
            counts[fold[a + b]] += 1
    return counts


def _inclusion_exclusion_count(p: MultiplicityProfile) -> int:
    """4n + 1 plus the net inclusion-exclusion contribution (s - 1)(s - 2) / 2
    of each element covered s >= 3 times."""
    return 4 * p.n + 1 + sum((s - 1) * (s - 2) // 2 * c for s, c in p.histogram.items() if s >= 3)


def _common_checks(p: MultiplicityProfile, k: int) -> list[IdentityCheck]:
    """The two identities every profile satisfies, whatever its k: class
    sizes cover the group, and the weighted sum equals (2n+1)^2."""
    if p.k != k:
        raise ValueError(f"expected a k={k} profile, got k={p.k}")
    return [
        IdentityCheck("class-sizes-cover-group", "==", p.total(), radius2_group_order(p.n)),
        IdentityCheck("weighted-class-sum", "==", p.weighted_sum(), (2 * p.n + 1) ** 2),
    ]


def check_identities_k2(p: MultiplicityProfile) -> IdentityReport:
    """The three exact identities of the k = 2 profile: the two common ones,
    and the distinct-element count matches the inclusion-exclusion
    expansion."""
    checks = _common_checks(p, 2)
    checks.append(
        IdentityCheck("distinct-element-count", "==", p.support_count(), _inclusion_exclusion_count(p))
    )
    return IdentityReport(tuple(checks))


def check_identities_k4(p: MultiplicityProfile) -> tuple[DeltaReport, IdentityReport]:
    """k = 4 identities.  The overlap correction is solved from the
    distinct-element identity (single source of truth); the [-2n, 0]
    bracket and the small-class lower bound are then checked.  A bracket
    violation on a verified candidate would signal an implementation bug,
    so it is reported, not raised."""
    checks = _common_checks(p, 4)
    n = p.n
    delta = p.support_count() - _inclusion_exclusion_count(p)
    small = 2 * p.class_size(1) + 3 * p.class_size(2) + 3 * p.class_size(3) + 2 * p.class_size(4)
    checks.append(IdentityCheck("delta-within-bounds", "within", delta, (-2 * n, 0)))
    checks.append(IdentityCheck("small-class-lower-bound", ">=", small, 4 * n * n + 6 * n + 2))
    return DeltaReport(n=n, delta=delta), IdentityReport(tuple(checks))


def _exact_div(numerator: int, divisor: int, what: str) -> int:
    q, r = divmod(numerator, divisor)
    if r:
        raise ValueError(f"{what} is not divisible by {divisor}: {numerator}")
    return q


def predicted_profile_mod3(n: int) -> PredictedProfile:
    """Profile class sizes forced by reducing the k = 2 product mod 3.

    For n = 1 mod 3 the histogram is pinned completely (classes 0..3), for
    n = 2 mod 3 likewise (classes 0..4 with an empty 0-class).  For
    n = 0 mod 3 only the sums over coefficient residue classes mod 3 are
    forced.  Divisibility of the closed forms is asserted, never floored.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"predicted profiles need an int n >= 2, got {n!r}")
    r = n % 3
    if r == 1:
        x0 = _exact_div(2 * n * (n - 1), 3, "class-0 size")
        x3 = _exact_div(4 * n * (n - 1), 3, "class-3 size")
        hist = {0: x0, 1: 1, 2: 4 * n, 3: x3}
    elif r == 2:
        x1 = _exact_div(4 * n * n - 2 * n + 3, 3, "class-1 size")
        x4 = _exact_div(2 * n * n - 4 * n, 3, "class-4 size")
        hist = {0: 0, 1: x1, 2: 2 * n, 3: 2 * n, 4: x4}
    else:
        return PredictedProfile(
            n=n,
            residue_class_sums={0: 0, 1: 2 * n + 1, 2: 2 * n * n},
        )
    for i, c in hist.items():
        if c < 0:
            raise ValueError(f"negative predicted class size {c} at index {i}")
    return PredictedProfile(n=n, histogram=hist)
