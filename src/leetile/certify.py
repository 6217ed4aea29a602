"""Per-dimension nonexistence certificates for radius-2 lattice tilings.

Every n >= 3 falls into exactly one of ten branches keyed by (n mod 3,
n mod 5).  Each branch carries a quadratic polynomial q(n) that any tiling
would force to satisfy q(n) <= 0, together with a threshold: for n above
the threshold the certificate simply evaluates q(n) > 0 and records the
contradiction, while the handful of dimensions at or below the threshold
are settled by an embedded verdict table for 3 <= n <= 100 (or, on
request, by re-running the exhaustive search, which settles n = 3 and 4
and leaves 13, 14 and 17 as gaps).  Dimensions 1 and 2 get
existence certificates carrying the explicit constructions.

A certificate is a pure function of n (and of whether the search fallback
was asked for), so ``recheck`` derives it again from n alone and trusts no
other field.  The stored polynomial and value still let a reader re-verify
every inequality with a calculator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .abelian_groups import AbelianGroup
from .errors import LeeTileError
from .search_engine import _BUDGET_REQUIRED_FROM, search_all
from .tiling_core import TilingCandidate, check_conditions

JUSTIFICATION_INEQUALITY = "inequality"
JUSTIFICATION_TABLE = "table"
JUSTIFICATION_SEARCH = "search"
JUSTIFICATION_WITNESS = "witness"

VERDICT_NONEXISTENT = "nonexistent"
VERDICT_EXISTS = "exists-with-witness"

# Verdict table for 3 <= n <= 100: every dimension in this range is known
# to admit no tiling except eight values the table itself leaves open;
# those eight are always settled here by an inequality branch instead.
TABLE_RANGE = (3, 100)
TABLE_OPEN_CASES = frozenset({16, 21, 36, 55, 64, 66, 78, 92})

# The two real constructions.
_WITNESSES = {
    1: ((5,), ((0,), (1,), (4,))),
    2: ((13,), ((0,), (1,), (5,), (8,), (12,))),
}


@dataclass(frozen=True)
class Branch:
    """One case of the proof tree.

    ``poly`` holds (a, b, c) for q(n) = a*n^2 + b*n + c; existence of a
    tiling forces q(n) <= 0, so q(n) > 0 certifies nonexistence.
    ``threshold`` is the largest n for which q alone yields no
    contradiction and the verdict table (or a search) takes over.
    ``residues`` lists the (n mod 3, n mod 5) pairs the branch covers.
    """

    branch_id: str
    description: str
    case: Optional[str]
    poly: tuple[int, int, int]
    threshold: int
    residues: tuple[tuple[int, int], ...]
    note: Optional[str] = None

    def evaluate(self, n: int) -> int:
        a, b, c = self.poly
        return a * n * n + b * n + c

    def poly_string(self) -> str:
        a, b, c = self.poly
        return f"{a}n^2 {b:+d}n {c:+d} <= 0"


_BRANCHES = (
    Branch(
        "mod3-0",
        "cube-power congruence pins the profile; its distinct-element count forces n^2 <= 3n",
        None,
        (1, -3, 0),
        3,
        ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4)),
    ),
    Branch(
        "mod5-0",
        "fifth-power congruence case analysis on the largest multiplicity class; "
        "the surviving case forces n^2 <= 3n and the others are impossible outright",
        "top-class-size-cases",
        (1, -3, 0),
        3,
        ((1, 0), (2, 0)),  # n divisible by 15 belongs to mod3-0
    ),
    Branch(
        "mod3-1-mod5-1",
        "fourth-power profile bound against the pinned mod-3 classes",
        "mod5-1",
        (4, -64, 12),
        15,
        ((1, 1),),
    ),
    Branch(
        "mod3-1-mod5-2",
        "small-class lower bound against the pinned mod-3 classes (denominators cleared)",
        "mod5-2",
        (4, -16, -12),
        6,
        ((1, 2),),
        note="no n >= 3 in this residue class lies at or below the threshold, so the "
        "table fallback is vacuous here",
    ),
    Branch(
        "mod3-1-mod5-3",
        "small-class lower bound against the pinned mod-3 classes (denominators cleared)",
        "mod5-3",
        (8, -50, -3),
        13,
        ((1, 3),),
        note="conservative threshold: the quadratic alone bounds n <= 6, but every "
        "3 <= n <= 13 in this residue class is covered by the verdict table",
    ),
    Branch(
        "mod3-1-mod5-4",
        "small-class lower bound against the pinned mod-3 classes",
        "mod5-4",
        (2, -12, -1),
        6,
        ((1, 4),),
    ),
    Branch(
        "mod3-2-mod5-1",
        "small-class lower bound against the pinned mod-3 classes",
        "mod5-1",
        (2, -12, -1),
        6,
        ((2, 1),),
    ),
    Branch(
        "mod3-2-mod5-2",
        "weighted-sum lower bound from classes 1 and 4 of the pinned mod-3 profile",
        "mod5-2",
        (2, -46, -6),
        23,
        ((2, 2),),
    ),
    Branch(
        "mod3-2-mod5-3",
        "weighted-sum lower bound from classes 1 and 4 of the pinned mod-3 profile",
        "mod5-3",
        (10, -74, -3),
        7,
        ((2, 3),),
    ),
    Branch(
        "mod3-2-mod5-4",
        "weighted-sum lower bound from classes 1 and 4 of the pinned mod-3 profile",
        "mod5-4",
        (4, -74, -3),
        18,
        ((2, 4),),
    ),
)


_BRANCH_BY_RESIDUES = {pair: b for b in _BRANCHES for pair in b.residues}


def branch_for(n: int) -> Branch:
    """The unique branch covering dimension n >= 3."""
    if n < 3:
        raise ValueError(f"branches cover n >= 3, got {n}")
    return _BRANCH_BY_RESIDUES[n % 3, n % 5]


def table_verdict(n: int) -> Optional[str]:
    """Verdict of the embedded table, or None where the table is silent."""
    lo, hi = TABLE_RANGE
    if lo <= n <= hi and n not in TABLE_OPEN_CASES:
        return VERDICT_NONEXISTENT
    return None


@dataclass(frozen=True)
class NonexistenceCertificate:
    """Machine-checkable verdict for one dimension."""

    n: int
    residue_tags: tuple[int, int]  # (n mod 3, n mod 5)
    verdict: str
    justification: str
    branch_id: Optional[str] = None
    branch_case: Optional[str] = None
    branch_description: Optional[str] = None
    inequality: Optional[str] = None
    poly: Optional[tuple[int, int, int]] = None
    evaluated_value: Optional[int] = None
    threshold: Optional[int] = None
    note: Optional[str] = None
    witness: Optional[dict] = None
    table: Optional[dict] = None
    search: Optional[dict] = None

    def recheck(self) -> bool:
        """Derive the certificate again from ``n`` alone (re-running the
        search for a search certificate) and compare it with this one."""
        try:
            return certify(self.n, search_fallback=self.justification == JUSTIFICATION_SEARCH) == self
        except Exception:
            return False

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "residue_tags": list(self.residue_tags),
            "verdict": self.verdict,
            "justification": self.justification,
            "branch_id": self.branch_id,
            "branch_case": self.branch_case,
            "branch_description": self.branch_description,
            "inequality": self.inequality,
            "poly": list(self.poly) if self.poly else None,
            "evaluated_value": self.evaluated_value,
            "threshold": self.threshold,
            "note": self.note,
            "witness": self.witness,
            "table": self.table,
            "search": self.search,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NonexistenceCertificate":
        return cls(
            n=data["n"],
            residue_tags=tuple(data["residue_tags"]),
            verdict=data["verdict"],
            justification=data["justification"],
            branch_id=data.get("branch_id"),
            branch_case=data.get("branch_case"),
            branch_description=data.get("branch_description"),
            inequality=data.get("inequality"),
            poly=tuple(data["poly"]) if data.get("poly") else None,
            evaluated_value=data.get("evaluated_value"),
            threshold=data.get("threshold"),
            note=data.get("note"),
            witness=data.get("witness"),
            table=data.get("table"),
            search=data.get("search"),
        )


def certify(n: int, *, search_fallback: bool = False) -> NonexistenceCertificate:
    """Certificate for one dimension.

    n = 1, 2: existence with the explicit construction, re-verified here.
    n >= 3: the branch chosen by (n mod 3, n mod 5); above the branch
    threshold the instantiated inequality is decisive, otherwise the
    verdict table (or, with ``search_fallback``, a completed exhaustive
    search) supplies the verdict.
    """
    if type(n) is not int:  # 3.0 or True would otherwise pass for 3 or 1
        raise TypeError(f"dimension must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    tags = (n % 3, n % 5)
    if n in _WITNESSES:
        factors, arms = _WITNESSES[n]
        group = AbelianGroup(factors)
        candidate = TilingCandidate(group, n, arms)
        report = check_conditions(candidate)
        if not report.accepted:
            raise LeeTileError(f"stored witness for n={n} failed verification")
        return NonexistenceCertificate(
            n=n,
            residue_tags=tags,
            verdict=VERDICT_EXISTS,
            justification=JUSTIFICATION_WITNESS,
            witness={
                "group": list(group.invariant_factors),
                "group_spec": group.spec_string(),
                "arms": [list(g) for g in arms],
                "verified": True,
            },
        )
    branch = branch_for(n)
    common = dict(
        n=n,
        residue_tags=tags,
        verdict=VERDICT_NONEXISTENT,
        branch_id=branch.branch_id,
        branch_case=branch.case,
        branch_description=branch.description,
        inequality=branch.poly_string(),
        poly=branch.poly,
        threshold=branch.threshold,
        note=branch.note,
    )
    if n > branch.threshold:
        value = branch.evaluate(n)
        if value <= 0:
            raise LeeTileError(
                f"branch {branch.branch_id} claims threshold {branch.threshold} but "
                f"q({n}) = {value} yields no contradiction"
            )
        return NonexistenceCertificate(
            justification=JUSTIFICATION_INEQUALITY, evaluated_value=value, **common
        )
    if search_fallback:
        if n >= _BUDGET_REQUIRED_FROM:
            raise LeeTileError(f"search fallback cannot settle n={n}: search needs a node budget")
        outcomes = search_all(n)
        if all(o.exhausted and not o.solutions for o in outcomes):
            return NonexistenceCertificate(
                justification=JUSTIFICATION_SEARCH,
                search={"outcomes": [o.to_dict() for o in outcomes]},
                **common,
            )
        raise LeeTileError(
            f"search fallback for n={n} did not certify (incomplete or found solutions)"
        )
    if table_verdict(n) != VERDICT_NONEXISTENT:
        raise LeeTileError(f"no certificate source for n={n}: below threshold and table is silent")
    return NonexistenceCertificate(
        justification=JUSTIFICATION_TABLE,
        table={"range": list(TABLE_RANGE), "open_cases": sorted(TABLE_OPEN_CASES)},
        **common,
    )


@dataclass(frozen=True)
class CertificationSummary:
    """The certificates found for [lo, hi]; every n in the range without
    one is a gap."""

    lo: int
    hi: int
    certificates: tuple[NonexistenceCertificate, ...]

    @property
    def counts(self) -> dict[str, int]:
        """Certificates per justification, keyed in order of first use."""
        return dict(Counter(c.justification for c in self.certificates))

    @property
    def gaps(self) -> tuple[int, ...]:
        certified = {c.n for c in self.certificates}
        return tuple(n for n in range(self.lo, self.hi + 1) if n not in certified)

    @property
    def complete(self) -> bool:
        return not self.gaps

    def to_dict(self) -> dict:
        gaps = self.gaps
        return {
            "lo": self.lo,
            "hi": self.hi,
            "counts": self.counts,
            "complete": not gaps,
            "gaps": list(gaps),
            "certificates": [c.to_dict() for c in self.certificates],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CertificationSummary":
        return cls(
            lo=data["lo"],
            hi=data["hi"],
            certificates=tuple(
                NonexistenceCertificate.from_dict(c) for c in data["certificates"]
            ),
        )


def certify_range(lo: int, hi: int, *, search_fallback: bool = False) -> CertificationSummary:
    """Certificates for every n in [lo, hi], lo >= 3.  Any dimension that
    cannot be certified is recorded as a gap instead of being skipped."""
    if not 3 <= lo <= hi:
        raise ValueError(f"need 3 <= lo <= hi, got lo={lo}, hi={hi}")
    certificates = []
    for n in range(lo, hi + 1):
        try:
            certificates.append(certify(n, search_fallback=search_fallback))
        except LeeTileError:
            pass  # no certificate: n shows up in ``gaps``
    return CertificationSummary(lo=lo, hi=hi, certificates=tuple(certificates))
