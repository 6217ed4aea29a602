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

A certificate stores n, its justification and any search outcomes; every
other field is derived from n.  ``recheck`` derives it again from n alone
(re-running a search) and trusts no stored field.  The written polynomial
and value let a reader re-verify every inequality with a calculator.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
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

    @property
    def inequality(self) -> str:
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


@dataclass(frozen=True, slots=True)
class NonexistenceCertificate:
    """Machine-checkable verdict for one dimension.

    Only ``n``, the justification and, for a search certificate, the search
    outcomes are stored; every other field is derived from n.
    """

    n: int
    justification: str
    search: Optional[dict] = None

    @property
    def residue_tags(self) -> tuple[int, int]:
        return (self.n % 3, self.n % 5)

    @property
    def verdict(self) -> str:
        return VERDICT_EXISTS if self.n in _WITNESSES else VERDICT_NONEXISTENT

    @property
    def _branch(self) -> Optional[Branch]:
        """The branch covering n; None for n = 1, 2."""
        return None if self.n in _WITNESSES else branch_for(self.n)

    branch_id = property(lambda self: getattr(self._branch, "branch_id", None))
    branch_case = property(lambda self: getattr(self._branch, "case", None))
    inequality = property(lambda self: getattr(self._branch, "inequality", None))
    poly = property(lambda self: getattr(self._branch, "poly", None))
    threshold = property(lambda self: getattr(self._branch, "threshold", None))
    note = property(lambda self: getattr(self._branch, "note", None))

    @property
    def evaluated_value(self) -> Optional[int]:
        """q(n) where n lies above its branch threshold, else None."""
        branch = self._branch
        return branch.evaluate(self.n) if branch and self.n > branch.threshold else None

    @property
    def witness(self) -> Optional[dict]:
        if self.n not in _WITNESSES:
            return None
        factors, arms = _WITNESSES[self.n]
        group = AbelianGroup(factors)
        return {"group": list(group.invariant_factors), "group_spec": group.spec_string(),
                "arms": [list(g) for g in arms], "verified": True}

    def recheck(self) -> bool:
        """Derive the certificate again from ``n`` alone (re-running the
        search for a search certificate) and compare it with this one."""
        try:
            return certify(self.n, search_fallback=self.justification == JUSTIFICATION_SEARCH) == self
        except Exception:
            return False

    def to_dict(self) -> dict:
        table = self.justification == JUSTIFICATION_TABLE
        return {
            "n": self.n,
            "residue_tags": list(self.residue_tags),
            "verdict": self.verdict,
            "justification": self.justification,
            "branch_id": self.branch_id,
            "branch_case": self.branch_case,
            "branch_description": getattr(self._branch, "description", None),
            "inequality": self.inequality,
            "poly": list(self.poly) if self.poly else None,
            "evaluated_value": self.evaluated_value,
            "threshold": self.threshold,
            "note": self.note,
            "witness": self.witness,
            "table": {"range": list(TABLE_RANGE), "open_cases": sorted(TABLE_OPEN_CASES)} if table else None,
            "search": self.search,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NonexistenceCertificate":
        """Rebuild a certificate from ``n``, ``justification`` and ``search``.

        Raises ValueError unless ``data`` is ``to_dict()`` of ``certify(n)``,
        or of a search certificate where ``certify(n)`` is a table one, down
        to JSON types (``12.0`` is not ``12``).  The search outcomes
        themselves are checked only by ``recheck``.
        """
        if not isinstance(data, dict) or type(data.get("n")) is not int or data["n"] < 1:
            raise ValueError(f"a certificate needs an int n >= 1, got {data!r:.80}")
        cert = cls(data["n"], data.get("justification"), data.get("search"))
        settled = certify(cert.n)
        if settled.justification == JUSTIFICATION_TABLE and isinstance(cert.search, dict):
            settled = cls(cert.n, JUSTIFICATION_SEARCH, cert.search)  # only recheck runs the search
        if cert != settled or not _same_json(cert.to_dict(), data):
            raise ValueError(f"certificate for n={cert.n} has fields that do not follow from n")
        return cert


def _same_json(a, b) -> bool:
    """Equality of JSON values, type-exact: unlike ``==`` it tells 12.0
    from 12 and true from 1."""
    try:
        return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    except (TypeError, ValueError):  # not JSON: unserializable or circular
        return False


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
    if n in _WITNESSES:
        factors, arms = _WITNESSES[n]
        if not check_conditions(TilingCandidate(AbelianGroup(factors), n, arms)).accepted:
            raise LeeTileError(f"stored witness for n={n} failed verification")
        return NonexistenceCertificate(n, JUSTIFICATION_WITNESS)
    branch = branch_for(n)
    if n > branch.threshold:
        value = branch.evaluate(n)
        if value <= 0:
            raise LeeTileError(
                f"branch {branch.branch_id} claims threshold {branch.threshold} but "
                f"q({n}) = {value} yields no contradiction"
            )
        return NonexistenceCertificate(n, JUSTIFICATION_INEQUALITY)
    if search_fallback:
        if n >= _BUDGET_REQUIRED_FROM:
            raise LeeTileError(f"search fallback cannot settle n={n}: search needs a node budget")
        outcomes = search_all(n)
        if all(o.exhausted and not o.solutions for o in outcomes):
            return NonexistenceCertificate(
                n, JUSTIFICATION_SEARCH, {"outcomes": [o.to_dict() for o in outcomes]}
            )
        raise LeeTileError(
            f"search fallback for n={n} did not certify (incomplete or found solutions)"
        )
    return NonexistenceCertificate(n, JUSTIFICATION_TABLE)


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

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        certified = {c.n for c in self.certificates}
        return tuple(n for n in range(self.lo, self.hi + 1) if n not in certified)

    @property
    def complete(self) -> bool:
        return not self.gaps

    def _head(self) -> dict:
        """Every field but the certificates."""
        return {"lo": self.lo, "hi": self.hi, "counts": self.counts, "complete": self.complete, "gaps": list(self.gaps)}

    def to_dict(self) -> dict:
        return {**self._head(), "certificates": [c.to_dict() for c in self.certificates]}

    @classmethod
    def from_dict(cls, data: dict) -> "CertificationSummary":
        """Rebuild a summary from ``lo``, ``hi`` and its certificates.

        Raises ValueError unless the certificates are for distinct n in
        [lo, hi] in increasing order and ``counts``, ``gaps`` and
        ``complete`` are the ones they give, down to JSON types.  Every n
        in [lo, hi] has a certificate or a gap entry, so the work is
        bounded by the size of the input, however large hi - lo is.
        """
        if not isinstance(data, dict) or not isinstance(data.get("certificates"), list):
            raise ValueError(f"a summary needs a list of certificates, got {data!r:.80}")
        lo, hi = data.get("lo"), data.get("hi")
        if type(lo) is not int or type(hi) is not int or not 3 <= lo <= hi:
            raise ValueError(f"a summary needs ints 3 <= lo <= hi, got lo={lo!r}, hi={hi!r}")
        if not isinstance(data.get("gaps"), list) or len(data["certificates"]) + len(data["gaps"]) != hi - lo + 1:
            raise ValueError(f"summary for [{lo}, {hi}] needs one certificate or gap per dimension")
        summary = cls(lo, hi, tuple(NonexistenceCertificate.from_dict(c) for c in data["certificates"]))
        ns = [lo - 1, *(c.n for c in summary.certificates), hi + 1]
        if any(a >= b for a, b in zip(ns, ns[1:])) or not _same_json(summary.to_dict(), data):
            raise ValueError(f"summary for [{lo}, {hi}] has fields that do not follow from its certificates")
        return summary


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


# Two inequality or table certificates of one branch differ only in n, the
# residue tags and the evaluated value, so each (justification, branch) is
# encoded once with these markers in their place and the text is reused.
_MARKERS = ("\0n", "\0r3", "\0r5", "\0value")

# Certificates per write of ``_write_summary_json``: about 600 KB of text,
# so a long range is never held in memory as one string.
_JSON_CHUNK = 1000


def _template(cert: NonexistenceCertificate, pad: str) -> list[str]:
    """The text around the marked values of ``cert``, every line after the
    first indented by ``pad``."""
    n, r3, r5, value = _MARKERS
    data = {**cert.to_dict(), "n": n, "residue_tags": [r3, r5], "evaluated_value": value}
    rest = json.dumps(data, indent=2).replace("\n", "\n" + pad)
    pieces = []
    for marker in _MARKERS:
        head, rest = rest.split(json.dumps(marker), 1)
        pieces.append(head)
    return pieces + [rest]


def _certificate_json(certificates, pad: str = ""):
    """Yield ``json.dumps(c.to_dict(), indent=2)`` of each certificate,
    every line after the first indented by ``pad``.  Witness and search
    certificates carry data that depends on n and are encoded whole."""
    templates = {}
    for c in certificates:
        if c.justification in (JUSTIFICATION_WITNESS, JUSTIFICATION_SEARCH):
            yield json.dumps(c.to_dict(), indent=2).replace("\n", "\n" + pad)
            continue
        n = c.n
        r3, r5 = n % 3, n % 5
        branch = _BRANCH_BY_RESIDUES[r3, r5]
        key = (c.justification, branch.branch_id)
        pieces = templates.get(key)
        if pieces is None:
            pieces = templates[key] = _template(c, pad)
        p0, p1, p2, p3, p4 = pieces
        value = branch.evaluate(n) if n > branch.threshold else "null"
        yield f"{p0}{n}{p1}{r3}{p2}{r5}{p3}{value}{p4}"


def _write_summary_json(summary: CertificationSummary, out) -> None:
    """Write ``json.dumps(summary.to_dict(), indent=2)`` to the text stream
    ``out``: the head, then the certificates ``_JSON_CHUNK`` at a time,
    then the closing brackets."""
    head = json.dumps({**summary._head(), "certificates": []}, indent=2)
    if not summary.certificates:
        out.write(head)
        return
    lead = head[: -len("[]\n}")] + "[\n    "
    texts = _certificate_json(summary.certificates, "    ")
    while chunk := list(islice(texts, _JSON_CHUNK)):
        out.write(lead + ",\n    ".join(chunk))
        lead = ",\n    "
    out.write("\n  ]\n}")
