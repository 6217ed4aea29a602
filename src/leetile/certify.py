"""Per-dimension nonexistence certificates for radius-2 lattice tilings.

Every n >= 3 falls into exactly one of ten branches keyed by (n mod 3,
n mod 5).  Each branch carries a quadratic polynomial q(n) that any tiling
would force to satisfy q(n) <= 0, together with a threshold.  Building a
branch proves, in exact integers, that q(n) > 0 for every n above its
threshold, so there the certificate needs no check per dimension: it
records the contradiction q(n) > 0.  The handful of dimensions at or below
a threshold are settled by an embedded verdict table for 3 <= n <= 100
(or, on request, by re-running the exhaustive search, which settles n = 3
and 4 and leaves 13, 14 and 17 as gaps).  Dimensions 1 and 2 are settled
by the same search, always: its first solution is the witness of an
existence certificate.

A certificate stores n, its justification and any search outcomes; every
other field is derived from n.  Search outcomes are stored only at n = 1
to 4, where the search is quick, so every certificate is a function of n
and of whether the search fallback was used.  ``recheck`` and both readers derive it again
from those alone and trust no stored field.  The written
polynomial and value let a reader re-verify every inequality with a
calculator.

Above the largest branch threshold, n = 23, the certificate is the
inequality one, a function of n alone.  So a range summary stores only the
certificates at or below n = 23, and its gaps, counts and ``--json`` text
do no work per dimension above it.
"""

from __future__ import annotations

import json
import reprlib
from collections import Counter
from contextlib import suppress

from ._record import Record
from .errors import LeeTileError
from .search_engine import SearchOutcome, search_all

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


class Branch(Record):
    """One case of the proof tree.

    ``poly`` holds (a, b, c) for q(n) = a*n^2 + b*n + c; existence of a
    tiling forces q(n) <= 0, so q(n) > 0 certifies nonexistence.
    ``threshold`` is the largest n at which the verdict table (or a
    search) takes over from q.  It need not be where q turns positive:
    two thresholds are conservative, as q(13) = 699 on mod3-1-mod5-3 and
    q(6) = 36 on mod3-1-mod5-2 are already positive.  Building a branch
    proves q(n) > 0 for every n above it.  ``residues`` lists the
    (n mod 3, n mod 5) pairs the branch covers.
    """

    _fields = ("branch_id", "description", "case", "poly", "threshold", "residues", "note")

    def __init__(
        self,
        branch_id: str,
        description: str,
        case: str | None,
        poly: tuple[int, int, int],
        threshold: int,
        residues: tuple[tuple[int, int], ...],
        note: str | None = None,
    ):
        """Prove q(n) > 0 for every n > threshold, or raise ValueError.

        With t = threshold + 1: q(n + 1) - q(n) = 2an + a + b grows with n
        when a > 0, so if it is positive at t it is positive for all
        n >= t, and q(t) > 0 then carries to every n >= t.
        """
        self.__dict__.update(
            branch_id=branch_id,
            description=description,
            case=case,
            poly=poly,
            threshold=threshold,
            residues=residues,
            note=note,
        )
        a, b, _ = poly
        t = threshold + 1
        if not (a > 0 and self.evaluate(t) > 0 and 2 * a * t + a + b > 0):
            raise ValueError(f"branch {branch_id}: q(n) > 0 does not follow for every n > {threshold}")

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

# Above this n every branch is decided by its inequality.
_TOP_THRESHOLD = max(b.threshold for b in _BRANCHES)


def branch_for(n: int) -> Branch:
    """The unique branch covering dimension n >= 3."""
    if n < 3:
        raise ValueError(f"branches cover n >= 3, got {n}")
    return _BRANCH_BY_RESIDUES[n % 3, n % 5]


class NonexistenceCertificate(Record):
    """Machine-checkable verdict for one dimension.

    Its fields are ``n``, the justification and, for a search or witness
    certificate, the search outcomes it was built from; every other
    attribute is a property derived from them.  The fields are slots, so
    an instance holds no ``__dict__``.
    """

    _fields = __slots__ = ("n", "justification", "search")

    def __init__(self, n: int, justification: str, search: tuple[SearchOutcome, ...] | None = None):
        _set = object.__setattr__
        _set(self, "n", n)
        _set(self, "justification", justification)
        _set(self, "search", search)

    @property
    def residue_tags(self) -> tuple[int, int]:
        return (self.n % 3, self.n % 5)

    @property
    def verdict(self) -> str:
        return VERDICT_EXISTS if self.justification == JUSTIFICATION_WITNESS else VERDICT_NONEXISTENT

    @property
    def _branch(self) -> Branch | None:
        """The branch covering n; None for n = 1, 2."""
        return None if self.n < 3 else branch_for(self.n)

    branch_id = property(lambda self: getattr(self._branch, "branch_id", None))
    branch_case = property(lambda self: getattr(self._branch, "case", None))
    inequality = property(lambda self: getattr(self._branch, "inequality", None))
    poly = property(lambda self: getattr(self._branch, "poly", None))
    threshold = property(lambda self: getattr(self._branch, "threshold", None))
    note = property(lambda self: getattr(self._branch, "note", None))

    @property
    def evaluated_value(self) -> int | None:
        """q(n) where n lies above its branch threshold, else None."""
        branch = self._branch
        return branch.evaluate(self.n) if branch and self.n > branch.threshold else None

    @property
    def witness(self) -> dict | None:
        """The first solution of the stored search, which the search has
        passed through the verifier; None when it found none."""
        for o in self.search or ():
            if o.solutions:
                return {"group": list(o.group.invariant_factors), "group_spec": o.group.spec_string(),
                        "arms": [list(g) for g in o.solutions[0]], "verified": True}
        return None

    def recheck(self) -> bool:
        """Derive the certificate again from ``n`` alone (re-running the
        search for a search or witness certificate) and compare it with
        this one."""
        try:
            return certify(self.n, search_fallback=self.justification == JUSTIFICATION_SEARCH) == self
        except (TypeError, ValueError, LeeTileError):  # an invalid n
            return False

    def to_dict(self) -> dict:
        table = self.justification == JUSTIFICATION_TABLE
        search = self.justification == JUSTIFICATION_SEARCH
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
            "search": {"outcomes": [o.to_dict() for o in self.search]} if search else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NonexistenceCertificate":
        """Rebuild a certificate from ``n`` and whether it is a search one.

        Returns ``certify(n, search_fallback=...)``, the fallback on for a
        ``"search"`` justification, and raises ValueError unless its
        ``to_dict()`` equals ``data`` in a single comparison down to JSON
        types, or unless ``certify`` cannot settle n that way.
        """
        if not isinstance(data, dict) or type(data.get("n")) is not int or data["n"] < 1:
            raise ValueError(f"a certificate needs an int n >= 1, got {reprlib.repr(data)}")
        n = data["n"]
        try:
            cert = certify(n, search_fallback=data.get("justification") == JUSTIFICATION_SEARCH)
        except LeeTileError as exc:
            raise ValueError(f"certificate for n={n}: {exc}") from None
        if not _same_json(cert.to_dict(), data):
            raise ValueError(f"certificate for n={n} has fields that do not follow from n")
        return cert


def _same_json(a, b) -> bool:
    """Equality of JSON values, type-exact: unlike ``==`` it tells 12.0
    from 12 and true from 1."""
    try:
        return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    except (TypeError, ValueError, RecursionError):  # not JSON: unserializable, circular or too deep
        return False


def certify(n: int, *, search_fallback: bool = False) -> NonexistenceCertificate:
    """Certificate for one dimension.

    n >= 3: the branch chosen by (n mod 3, n mod 5); above the branch
    threshold the instantiated inequality is decisive, otherwise the
    verdict table supplies the verdict.  n = 1, 2, and with
    ``search_fallback`` the n the table would settle: the exhaustive
    search, whose first solution is an existence witness and which, run
    to the end in every group with none, certifies nonexistence.
    """
    if type(n) is not int:  # 3.0 or True would otherwise pass for 3 or 1
        raise TypeError(f"dimension must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n >= 3:
        if n > branch_for(n).threshold:  # so q(n) > 0, as the branch proved when built
            return NonexistenceCertificate(n, JUSTIFICATION_INEQUALITY)
        if not search_fallback:
            return NonexistenceCertificate(n, JUSTIFICATION_TABLE)
    try:
        outcomes = tuple(search_all(n))
    except ValueError as exc:  # n >= 7 needs a node budget
        raise LeeTileError(f"search fallback cannot settle n={n}: {exc}") from None
    if any(o.solutions for o in outcomes):
        return NonexistenceCertificate(n, JUSTIFICATION_WITNESS, outcomes)
    if all(o.exhausted for o in outcomes):
        return NonexistenceCertificate(n, JUSTIFICATION_SEARCH, outcomes)
    raise LeeTileError(f"search fallback for n={n} did not certify (incomplete)")


class CertificationSummary(Record):
    """The certificates for [lo, hi].  Its fields are lo, hi and ``low``,
    the certificates at or below the top branch threshold in increasing n:
    every n above it has the inequality certificate, a function of n
    alone, so the summary does no work per dimension there unless a caller
    asks for ``certificates``."""

    _fields = ("lo", "hi", "low")

    def __init__(self, lo: int, hi: int, low: tuple[NonexistenceCertificate, ...]):
        self.__dict__.update(lo=lo, hi=hi, low=low)

    @property
    def _above(self) -> range:
        """The n of the range above the top branch threshold."""
        return range(max(self.lo, _TOP_THRESHOLD + 1), self.hi + 1)

    @property
    def gaps(self) -> tuple[int, ...]:
        """The n of the range without a certificate, all at or below the
        top branch threshold."""
        made = {c.n for c in self.low}
        return tuple(n for n in range(self.lo, min(self.hi, _TOP_THRESHOLD) + 1) if n not in made)

    @property
    def certificates(self) -> tuple[NonexistenceCertificate, ...]:
        """Every certificate, in increasing n, made anew on each call."""
        return self.low + tuple(NonexistenceCertificate(n, JUSTIFICATION_INEQUALITY) for n in self._above)

    @property
    def counts(self) -> dict[str, int]:
        """Certificates per justification, keyed in order of first use."""
        counts = Counter(c.justification for c in self.low)
        if above := self._above:
            counts[JUSTIFICATION_INEQUALITY] += above.stop - above.start
        return dict(counts)

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
        """Rebuild a summary from ``lo``, ``hi`` and the fallback choice.

        Returns ``certify_range(lo, hi, search_fallback=...)``, the fallback
        on when ``data`` has a gap or a search certificate (where neither
        shows, both settings give the same summary), and raises ValueError
        unless its head and then each of its certificates, in order, equal
        those of ``data`` down to JSON types.  Every n in [lo, hi] needs a
        certificate or a gap entry first, so the work grows with the input,
        not hi.
        """
        if not isinstance(data, dict) or not isinstance(data.get("certificates"), list):
            raise ValueError(f"a summary needs a list of certificates, got {reprlib.repr(data)}")
        lo, hi, certs, gaps = data.get("lo"), data.get("hi"), data["certificates"], data.get("gaps")
        if type(lo) is not int or type(hi) is not int or not 3 <= lo <= hi:
            raise ValueError(f"a summary needs ints 3 <= lo <= hi, got {reprlib.repr((lo, hi))}")
        if not isinstance(gaps, list) or len(certs) + len(gaps) != hi - lo + 1:
            raise ValueError(f"summary for [{lo}, {hi}] needs one certificate or gap per dimension")
        search_fallback = bool(gaps) or any(
            isinstance(c, dict) and c.get("justification") == JUSTIFICATION_SEARCH for c in certs
        )
        summary = certify_range(lo, hi, search_fallback=search_fallback)
        head = {k: v for k, v in data.items() if k != "certificates"}
        if not _same_json(summary._head(), head):
            raise ValueError(f"summary for [{lo}, {hi}] has a head that does not follow from lo and hi")
        # the heads agree, so there are as many certificates as the summary has
        for cert, entry in zip(summary.certificates, certs):
            if not _same_json(cert.to_dict(), entry):
                raise ValueError(f"summary for [{lo}, {hi}]: certificate for n={cert.n} does not follow from n")
        return summary


def certify_range(lo: int, hi: int, *, search_fallback: bool = False) -> CertificationSummary:
    """Certificates for every n in [lo, hi], lo >= 3.  Any dimension that
    cannot be certified is recorded as a gap instead of being skipped.

    Runs ``certify(n, search_fallback=...)`` at or below the top branch
    threshold only, so the cost does not grow with hi.  Every n above it
    has the inequality certificate, as each branch proved when built, so
    gaps come only from a search fallback that cannot finish.
    """
    if type(lo) is not int or type(hi) is not int:
        raise TypeError(f"range bounds must be ints, got lo={lo!r}, hi={hi!r}")
    if not 3 <= lo <= hi:
        raise ValueError(f"need 3 <= lo <= hi, got lo={lo}, hi={hi}")
    low = []
    for n in range(lo, min(hi, _TOP_THRESHOLD) + 1):
        with suppress(LeeTileError):  # n is a gap
            low.append(certify(n, search_fallback=search_fallback))
    return CertificationSummary(lo, hi, tuple(low))


# Two inequality certificates with the same n % 15, so of one branch and
# with the same residue tags, differ only in n and the evaluated value, so
# each residue class is encoded once with these markers in their place and
# the text is reused.
_MARKERS = ("\0n", "\0value")

# Certificates per write of ``certify --range --json``: about 59 KB of text,
# under the 128 KiB that ``cli._write_pieces`` keeps each write below.  At
# 1000 (about 590 KB) the buffers of every piece were mapped anew, at about
# 7,900 minor page faults per 3:30000 summary.
_JSON_CHUNK = 100


def _template(n: int, pad: str) -> tuple:
    """(head, middle, tail, a, b, c): the text of the inequality certificate
    for n, every line after the first indented by ``pad``, split around n
    and the evaluated value, and its branch's q(n) = a*n^2 + b*n + c.  It
    serves every n above the top branch threshold with the same n % 15."""
    cert = NonexistenceCertificate(n, JUSTIFICATION_INEQUALITY)
    marker_n, marker_value = _MARKERS
    data = {**cert.to_dict(), "n": marker_n, "evaluated_value": marker_value}
    text = json.dumps(data, indent=2).replace("\n", "\n" + pad)
    head, rest = text.split(json.dumps(marker_n), 1)
    middle, tail = rest.split(json.dumps(marker_value), 1)
    return (head, middle, tail, *cert.poly)


def _certificate_json(summary: CertificationSummary, pad: str = ""):
    """Yield ``json.dumps(c.to_dict(), indent=2)`` of each certificate of
    ``summary``, every line after the first indented by ``pad``.

    The stored certificates, at or below the top branch threshold, are
    encoded whole.  Above it the writer makes no certificate per n: it
    fills the template of n % 15 with n and q(n), and makes one
    certificate per template only, to build it from.
    """
    indent = "\n" + pad
    for cert in summary.low:
        yield json.dumps(cert.to_dict(), indent=2).replace("\n", indent)
    templates = [None] * 15
    for n in summary._above:
        template = templates[n % 15]
        if template is None:
            template = templates[n % 15] = _template(n, pad)
        head, middle, tail, a, b, c = template
        yield f"{head}{n}{middle}{a * n * n + b * n + c}{tail}"

