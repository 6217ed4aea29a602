"""Value semantics of the package's records: equality and hashing by field,
the ``Name(field=value, ...)`` repr, and no assignment or deletion."""

import pytest

from leetile import (
    AbelianGroup,
    CertificationSummary,
    DeltaReport,
    IdentityReport,
    LatticeBasis,
    MultiplicityProfile,
    NonexistenceCertificate,
    PredictedProfile,
    SearchOutcome,
    TilingCandidate,
    VerificationReport,
)
from leetile.certify import Branch
from leetile.profiles import IdentityCheck

Z5 = AbelianGroup((5,))
CHECK = IdentityCheck("weighted-class-sum", "==", 9, 9)
CHECK_REPR = "IdentityCheck(name='weighted-class-sum', relation='==', lhs=9, rhs=9)"
CERT_3 = NonexistenceCertificate(3, "table")
CERT_3_REPR = "NonexistenceCertificate(n=3, justification='table', search=None)"

# (value factory, a value of the same class that differs in one field, the
# fields, the repr, whether it hashes)
CASES = {
    "AbelianGroup": (
        lambda: AbelianGroup([5, 5]),
        AbelianGroup((25,)),
        ("invariant_factors",),
        "AbelianGroup(invariant_factors=(5, 5))",
        True,
    ),
    "LatticeBasis": (
        lambda: LatticeBasis([[2, 1], [-1, 2]]),
        LatticeBasis(((2, 1), (1, 2))),
        ("rows",),
        "LatticeBasis(rows=((2, 1), (-1, 2)))",
        True,
    ),
    "TilingCandidate": (
        lambda: TilingCandidate(Z5, 1, ((4,), (0,), (1,))),
        TilingCandidate(Z5, 1, ((0,), (2,), (3,))),
        ("group", "n", "arms"),
        "TilingCandidate(group=AbelianGroup(invariant_factors=(5,)), n=1, arms=((0,), (1,), (4,)))",
        True,
    ),
    "VerificationReport": (
        lambda: VerificationReport(False, "order"),
        VerificationReport(False, "size"),
        ("accepted", "failed_condition", "witness"),
        "VerificationReport(accepted=False, failed_condition='order', witness=None)",
        True,
    ),
    "VerificationReport-witness": (
        lambda: VerificationReport(False, "collision", {"coset": [3]}),
        VerificationReport(False, "collision", {"coset": [4]}),
        ("accepted", "failed_condition", "witness"),
        "VerificationReport(accepted=False, failed_condition='collision', witness={'coset': [3]})",
        False,
    ),
    "SearchOutcome": (
        lambda: SearchOutcome(Z5, 1, (((0,), (1,), (4,)),), 1, True),
        SearchOutcome(Z5, 1, (((0,), (1,), (4,)),), 1, False),
        ("group", "n", "solutions", "nodes_explored", "exhausted"),
        "SearchOutcome(group=AbelianGroup(invariant_factors=(5,)), n=1, "
        "solutions=(((0,), (1,), (4,)),), nodes_explored=1, exhausted=True)",
        True,
    ),
    "Branch": (
        lambda: Branch("b", "d", None, (1, -3, 0), 3, ((0, 0),)),
        Branch("b", "d", None, (1, -3, 0), 3, ((0, 0),), note="x"),
        ("branch_id", "description", "case", "poly", "threshold", "residues", "note"),
        "Branch(branch_id='b', description='d', case=None, poly=(1, -3, 0), threshold=3, "
        "residues=((0, 0),), note=None)",
        True,
    ),
    "NonexistenceCertificate": (
        lambda: NonexistenceCertificate(16, "inequality"),
        NonexistenceCertificate(17, "inequality"),
        ("n", "justification", "search"),
        "NonexistenceCertificate(n=16, justification='inequality', search=None)",
        True,
    ),
    "CertificationSummary": (
        lambda: CertificationSummary(3, 30, (CERT_3,)),
        CertificationSummary(3, 31, (CERT_3,)),
        ("lo", "hi", "low"),
        f"CertificationSummary(lo=3, hi=30, low=({CERT_3_REPR},))",
        True,
    ),
    "MultiplicityProfile": (
        lambda: MultiplicityProfile(k=2, n=1, histogram={0: 1, 1: 1, 2: 2, 3: 1}),
        MultiplicityProfile(k=4, n=1, histogram={0: 1, 1: 1, 2: 2, 3: 1}),
        ("k", "n", "histogram"),
        "MultiplicityProfile(k=2, n=1, histogram={0: 1, 1: 1, 2: 2, 3: 1})",
        False,
    ),
    "IdentityCheck": (
        lambda: IdentityCheck("weighted-class-sum", "==", 9, 9),
        IdentityCheck("weighted-class-sum", "==", 9, 8),
        ("name", "relation", "lhs", "rhs"),
        CHECK_REPR,
        True,
    ),
    "IdentityReport": (
        lambda: IdentityReport((CHECK,)),
        IdentityReport(()),
        ("checks",),
        f"IdentityReport(checks=({CHECK_REPR},))",
        True,
    ),
    "DeltaReport": (
        lambda: DeltaReport(n=2, delta=-1),
        DeltaReport(n=2, delta=0),
        ("n", "delta"),
        "DeltaReport(n=2, delta=-1)",
        True,
    ),
    "PredictedProfile": (
        lambda: PredictedProfile(n=3),
        PredictedProfile(n=6),
        ("n", "histogram", "residue_class_sums"),
        "PredictedProfile(n=3, histogram=None, residue_class_sums=None)",
        True,
    ),
    "PredictedProfile-histogram": (
        lambda: PredictedProfile(n=4, histogram={0: 8, 1: 1, 2: 16, 3: 16}),
        PredictedProfile(n=4, histogram={0: 8, 1: 1, 2: 16, 3: 15}),
        ("n", "histogram", "residue_class_sums"),
        "PredictedProfile(n=4, histogram={0: 8, 1: 1, 2: 16, 3: 16}, residue_class_sums=None)",
        False,
    ),
}


class _Other:
    """A record of another class with the same fields."""

    def __init__(self, value, fields):
        for name in fields:
            setattr(self, name, getattr(value, name))


@pytest.mark.parametrize("case", CASES)
def test_value_semantics(case):
    make, variant, fields, text, hashable = CASES[case]
    value, twin = make(), make()
    assert value is not twin and value == twin and not value != twin
    assert value != variant and variant != value
    # equality holds within one class only
    other = _Other(value, fields)
    assert value.__eq__(other) is NotImplemented
    assert value != other and value != tuple(getattr(value, name) for name in fields)
    if hashable:
        assert hash(value) == hash(twin) == hash(tuple(getattr(value, name) for name in fields))
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert repr(value) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin
