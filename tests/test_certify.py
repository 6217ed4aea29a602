import dataclasses
import json

import pytest

from leetile import (
    AbelianGroup,
    LeeTileError,
    NonexistenceCertificate,
    TilingCandidate,
    branch_for,
    certify,
    certify_range,
    check_conditions,
    table_verdict,
)
from leetile.certify import (
    _BRANCHES,
    CertificationSummary,
    JUSTIFICATION_INEQUALITY,
    JUSTIFICATION_SEARCH,
    JUSTIFICATION_TABLE,
    JUSTIFICATION_WITNESS,
    TABLE_OPEN_CASES,
    VERDICT_EXISTS,
    VERDICT_NONEXISTENT,
)

EXPECTED_THRESHOLDS = {
    "mod3-0": 3,
    "mod5-0": 3,
    "mod3-1-mod5-1": 15,
    "mod3-1-mod5-2": 6,
    "mod3-1-mod5-3": 13,
    "mod3-1-mod5-4": 6,
    "mod3-2-mod5-1": 6,
    "mod3-2-mod5-2": 23,
    "mod3-2-mod5-3": 7,
    "mod3-2-mod5-4": 18,
}


def test_witness_certificates():
    for n in (1, 2):
        cert = certify(n)
        assert cert.verdict == VERDICT_EXISTS
        assert cert.justification == JUSTIFICATION_WITNESS
        group = AbelianGroup(tuple(cert.witness["group"]))
        arms = tuple(tuple(g) for g in cert.witness["arms"])
        assert check_conditions(TilingCandidate(group, n, arms)).accepted


def test_spot_value_n16():
    cert = certify(16)
    assert cert.verdict == VERDICT_NONEXISTENT
    assert cert.justification == JUSTIFICATION_INEQUALITY
    assert cert.branch_id == "mod3-1-mod5-1"
    assert cert.poly == (4, -64, 12)
    assert cert.evaluated_value == 12


def test_spot_value_n92():
    cert = certify(92)
    assert cert.justification == JUSTIFICATION_INEQUALITY
    assert cert.branch_id == "mod3-2-mod5-2"
    assert cert.poly == (2, -46, -6)
    assert cert.evaluated_value == 12690


def test_spot_value_n28_conservative_branch():
    cert = certify(28)
    assert cert.branch_id == "mod3-1-mod5-3"
    assert cert.evaluated_value == 8 * 28 * 28 - 50 * 28 - 3 == 4869
    assert cert.note is not None


def test_table_fallbacks():
    for n in (3, 4, 13, 14, 17):
        cert = certify(n)
        assert cert.justification == JUSTIFICATION_TABLE
        assert cert.verdict == VERDICT_NONEXISTENT
        assert n <= cert.threshold


def test_residue_zero_mod5_uses_case_analysis_branch():
    cert = certify(5)
    assert cert.branch_id == "mod5-0"
    assert cert.branch_case == "top-class-size-cases"
    assert cert.justification == JUSTIFICATION_INEQUALITY
    assert cert.evaluated_value == 10  # n^2 - 3n at n = 5


def test_multiples_of_three_use_mod3_branch():
    for n in (6, 15, 30, 99):
        assert certify(n).branch_id == "mod3-0"


def test_open_cases_always_certified_by_inequality():
    for n in sorted(TABLE_OPEN_CASES):
        cert = certify(n)
        assert cert.justification == JUSTIFICATION_INEQUALITY, n
        assert cert.evaluated_value > 0


def test_branch_totality():
    for n in range(3, 3000):
        branch = branch_for(n)
        assert branch.threshold == EXPECTED_THRESHOLDS[branch.branch_id]


def test_residue_pairs_map_to_one_branch_each():
    covered = sorted(pair for b in _BRANCHES for pair in b.residues)
    assert covered == [(r3, r5) for r3 in range(3) for r5 in range(5)]


def test_threshold_members_covered_by_table():
    # every dimension a branch leaves to the table must actually be decided
    # by the table (in range, not an open case)
    table_dims = set()
    for n in range(3, max(b.threshold for b in _BRANCHES) + 1):
        if n <= branch_for(n).threshold:
            assert table_verdict(n) == VERDICT_NONEXISTENT, n
            table_dims.add(n)
    assert table_dims == {3, 4, 13, 14, 17}


def _round_trip(cert):
    return NonexistenceCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))


def test_certificates_self_check():
    for n in (1, 2, 3, 5, 13, 14, 16, 17, 28, 92, 1000, 99991):
        cert = certify(n)
        assert cert.recheck(), n
        assert _round_trip(cert).recheck(), n


def test_recheck_rejects_relabelled_existence():
    genuine = certify(2).to_dict()
    forged = dict(genuine, verdict=VERDICT_NONEXISTENT, justification=JUSTIFICATION_INEQUALITY,
                  poly=[0, 0, 1], evaluated_value=1, threshold=0, witness=None)
    assert not NonexistenceCertificate.from_dict(forged).recheck()


def test_recheck_rejects_emptied_search():
    data = certify(4, search_fallback=True).to_dict()
    data["n"] = 1
    data["search"]["outcomes"] = []
    assert not NonexistenceCertificate.from_dict(data).recheck()


def test_recheck_rejects_any_edited_field():
    cert = certify(16)
    for field, value in [("evaluated_value", 13), ("threshold", 3), ("branch_id", "mod3-0"),
                         ("residue_tags", (0, 0)), ("note", "x"), ("justification", "table")]:
        assert not dataclasses.replace(cert, **{field: value}).recheck(), field


@pytest.mark.parametrize("n", ["3", None, 0, -4, 3.5, 3.0, True])
def test_recheck_invalid_n_is_false(n):
    assert dataclasses.replace(certify(3), n=n).recheck() is False


def test_inequality_consistency_over_range():
    for cert in certify_range(3, 500).certificates:
        if cert.justification == JUSTIFICATION_INEQUALITY:
            a, b, c = cert.poly
            assert a * cert.n * cert.n + b * cert.n + c == cert.evaluated_value
            assert cert.evaluated_value > 0
            assert cert.n > cert.threshold


def test_range_summary():
    summary = certify_range(3, 100)
    assert summary.complete
    assert len(summary.certificates) == 98
    assert summary.counts[JUSTIFICATION_TABLE] == 5
    assert sum(summary.counts.values()) == 98
    assert all(c.verdict == VERDICT_NONEXISTENT for c in summary.certificates)


def test_range_validation():
    with pytest.raises(ValueError):
        certify_range(1, 10)
    with pytest.raises(ValueError):
        certify_range(10, 3)
    with pytest.raises(ValueError):
        certify(0)


def test_search_fallback():
    for n in (3, 4):
        cert = certify(n, search_fallback=True)
        assert cert.justification == JUSTIFICATION_SEARCH
        assert cert.recheck()
        assert _round_trip(cert).recheck()
        outcomes = cert.search["outcomes"]
        assert all(o["exhausted"] and not o["solutions"] for o in outcomes)
    assert len(certify(3, search_fallback=True).search["outcomes"]) == 2


def test_search_fallback_gaps_where_search_cannot_finish():
    for n in (13, 14, 17):
        with pytest.raises(LeeTileError):
            certify(n, search_fallback=True)
    summary = certify_range(3, 20, search_fallback=True)
    assert summary.gaps == (13, 14, 17)
    assert summary.counts == {JUSTIFICATION_INEQUALITY: 13, JUSTIFICATION_SEARCH: 2}


def test_json_round_trip():
    for n in (1, 3, 16):
        cert = certify(n)
        assert NonexistenceCertificate.from_dict(cert.to_dict()) == cert
    cert = certify(4, search_fallback=True)
    assert NonexistenceCertificate.from_dict(cert.to_dict()) == cert
    summary = certify_range(3, 30)
    assert CertificationSummary.from_dict(summary.to_dict()) == summary
