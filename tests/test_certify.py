import dataclasses
import json
import time

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
)
from leetile.certify import (
    _BRANCHES,
    CertificationSummary,
    JUSTIFICATION_INEQUALITY,
    JUSTIFICATION_SEARCH,
    JUSTIFICATION_TABLE,
    JUSTIFICATION_WITNESS,
    TABLE_OPEN_CASES,
    TABLE_RANGE,
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
    # by the table (in range, not an open case), so certify needs no check
    table_dims = {
        n for n in range(3, max(b.threshold for b in _BRANCHES) + 1) if n <= branch_for(n).threshold
    }
    assert table_dims == {3, 4, 13, 14, 17}
    lo, hi = TABLE_RANGE
    assert lo <= min(table_dims) and max(table_dims) <= hi
    assert not table_dims & TABLE_OPEN_CASES


def _round_trip(cert):
    return NonexistenceCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))


def test_certificates_self_check():
    for n in (1, 2, 3, 5, 13, 14, 16, 17, 28, 92, 1000, 99991):
        cert = certify(n)
        assert cert.recheck(), n
        assert _round_trip(cert).recheck(), n


def test_certificate_stores_only_n_justification_and_search():
    assert [f.name for f in dataclasses.fields(NonexistenceCertificate)] == ["n", "justification", "search"]
    with pytest.raises(TypeError):
        NonexistenceCertificate(16, JUSTIFICATION_INEQUALITY, evaluated_value=13)


def test_recheck_rejects_relabelled_existence():
    genuine = certify(2).to_dict()
    forged = dict(genuine, verdict=VERDICT_NONEXISTENT, justification=JUSTIFICATION_INEQUALITY,
                  poly=[0, 0, 1], evaluated_value=1, threshold=0, witness=None)
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(forged)


def test_recheck_rejects_emptied_search():
    data = certify(4, search_fallback=True).to_dict()
    data["search"]["outcomes"] = []
    # n = 4 may be settled by a search, so the emptied search loads; only
    # running the search again shows that its outcomes are not the real ones
    assert not NonexistenceCertificate.from_dict(data).recheck()
    data["n"] = 1
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(data)


def test_recheck_rejects_any_edited_field():
    cert = certify(16)
    for field, value in [("evaluated_value", 13), ("threshold", 3), ("branch_id", "mod3-0"),
                         ("residue_tags", [0, 0]), ("note", "x"), ("justification", "table")]:
        with pytest.raises(ValueError):
            NonexistenceCertificate.from_dict(dict(cert.to_dict(), **{field: value}))
    assert dataclasses.replace(cert, justification="table").recheck() is False


@pytest.mark.parametrize("edit", [{"evaluated_value": 12.0}, {"residue_tags": [True, 1]}], ids=repr)
def test_from_dict_rejects_a_value_of_the_wrong_json_type(edit):
    # 12.0 == 12 and True == 1 in Python, but not in the JSON they stand for
    data = certify(16).to_dict()
    assert data["evaluated_value"] == 12 and data["residue_tags"] == [1, 1]
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(dict(data, **edit))


@pytest.mark.parametrize(
    "edit",
    [
        {"justification": JUSTIFICATION_INEQUALITY},  # below the threshold, so no value
        {"justification": JUSTIFICATION_SEARCH},  # a search certificate needs its outcomes
        {"justification": JUSTIFICATION_INEQUALITY, "table": None},
        {"search": {"outcomes": []}},
        {"table": None},
    ],
)
def test_from_dict_rejects_a_justification_n_does_not_allow(edit):
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(dict(certify(13).to_dict(), **edit))


GENUINE = [(3, False), (4, True), (1, False)]  # table, search and witness certificates


@pytest.mark.parametrize("n, search_fallback", GENUINE)
@pytest.mark.parametrize("missing", ["n", "justification", "search"])
def test_from_dict_rejects_a_missing_field(missing, n, search_fallback):
    data = certify(n, search_fallback=search_fallback).to_dict()
    del data[missing]
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(data)


@pytest.mark.parametrize("n, search_fallback", GENUINE)
@pytest.mark.parametrize(
    "edit",
    [
        {"n": "3"},
        {"n": 3.0},
        {"n": True},
        {"n": 0},
        {"justification": None},
        {"search": [1, 2]},
        {"search": "outcomes"},
        {"residue_tags": 5},
        {"extra": 1},
    ],
    ids=repr,
)
def test_from_dict_rejects_a_malformed_field(edit, n, search_fallback):
    data = dict(certify(n, search_fallback=search_fallback).to_dict(), **edit)
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(data)


@pytest.mark.parametrize("data", [[1, 2], {}, None, "certificate"], ids=repr)
def test_from_dict_rejects_a_non_dict(data):
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(data)


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
    for n in range(1, 400):
        cert = certify(n)
        assert NonexistenceCertificate.from_dict(cert.to_dict()) == cert
        assert _round_trip(cert) == cert
    cert = certify(4, search_fallback=True)
    assert NonexistenceCertificate.from_dict(cert.to_dict()) == cert
    summary = certify_range(3, 30)
    assert CertificationSummary.from_dict(summary.to_dict()) == summary


@pytest.mark.parametrize(
    "edit",
    [
        {"complete": False, "gaps": [7]},
        {"counts": {JUSTIFICATION_INEQUALITY: 8}},
        {"counts": {JUSTIFICATION_TABLE: 3, JUSTIFICATION_INEQUALITY: 6}},
        {"lo": 4},
        {"hi": 11},
        {"lo": "3"},
    ],
)
def test_summary_from_dict_rejects_edited_fields(edit):
    data = json.loads(json.dumps(certify_range(3, 10).to_dict()))
    assert CertificationSummary.from_dict(data).to_dict() == data
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(dict(data, **edit))


def test_summary_from_dict_rejects_float_counts():
    data = json.loads(json.dumps(certify_range(3, 10).to_dict()))
    data["counts"] = {k: float(v) for k, v in data["counts"].items()}
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(data)


def test_summary_from_dict_rejects_reordered_or_repeated_certificates():
    certs = certify_range(3, 10).certificates
    for edited in (certs[::-1], certs + certs[-1:], (certify(11),) + certs[1:]):
        with pytest.raises(ValueError):
            CertificationSummary.from_dict(CertificationSummary(3, 10, edited).to_dict())


@pytest.mark.parametrize("data", [None, [1], {}, {"lo": 3, "hi": 10, "certificates": {}}], ids=repr)
def test_summary_from_dict_raises_value_error_on_malformed_input(data):
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(data)


def test_summary_from_dict_cost_does_not_grow_with_hi():
    # a few bytes of input must not make the reader walk [lo, hi]
    data = {"lo": 3, "hi": 10**12, "counts": {}, "complete": True, "gaps": [], "certificates": []}
    for edited in (data, dict(data, gaps=None), dict(data, gaps={})):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            CertificationSummary.from_dict(edited)
        assert time.perf_counter() - start < 1
