import dataclasses
import importlib
import json
import re
import signal
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leetile import (
    AbelianGroup,
    LeeTileError,
    NonexistenceCertificate,
    TilingCandidate,
    VerificationReport,
    branch_for,
    certify,
    certify_range,
    check_conditions,
    search_all,
    search_engine,
)
from leetile.certify import (
    _BRANCHES,
    Branch,
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

certify_module = importlib.import_module("leetile.certify")  # ``leetile.certify`` is also the function

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


def test_witness_is_the_first_solution_of_the_search():
    for n in (1, 2):
        cert = certify(n)
        assert cert.search == tuple(search_all(n))
        (outcome,) = cert.search
        assert cert.witness["group_spec"] == outcome.group.spec_string()
        assert cert.witness["arms"] == [list(g) for g in outcome.solutions[0]]
    # a witness certificate built by hand without outcomes has no witness
    hand_built = NonexistenceCertificate(1, JUSTIFICATION_WITNESS)
    assert hand_built.witness is None
    assert hand_built.verdict == VERDICT_EXISTS
    assert not hand_built.recheck()


def test_a_witness_the_verifier_rejects_is_refused(monkeypatch):
    # the search passes each solution through the verifier it imports
    monkeypatch.setattr(
        search_engine, "check_conditions",
        lambda candidate: VerificationReport(accepted=False, failed_condition="quadratic"),
    )
    for n in (1, 2):
        with pytest.raises(LeeTileError):
            certify(n)


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


@pytest.mark.parametrize(
    "poly, threshold",
    [
        ((1, -10, 10), 0),  # q(1) = 1 but q(2) = -6: the first difference is -7 at n = 1
        ((-1, 100, 0), 0),  # q and its first difference are positive at n = 1, but a < 0
        ((4, -64, 12), 14),  # mod3-1-mod5-1's q at one below its threshold: q(15) = -48
    ],
    ids=["difference-negative", "leading-negative", "value-negative"],
)
def test_branch_refuses_a_threshold_its_inequality_does_not_hold_above(poly, threshold):
    with pytest.raises(ValueError, match="bad-branch"):
        Branch("bad-branch", "test", None, poly, threshold, ())


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
    # the reader runs the search again, so the emptied outcomes do not load
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(data)
    assert not dataclasses.replace(certify(4, search_fallback=True), search=()).recheck()
    data["n"] = 1
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(data)


def test_search_certificate_keeps_its_own_outcomes():
    # from_dict returns the certificate it rebuilt, so emptying the loaded
    # dict afterwards leaves it whole
    cert = certify(3, search_fallback=True)
    data = json.loads(json.dumps(cert.to_dict()))
    loaded = NonexistenceCertificate.from_dict(data)
    data["search"]["outcomes"].clear()
    assert loaded == cert and loaded.recheck()


def test_search_certificate_rejects_an_edited_node_count():
    data = json.loads(json.dumps(certify(4, search_fallback=True).to_dict()))
    data["search"]["outcomes"][0]["nodes_explored"] += 1
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(data)


def test_search_certificate_is_not_changed_through_its_dict():
    cert = certify(3, search_fallback=True)
    cert.to_dict()["search"]["outcomes"].clear()
    assert cert == certify(3, search_fallback=True) and cert.recheck()


def test_search_certificate_is_hashable():
    cert = certify(3, search_fallback=True)
    assert hash(cert) == hash(certify(3, search_fallback=True))
    assert len({cert, certify(3, search_fallback=True), certify(3)}) == 2
    # equality still compares the outcomes
    assert cert != NonexistenceCertificate(3, JUSTIFICATION_SEARCH, {"outcomes": []})


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


def test_recheck_raises_a_fault_in_the_code_it_reruns(monkeypatch):
    cert = certify(4, search_fallback=True)

    def broken_search(n):
        raise RuntimeError("search fault")

    monkeypatch.setattr(certify_module, "search_all", broken_search)
    with pytest.raises(RuntimeError, match="search fault"):
        cert.recheck()


def test_inequality_consistency_over_range():
    # a per-n sweep, apart from the proof that each Branch makes when built
    for cert in certify_range(3, 10**4).certificates:
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


def _stalled(signum, frame):
    raise TimeoutError("still running after 10 s: the range is walked per dimension")


def test_range_does_no_work_per_dimension_above_the_thresholds():
    # a walk over 10^12 dimensions would run for hours, so an alarm turns
    # that regression into a failure rather than a stalled run
    previous = signal.signal(signal.SIGALRM, _stalled)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        start = time.perf_counter()
        summary = certify_range(3, 10**12)
        counts, gaps = summary.counts, summary.gaps
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1
    assert counts == {JUSTIFICATION_TABLE: 5, JUSTIFICATION_INEQUALITY: 10**12 - 7}
    assert gaps == () and summary.complete


@pytest.mark.parametrize("lo, hi", [(3.0, 5), (3, 5.0), (True, 5), ("3", 5)], ids=repr)
def test_range_rejects_non_int_bounds_naming_them(lo, hi):
    with pytest.raises(TypeError, match=re.escape(f"lo={lo!r}, hi={hi!r}")):
        certify_range(lo, hi)


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
        assert all(o.exhausted and not o.solutions for o in cert.search)
    assert len(certify(3, search_fallback=True).search) == 2


def test_search_fallback_gaps_where_search_cannot_finish():
    for n in (13, 14, 17):
        # the search's own reason: n >= 7 needs a node budget
        with pytest.raises(LeeTileError, match=f"n={n}: an explicit node_budget is required"):
            certify(n, search_fallback=True)
    summary = certify_range(3, 20, search_fallback=True)
    assert summary.gaps == (13, 14, 17)
    assert summary.counts == {JUSTIFICATION_INEQUALITY: 13, JUSTIFICATION_SEARCH: 2}


@pytest.mark.parametrize(
    "lo, hi, search_fallback, counts",
    [
        (30, 40, False, [(JUSTIFICATION_INEQUALITY, 11)]),  # above every threshold
        (24, 24, False, [(JUSTIFICATION_INEQUALITY, 1)]),
        (3, 23, False, [(JUSTIFICATION_TABLE, 5), (JUSTIFICATION_INEQUALITY, 16)]),
        (5, 20, False, [(JUSTIFICATION_INEQUALITY, 13), (JUSTIFICATION_TABLE, 3)]),
        (13, 30, False, [(JUSTIFICATION_TABLE, 3), (JUSTIFICATION_INEQUALITY, 15)]),
        (3, 30, True, [(JUSTIFICATION_SEARCH, 2), (JUSTIFICATION_INEQUALITY, 23)]),  # gaps 13, 14, 17
        (13, 30, True, [(JUSTIFICATION_INEQUALITY, 15)]),
    ],
)
def test_range_counts_are_keyed_in_order_of_first_use(lo, hi, search_fallback, counts):
    assert list(certify_range(lo, hi, search_fallback=search_fallback).counts.items()) == counts


def test_json_round_trip():
    for n in range(1, 400):
        cert = certify(n)
        assert NonexistenceCertificate.from_dict(cert.to_dict()) == cert
        assert _round_trip(cert) == cert
    cert = certify(4, search_fallback=True)
    assert NonexistenceCertificate.from_dict(cert.to_dict()) == cert
    summary = certify_range(3, 30)
    assert CertificationSummary.from_dict(summary.to_dict()) == summary


_CERTS_3_10 = certify_range(3, 10).to_dict()["certificates"]
assert _CERTS_3_10[2]["n"] == 5 and _CERTS_3_10[2]["evaluated_value"] == 10


@pytest.mark.parametrize(
    "edit",
    [
        {"extra": 1},
        {"certificates": [*_CERTS_3_10[:2], dict(_CERTS_3_10[2], evaluated_value=11), *_CERTS_3_10[3:]]},
        {"complete": False, "gaps": [7]},
        {  # the gap is 10, not 7
            "certificates": _CERTS_3_10[:-1],
            "counts": {JUSTIFICATION_TABLE: 2, JUSTIFICATION_INEQUALITY: 5},
            "complete": False,
            "gaps": [7],
        },
        {"counts": {JUSTIFICATION_INEQUALITY: 8}},
        {"counts": {JUSTIFICATION_TABLE: 3, JUSTIFICATION_INEQUALITY: 6}},
        {"lo": 4},
        {"hi": 11},
        {"lo": "3"},
        {  # n = 3 moved into the gaps, where the table settles it
            "certificates": _CERTS_3_10[1:],
            "counts": {JUSTIFICATION_TABLE: 1, JUSTIFICATION_INEQUALITY: 6},
            "complete": False,
            "gaps": [3],
        },
        {  # a table certificate at 3 beside a search one at 4
            "certificates": [_CERTS_3_10[0], certify(4, search_fallback=True).to_dict(), *_CERTS_3_10[2:]],
            "counts": {JUSTIFICATION_TABLE: 1, JUSTIFICATION_SEARCH: 1, JUSTIFICATION_INEQUALITY: 6},
        },
    ],
)
def test_summary_from_dict_rejects_edited_fields(edit):
    data = json.loads(json.dumps(certify_range(3, 10).to_dict()))
    assert CertificationSummary.from_dict(data).to_dict() == data
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(dict(data, **edit))


@pytest.mark.parametrize("decrement", [True, False], ids=["counts-decremented", "counts-kept"])
@pytest.mark.parametrize("n", [5, 25])
def test_summary_from_dict_rejects_a_gap_certify_settles(n, decrement):
    # n = 5 and 25 lie above their branch thresholds, so certify settles them
    data = json.loads(json.dumps(certify_range(3, 30).to_dict()))
    data["certificates"] = [c for c in data["certificates"] if c["n"] != n]
    data["gaps"], data["complete"] = [n], False
    if decrement:
        data["counts"][JUSTIFICATION_INEQUALITY] -= 1
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(data)


def test_summary_from_dict_rejects_float_counts():
    data = json.loads(json.dumps(certify_range(3, 10).to_dict()))
    data["counts"] = {k: float(v) for k, v in data["counts"].items()}
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(data)


def test_summary_from_dict_rejects_reordered_or_repeated_certificates():
    data = json.loads(json.dumps(certify_range(3, 10).to_dict()))
    certs = data["certificates"]
    # each edit keeps one entry per n in [3, 10], as the head claims
    for edited in (certs[::-1], certs[:-1] + certs[-2:-1], [certify(11).to_dict()] + certs[1:]):
        with pytest.raises(ValueError):
            CertificationSummary.from_dict(dict(data, certificates=edited))


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


def _nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("field", ["note", "n"])
def test_from_dict_rejects_a_deeply_nested_field(field):
    # json.dumps and repr both raise RecursionError on it, which must not escape
    with pytest.raises(ValueError):
        NonexistenceCertificate.from_dict(dict(certify(16).to_dict(), **{field: _nested_list(5000)}))


@pytest.mark.parametrize("field", ["counts", "lo"])
def test_summary_from_dict_rejects_a_deeply_nested_field(field):
    data = certify_range(3, 10).to_dict()
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(dict(data, **{field: _nested_list(5000)}))


def test_summary_from_dict_does_not_build_the_summary_dict(monkeypatch):
    data = json.loads(json.dumps(certify_range(3, 3000).to_dict()))

    def forbidden(self):
        raise AssertionError("from_dict must check the head and each certificate, not build to_dict()")

    monkeypatch.setattr(CertificationSummary, "to_dict", forbidden)
    assert CertificationSummary.from_dict(data) == certify_range(3, 3000)


_SUMMARIES = (
    json.loads(json.dumps(certify_range(3, 40).to_dict())),
    # search certificates at 3 and 4, gaps 13, 14 and 17
    json.loads(json.dumps(certify_range(3, 20, search_fallback=True).to_dict())),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(choice=st.data(), value=json_values)
def test_summary_from_dict_rejects_any_replaced_field(choice, value):
    """One head field, or one field of one certificate, replaced by any
    other JSON value gives ValueError and no other exception."""
    data = json.loads(json.dumps(choice.draw(st.sampled_from(_SUMMARIES))))
    index = choice.draw(st.one_of(st.none(), st.integers(0, len(data["certificates"]) - 1)))
    target = data if index is None else data["certificates"][index]
    key = choice.draw(st.sampled_from(sorted(k for k in target if k != "certificates")))
    assume(json.dumps(value) != json.dumps(target[key]))
    target[key] = value
    with pytest.raises(ValueError):
        CertificationSummary.from_dict(data)
