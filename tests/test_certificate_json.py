"""The certificate ``--json`` writer encodes each (justification, branch)
once and fills in the values that depend on n; its text must equal
``json.dumps(..., indent=2)`` of the ``to_dict`` data view."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leetile.certify import certify, certify_range
from leetile.certify import _certificate_json, _summary_json


def first_difference(data, text: str):
    """None if ``text`` is ``json.dumps(data, indent=2)``, else the first
    line where they differ (a short message, not a diff of megabytes)."""
    want = json.dumps(data, indent=2)
    if text == want:
        return None
    pairs = zip(text.splitlines() + [None], want.splitlines() + [None])
    return next((i, got, exp) for i, (got, exp) in enumerate(pairs) if got != exp)


def test_certificates_match_to_dict():
    certs = [certify(n) for n in range(1, 3001)]
    certs += [certify(3, search_fallback=True), certify(4, search_fallback=True)]
    texts = _certificate_json(certs)
    assert len(texts) == len(certs)
    for c, text in zip(certs, texts):
        assert first_difference(c.to_dict(), text) is None, c.n


@pytest.mark.parametrize(
    "lo, hi, search_fallback",
    [
        (3, 3, False),
        (3, 20, True),  # search certificates and gaps
        (13, 14, True),  # gaps only, no certificates
    ],
)
def test_summary_matches_to_dict(lo, hi, search_fallback):
    summary = certify_range(lo, hi, search_fallback=search_fallback)
    assert first_difference(summary.to_dict(), _summary_json(summary, summary.gaps)) is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.tuples(st.integers(3, 400), st.integers(3, 400)).map(sorted))
def test_random_ranges_match_to_dict(bounds):
    summary = certify_range(*bounds)
    assert first_difference(summary.to_dict(), _summary_json(summary, summary.gaps)) is None
