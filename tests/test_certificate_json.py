"""The certificate ``--json`` writer encodes each (justification, branch)
once and fills in the values that depend on n; its text must equal
``json.dumps(..., indent=2)`` of the ``to_dict`` data view, however the
certificates fall into the chunks it writes."""

import importlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leetile.certify import certify, certify_range
from leetile.certify import _JSON_CHUNK, _certificate_json, _write_summary_json


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
    texts = list(_certificate_json(certs))
    assert len(texts) == len(certs)
    for c, text in zip(certs, texts):
        assert first_difference(c.to_dict(), text) is None, c.n


def summary_json(summary) -> str:
    out = io.StringIO()
    _write_summary_json(summary, out)
    return out.getvalue()


SUMMARY_CASES = [
    (3, 3, False),
    (3, 20, True),  # search certificates and gaps
    (13, 14, True),  # gaps only, no certificates
]


@pytest.mark.parametrize("lo, hi, search_fallback", SUMMARY_CASES)
def test_summary_matches_to_dict(lo, hi, search_fallback):
    summary = certify_range(lo, hi, search_fallback=search_fallback)
    assert first_difference(summary.to_dict(), summary_json(summary)) is None


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("lo, hi, search_fallback", SUMMARY_CASES)
def test_summary_matches_to_dict_across_chunks(lo, hi, search_fallback, chunk, monkeypatch):
    # ``leetile.certify`` is also the name of a function, so fetch the module
    monkeypatch.setattr(importlib.import_module("leetile.certify"), "_JSON_CHUNK", chunk)
    summary = certify_range(lo, hi, search_fallback=search_fallback)
    assert first_difference(summary.to_dict(), summary_json(summary)) is None


def test_summary_of_several_default_chunks_matches_to_dict():
    summary = certify_range(3, 3500)
    assert len(summary.certificates) > 3 * _JSON_CHUNK
    assert first_difference(summary.to_dict(), summary_json(summary)) is None


class RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_long_range_is_written_in_bounded_pieces():
    summary = certify_range(3, 30000)
    out = RecordingStream()
    _write_summary_json(summary, out)
    sizes = [len(text.encode()) for text in out.writes]
    assert len(sizes) > 1
    assert max(sizes) < 2_000_000, max(sizes)
    assert sum(sizes) > 17_000_000  # the whole 17.7 MB summary went through


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.tuples(st.integers(3, 400), st.integers(3, 400)).map(sorted))
def test_random_ranges_match_to_dict(bounds):
    summary = certify_range(*bounds)
    assert first_difference(summary.to_dict(), summary_json(summary)) is None
