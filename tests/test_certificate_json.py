"""The certificate ``--json`` writer encodes the inequality certificates of
each residue class n mod 15 once and fills in n and q(n); what the CLI's
listing writer prints of them must equal ``json.dumps(..., indent=2)`` of the
``to_dict`` data view, however the certificates fall into the chunks it
writes."""

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leetile.certify import CertificationSummary, certify, certify_range
from leetile.certify import _JSON_CHUNK, _certificate_json
from leetile.cli import _write_listing
from leetile.errors import LeeTileError


def first_difference(data, text: str):
    """None if ``text`` is ``json.dumps(data, indent=2)``, else the first
    line where they differ (a short message, not a diff of megabytes)."""
    want = json.dumps(data, indent=2)
    if text == want:
        return None
    pairs = zip(text.splitlines() + [None], want.splitlines() + [None])
    return next((i, got, exp) for i, (got, exp) in enumerate(pairs) if got != exp)


def test_certificates_match_to_dict():
    for summary in (certify_range(3, 3000), certify_range(3, 4, search_fallback=True)):
        certs = summary.certificates
        texts = list(_certificate_json(summary))
        assert len(texts) == len(certs)
        for c, text in zip(certs, texts):
            assert first_difference(c.to_dict(), text) is None, c.n


def write_summary(summary, chunk=_JSON_CHUNK) -> None:
    """Print ``summary`` as ``certify --range --json`` does."""
    texts = _certificate_json(summary, "    ")
    _write_listing({**summary._head(), "certificates": []}, texts, chunk)


def summary_json(summary, chunk=_JSON_CHUNK) -> str:
    """What ``write_summary`` prints, less the newline it ends with."""
    with redirect_stdout(io.StringIO()) as out:
        write_summary(summary, chunk)
    text = out.getvalue()
    assert text.endswith("}\n")
    return text[:-1]


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
def test_summary_matches_to_dict_across_chunks(lo, hi, search_fallback, chunk):
    summary = certify_range(lo, hi, search_fallback=search_fallback)
    assert first_difference(summary.to_dict(), summary_json(summary, chunk)) is None


def test_summary_of_several_default_chunks_matches_to_dict():
    summary = certify_range(3, 3500)
    assert len(summary.certificates) > 3 * _JSON_CHUNK
    assert first_difference(summary.to_dict(), summary_json(summary)) is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.tuples(st.integers(3, 400), st.integers(3, 400)).map(sorted))
def test_random_ranges_match_to_dict(bounds):
    summary = certify_range(*bounds)
    assert first_difference(summary.to_dict(), summary_json(summary)) is None


def certify_each(lo, hi, search_fallback):
    """(certificates, gaps) of [lo, hi] from ``certify`` run on each n."""
    certs, gaps = [], []
    for n in range(lo, hi + 1):
        try:
            certs.append(certify(n, search_fallback=search_fallback))
        except LeeTileError:
            gaps.append(n)
    return tuple(certs), tuple(gaps)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.tuples(st.integers(3, 400), st.integers(3, 400)).map(sorted), st.booleans())
def test_random_ranges_agree_with_certify_per_n(bounds, search_fallback):
    """A summary stores only its certificates at or below n = 23; what it
    writes, reads back and hands out must still be what ``certify`` gives
    for each n."""
    summary = certify_range(*bounds, search_fallback=search_fallback)
    data = summary.to_dict()
    assert first_difference(data, summary_json(summary)) is None
    assert CertificationSummary.from_dict(data) == summary
    assert (summary.certificates, summary.gaps) == certify_each(*bounds, search_fallback)


class CountingSink:
    def __init__(self):
        self.nbytes = 0

    def write(self, text: str) -> int:
        self.nbytes += len(text)
        return len(text)


def test_range_json_memory_does_not_grow_with_the_range():
    # one object per certificate, about 160 bytes each, would pass 15 MB here
    sink = CountingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            write_summary(certify_range(3, 100000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.nbytes > 59_000_000  # the whole 59 MB summary went through
    assert peak < 4_000_000, peak
