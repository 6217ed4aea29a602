"""Property tests for the CLI input surface: whatever the group spec, arm
string or basis file, ``cli.run`` ends with an exit code from the contract
(0 accept, 1 reject, 2 malformed input, 3 certification gap) and lets no
exception escape.

Sizes are bounded so the tests stay fast: every integer in a group spec is
small enough that the group order stays at most 10^6, and basis matrices
are at most 4 x 4.
"""

import contextlib
import io
import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from leetile.cli import run

EXIT_CODES = {0, 1, 2, 3}
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

_junk = st.sampled_from(["", " ", "x", "X", "Z", "z", ",", ";", "-", "+", "1.5", "Z0", "a", "\t", "é"])


def _small_orders(spec: str) -> bool:
    return math.prod(int(d) for d in re.findall(r"\d+", spec)) <= 10**6


group_specs = st.one_of(
    st.sampled_from(["Z5", "Z13", "Z25", "Z5xZ5", "5,5", "Z41", "3,5", "Z1"]),
    st.lists(st.one_of(st.integers(-5, 60).map(str), _junk), max_size=6).map("".join),
).filter(_small_orders)

arm_strings = st.one_of(
    st.sampled_from(["0;1;12;5;8", "0;1;12;2;11", "0;1;4", "0,0;1,2", "0;0", "0;13"]),
    st.lists(st.one_of(st.integers(-20, 60).map(str), _junk), max_size=12).map("".join),
    st.lists(st.lists(st.integers(-3, 30), min_size=1, max_size=2), max_size=7).map(
        lambda arms: ";".join(",".join(map(str, g)) for g in arms)
    ),
)

text_bases = st.one_of(
    st.lists(st.one_of(st.integers(-20, 20).map(str), _junk), max_size=20).map(" ".join),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(-15, 15), min_size=n * n, max_size=n * n).map(
            lambda vals: f"{n}\n" + " ".join(map(str, vals))
        )
    ),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["rows", "x"]), inner, max_size=2),
    max_leaves=20,
)
json_bases = st.one_of(
    json_values.map(json.dumps),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-15, 15), min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(json.dumps),
    st.text(alphabet="[]{}\",:0123456789-. rowsnul", max_size=30),
)


def _exit_code(argv) -> int:
    """Exit code of one in-process CLI run; an escaping exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@PROPERTY_SETTINGS
@given(spec=group_specs, n=st.integers(-2, 12), arms=arm_strings)
def test_verify_group_mode_exit_codes(spec, n, arms):
    assert _exit_code(["verify", f"--group={spec}", f"--n={n}", f"--t={arms}"]) in EXIT_CODES


@PROPERTY_SETTINGS
@given(spec=group_specs, n=st.integers(-2, 12), arms=arm_strings, k=st.sampled_from(["2", "4"]))
def test_profile_exit_codes(spec, n, arms, k):
    assert _exit_code(["profile", f"--group={spec}", f"--n={n}", f"--t={arms}", f"--k={k}"]) in EXIT_CODES


@PROPERTY_SETTINGS
@given(text=st.one_of(text_bases, json_bases), r=st.integers(-1, 3))
def test_verify_basis_exit_codes(tmp_path_factory, text, r):
    path = tmp_path_factory.getbasetemp() / "basis.txt"
    path.write_text(text, encoding="utf-8")
    assert _exit_code(["verify", f"--basis={path}", f"--r={r}"]) in EXIT_CODES
