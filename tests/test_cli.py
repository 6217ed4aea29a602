import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leetile
from leetile import SearchOutcome, check_conditions, cli, profiles
from leetile.certify import certify_range
from leetile.cli import build_parser, main
from leetile.lee_geometry import sphere_points, sphere_size

ACCEPT_ARGS = ["verify", "--group", "Z13", "--n", "2", "--t", "0;1;12;5;8"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_sphere(capsys):
    code, out, _ = run(capsys, ["sphere", "--n", "3", "--r", "2"])
    assert code == 0
    assert out.strip() == "25"


def test_sphere_list(capsys):
    code, out, _ = run(capsys, ["sphere", "--n", "1", "--r", "2", "--list"])
    assert code == 0
    assert out.splitlines() == ["5", "-2", "-1", "0", "1", "2"]


def test_sphere_list_large_n(capsys):
    code, out, err = run(capsys, ["sphere", "--n", "1500", "--r", "1", "--list"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "3001" and len(lines) == 3002


def test_sphere_json(capsys):
    code, data = run_json(capsys, ["sphere", "--n", "2", "--r", "2", "--list"])
    assert code == 0
    assert data["size"] == 13
    assert len(data["points"]) == 13


SPHERE_LISTS = [(1, 2), (3, 5), (1500, 1)]


def sphere_text(n, r):
    """``sphere --list`` output from ``sphere_points``."""
    points = sphere_points(n, r)
    lines = [str(len(points))] + [" ".join(str(c) for c in p) for p in points]
    return "\n".join(lines) + "\n"


def sphere_json(n, r):
    """``sphere --list --json`` output from ``sphere_points``."""
    points = [list(p) for p in sphere_points(n, r)]
    data = {"n": n, "r": r, "size": sphere_size(n, r), "points": points}
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("n, r", SPHERE_LISTS)
def test_sphere_list_prints_the_lines_of_sphere_points(capsys, n, r):
    code, out, err = run(capsys, ["sphere", "--n", str(n), "--r", str(r), "--list"])
    assert (code, err) == (0, "")
    assert out == sphere_text(n, r)


@pytest.mark.parametrize("n, r", SPHERE_LISTS)
def test_sphere_list_json_is_json_dumps_of_sphere_points(capsys, n, r):
    code, out, err = run(capsys, ["sphere", "--n", str(n), "--r", str(r), "--list", "--json"])
    assert (code, err) == (0, "")
    assert out == sphere_json(n, r)


class RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


LISTINGS = {
    "certify-range": (
        ["certify", "--range", "3:30000", "--json"],
        lambda: json.dumps(certify_range(3, 30000).to_dict(), indent=2) + "\n",
    ),
    "sphere-text": (["sphere", "--n", "3", "--r", "30", "--list"], lambda: sphere_text(3, 30)),
    "sphere-json": (["sphere", "--n", "3", "--r", "30", "--list", "--json"], lambda: sphere_json(3, 30)),
    "sphere-text-n1500": (["sphere", "--n", "1500", "--r", "1", "--list"], lambda: sphere_text(1500, 1)),
    "sphere-json-n1500": (["sphere", "--n", "1500", "--r", "1", "--list", "--json"], lambda: sphere_json(1500, 1)),
}


@pytest.mark.parametrize("argv, expected", LISTINGS.values(), ids=LISTINGS.keys())
def test_listings_are_written_in_bounded_pieces(argv, expected, monkeypatch):
    # below glibc malloc's default mmap threshold (128 KiB), so the buffers
    # of a piece are reused from the heap rather than mapped per write
    out = RecordingStream()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.run(argv) == 0
    sizes = [len(text.encode()) for text in out.writes]
    assert len(sizes) > 2
    assert max(sizes) < 131072, max(sizes)
    assert "".join(out.writes) == expected()  # every byte arrived, in order


def test_groups(capsys):
    code, out, _ = run(capsys, ["groups", "--order", "25"])
    assert code == 0
    assert out.splitlines() == ["Z25", "Z5xZ5"]


def test_verify_accept(capsys):
    code, out, _ = run(capsys, ACCEPT_ARGS)
    assert code == 0
    assert out.splitlines()[0] == "accept"


def test_verify_reject(capsys):
    code, out, _ = run(capsys, ["verify", "--group", "Z13", "--n", "2", "--t", "0;1;12;2;11"])
    assert code == 1
    assert "quadratic-identity" in out


def test_verify_json(capsys):
    code, data = run_json(capsys, ACCEPT_ARGS)
    assert code == 0
    assert data == {"verdict": "accept", "failed_condition": None, "witness": None}


def test_verify_malformed_tuple(capsys):
    code, _, err = run(capsys, ["verify", "--group", "Z13", "--n", "2", "--t", "0;zz"])
    assert code == 2
    assert "error" in err


def test_verify_requires_one_mode(capsys):
    code, _, err = run(capsys, ["verify", "--r", "2"])
    assert code == 2


def test_verify_group_mode_rejects_a_radius_other_than_2(capsys):
    assert run(capsys, ACCEPT_ARGS + ["--r", "2"])[0] == 0
    code, out, err = run(capsys, ACCEPT_ARGS + ["--r", "7"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--r" in err


@pytest.mark.parametrize("extra", [["--n", "5"], ["--t", "x"], ["--n", "2", "--t", "0;1;12;5;8"]])
def test_verify_basis_mode_rejects_group_options(capsys, tmp_path, extra):
    path = tmp_path / "b.txt"
    path.write_text("2\n13 -5\n0 1\n")
    code, out, err = run(capsys, ["verify", "--basis", str(path)] + extra)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_verify_basis_file(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("2\n13 -5\n0 1\n")
    code, out, _ = run(capsys, ["verify", "--basis", str(path), "--r", "2"])
    assert code == 0
    assert out.splitlines()[0] == "accept"


def test_verify_basis_reject(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("2\n13 -1\n0 1\n")
    code, out, _ = run(capsys, ["verify", "--basis", str(path), "--r", "2"])
    assert code == 1
    assert "collision" in out


def test_verify_singular_basis_reject(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("2\n1 2\n2 4\n")
    code, data = run_json(capsys, ["verify", "--basis", str(path), "--r", "2"])
    assert code == 1
    assert data["failed_condition"] == "determinant"
    assert data["witness"] == {"determinant": 0, "expected": 13}


@pytest.mark.parametrize("text", ['{"x":1}', "[[1,null],[0,1]]", "[1]", '{"rows": 5}'])
def test_verify_malformed_json_basis(capsys, tmp_path, text):
    path = tmp_path / "b.json"
    path.write_text(text)
    code, _, err = run(capsys, ["verify", "--basis", str(path)])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("text", ["-1", "0", "0\n1", "-1\n5"])
def test_verify_basis_nonpositive_dimension(capsys, tmp_path, text):
    path = tmp_path / "b.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["verify", "--basis", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: dimension must be >= 1")


def test_verify_deeply_nested_json_basis(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["verify", "--basis", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_profile_json(capsys):
    code, data = run_json(
        capsys, ["profile", "--group", "Z13", "--n", "2", "--t", "0;1;12;5;8", "--k", "2"]
    )
    assert code == 0
    assert data["profile"]["histogram"] == {"0": 0, "1": 5, "2": 4, "3": 4}
    assert data["identities"]["all_passed"]


def test_profile_k4_delta(capsys):
    code, data = run_json(
        capsys, ["profile", "--group", "Z13", "--n", "2", "--t", "0;1;12;5;8", "--k", "4"]
    )
    assert code == 0
    assert data["delta"] == {"n": 2, "delta": 0, "delta_raw": 4}


def test_profile_rejected_candidate(capsys):
    code, out, _ = run(
        capsys, ["profile", "--group", "Z13", "--n", "2", "--t", "0;1;12;2;11", "--k", "2"]
    )
    assert code == 1
    assert out.splitlines() == [
        "candidate rejected, no profile computed",
        "reject",
        "failed condition: quadratic-identity",
        "witness: {'element': [1], 'expected': 2, 'actual': 4}",
    ]
    code, data = run_json(
        capsys, ["profile", "--group", "Z13", "--n", "2", "--t", "0;1;12;2;11", "--k", "2"]
    )
    assert code == 1
    assert data == {
        "verification": {
            "verdict": "reject",
            "failed_condition": "quadratic-identity",
            "witness": {"element": [1], "expected": 2, "actual": 4},
        }
    }


@pytest.mark.parametrize("arms, expected", [("0;1;12;5;8", 0), ("0;1;12;2;11", 1)], ids=["accept", "reject"])
def test_profile_verifies_once(capsys, monkeypatch, arms, expected):
    calls = []

    def counted(candidate):
        calls.append(candidate)
        return check_conditions(candidate)

    for module in (cli, profiles):
        monkeypatch.setattr(module, "check_conditions", counted)
    code, _, _ = run(capsys, ["profile", "--group", "Z13", "--n", "2", "--t", arms, "--k", "2"])
    assert code == expected
    assert len(calls) == 1


def test_search_json(capsys):
    code, data = run_json(capsys, ["search", "--n", "2"])
    assert code == 0
    (outcome,) = data["outcomes"]
    assert outcome["group_spec"] == "Z13"
    assert outcome["exhausted"]
    assert outcome["solutions"] == [[[0], [1], [5], [8], [12]]]


def test_search_no_reduction(capsys):
    code, data = run_json(capsys, ["search", "--n", "1", "--no-reduction"])
    assert code == 0
    (outcome,) = data["outcomes"]
    assert len(outcome["solutions"]) == 2


def test_search_text_and_json_agree(capsys):
    code_t, out, _ = run(capsys, ["search", "--n", "2"])
    code_j, data = run_json(capsys, ["search", "--n", "2"])
    assert code_t == code_j == 0
    assert "Z13: 1 solution(s)" in out
    assert "0;1;5;8;12" in out
    assert len(data["outcomes"][0]["solutions"]) == 1


def test_search_text_builds_no_json(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("to_dict called without --json")

    monkeypatch.setattr(SearchOutcome, "to_dict", refuse)
    code, out, err = run(capsys, ["search", "--n", "3"])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "Z25: 0 solution(s), 69 nodes, exhausted",
        "Z5xZ5: 0 solution(s), 267 nodes, exhausted",
    ]


def test_search_one_group(capsys):
    code, data = run_json(capsys, ["search", "--n", "3", "--group", "5,5"])
    assert code == 0
    (outcome,) = data["outcomes"]
    assert outcome["group_spec"] == "Z5xZ5"
    assert (outcome["nodes_explored"], outcome["exhausted"], outcome["solutions"]) == (267, True, [])


def test_search_group_of_the_wrong_order(capsys):
    code, out, err = run(capsys, ["search", "--n", "3", "--group", "Z13"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_search_negative_budget(capsys):
    code, out, err = run(capsys, ["search", "--n", "2", "--budget", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: node_budget must be a finite number >= 0, got -1\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_search_nonpositive_n(capsys, n):
    code, out, err = run(capsys, ["search", "--n", n])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_certify_single_json(capsys):
    code, data = run_json(capsys, ["certify", "--n", "16"])
    assert code == 0
    assert data["evaluated_value"] == 12
    assert data["justification"] == "inequality"


def test_certify_range(capsys):
    code, out, _ = run(capsys, ["certify", "--range", "3:100"])
    assert code == 0
    assert "certified 98 of 98" in out


def test_certify_range_text_builds_no_json(capsys, monkeypatch):
    from leetile.certify import NonexistenceCertificate

    def refuse(self):
        raise RuntimeError("text output must not build certificate dicts")

    monkeypatch.setattr(NonexistenceCertificate, "to_dict", refuse)
    code, out, _ = run(capsys, ["certify", "--range", "3:3000"])
    assert code == 0
    assert "certified 2998 of 2998" in out


def test_certify_range_json_round_trip(capsys):
    from leetile import CertificationSummary

    code, data = run_json(capsys, ["certify", "--range", "3:20"])
    assert code == 0
    summary = CertificationSummary.from_dict(data)
    assert summary.complete


def test_certify_range_search_fallback_reports_gaps(capsys):
    code, out, err = run(capsys, ["certify", "--range", "3:20", "--search-fallback"])
    assert code == 3
    assert "GAPS: [13, 14, 17]" in out
    assert err == ""


def test_certify_single_search_fallback_gap(capsys):
    code, out, err = run(capsys, ["certify", "--n", "13", "--search-fallback"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "Z13"],
        ["verify", "--group", "Z13", "--n", "2"],
        ["verify", "--group", "Z13", "--t", "0;1;12;5;8"],
        ["certify"],
        ["certify", "--n", "3", "--range", "3:10"],
    ],
    ids=" ".join,
)
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_certify_bad_range(capsys):
    code, _, err = run(capsys, ["certify", "--range", "3-100"])
    assert code == 2


def test_groups_order_too_large_to_factor(capsys):
    # a semiprime whose composite part exceeds (10**6)**4 is rejected
    order = (10**12 + 39) * (10**13 + 37)
    code, out, err = run(capsys, ["groups", "--order", str(order)])
    assert code == 2
    assert out == ""
    assert "too large to factor" in err


@pytest.mark.parametrize("argv", [["groups", "--order", "3317044064679887385961981"]], ids=["groups"])
def test_order_not_proven_prime_exits_2(capsys, argv):
    # composite, but it passes Miller-Rabin on every base the test uses
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "not proven prime" in err


def test_group_spec_of_an_order_factorize_refuses_is_read(capsys):
    # a spec is canonicalized by gcd and lcm, so the order that ``groups``
    # cannot factor names a group, of the wrong order for n = 2
    argv = ["verify", "--group", "Z3317044064679887385961981", "--n", "2", "--t", "0;1", "--json"]
    code, data = run_json(capsys, argv)
    assert (code, data["verdict"], data["failed_condition"]) == (1, "reject", "order")


def test_prime_order_above_the_miller_rabin_bound_is_listed(capsys):
    # the Lucas test proves it prime, with m - 1 = 2^2 * 11 * 23 * 9881422924901185770751
    code, out, _ = run(capsys, ["groups", "--order", "10000000000000000000000013"])
    assert (code, out) == (0, "Z10000000000000000000000013\n")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def _leetile_command(argv):
    """``leetile argv`` as a new interpreter's command line and environment."""
    src = str(Path(leetile.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return [sys.executable, "-m", "leetile.cli", *argv], env


def _fresh_process(argv):
    """(exit code, stdout) of ``leetile`` run in a new interpreter."""
    command, env = _leetile_command(argv)
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout


GROUPS_ARGS = ["groups", "--order", "25", "--json"]
SEARCH_ARGS = ["search", "--n", "3", "--json"]


def test_calls_in_one_process_print_what_fresh_processes_print(capsys):
    for argv in (GROUPS_ARGS, SEARCH_ARGS, GROUPS_ARGS):
        code, out, _ = run(capsys, argv)
        assert (code, out) == _fresh_process(argv)


def test_valid_call_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--n", "three"])
    assert info.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    code, out, _ = run(capsys, SEARCH_ARGS)
    assert (code, out) == _fresh_process(SEARCH_ARGS)


def test_parser_built_once(capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for argv in (GROUPS_ARGS, SEARCH_ARGS, ACCEPT_ARGS):
            run(capsys, argv)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv",
    [["certify", "--range", "3:30000", "--json"], ["sphere", "--n", "3", "--r", "30", "--list"]],
)
def test_closed_output_pipe_exits_141_quietly(argv):
    # ``leetile ... | head -c 100``: the reader goes away long before the
    # output ends, which is not malformed input.
    command, env = _leetile_command(argv)
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == cli.EXIT_PIPE == 141
    assert err == b""


def test_other_os_errors_stay_malformed_input(capsys, tmp_path):
    code, out, err = run(capsys, ["verify", "--basis", str(tmp_path / "missing.txt")])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing.txt" in err


def test_output_pipe_closed_before_the_first_write_exits_141_quietly():
    # The output fits the buffer, so the closed pipe shows only when it is
    # flushed; the flush at exit must not raise a second time.
    command, env = _leetile_command(["sphere", "--n", "3", "--r", "2"])
    env.pop("PYTHONUNBUFFERED", None)  # which would write, and fail, at once
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (cli.EXIT_PIPE, b"")
