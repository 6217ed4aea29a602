"""Smoke test of the benchmark at reduced sizes (``--smoke``):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402  (imports leetile from src/)
from leetile import VerificationReport, tiling_core  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    rc, lines = run_bench(ROOT, workload, trace)
    result = json.loads(lines[-1])
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_gate_fails_on_forged_geometric_verdict(monkeypatch):
    workload = workloads.build("verify", 7, smoke=True)
    monkeypatch.setattr(tiling_core, "verify_lattice", lambda basis, radius: VerificationReport(accepted=True))
    attempted, failed, _, problems = workload.check(workload.run_pass().outputs)
    assert 0 < failed < attempted and problems


def test_gate_fails_on_forged_search_solution():
    workload = workloads.build("search", 7, smoke=True)
    forged = []
    for n, rc, text in workload.run_pass().outputs:
        data = json.loads(text)
        if n == 3:
            data["outcomes"][1]["solutions"] = [[[0, 0]]]
        forged.append((n, rc, json.dumps(data)))
    _, failed, _, problems = workload.check(forged)
    assert failed == 1 and "Z5xZ5" in problems[0]


def test_gate_fails_on_forged_certificate():
    workload = workloads.build("certify-json", 7, smoke=True)
    sink = workloads.Sink(keep=True)
    rc = workloads._cli_call(workload.argv, sink)
    data = json.loads(sink.text())
    assert workload.check_text(rc, json.dumps(data))[0] == 0
    data["certificates"][40]["evaluated_value"] += 1
    assert workload.check_text(rc, json.dumps(data))[0] == 1
    # A timed pass whose bytes differ from the checked output fails whole.
    (key, _) = workload.reference()
    attempted, failed, _, _ = workload.check((key[0], key[1] + 1, key[2]))
    assert failed == attempted


def search_cli(n, *flags):
    sink = workloads.Sink(keep=True)
    argv = ["search", "--n", str(n), "--budget", str(workloads.SEARCH_BUDGET), "--json", *flags]
    assert workloads._cli_call(argv, sink) == 0
    return json.loads(sink.text())["outcomes"]


def test_searches_beyond_the_workload():
    """Searches the workload leaves out, for their run time (about 10 s and
    7 s) or because they bypass unit-orbit reduction, keep their solutions
    and recorded node counts."""
    want = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))["beyond-workloads"]
    [z5] = search_cli(1, "--no-reduction")
    assert z5["solutions"] == [[[0], [1], [4]], [[0], [2], [3]]]
    [z13] = search_cli(2, "--no-reduction")
    assert z13["solutions"] == [[[0], [1], [5], [8], [12]], [[0], [2], [3], [10], [11]], [[0], [4], [6], [7], [9]]]
    for key, n, flags in (("reduced.nodes.n8.Z145", 8, ()), ("unreduced.nodes.n7.Z113", 7, ("--no-reduction",))):
        [outcome] = search_cli(n, *flags)
        assert outcome["exhausted"] and not outcome["solutions"]
        assert outcome["nodes_explored"] == want[key]


def test_run_exits_nonzero_when_a_verdict_is_wrong(tmp_path):
    root = copy_checkout(tmp_path, with_src=True)
    verifier = root / "src" / "leetile" / "tiling_core.py"
    text = verifier.read_text(encoding="utf-8")
    assert "if coset in seen:" in text
    verifier.write_text(text.replace("if coset in seen:", "if False:"), encoding="utf-8")
    rc, lines = run_bench(root, "verify", 0)
    result = json.loads(lines[-1])
    assert rc != 0 and result["correct"] is False and result["failed"] > 0


def test_run_fails_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    rc, lines = run_bench(root, "search", 0)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
