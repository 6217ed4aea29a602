"""leetile benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, so nothing needs installing.  Workloads (the reasons for each are
in ``BENCHMARK.json``):

  search           ``leetile search --n N --json`` for N = 1..7, unit-orbit
                   reduction on; every group of order 2N^2+2N+1.
  certify-json     ``leetile certify --range 3:30000 --json``, stdout sent to
                   a sink that counts and hashes the bytes.
  verify           466 seeded bases through both verifiers, the group model
                   and, for accepted radius-2 candidates, the profiles.

A pass over a workload's fixed work takes about a second, so a run holds
many passes and some of them fall between the host's slow phases.

Each run starts fresh single-threaded processes (``worker.py``): one
untimed warm-up, ``SETUP_PROBES`` that only set up (half before and half
after the measuring one), and one that sets up,
runs timed passes for ``--seconds`` and checks every pass's output
against verdicts known in advance.  With ``--trace 0`` the last line
holds the end-to-end metrics:

  setup_s       median time to import leetile and build the inputs
  wall_s        time of the fastest pass over the workload's fixed work
  ops_per_s     operations per pass over wall_s: (n, group) searches,
                certificates, or bases
  op_p50_ms     median and 99th percentile, over the calls a pass makes
  op_p99_ms     into leetile, of each call's fastest repetition: one basis
                on verify, one CLI command on the other workloads (the
                number of calls and repetitions is printed)
  peak_rss_mib  peak resident memory of the measuring process, read before
                the outputs are checked

Times are the fastest of their repetitions, not medians.  On a shared
2-vCPU Xeon virtual machine other tenants slowed this process by up to 1.8x
in phases of seconds to minutes, so the median pass of a run depended on
how much of the run fell in such phases: over ten runs of ``search`` its
quartile spread was 36%, against 11% for the fastest pass.  Interference
only adds time, so the fastest repetition is the closest to the program's
own cost.  Passes also alternate between CPUs (``worker.timed_passes``).

With ``--trace 1`` passes alternate between running without and with the
span shims, and the last line holds the per-layer
metrics of ``tracing.layer_metrics``, averaged per traced pass, plus
``trace_overhead_frac``: the fastest traced pass over the fastest untraced
one, minus 1.
Failed operations over attempted ones (``failed``/``attempted``) are
printed as ``fail_frac``; a run with a failure exits 1.  Deterministic
counters (search nodes per group, certificate counts, output bytes,
verdict counts) are compared exactly with ``baseline.json``; a difference
is printed as a semantic or determinism change, not treated as noise.
Full results, with the seed and the machine, go to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("search", "certify-json", "verify")
SETUP_PROBES = 8
DEADLINE_S = 170  # every worker has ended this long after the start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def child(role: str, args, deadline: float, extra=()) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {role} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def compare_baseline(workload: str, counters: dict, smoke: bool) -> list[str]:
    """Counters that differ from the recorded seed values."""
    if smoke:
        return []
    baseline = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))[workload]
    keys = sorted(set(baseline) | set(counters))
    return [f"{k}: {baseline.get(k)} -> {counters.get(k)}" for k in keys if baseline.get(k) != counters.get(k)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced input sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leetile" / "__init__.py").is_file():
        print(f"error: no leetile package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = machine(args.seed)
    print("# machine " + json.dumps(env), flush=True)

    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + DEADLINE_S
    try:
        child("setup", args, deadline)  # warm-up: compiles bytecode, fills the file cache
        setups = [child("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        extra = ("--spans", str(results_dir / f"{stem}-spans.json")) if args.trace else ()
        result = child("measure", args, deadline, extra)
        setups += [child("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    wall = min(result["pass_s"])
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
        overhead = min(result["traced_pass_s"]) / wall - 1
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": result["ops_per_pass"] / wall, "unit": "1/s"},
            "op_p50_ms": {"value": result["op_ms"]["p50"], "unit": "ms"},
            "op_p99_ms": {"value": result["op_ms"]["p99"], "unit": "ms"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    changed = compare_baseline(args.workload, result["counters"], args.smoke)

    print(f"# passes {len(result['pass_s'])} untraced, {len(result.get('traced_pass_s', []))} traced; "
          f"latency percentiles over {result['op_ms']['calls']} calls, best of "
          f"{result['op_ms']['repetitions']} repetitions each")
    print(f"# fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    if changed:
        print("# SEMANTIC OR DETERMINISM CHANGE: counters differ from baseline.json:")
        for line in changed:
            print(f"#   {line}")
    else:
        print("# counters equal baseline.json" if not args.smoke else "# counters not compared (smoke)")
    record = {"machine": env, **result, "setup_samples_s": setups, "counters_changed": changed, "metrics": metrics}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
