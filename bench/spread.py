"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: for each workload, run ``run.py`` once per seed and report,
per metric, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.

    python3 bench/spread.py --runs 10 [--workloads search verify] [--out FILE]

Runs are sequential; with ``--out`` the values, spreads and bounds are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "nproc": os.cpu_count(), "workloads": {}}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=180,
            )
            elapsed.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            for name, m in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items():
                values[name].append(m["value"])
        rows = {
            name: {"median": statistics.median(v), "spread": spread(v), "bound": bounds[name], "values": v}
            for name, v in values.items()
        }
        report["workloads"][workload] = {"run_elapsed_s": elapsed, "metrics": rows}
        for name, row in rows.items():
            print(f"{workload:16s} {name:13s} median {row['median']:12.6g}  spread {row['spread']:.3f}  "
                  f"bound {row['bound']:.2f}  ({row['spread'] / row['bound']:.2f} of bound)", flush=True)
        print(f"{workload:16s} run elapsed {min(elapsed):.1f}..{max(elapsed):.1f} s", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
