"""One fresh, single-threaded benchmark process.

``--role setup`` imports ``leetile``, builds the workload's inputs, prints
the time that took and exits.  ``--role measure`` does the same, then runs
timed passes for ``--seconds`` seconds (with ``--trace 1``: alternately
without and with the span shims), reads the peak resident memory, checks
every pass's output and prints one JSON object.  ``run.py`` starts these
processes; run this file directly only to debug one of them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402  (imports leetile only when shims are installed)


def timed_passes(workload, budget_s, tracer=None):
    """Passes until another one would end past the budget; at least one.
    Returns (plain passes, traced passes).

    With a tracer, every second pass runs with the span shims installed,
    so traced and plain passes see the same moments of a shared host.
    Successive passes (pairs, when tracing) run on successive CPUs this
    process may use: other tenants do not always load every CPU at once,
    so the fastest pass is then likelier to find a quiet one."""
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = 1 if tracer is None else 2
    plain, traced = [], []
    start = perf_counter()
    while True:
        gc.collect()
        done = len(plain) + len(traced)
        os.sched_setaffinity(0, {cpus[done // per_cpu % len(cpus)]})
        if done % per_cpu:
            originals = tracing.install(tracer)
            try:
                traced.append(workload.run_pass(tracer))
            finally:
                tracing.uninstall(originals)
        else:
            plain.append(workload.run_pass())
        typical = statistics.median(p.wall for p in plain + traced)
        if perf_counter() - start + typical > budget_s and (tracer is None or traced):
            return plain, traced


def check_passes(workload, passes):
    """Check every pass; counters must be the same on each pass."""
    attempted = failed = 0
    problems, counters = [], None
    for i, p in enumerate(passes):
        a, f, c, probs = workload.check(p.outputs)
        if counters is None:
            counters = c
        elif c != counters:
            f = a
            probs = probs + [f"pass {i}: counters differ from pass 0 (nondeterminism)"]
        attempted += a
        failed += f
        problems.extend(probs)
    return attempted, failed, counters, problems


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced input sizes")
    parser.add_argument("--spans", help="file for the traced run's spans")
    args = parser.parse_args(argv)

    start = perf_counter()
    import workloads  # imports leetile

    workload = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = perf_counter() - start
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    passes, traced = timed_passes(workload, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_s,
        "pass_s": [p.wall for p in passes],
        "ops_per_pass": workload.ops_per_pass,
        "peak_rss_mib": peak_rss_mib,
    }
    # Each call's latency is its fastest repetition: interference from other
    # tenants of the host only adds time, and it comes in phases of seconds.
    best = [min(column) for column in zip(*(p.latencies for p in passes))]
    result["op_ms"] = {
        "p50": statistics.median(best),
        "p99": percentile(best, 99),
        "calls": len(best),
        "repetitions": len(passes),
    }
    if tracer is not None:
        result["traced_pass_s"] = [p.wall for p in traced]
        result["layers"] = tracing.layer_metrics(
            tracer.summary(), tracer.counts, len(traced), traced[0].output_bytes,
            workloads.SEARCH_KEYS,
        )
        if args.spans:
            tracer.write(args.spans)
        passes += traced

    attempted, failed, counters, problems = check_passes(workload, passes)
    result.update(attempted=attempted, failed=failed, counters=counters, problems=problems[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
