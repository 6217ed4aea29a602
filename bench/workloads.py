"""Seeded inputs, one timed pass, and the correctness gate of each workload.

Importing this module imports ``leetile``; the worker times that import as
part of set-up.  Every call into the package goes through a module
attribute (``cli.run``, ``tiling_core.verify_lattice``, ...) looked up at
call time, so the shims of ``tracing.install`` see it.

On ``verify`` the seed picks the unimodular scrambles, the quotient groups
and arms of the radius-2 rejects, the perturbations and the order of the
bases; the composition is fixed, so runs with different seeds do the same
amount of work of the same kinds and their metrics compare.  The search
and certify workloads have one fixed input each.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from time import perf_counter

from leetile import cli, profiles, tiling_core
from leetile.abelian_groups import LatticeBasis
from leetile.errors import ArmCollisionError

WORKLOADS = ("search", "certify-json", "verify")

SEARCH_BUDGET = 10**12  # never reached: every search below exhausts its group

# Groups of order 2n^2+2n+1 for n <= 8, in the CLI's output order.  The
# workload stops below n = 8: its single 10 s search would give a run three
# or four passes, too few to catch a quiet moment on a shared host.
SEARCH_GROUPS = {
    1: ("Z5",), 2: ("Z13",), 3: ("Z25", "Z5xZ5"), 4: ("Z41",), 5: ("Z61",),
    6: ("Z85",), 7: ("Z113",), 8: ("Z145",),
}
# With unit-orbit reduction the only solutions are the constructions for
# n = 1 and 2.
SEARCH_SOLUTIONS = {
    (1, "Z5"): [[[0], [1], [4]]],
    (2, "Z13"): [[[0], [1], [5], [8], [12]]],
}
SEARCH_TOP_N = 7
# (n, group) pairs whose node counts are per-layer metrics
SEARCH_KEYS = [f"n{n}.{g}" for n in range(1, 8) for g in SEARCH_GROUPS[n]]

CERTIFY_HI = 30_000
TABLE_DIMENSIONS = frozenset({3, 4, 13, 14, 17})  # n >= 3 at or below their branch threshold

SMOKE = {"search_top_n": 5, "certify_hi": 3000}


def build(name: str, seed: int, smoke: bool = False):
    if name == "search":
        return SearchWorkload(SMOKE["search_top_n"] if smoke else SEARCH_TOP_N)
    if name == "certify-json":
        return CertifyWorkload(SMOKE["certify_hi"] if smoke else CERTIFY_HI)
    if name == "verify":
        return VerifyWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


class Sink:
    """Stands in for stdout: counts and hashes the bytes, and keeps the
    text only when asked."""

    def __init__(self, keep: bool):
        self.nbytes = 0
        self.sha = hashlib.sha256()
        self.parts = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.nbytes += len(data)
        self.sha.update(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)


def _sink(keep, tracer):
    sink = Sink(keep)
    if tracer is not None:
        # Hashing is the benchmark's cost, not the CLI's: give it its own span.
        sink.write = tracer.span("bench.sink_write", sink.write)
    return sink


def _cli_call(argv, sink):
    try:
        with redirect_stdout(sink):
            return cli.run(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return f"raised {type(exc).__name__}: {exc}"


class Pass:
    """Timings and raw outputs of one pass; outputs are checked later,
    outside the timed section.  ``latencies`` (ms) has one entry per call
    the pass makes into leetile, in the same order on every pass."""

    def __init__(self, wall, latencies, outputs, output_bytes):
        self.wall = wall
        self.latencies = latencies
        self.outputs = outputs
        self.output_bytes = output_bytes


# -- search ---------------------------------------------------------------------


class SearchWorkload:
    """``leetile search --n N --budget B --json`` for N = 1..top_n, in
    process, in increasing N, with unit-orbit reduction (the default).  The
    inputs are the same for every seed."""

    def __init__(self, top_n: int):
        self.calls = [
            (n, ["search", "--n", str(n), "--budget", str(SEARCH_BUDGET), "--json"])
            for n in range(1, top_n + 1)
        ]
        self.ops_per_pass = sum(len(SEARCH_GROUPS[n]) for n in range(1, top_n + 1))

    def run_pass(self, tracer=None) -> Pass:
        latencies, outputs, nbytes = [], [], 0
        start = perf_counter()
        for n, argv in self.calls:
            sink = _sink(True, tracer)
            t0 = perf_counter()
            rc = _cli_call(argv, sink)
            latencies.append((perf_counter() - t0) * 1e3)
            outputs.append((n, rc, sink.text()))
            nbytes += sink.nbytes
        return Pass(perf_counter() - start, latencies, outputs, nbytes)

    def check(self, outputs):
        """(attempted, failed, counters, problems); one operation is one
        (n, group) search."""
        attempted = failed = 0
        counters, problems = {}, []
        for n, rc, text in outputs:
            groups = SEARCH_GROUPS[n]
            attempted += len(groups)
            try:
                got = {o["group_spec"]: o for o in json.loads(text)["outcomes"]} if rc == 0 else None
            except (ValueError, KeyError, TypeError):
                got = None
            if got is None or set(got) != set(groups):
                failed += len(groups)
                problems.append(f"search n={n}: exit {rc}, groups {sorted(got or ())}")
                continue
            for spec in groups:
                o = got[spec]
                want = SEARCH_SOLUTIONS.get((n, spec), [])
                if o.get("n") != n or o.get("exhausted") is not True or o.get("solutions") != want:
                    failed += 1
                    problems.append(
                        f"search n={n} {spec}: exhausted={o.get('exhausted')}, "
                        f"solutions {o.get('solutions')}, want {want}"
                    )
                counters[f"nodes.n{n}.{spec}"] = o.get("nodes_explored")
        return attempted, failed, counters, problems


# -- certify-json --------------------------------------------------------------


class CertifyWorkload:
    """``leetile certify --range 3:HI --json`` in process, stdout sent to a
    sink that counts and hashes the bytes."""

    def __init__(self, hi: int):
        self.hi = hi
        self.argv = ["certify", "--range", f"3:{hi}", "--json"]
        self.ops_per_pass = hi - 2
        self._reference = None

    def run_pass(self, tracer=None) -> Pass:
        sink = _sink(False, tracer)
        start = perf_counter()
        rc = _cli_call(self.argv, sink)
        wall = perf_counter() - start
        return Pass(wall, [wall * 1e3], (rc, sink.nbytes, sink.sha.hexdigest()), sink.nbytes)

    def reference(self):
        """One untimed pass whose output is kept and checked certificate by
        certificate; timed passes must match its bytes exactly."""
        if self._reference is None:
            sink = Sink(True)
            rc = _cli_call(self.argv, sink)
            key = (rc, sink.nbytes, sink.sha.hexdigest())
            self._reference = (key, self.check_text(rc, sink.text()))
        return self._reference

    def check_text(self, rc, text):
        """(failed, counts, problems) for one captured output."""
        n_certs = self.hi - 2
        want_counts = {"table": len(TABLE_DIMENSIONS), "inequality": n_certs - len(TABLE_DIMENSIONS)}
        try:
            data = json.loads(text) if rc == 0 else None
        except ValueError:
            data = None
        if not isinstance(data, dict):
            return n_certs, {}, [f"certify: exit {rc}, no JSON object"]
        problems = []
        top = {k: data.get(k) for k in ("lo", "hi", "complete", "gaps", "counts")}
        want_top = {"lo": 3, "hi": self.hi, "complete": True, "gaps": [], "counts": want_counts}
        if top != want_top:
            problems.append(f"certify: summary {top}, want {want_top}")
        certs = data.get("certificates", [])
        failed = max(0, n_certs - len(certs))
        for n, c in zip(range(3, self.hi + 1), certs):
            if not _certificate_ok(n, c):
                failed += 1
                if len(problems) < 10:
                    problems.append(f"certify: bad certificate for n={n}")
        if top != want_top:
            failed = n_certs
        return failed, data.get("counts", {}), problems

    def check(self, key):
        (ref_key, (ref_failed, counts, problems)) = self.reference()
        rc, nbytes, sha = key
        counters = {**{f"certs.{k}": v for k, v in sorted(counts.items())},
                    "output_bytes": nbytes, "output_sha256": sha}
        if key != ref_key:
            return self.ops_per_pass, self.ops_per_pass, counters, [
                f"certify: timed output (exit {rc}, {nbytes} B) differs from the checked one"
            ]
        return self.ops_per_pass, ref_failed, counters, list(problems)


def _certificate_ok(n: int, c) -> bool:
    try:
        if c["n"] != n or c["verdict"] != "nonexistent" or c["residue_tags"] != [n % 3, n % 5]:
            return False
        if c["justification"] == "inequality":
            a, b, k = c["poly"]
            value = a * n * n + b * n + k
            return value == c["evaluated_value"] and value > 0 and n > c["threshold"]
        return c["justification"] == "table" and n in TABLE_DIMENSIONS
    except (KeyError, TypeError, ValueError):
        return False


# -- verify --------------------------------------------------------------------

ACCEPT = "accept"


def _scramble(cols, rng, steps, mults):
    """Same lattice, new basis: random column additions (a unimodular
    change of basis), then a column shuffle and sign flips."""
    n = len(cols)
    cols = [list(c) for c in cols]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice(mults)
        cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
    rng.shuffle(cols)
    return [[-v for v in c] if rng.random() < 0.5 else c for c in cols]


def _scramble_any(cols, rng):
    if len(cols) <= 2:
        return _scramble(cols, rng, 6, (-2, -1, 1, 2))
    return _scramble(cols, rng, len(cols), (-1, 1))


def _tiling_2d(r):
    """Golomb-Welch: (r+1, r) and (-r, r+1) span a lattice tiling Z^2 by
    radius-r Lee spheres; |det| = 2r^2 + 2r + 1."""
    return [[r + 1, r], [-r, r + 1]]


def _kernel_basis(factors, arms):
    """Columns spanning the kernel of x -> sum x_i * arms[i] onto
    Z_{d1} x ... x Z_{dk}, where arms[j] is the j-th unit element for j < k."""
    n, k = len(arms), len(factors)
    cols = []
    for i in range(n):
        col = [0] * n
        if i < k:
            col[i] = factors[i]
        else:
            col[i] = 1
            for j in range(k):
                col[j] = -arms[i][j]
        cols.append(col)
    return cols


def _radius_1(n):
    """Radius-1 tiling of Z^n: the kernel of x -> sum i * x_i mod 2n+1."""
    return _kernel_basis((2 * n + 1,), [(i,) for i in range(1, n + 1)])


def _prime_squares(m):
    out, p = [], 3
    while p * p <= m:
        if m % (p * p) == 0:
            out.append(p)
        p += 2
    return out


def _radius_2_candidate(n, rng, collide):
    """A lattice of |det| = 2n^2+2n+1 in dimension n >= 3.  No such lattice
    tiles, so the verifiers must reject it: by an arm collision when two
    basis vectors share an image up to sign, else by the quadratic identity
    (algebraic) and a sphere collision (geometric)."""
    m = 2 * n * n + 2 * n + 1
    groups = [(m,)] + [(p, m // p) for p in _prime_squares(m)]
    factors = rng.choice(groups)
    k = len(factors)
    arms = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    neg = lambda g: tuple(-a % d for a, d in zip(g, factors))
    used = {(0,) * k, *arms, *map(neg, arms)}
    while len(arms) < n:
        g = tuple(rng.randrange(d) for d in factors)
        if g not in used:
            arms.append(g)
            used.update((g, neg(g)))
    if collide:
        arms[-1] = rng.choice((arms[-2], neg(arms[-2])))
    return _kernel_basis(factors, arms)


def _sweep_13():
    """Every sublattice of Z^2 of index 13 with its expected algebraic
    verdict.  L_c is the kernel of x -> x1 + c*x2 mod 13, and the last one
    the kernel of x -> x2.  Arms {0, +-1, +-c} tile exactly for c = 5, 8;
    c = 0, 1, 12 and the last lattice collapse arms."""
    out = [([[13, 0], [-c, 1]], ACCEPT if c in (5, 8) else
            "arm-collision" if c in (0, 1, 12) else "quadratic-identity") for c in range(13)]
    out.append(([[1, 0], [0, 13]], "arm-collision"))
    return out


class VerifyOp:
    """One basis and what the verifiers must say about it."""

    __slots__ = ("basis", "radius", "algebraic", "expected")

    def __init__(self, cols, radius, alg_verdict, geo_verdict=None):
        self.basis = LatticeBasis.from_columns(cols)
        self.radius = radius
        self.algebraic = alg_verdict is not None
        if geo_verdict is None:
            geo_verdict = ACCEPT if alg_verdict in (None, ACCEPT) else "collision"
        # The identity checks run only on accepted radius-2 candidates, and pass.
        self.expected = (geo_verdict, alg_verdict, True if alg_verdict == ACCEPT else None)


def verify_ops(seed: int, smoke: bool) -> list:
    rng = random.Random(f"verify/{seed}")
    # A pass takes about a second, so a run holds many passes; the few large
    # bases (radius 75 and 150, dimension 40 and 80, rejects up to n = 40)
    # make the latency tail.
    radii = list(range(1, 7)) if smoke else [*range(1, 31), 75, 150]
    dims = list(range(1, 7)) if smoke else [*range(1, 21), 40, 80]
    rejects = range(3, 6) if smoke else [*range(3, 13), 16, 20, 25, 30, 35, 40]
    sweep_copies = 2 if smoke else 20
    perturbed = (10, 5) if smoke else (80, 20)

    ops = []
    for r in radii:
        ops.append(VerifyOp(_scramble_any(_tiling_2d(r), rng), r, ACCEPT if r == 2 else None))
    for n in dims:
        ops.append(VerifyOp(_scramble_any(_radius_1(n), rng), 1, None))
    for n in rejects:
        for collide in (False, True):
            cols = _radius_2_candidate(n, rng, collide)
            ops.append(VerifyOp(_scramble_any(cols, rng), 2,
                                "arm-collision" if collide else "quadratic-identity"))
    for cols, verdict in _sweep_13():
        for _ in range(sweep_copies):
            ops.append(VerifyOp(_scramble_any(cols, rng), 2, verdict))
    # Scaling one column by 2 or 3 multiplies |det|, so the determinant
    # test must reject before any sphere point is scanned.
    for count, make, radius in ((perturbed[0], _tiling_2d, None), (perturbed[1], _radius_1, 1)):
        for _ in range(count):
            size = rng.randint(1, radii[-1]) if radius is None else rng.randint(2, min(20, dims[-1]))
            cols = make(size)
            i = rng.randrange(len(cols))
            cols[i] = [v * rng.choice((2, 3)) for v in cols[i]]
            ops.append(VerifyOp(_scramble_any(cols, rng), radius or size, None, "determinant"))
    rng.shuffle(ops)
    return ops


def run_verify_op(op: VerifyOp):
    """Geometric verdict, algebraic verdict where |det| allows a radius-2
    group model, and for accepted candidates the k = 2, 4 identity checks."""
    try:
        report = tiling_core.verify_lattice(op.basis, op.radius)
        geo = report.failed_condition or ACCEPT
        alg = ident = None
        if op.algebraic:
            try:
                candidate = tiling_core.to_group_model(op.basis)
            except ArmCollisionError:
                alg = "arm-collision"
            else:
                alg_report = tiling_core.check_conditions(candidate)
                alg = alg_report.failed_condition or ACCEPT
                if alg_report.accepted:
                    k2 = profiles.check_identities_k2(profiles.profile(candidate, 2))
                    _, k4 = profiles.check_identities_k4(profiles.profile(candidate, 4))
                    ident = k2.all_passed and k4.all_passed
        return (geo, alg, ident)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return ("raised", type(exc).__name__, str(exc))


class VerifyWorkload:
    """A seeded mix of bases through the geometric verifier and, where the
    determinant allows, the group model, the algebraic verifier and the
    profile identities."""

    def __init__(self, seed: int, smoke: bool):
        self.ops = verify_ops(seed, smoke)
        self.ops_per_pass = len(self.ops)

    def run_pass(self, tracer=None) -> Pass:
        latencies, outputs = [], []
        start = perf_counter()
        for op in self.ops:
            t0 = perf_counter()
            outputs.append(run_verify_op(op))
            latencies.append((perf_counter() - t0) * 1e3)
        return Pass(perf_counter() - start, latencies, outputs, 0)

    def check(self, outputs):
        failed, problems = 0, []
        verdicts = Counter()
        for op, got in zip(self.ops, outputs):
            geo, alg, _ = got
            agree = alg is None or (geo == ACCEPT) == (alg == ACCEPT)
            if got != op.expected or not agree:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"verify n={op.basis.n} r={op.radius}: got {got}, want {op.expected}")
            verdicts["/".join(str(v) for v in got)] += 1
        counters = {f"verdicts.{k}": v for k, v in sorted(verdicts.items())}
        return len(self.ops), failed, counters, problems
