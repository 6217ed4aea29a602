"""Span recording around the calls one leetile module makes into another.

Nothing under ``src/`` changes: ``install`` replaces, at run time, the names
a module imported from another module (and a few methods called across
modules) with shims that record a span per call.  ``uninstall`` puts the
originals back.

A span is ``(id, parent_id, name, start, end)``; the layer is the part of
the name before the first dot.  Calls too frequent to keep one span each
(``project``, once per sphere point) are folded into one leaf record per
parent span: ``(parent_id, name, calls, total_seconds)``.  A span's self
time is its duration minus the time its child spans and leaf records
cover; the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import types
from collections import Counter
from time import perf_counter

LAYERS = (
    "search_engine",
    "certify",
    "cli",
    "lee_geometry",
    "abelian_groups",
    "tiling_core",
    "group_ring",
    "profiles",
)


class Tracer:
    """In-memory span store plus exact counters recorded at the shims."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list] = {}
        self.counts: Counter = Counter()
        self._stack = [0]  # 0 is the root: a call made by the benchmark itself
        self._next_id = 1

    def span(self, name, fn, count=None):
        """Shim recording one span per call; ``count(counts, args, result,
        error)`` adds exact counters from the call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def shim(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
                if count is not None:
                    count(counts, args, result, error)

        return shim

    def leaf(self, name, fn):
        """Shim folding every call under one parent span into one record."""
        leaves, stack = self.leaves, self._stack

        def shim(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            key = (stack[-1], name)
            rec = leaves.get(key)
            if rec is None:
                leaves[key] = [1, elapsed]
            else:
                rec[0] += 1
                rec[1] += elapsed
            return result

        return shim

    def summary(self) -> dict:
        """Per-name call count, inclusive seconds and self seconds."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for (parent, _), (_, total) in self.leaves.items():
            child_time[parent] = child_time.get(parent, 0.0) + total
        out: dict[str, list] = {}
        for sid, _, name, start, end in self.spans:
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += (end - start) - child_time.get(sid, 0.0)
        for (_, name), (calls, total) in self.leaves.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += total
        return {name: {"calls": c, "incl_s": i, "self_s": s} for name, (c, i, s) in out.items()}

    def write(self, path):
        """Write every span and leaf record as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                    "leaf_fields": ["parent", "name", "calls", "total_s"],
                    "leaves": [[p, n, c, t] for (p, n), (c, t) in self.leaves.items()],
                },
                fh,
            )


# -- counters recorded at the shims ------------------------------------------


def _count_search(counts, args, outcome, error):
    if outcome is None:
        return
    counts["search_engine.outcomes"] += 1
    counts["search_engine.exhausted"] += int(outcome.exhausted)
    counts["search_engine.nodes"] += outcome.nodes_explored
    counts["search_engine.solutions"] += len(outcome.solutions)
    counts[f"search_engine.nodes.n{outcome.n}.{outcome.group.spec_string()}"] += outcome.nodes_explored


def _count_certify(counts, args, summary, error):
    if summary is None:
        return
    counts["certify.certs"] += len(summary.certificates)
    for justification, k in summary.counts.items():
        counts[f"certify.{justification}"] += k


def _count_points(counts, args, points, error):
    if points is not None:
        counts["lee_geometry.points"] += len(points)


def _count_verdict(counts, args, report, error):
    if report is not None:
        key = "accept" if report.accepted else report.failed_condition.replace("-", "_")
        counts[f"tiling_core.{key}"] += 1


def _count_arm_collision(counts, args, result, error):
    if error is not None and type(error).__name__ == "ArmCollisionError":
        counts["tiling_core.arm_collision"] += 1


def _count_mul_terms(counts, args, result, error):
    a, b = (getattr(x, "_coeffs", None) for x in args)
    if a is not None and b is not None:  # not a scalar product
        counts["group_ring.mul_terms"] += len(a) * len(b)


def install(tracer: Tracer):
    """Patch the cross-module call sites; returns what ``uninstall`` needs.
    A name the program no longer has is skipped, so its layer reads zero."""
    from leetile import abelian_groups, cli, group_ring, profiles, search_engine, tiling_core

    certify = importlib.import_module("leetile.certify")  # ``leetile.certify`` is also a function
    spans = [
        # entry points the benchmark itself calls
        (cli, "run", "cli.run", None),
        (tiling_core, "verify_lattice", "tiling_core.verify_lattice", _count_verdict),
        (tiling_core, "to_group_model", "tiling_core.to_group_model", _count_arm_collision),
        (tiling_core, "check_conditions", "tiling_core.check_conditions", _count_verdict),
        (profiles, "profile", "profiles.profile", None),
        (profiles, "check_identities_k2", "profiles.identities", None),
        (profiles, "check_identities_k4", "profiles.identities", None),
        # names one module imported from another
        (cli, "search_group", "search_engine.search_group", _count_search),
        (cli, "enumerate_groups", "abelian_groups.enumerate_groups", None),
        (cli, "_certify_range", "certify.certify_range", _count_certify),
        (search_engine, "check_conditions", "tiling_core.check_conditions", _count_verdict),
        (profiles, "check_conditions", "tiling_core.check_conditions", _count_verdict),
        (tiling_core, "quotient_map", "abelian_groups.quotient_map", None),
        (tiling_core, "sphere_points", "lee_geometry.sphere_points", _count_points),
        (abelian_groups, "smith_normal_form", "abelian_groups.smith_normal_form", None),
        # methods called across modules
        (abelian_groups.LatticeBasis, "det", "abelian_groups.det", None),
        (group_ring.GroupRingElement, "__mul__", "group_ring.mul", _count_mul_terms),
        (group_ring.GroupRingElement, "power_map", "group_ring.power_map", None),
        (certify.CertificationSummary, "to_dict", "cli.to_dict", None),
        (search_engine.SearchOutcome, "to_dict", "cli.to_dict", None),
    ]
    originals = []

    def patch(owner, attr, shim):
        originals.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, shim)

    for owner, attr, name, count in spans:
        fn = getattr(owner, attr, None)
        if fn is not None:
            patch(owner, attr, tracer.span(name, fn, count))
    if hasattr(tiling_core, "project"):
        patch(tiling_core, "project", tracer.leaf("abelian_groups.project", tiling_core.project))
    if hasattr(cli, "json"):
        patch(cli, "json", types.SimpleNamespace(dumps=tracer.span("cli.json_dumps", json.dumps)))
    return originals


def uninstall(originals):
    for owner, attr, original in reversed(originals):
        if original is None:  # was inherited
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def layer_metrics(summary: dict, counts: Counter, passes: int, output_bytes: int, search_keys) -> dict:
    """Per-layer metrics per traced pass: self time per layer, named
    inclusive times, and exact counts.  ``search_keys`` name the
    (n, group) pairs whose node counts are reported, as ``n3.Z5xZ5``."""

    def incl(name):
        return summary.get(name, {}).get("incl_s", 0.0) / passes

    def self_of(name):
        return summary.get(name, {}).get("self_s", 0.0) / passes

    def count(name):
        total = counts.get(name, 0)
        if total % passes:
            raise ValueError(f"counter {name} = {total} is not the same on each of {passes} passes")
        return total // passes

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, rec in summary.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += rec["self_s"] / passes
    metrics = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    outcomes = count("search_engine.outcomes")
    nodes = count("search_engine.nodes")
    engine_s = layer_self["search_engine"]
    metrics.update({
        "search_engine.nodes": (nodes, "count"),
        "search_engine.nodes_per_s": (nodes / engine_s if engine_s else 0.0, "1/s"),
        "search_engine.exhausted_frac": (count("search_engine.exhausted") / outcomes if outcomes else 0.0, "ratio"),
        "search_engine.solutions": (count("search_engine.solutions"), "count"),
        "certify.certs": (count("certify.certs"), "count"),
        "certify.inequality": (count("certify.inequality"), "count"),
        "certify.table": (count("certify.table"), "count"),
        "cli.to_dict_s": (incl("cli.to_dict"), "s"),
        "cli.json_dumps_s": (incl("cli.json_dumps"), "s"),
        "cli.output_bytes": (output_bytes, "B"),
        "lee_geometry.sphere_points_s": (incl("lee_geometry.sphere_points"), "s"),
        "lee_geometry.points": (count("lee_geometry.points"), "count"),
        "abelian_groups.smith_normal_form_s": (incl("abelian_groups.smith_normal_form"), "s"),
        "abelian_groups.quotient_map_s": (incl("abelian_groups.quotient_map"), "s"),
        "abelian_groups.project_calls": (summary.get("abelian_groups.project", {}).get("calls", 0) // passes, "count"),
        "abelian_groups.project_s": (incl("abelian_groups.project"), "s"),
        "abelian_groups.enumerate_groups_s": (incl("abelian_groups.enumerate_groups"), "s"),
        "abelian_groups.det_s": (incl("abelian_groups.det"), "s"),
        "tiling_core.verify_lattice.self_s": (self_of("tiling_core.verify_lattice"), "s"),
        "tiling_core.check_conditions.self_s": (self_of("tiling_core.check_conditions"), "s"),
        "tiling_core.to_group_model_s": (incl("tiling_core.to_group_model"), "s"),
        "group_ring.mul_s": (incl("group_ring.mul"), "s"),
        "group_ring.mul_terms": (count("group_ring.mul_terms"), "count"),
        "group_ring.power_map_s": (incl("group_ring.power_map"), "s"),
        "profiles.profile_s": (incl("profiles.profile"), "s"),
        "profiles.identities_s": (incl("profiles.identities"), "s"),
    })
    for key in search_keys:
        metrics[f"search_engine.nodes.{key}"] = (count(f"search_engine.nodes.{key}"), "count")
    for key in ("accept", "collision", "determinant", "arm_collision", "quadratic_identity"):
        metrics[f"tiling_core.{key}"] = (count(f"tiling_core.{key}"), "count")
    return metrics
