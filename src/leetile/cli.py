"""Command-line interface.

One subcommand per subsystem: ``sphere``, ``groups``, ``verify``,
``profile``, ``search`` and ``certify``.  Every subcommand accepts
``--json`` for machine-readable output.  Exit codes: 0 success or accept,
1 reject or verification failure, 2 malformed input, 3 certification gap,
141 output pipe closed by its reader (``leetile ... | head``).

Group elements on the command line are semicolon-separated residue tuples
with comma-separated components, e.g. ``"0,0;1,2"``; one-component tuples
may drop the comma (``"0;1;12;5;8"``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .abelian_groups import AbelianGroup, LatticeBasis, enumerate_groups
from .certify import _certificate_json, _write_summary_json
from .certify import certify as _certify
from .certify import certify_range as _certify_range
from .errors import LeeTileError
from .lee_geometry import sphere_points, sphere_size
from .profiles import check_identities_k2, check_identities_k4, profile
from .search_engine import SearchOptions, search_group
from .tiling_core import TilingCandidate, check_conditions, radius2_group_order, verify_lattice

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_GAP = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it


def parse_arm_string(group: AbelianGroup, text: str) -> tuple:
    """Parse ``"0,0;1,2;..."`` into a tuple of group elements."""
    arms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty tuple in element list")
        residues = tuple(int(tok) for tok in chunk.split(","))
        group.check_element(residues)
        arms.append(residues)
    return tuple(arms)


def _emit(data: dict, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_sphere(args) -> int:
    size = sphere_size(args.n, args.r)
    points = sphere_points(args.n, args.r) if args.list else None
    data = {"n": args.n, "r": args.r, "size": size}
    lines = [str(size)]
    if points is not None:
        data["points"] = [list(p) for p in points]
        lines.extend(" ".join(str(c) for c in p) for p in points)
    _emit(data, args.json, lines)
    return EXIT_OK


def _cmd_groups(args) -> int:
    groups = enumerate_groups(args.order)
    data = {
        "order": args.order,
        "count": len(groups),
        "groups": [g.spec_string() for g in groups],
        "invariant_factors": [list(g.invariant_factors) for g in groups],
    }
    _emit(data, args.json, [g.spec_string() for g in groups])
    return EXIT_OK


def _report_lines(report) -> list[str]:
    lines = [report.verdict]
    if not report.accepted:
        lines.append(f"failed condition: {report.failed_condition}")
        if report.witness:
            lines.append(f"witness: {report.witness}")
    return lines


def _cmd_verify(args) -> int:
    if (args.basis is None) == (args.group is None):
        raise ValueError("give exactly one of --basis or --group")
    if args.basis is not None:
        basis = LatticeBasis.from_file(args.basis)
        report = verify_lattice(basis, args.r)
    else:
        if args.n is None or args.t is None:
            raise ValueError("--group mode needs --n and --t")
        group = AbelianGroup.from_spec(args.group)
        arms = parse_arm_string(group, args.t)
        candidate = TilingCandidate.from_arm_set(group, args.n, arms)
        report = check_conditions(candidate)
    _emit(report.to_dict(), args.json, _report_lines(report))
    return EXIT_OK if report.accepted else EXIT_REJECT


def _cmd_profile(args) -> int:
    group = AbelianGroup.from_spec(args.group)
    arms = parse_arm_string(group, args.t)
    candidate = TilingCandidate.from_arm_set(group, args.n, arms)
    report = check_conditions(candidate)
    if not report.accepted:
        _emit(
            {"verification": report.to_dict()},
            args.json,
            ["candidate rejected, no profile computed"] + _report_lines(report),
        )
        return EXIT_REJECT
    prof = profile(candidate, args.k)
    data = {"verification": report.to_dict(), "profile": prof.to_dict()}
    lines = [f"profile of the power-{args.k} product over {group.spec_string()}"]
    lines.extend(
        f"  multiplicity {i}: {c} elements" for i, c in sorted(prof.histogram.items())
    )
    if args.k == 2:
        identities = check_identities_k2(prof)
    else:
        delta_report, identities = check_identities_k4(prof)
        data["delta"] = delta_report.to_dict()
        lines.append(
            f"delta = {delta_report.delta} (raw {delta_report.delta_raw}, bounds [{-2 * args.n}, 0])"
        )
    data["identities"] = identities.to_dict()
    for c in identities.checks:
        lines.append(
            f"  {'PASS' if c.passed else 'FAIL'} {c.name}: {c.lhs} {c.relation} {c.rhs}"
        )
    _emit(data, args.json, lines)
    return EXIT_OK if identities.all_passed else EXIT_REJECT


def _cmd_search(args) -> int:
    options = SearchOptions(
        use_automorphism_reduction=not args.no_reduction,
        node_budget=args.budget,
    )
    if args.group is not None:
        groups = [AbelianGroup.from_spec(args.group)]
    else:
        groups = enumerate_groups(radius2_group_order(args.n))
    outcomes = [search_group(g, args.n, options) for g in groups]
    data = {"n": args.n, "outcomes": [o.to_dict() for o in outcomes]}
    lines = []
    for o in outcomes:
        lines.append(
            f"{o.group.spec_string()}: {len(o.solutions)} solution(s), "
            f"{o.nodes_explored} nodes, {'exhausted' if o.exhausted else 'budget hit'}"
        )
        for sol in o.solutions:
            lines.append("  " + ";".join(",".join(str(r) for r in g) for g in sol))
    _emit(data, args.json, lines)
    return EXIT_OK


def _certificate_lines(cert) -> list[str]:
    lines = [f"n={cert.n}: {cert.verdict} (justification: {cert.justification})"]
    if cert.branch_id:
        lines.append(f"  branch {cert.branch_id}" + (f" case {cert.branch_case}" if cert.branch_case else ""))
    if cert.justification == "inequality":
        lines.append(f"  requires {cert.inequality}, evaluated {cert.evaluated_value} > 0")
    if cert.note:
        lines.append(f"  note: {cert.note}")
    return lines


def _cmd_certify(args) -> int:
    if (args.n is None) == (args.range is None):
        raise ValueError("give exactly one of --n or --range")
    if args.n is not None:
        try:
            cert = _certify(args.n, search_fallback=args.search_fallback)
        except LeeTileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_GAP
        print(next(_certificate_json([cert])) if args.json else "\n".join(_certificate_lines(cert)))
        return EXIT_OK
    try:
        lo_text, hi_text = args.range.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"--range must look like LO:HI, got {args.range!r}") from None
    summary = _certify_range(lo, hi, search_fallback=args.search_fallback)
    gaps = summary.gaps
    if args.json:
        _write_summary_json(summary, sys.stdout)
        print()
    else:
        print(f"certified {len(summary.certificates)} of {hi - lo + 1} dimensions in [{lo}, {hi}]")
        print("counts: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.counts.items())))
        if gaps:
            print(f"GAPS: {list(gaps)}")
    return EXIT_GAP if gaps else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leetile",
        description="Lee-sphere lattice tilings: verify, profile, search, certify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sphere", help="size (and points) of a Lee sphere")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--list", action="store_true", help="print the points, one per line")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("groups", help="abelian groups of a given order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="verify a basis (geometric) or a group candidate (algebraic)")
    p.add_argument("--basis", help="basis file: first line n, then n rows of n integers (columns generate)")
    p.add_argument("--r", type=int, default=2, help="radius for --basis mode (default 2)")
    p.add_argument("--group", help="group spec, e.g. Z13 or Z5xZ5 or 5,5")
    p.add_argument("--n", type=int, help="dimension for --group mode")
    p.add_argument("--t", help="arm set, e.g. \"0;1;12;5;8\"")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("profile", help="multiplicity profile and identity report")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--k", type=int, choices=(2, 4), required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="exhaustive arm-set search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", help="restrict to one group instead of all of order 2n^2+2n+1")
    p.add_argument("--budget", type=int, default=None, help="node budget (required for n >= 7)")
    p.add_argument("--no-reduction", action="store_true", help="disable automorphism reduction")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("certify", help="nonexistence certificates")
    p.add_argument("--n", type=int)
    p.add_argument("--range", help="LO:HI")
    p.add_argument("--search-fallback", action="store_true",
                   help="settle below-threshold dimensions by search instead of the table")
    p.add_argument("--json", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on the first call only: building it
    costs about a millisecond, more than a small search takes.  Parsing
    leaves it unchanged."""
    return build_parser()


_HANDLERS = {
    "sphere": _cmd_sphere,
    "groups": _cmd_groups,
    "verify": _cmd_verify,
    "profile": _cmd_profile,
    "search": _cmd_search,
    "certify": _cmd_certify,
}


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except BrokenPipeError:
        raise  # not malformed input: ``main`` handles it
    except (ValueError, OSError, LeeTileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    """``run``, and exit quietly with ``EXIT_PIPE`` once the reader of
    stdout has gone away."""
    try:
        code = run(argv)
        sys.stdout.flush()  # a closed pipe shows here if the output fit the buffer
        return code
    except BrokenPipeError:
        # What is still buffered goes to devnull, so the flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
