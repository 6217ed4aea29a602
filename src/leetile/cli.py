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
import operator
import os
import sys
from itertools import islice

from .abelian_groups import AbelianGroup, LatticeBasis, enumerate_groups
from .certify import _JSON_CHUNK, _certificate_json
from .certify import certify as _certify
from .certify import certify_range as _certify_range
from .errors import LeeTileError, RejectedCandidateError
from .lee_geometry import sphere_size, walk_sphere
from .profiles import check_identities_k2, check_identities_k4, profile
from .search_engine import search_group
from .tiling_core import TilingCandidate, VerificationReport, check_conditions, radius2_group_order, verify_lattice

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


def _write_pieces(head: str, sep: str, texts, per_write: int) -> bool:
    """Write ``head`` and then ``texts`` joined by ``sep`` to stdout,
    ``per_write`` texts a write, and say whether any text came (with none,
    nothing is written).  A long listing is never held as one string.  A
    piece under 128 KiB keeps each buffer made for it (the joined text, its
    concatenation, the bytes a stream encodes it to) below glibc malloc's
    default mmap threshold, so the heap reuses them from piece to piece."""
    lead = head
    while chunk := list(islice(texts, per_write)):
        sys.stdout.write(lead + sep.join(chunk))
        lead = sep
    return lead is not head


def _write_listing(doc: dict, texts, per_write: int) -> None:
    """Print ``json.dumps(doc, indent=2)`` with ``texts`` as the items of
    doc's last field, which ``doc`` leaves an empty list.  Each text is the
    indent-2 JSON of one item, every line after the first indented by four
    spaces; they go out ``per_write`` at a time."""
    empty = json.dumps(doc, indent=2)
    if _write_pieces(empty[: -len("[]\n}")] + "[\n    ", ",\n    ", texts, per_write):
        print("\n  ]\n}")
    else:
        print(empty)


# Coordinates per write of ``sphere --list``, 2-6 KB of text or 10-25 KB of
# JSON: the listing goes out in pieces as the walk makes its points.
_LIST_PIECE = 1000


def _cmd_sphere(args) -> int:
    size = sphere_size(args.n, args.r)
    data = {"n": args.n, "r": args.r, "size": size}
    if not args.list:
        _emit(data, args.json, [str(size)])
        return EXIT_OK
    zeros = [[0] * (2 * args.r + 1)] * args.n
    points = (point for point, _ in walk_sphere(args.n, args.r, zeros, operator.add, 0))
    # Each point's text is made as the walk makes the point (the walk reuses
    # one list).
    per_write = max(1, _LIST_PIECE // args.n)
    if args.json:
        texts = ("[\n      " + ",\n      ".join(map(str, point)) + "\n    ]" for point in points)
        _write_listing({**data, "points": []}, texts, per_write)
    else:
        _write_pieces(f"{size}\n", "\n", (" ".join(map(str, point)) for point in points), per_write)
        print()
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


def _candidate(args) -> TilingCandidate:
    """The candidate of ``--group``, ``--n`` and ``--t``."""
    group = AbelianGroup.from_spec(args.group)
    return TilingCandidate(group, args.n, parse_arm_string(group, args.t))


def _cmd_verify(args) -> int:
    if (args.basis is None) == (args.group is None):
        raise ValueError("give exactly one of --basis or --group")
    if args.basis is not None:
        if args.n is not None or args.t is not None:
            raise ValueError("--n and --t apply to --group mode only; a basis file gives n")
        basis = LatticeBasis.from_file(args.basis)
        report = verify_lattice(basis, args.r)
    else:
        if args.n is None or args.t is None:
            raise ValueError("--group mode needs --n and --t")
        if args.r != 2:
            raise ValueError(f"--group mode checks radius 2 only, got --r {args.r}")
        report = check_conditions(_candidate(args))
    _emit(report.to_dict(), args.json, _report_lines(report))
    return EXIT_OK if report.accepted else EXIT_REJECT


def _cmd_profile(args) -> int:
    candidate = _candidate(args)
    try:
        prof = profile(candidate, args.k)
    except RejectedCandidateError as exc:
        _emit(
            {"verification": exc.report.to_dict()},
            args.json,
            ["candidate rejected, no profile computed"] + _report_lines(exc.report),
        )
        return EXIT_REJECT
    data = {"verification": VerificationReport(accepted=True).to_dict(), "profile": prof.to_dict()}
    lines = [f"profile of the power-{args.k} product over {candidate.group.spec_string()}"]
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
    if args.group is not None:
        groups = [AbelianGroup.from_spec(args.group)]
    else:
        groups = enumerate_groups(radius2_group_order(args.n))
    outcomes = [
        search_group(g, args.n, use_automorphism_reduction=not args.no_reduction, node_budget=args.budget)
        for g in groups
    ]
    data = {"n": args.n, "outcomes": [o.to_dict() for o in outcomes]} if args.json else None
    _emit(data, args.json, _search_lines(outcomes))
    return EXIT_OK


def _search_lines(outcomes):
    """The text lines of ``search``, made only when they are printed."""
    for o in outcomes:
        yield (
            f"{o.group.spec_string()}: {len(o.solutions)} solution(s), "
            f"{o.nodes_explored} nodes, {'exhausted' if o.exhausted else 'budget hit'}"
        )
        for sol in o.solutions:
            yield "  " + ";".join(",".join(str(r) for r in g) for g in sol)


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
        _emit(cert.to_dict(), args.json, _certificate_lines(cert))
        return EXIT_OK
    try:
        lo_text, hi_text = args.range.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"--range must look like LO:HI, got {args.range!r}") from None
    summary = _certify_range(lo, hi, search_fallback=args.search_fallback)
    gaps = summary.gaps
    if args.json:
        texts = _certificate_json(summary, "    ")
        _write_listing({**summary._head(), "certificates": []}, texts, _JSON_CHUNK)
    else:
        print(f"certified {hi - lo + 1 - len(gaps)} of {hi - lo + 1} dimensions in [{lo}, {hi}]")
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
