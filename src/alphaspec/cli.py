"""Command-line interface.

Subcommands::

    rho       radius of one graph (edge-list file/stdin or inline graph6)
    matching  matching number, optionally with the deficiency witness
    bound     regime verdict and bound for (n, beta) at alpha
    classify  alias of bound
    verify    exhaustive check of one order, all feasible beta
    family    best join family for (n, beta) at alpha
    report    verification sweep over a range of orders and alphas

Alpha is accepted as a decimal or an exact rational like ``1/2``; the
rational form is preferred because the threshold regime is decided by
exact arithmetic.  Exit codes: 0 success / all pass, 1 verification
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .enumeration import BUILTIN_ORDER_CAP, resolve_jobs
from .graphs import Graph, parse_edge_list, parse_graph6
from .matching import matching_number, tutte_berge_witness
from .spectral import DEFAULT_TOL, as_fraction, spectral_radius
from .theorem import EXTREMAL_GRAPHS, classify_regime
from .verify import (
    DEFAULT_REPORT_TOL,
    REPORT_FIELDS,
    FamilySearchResult,
    family_search,
    verify_order,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


def sig12(value: float) -> str:
    """12 significant digits, trailing zeros kept; exact zero prints 0."""
    if value == 0:
        return "0"
    return format(value, "#.12g")


# The radius and the bounds are evaluated in floating point: a bound
# past the threshold needs (alpha + 1) * n of at most
# spectral.SECULAR_ORDER_LIMIT (2e154), or it exits 2.
ALPHA_MAX = 10**150


def _alpha_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid alpha {text!r}: use a decimal or p/q")
    try:
        value = as_fraction(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value > ALPHA_MAX:
        raise argparse.ArgumentTypeError(f"alpha {text!r} is too large: at most {ALPHA_MAX:.0e} is supported")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every argument starting with "-" and a
    digit, or "-." and a digit, as a value, not an option: argparse alone
    takes only "-1" and "-1.5" so, and "--alpha -1/2" or "--alpha -1e0"
    would fail as a missing value instead of reaching the alpha check.
    No option of this parser starts so.  Its subparsers are of this class
    too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    """The one definition of the ``alphaspec`` argument tree.  Each call
    builds a new tree; ``main`` builds it once per process, on first use,
    and reuses it for every later call."""
    parser = _Parser(
        prog="alphaspec",
        description="alpha-spectral radius and extremal bounds for graphs with given matching number",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_alpha(p, default="0"):
        p.add_argument("--alpha", type=_alpha_arg, default=Fraction(default),
                       help="nonnegative alpha, decimal or p/q (default %(default)s)")

    def add_format(p):
        p.add_argument("--format", choices=("human", "json-lines", "csv"), default="human",
                       help="output format (default %(default)s)")

    def add_graph_input(p):
        p.add_argument("--input", metavar="PATH",
                       help="edge-list file ('n m' header then 'u v' lines); '-' reads stdin")
        p.add_argument("--graph6", metavar="G6", help="inline graph6 string")

    p = sub.add_parser("rho", help="alpha-spectral radius of one graph")
    add_graph_input(p)
    add_alpha(p)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL,
                   help="residual tolerance (default %(default)s)")
    add_format(p)

    p = sub.add_parser("matching", help="matching number of one graph")
    add_graph_input(p)
    p.add_argument("--witness", action="store_true",
                   help="also print the deficiency witness set (the Gallai-Edmonds set A(G))")
    add_format(p)

    p = sub.add_parser("bound", aliases=["classify"], help="bound for (n, beta) at alpha")
    p.set_defaults(command="bound")  # the alias dispatches as bound
    p.add_argument("n", type=int)
    p.add_argument("beta", type=int)
    add_alpha(p)
    add_format(p)

    p = sub.add_parser("verify", help="exhaustive verification of one order")
    p.add_argument("n", type=int)
    add_alpha(p)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_REPORT_TOL,
                   help="value tolerance (default %(default)s)")
    p.add_argument("--graph6", metavar="FILE",
                   help="graph6 file with one class per line (required for n > 8)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count, at most the CPU count (default %(default)s)")
    add_format(p)

    p = sub.add_parser("family", help="best join family for (n, beta) at alpha")
    p.add_argument("n", type=int)
    p.add_argument("beta", type=int)
    add_alpha(p)
    add_format(p)

    p = sub.add_parser("report", help="verification sweep over orders and alphas")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--alphas", default="0,1/2,1,2",
                   help="comma-separated alpha list (default %(default)s)")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_REPORT_TOL,
                   help="value tolerance (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count, at most the CPU count (default %(default)s)")
    p.add_argument("--output", metavar="PATH", help="write records here instead of stdout")
    add_format(p)
    return parser


def _load_graph(args) -> Graph:
    if (args.input is None) == (args.graph6 is None):
        raise ValueError("exactly one of --input or --graph6 is required")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.input == "-":
        return parse_edge_list(sys.stdin.read())
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _csv_cell(value) -> str:
    """A list is ``;``-joined, a string is written as is, anything else
    (int, float, bool) as JSON.  No cell needs quoting: graph6 bytes are
    63..126, never a comma."""
    if isinstance(value, list):
        return ";".join(map(_csv_cell, value))
    return value if isinstance(value, str) else json.dumps(value)


def _write(fmt: str, records: list[dict], human: list[str], fields: tuple[str, ...] | None = None, out=None) -> None:
    """Write ``records`` to ``out`` (default stdout) in ``fmt``: one JSON
    object per line (``json-lines``); a header of ``fields`` (default the
    first record's keys) and one row per record (``csv``); or the
    ``human`` lines."""
    if fmt == "json-lines":
        lines = [json.dumps(r) for r in records]
    elif fmt == "csv":
        header = list(fields or records[0])
        lines = [",".join(header)] + [",".join(_csv_cell(r[k]) for k in header) for r in records]
    else:
        lines = human
    for line in lines:
        print(line, file=out)


def cmd_rho(args) -> int:
    g = _load_graph(args)
    result = spectral_radius(g, args.alpha, tol=args.tol)
    record = {
        "n": g.n,
        "alpha": str(args.alpha),
        "rho": result.rho,
        "residual": result.residual,
    }
    _write(args.format, [record], [
        f"rho = {sig12(result.rho)}",
        f"residual = {result.residual:.3e}",
    ])
    return EXIT_OK


def cmd_matching(args) -> int:
    g = _load_graph(args)
    # the witness's blossom search also gives beta
    witness = tutte_berge_witness(g) if args.witness else None
    beta = witness.beta if witness else matching_number(g)
    record = {"n": g.n, "beta": beta}
    human = [f"beta = {beta}"]
    if witness:
        record.update(
            witness_set=list(witness.witness_set),
            s=witness.s,
            odd_components=witness.odd_components,
            q=witness.q,
        )
        human.append(
            f"witness S = {{{', '.join(map(str, witness.witness_set))}}} "
            f"(s={witness.s}, odd components={witness.odd_components}, q={witness.q})"
        )
    _write(args.format, [record], human)
    return EXIT_OK


def _verdict_record(verdict) -> dict:
    return {
        "n": verdict.n,
        "beta": verdict.beta,
        "alpha": str(verdict.alpha),
        "case": verdict.case_number,
        "case_id": verdict.case_id,
        "n_star": str(verdict.n_star),
        "bound": verdict.predicted_rho,
        "extremal": list(verdict.extremal_descriptors),
        "sampled_region": verdict.sampled_region,
    }


# An exact value longer than this (n* runs past 300 characters at
# alpha = 1e150) prints on a human line as its float alone.
_EXACT_CHARS = 40


def _verdict_human(verdict) -> list[str]:
    n_star, alpha = verdict.n_star, verdict.alpha
    exact = f"n* = {n_star}" + (f" = {float(n_star):.6g}" if n_star.denominator != 1 else "")
    lines = [
        f"case ({verdict.case_number}) {verdict.case_id}: n={verdict.n} beta={verdict.beta} "
        + (f"alpha={alpha}" if len(str(alpha)) <= _EXACT_CHARS else f"alpha ≈ {float(alpha):.6g}"),
        exact if len(str(n_star)) <= _EXACT_CHARS else f"n* ≈ {float(n_star):.6g}",
        f"bound = {sig12(verdict.predicted_rho)}",
    ]
    for d in verdict.extremal_descriptors:
        lines.append(f"extremal: {d} ({EXTREMAL_GRAPHS[d][0]})")
    if verdict.sampled_region:
        lines.append("note: tight region, bound cross-checked by sampled positivity")
    return lines


def cmd_bound(args) -> int:
    verdict = classify_regime(args.n, args.beta, args.alpha)
    _write(args.format, [_verdict_record(verdict)], _verdict_human(verdict))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verify_order(
        args.n, args.alpha, tol=args.tol, jobs=args.jobs, source=args.graph6
    )
    all_pass = all(r.passed for r in reports)
    human = [r.to_human() for r in reports]
    human.append(f"{'all pass' if all_pass else 'FAILURES PRESENT'} "
                 f"({len(reports)} records, n={args.n}, alpha={args.alpha})")
    _write(args.format, [r.record() for r in reports], human, REPORT_FIELDS)
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED


def cmd_family(args) -> int:
    result: FamilySearchResult = family_search(args.n, args.beta, args.alpha)
    record = {
        "n": result.n,
        "beta": result.beta,
        "alpha": str(result.alpha),
        "s": result.best.s,
        "parts": list(result.best.parts),
        "rho": result.rho,
        "families_scanned": result.families_scanned,
        "canonical_shape": result.canonical_shape,
        "matches_prediction": result.matches_prediction,
    }
    _write(args.format, [record], [
        f"best family: core s={result.best.s}, parts={list(result.best.parts)}",
        f"rho = {sig12(result.rho)}",
        f"families scanned = {result.families_scanned}",
        f"one-big-clique shape = {result.canonical_shape}",
        f"matches prediction = {result.matches_prediction}",
    ])
    return EXIT_OK if (result.canonical_shape and result.matches_prediction) else EXIT_VERIFICATION_FAILED


def cmd_report(args) -> int:
    try:
        alphas = [_alpha_arg(tok.strip()) for tok in args.alphas.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(str(exc)) from None
    if not alphas:
        raise ValueError(f"no alpha given in --alphas {args.alphas!r}")
    jobs = resolve_jobs(args.jobs)
    if args.n_min > args.n_max:
        raise ValueError(f"empty order range: --n-min {args.n_min} is above --n-max {args.n_max}")
    if args.n_max > BUILTIN_ORDER_CAP:
        raise ValueError(f"--n-max {args.n_max} exceeds BUILTIN_ORDER_CAP = {BUILTIN_ORDER_CAP}; use verify --graph6")
    # --output is written to a temporary file beside it and renamed into
    # place only once every record is written
    temp = f"{args.output}.{os.getpid()}.tmp" if args.output else None
    out = open(temp, "x", encoding="utf-8") if temp else sys.stdout
    try:
        reports = [
            r
            for n in range(args.n_min, args.n_max + 1)
            for a in alphas
            for r in verify_order(n, a, tol=args.tol, jobs=jobs)
        ]
        all_pass = all(r.passed for r in reports)
        human = [r.to_human() for r in reports]
        if not args.output:
            human.append(f"{'all pass' if all_pass else 'FAILURES PRESENT'} ({len(reports)} records)")
        _write(args.format, [r.record() for r in reports], human, REPORT_FIELDS, out)
        if temp:
            out.close()
            os.replace(temp, args.output)
    except BaseException:
        if temp:
            out.close()
            os.remove(temp)
        raise
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED


_COMMANDS = {
    "rho": cmd_rho,
    "matching": cmd_matching,
    "bound": cmd_bound,
    "verify": cmd_verify,
    "family": cmd_family,
    "report": cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import: importing the module builds nothing
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one ``alphaspec`` command and return its exit code.  ``main``
    may be called repeatedly in one process: the parser is built once, on
    first use, and each call parses its ``argv`` into a new namespace, so
    no option carries over from an earlier call.  Help text wraps to the
    terminal width at the time it is printed."""
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # a Graph6Error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
