"""Command-line front end for the box-product determinant library.

Subcommands:

* ``det N M``     one pair, every affordable method, full report.
* ``charpoly N``  ascending coefficients of the size-N path polynomial.
* ``sweep``       an (n, m) determinant table in pretty, JSON or CSV form.
* ``identities``  the divisibility suite, summarized per family.
* ``bench``       wall-clock comparison of the methods, CSV.

``det``, ``sweep`` and ``bench`` render the same pipeline: one
:func:`~boxdet.det_methods.verify_all` report per (n, m) pair, printed in
full before any disagreement is detailed on stderr.

Exit status: 0 on success with full agreement, 1 when methods disagree or an
identity check fails, 2 for usage errors.  Every command runs in the
calling thread, so output order is the order of the work.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Collection, Iterator
from functools import lru_cache

from .det_methods import (
    DEFAULT_BLOCK_CEILING,
    DEFAULT_DIRECT_CEILING,
    METHODS,
    DetReport,
    IdentityReport,
    identity_suite,
    verify_all,
)
from .polynomials import path_charpoly, poly_to_json

FORMATS = ("pretty", "json", "csv")

# Method names as spelled on the command line, in METHODS order.
CLI_METHODS = tuple(cli_name for _, cli_name, _ in METHODS)

SWEEP_CSV_HEADER = ("n", "m", "gcd", "det", "methods_agree")
BENCH_CSV_HEADER = ("n", "m", "method", "status", "det", "elapsed_ms")

EXIT_OK = 0
EXIT_FAILURE = 1


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


def parse_sizes(text: str) -> list[tuple[int, int]]:
    """Parse a bench size list like ``4x4,8x8``; empty input means no sizes."""
    if not text.strip():
        return []
    sizes = []
    for chunk in text.split(","):
        n_text, sep, m_text = chunk.strip().partition("x")
        if not sep:
            raise argparse.ArgumentTypeError(f"size must look like NxM: {chunk!r}")
        sizes.append((positive_int(n_text), positive_int(m_text)))
    return sizes


# --- det, sweep and bench ----------------------------------------------------


def _verify(
    args: argparse.Namespace, pairs: Collection[tuple[int, int]]
) -> list[DetReport]:
    """One report per (n, m) pair, under the command's methods and ceilings."""
    methods = {name for name, cli_name, _ in METHODS if cli_name in args.methods}
    return [
        verify_all(
            n,
            m,
            ceiling=args.ceiling,
            block_ceiling=args.block_ceiling,
            methods=methods,
        )
        for n, m in pairs
    ]


def _exit_status(reports: list[DetReport]) -> int:
    """Detail every disagreement on stderr; EXIT_FAILURE if there was one."""
    status = EXIT_OK
    for report in reports:
        if not report.agree:
            detail = ", ".join(f"{k}={v}" for k, v in report.results().items())
            print(
                f"disagreement at n={report.n} m={report.m}: {detail}",
                file=sys.stderr,
            )
            status = EXIT_FAILURE
    return status


def _method_rows(
    report: DetReport, cli_names: Collection[str]
) -> Iterator[tuple[str, str, int | None, float | None]]:
    """``(cli name, library name, value, ms)`` for each method in
    ``cli_names``, in METHODS order; value and ms are None for a method
    that its ceiling skipped."""
    for name, cli_name, _ in METHODS:
        if cli_name in cli_names:
            value = getattr(report, name)
            ms = None if value is None else report.elapsed.get(name, 0.0) * 1000.0
            yield cli_name, name, value, ms


# --- det -------------------------------------------------------------------


def _report_gcd(report: DetReport) -> int:
    return math.gcd(report.n + 1, report.m + 1)


def _print_det_pretty(report: DetReport, cli_names: list[str]) -> None:
    print(
        f"P_{report.n} box P_{report.m}: {report.n * report.m} vertices, "
        f"gcd(n+1, m+1) = {_report_gcd(report)}"
    )
    # A method that ran without being selected has a row too; any other
    # unselected method gets no row at all.
    ran = {cli_name for name, cli_name, _ in METHODS if name in report.elapsed}
    for _, name, value, ms in _method_rows(report, {*cli_names, *ran}):
        if value is None:
            print(f"  {name:<12} skipped (ceiling)")
        else:
            print(f"  {name:<12} {value}  [{ms:.3f} ms]")
    print(f"  agree: {'true' if report.agree else 'false'}")


def _sweep_csv_row(report: DetReport) -> tuple[str, str, str, str, str]:
    return (
        str(report.n),
        str(report.m),
        str(_report_gcd(report)),
        str(report.closed_form),
        "true" if report.agree else "false",
    )


def _write_sweep_csv(reports: list[DetReport]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    writer.writerows(_sweep_csv_row(r) for r in reports)


def cmd_det(args: argparse.Namespace) -> int:
    reports = _verify(args, [(args.n, args.m)])
    if args.format == "json":
        print(json.dumps(reports[0].to_json_dict(), indent=2))
    elif args.format == "csv":
        _write_sweep_csv(reports)
    else:
        _print_det_pretty(reports[0], args.methods)
    return _exit_status(reports)


# --- charpoly ----------------------------------------------------------------


def cmd_charpoly(args: argparse.Namespace) -> int:
    print(poly_to_json(path_charpoly(args.n)))
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def _print_sweep_pretty(reports: list[DetReport]) -> None:
    rows = [SWEEP_CSV_HEADER] + [_sweep_csv_row(r) for r in reports]
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def cmd_sweep(args: argparse.Namespace) -> int:
    reports = _verify(
        args,
        [(n, m) for n in range(1, args.max_n + 1) for m in range(1, args.max_m + 1)],
    )
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.format == "csv":
        _write_sweep_csv(reports)
    else:
        _print_sweep_pretty(reports)
    return _exit_status(reports)


# --- identities --------------------------------------------------------------


def cmd_identities(args: argparse.Namespace) -> int:
    reports = identity_suite(args.max_k)

    families: dict[str, list[IdentityReport]] = {}
    for report in reports:
        families.setdefault(report.identity, []).append(report)

    status = EXIT_OK
    for family, group in families.items():
        failures = [r for r in group if not r.passed]
        verdict = "pass" if not failures else "FAIL"
        print(f"{family:<18} {verdict}  ({len(group)} checks)")
        for failure in failures:
            params = " ".join(f"{k}={v}" for k, v in failure.params.items())
            print(
                f"identity failure: {failure.identity} {params} "
                f"witness={failure.witness}",
                file=sys.stderr,
            )
            status = EXIT_FAILURE
    return status


# --- bench -------------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    reports = _verify(args, args.sizes)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(BENCH_CSV_HEADER)
    for r in reports:
        for cli_name, _, value, ms in _method_rows(r, args.methods):
            if value is None:
                writer.writerow((r.n, r.m, cli_name, "skipped (ceiling)", "", ""))
            else:
                writer.writerow((r.n, r.m, cli_name, "ok", value, f"{ms:.3f}"))
    return _exit_status(reports)


# --- parser ------------------------------------------------------------------


def _add_method_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--methods",
        nargs="+",
        choices=CLI_METHODS,
        default=CLI_METHODS,
        help="methods to run (default: all four)",
    )
    sub.add_argument(
        "--ceiling",
        type=positive_int,
        default=DEFAULT_DIRECT_CEILING,
        help="largest n*m the direct method will attempt",
    )
    sub.add_argument(
        "--block-ceiling",
        type=positive_int,
        default=DEFAULT_BLOCK_CEILING,
        help="largest m the block method will attempt",
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``boxdet`` parser, built once per process and shared by every
    :func:`main` call.  Its defaults are immutable and parsing keeps no state
    in it, so no call sees what an earlier one parsed."""
    parser = argparse.ArgumentParser(
        prog="boxdet",
        description=(
            "Exact determinants of grid-graph adjacency matrices by four "
            "independent methods, with an algebraic identity suite."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    det = commands.add_parser("det", help="determinant of one P_n box P_m")
    det.add_argument("n", type=positive_int, help="first path size (>= 1)")
    det.add_argument("m", type=positive_int, help="second path size (>= 1)")
    det.add_argument("--format", choices=FORMATS, default="pretty")
    _add_method_flags(det)
    det.set_defaults(handler=cmd_det)

    charpoly = commands.add_parser(
        "charpoly", help="path characteristic polynomial, ascending JSON array"
    )
    charpoly.add_argument("n", type=nonnegative_int, help="path size (>= 0)")
    charpoly.set_defaults(handler=cmd_charpoly)

    sweep = commands.add_parser("sweep", help="determinant table over a grid")
    sweep.add_argument("--max-n", type=positive_int, required=True)
    sweep.add_argument("--max-m", type=positive_int, required=True)
    sweep.add_argument("--format", choices=FORMATS, default="pretty")
    _add_method_flags(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    identities = commands.add_parser(
        "identities", help="run the polynomial identity suite"
    )
    identities.add_argument(
        "--max-k",
        type=positive_int,
        required=True,
        help="size bound applied to every identity family",
    )
    identities.set_defaults(handler=cmd_identities)

    bench = commands.add_parser("bench", help="time the methods, CSV output")
    bench.add_argument(
        "--sizes",
        type=parse_sizes,
        default=(),
        help="comma-separated NxM pairs, e.g. 4x4,8x8,16x16",
    )
    _add_method_flags(bench)
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
