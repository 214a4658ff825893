"""Command-line front end for the box-product determinant library.

Subcommands:

* ``det N M``     one pair, every affordable method, full report.
* ``charpoly N``  ascending coefficients of the size-N path polynomial.
* ``sweep``       an (n, m) determinant table in pretty, JSON or CSV form.
* ``identities``  the divisibility suite, summarized per family.
* ``bench``       wall-clock comparison of the methods, CSV.

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

from .det_methods import (
    DEFAULT_BLOCK_CEILING,
    DEFAULT_DIRECT_CEILING,
    METHOD_NAMES,
    DetReport,
    IdentityReport,
    identity_suite,
    verify_all,
)
from .polynomials import path_charpoly, poly_to_json

FORMATS = ("pretty", "json", "csv")

# Method names as spelled on the command line, paired by position with the
# library's METHOD_NAMES; "closed" is the library's "closed_form".
CLI_METHODS = ("direct", "block", "resultant", "closed")
_TO_LIBRARY_NAME = dict(zip(CLI_METHODS, METHOD_NAMES))

SWEEP_CSV_HEADER = ("n", "m", "gcd", "det", "methods_agree")
BENCH_CSV_HEADER = ("n", "m", "method", "status", "det", "elapsed_ms")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


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


def _library_methods(cli_names: frozenset[str]) -> frozenset[str]:
    return frozenset(_TO_LIBRARY_NAME[name] for name in cli_names)


# --- det -------------------------------------------------------------------


def _report_gcd(report: DetReport) -> int:
    return math.gcd(report.n + 1, report.m + 1)


def _print_det_pretty(report: DetReport, selected: frozenset[str]) -> None:
    print(
        f"P_{report.n} box P_{report.m}: {report.n * report.m} vertices, "
        f"gcd(n+1, m+1) = {_report_gcd(report)}"
    )
    # A selected method with no value was stopped by its ceiling; a method
    # that was never selected gets no row at all.
    for name in METHOD_NAMES:
        value = getattr(report, name)
        if value is None:
            if name in selected:
                print(f"  {name:<12} skipped (ceiling)")
        else:
            ms = report.elapsed.get(name, 0.0) * 1000.0
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


def _warn_disagreement(report: DetReport) -> None:
    detail = ", ".join(f"{k}={v}" for k, v in report.results().items())
    print(f"disagreement at n={report.n} m={report.m}: {detail}", file=sys.stderr)


def cmd_det(args: argparse.Namespace) -> int:
    selected = _library_methods(frozenset(args.methods))
    report = verify_all(
        args.n,
        args.m,
        ceiling=args.ceiling,
        block_ceiling=args.block_ceiling,
        methods=selected,
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    elif args.format == "csv":
        _write_sweep_csv([report])
    else:
        _print_det_pretty(report, selected)
    if not report.agree:
        _warn_disagreement(report)
        return EXIT_FAILURE
    return EXIT_OK


# --- charpoly ----------------------------------------------------------------


def cmd_charpoly(args: argparse.Namespace) -> int:
    print(poly_to_json(path_charpoly(args.n)))
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def run_sweep(
    max_n: int,
    max_m: int,
    methods: frozenset[str],
    *,
    ceiling: int,
    block_ceiling: int,
) -> list[DetReport]:
    """Every (n, m) report with n <= max_n and m <= max_m, sorted by n then
    m; ``methods`` holds command-line method names."""
    selected = _library_methods(methods)
    return [
        verify_all(
            n, m, ceiling=ceiling, block_ceiling=block_ceiling, methods=selected
        )
        for n in range(1, max_n + 1)
        for m in range(1, max_m + 1)
    ]


def _print_sweep_pretty(reports: list[DetReport]) -> None:
    rows = [SWEEP_CSV_HEADER] + [_sweep_csv_row(r) for r in reports]
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def cmd_sweep(args: argparse.Namespace) -> int:
    reports = run_sweep(
        args.max_n,
        args.max_m,
        frozenset(args.methods),
        ceiling=args.ceiling,
        block_ceiling=args.block_ceiling,
    )

    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.format == "csv":
        _write_sweep_csv(reports)
    else:
        _print_sweep_pretty(reports)

    status = EXIT_OK
    for report in reports:
        if not report.agree:
            _warn_disagreement(report)
            status = EXIT_FAILURE
    return status


# --- identities --------------------------------------------------------------


def run_identities(max_k: int) -> list[IdentityReport]:
    """The full identity suite with every family's size bound set to max_k.

    Secondary bounds (multiplier t, exponent a) keep their defaults.
    """
    return identity_suite(
        splitting_max_k=max_k,
        shift_max_k=max_k,
        annihilation_max_k=max_k,
        power_max_k=max_k,
        product_max_n=max_k,
        symmetry_max=max_k,
    )


def cmd_identities(args: argparse.Namespace) -> int:
    reports = run_identities(args.max_k)

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


def _bench_rows(
    sizes: list[tuple[int, int]],
    methods: frozenset[str],
    ceiling: int,
    block_ceiling: int,
) -> list[tuple[str, str, str, str, str, str]]:
    selected = _library_methods(methods)
    rows = []
    for n, m in sizes:
        report = verify_all(
            n, m, ceiling, block_ceiling=block_ceiling, methods=selected
        )
        for cli_name, name in _TO_LIBRARY_NAME.items():
            if cli_name not in methods:
                continue
            value = getattr(report, name)
            if value is None:
                rows.append((str(n), str(m), cli_name, "skipped (ceiling)", "", ""))
            else:
                ms = report.elapsed[name] * 1000.0
                rows.append((str(n), str(m), cli_name, "ok", str(value), f"{ms:.3f}"))
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(BENCH_CSV_HEADER)
    writer.writerows(
        _bench_rows(
            args.sizes,
            frozenset(args.methods),
            args.ceiling,
            args.block_ceiling,
        )
    )
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_method_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--methods",
        nargs="+",
        choices=CLI_METHODS,
        default=list(CLI_METHODS),
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


def build_parser() -> argparse.ArgumentParser:
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
        default=[],
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
