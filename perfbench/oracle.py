"""The benchmark's own correctness oracle; nothing here imports boxdet.

Every determinant the program reports is compared with the gcd rule for
the grid graph P_n box P_m: the determinant is 0 when gcd(n+1, m+1) > 1 and
(-1)**(n*m/2) otherwise.  Each check returns None when the output is right
and a one-line reason when it is not.
"""
from __future__ import annotations

import csv
import io
import math

IDENTITY_FAMILIES = (
    "splitting",
    "shift",
    "annihilation",
    "power",
    "product_n_plus_1",
    "symmetry",
)


def grid_det(n: int, m: int) -> int:
    if math.gcd(n + 1, m + 1) > 1:
        return 0
    return -1 if (n * m // 2) % 2 else 1


def check_det_report(report: dict, n: int, m: int, target: str | None) -> str | None:
    """A det report in the program's JSON form: every computed value equals
    the gcd rule, ``agree`` is true, and the target method was not skipped."""
    if (report.get("n"), report.get("m")) != (n, m):
        return f"report is for ({report.get('n')}, {report.get('m')}), asked ({n}, {m})"
    expected = grid_det(n, m)
    results = report.get("results", {})
    for method, value in results.items():
        if value is not None and int(value) != expected:
            return f"{method} gave {value} for ({n}, {m}), expected {expected}"
    if target is not None and results.get(target) is None:
        return f"target method {target} skipped for ({n}, {m})"
    if report.get("agree") is not True:
        return f"agree is {report.get('agree')!r} for ({n}, {m})"
    return None


def check_sweep_csv(text: str, max_n: int, max_m: int) -> str | None:
    """``sweep --format csv``: one row per pair in order, each with the right
    gcd, the right determinant and methods_agree true."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["n", "m", "gcd", "det", "methods_agree"]:
        return f"unexpected sweep header {rows[:1]!r}"
    pairs = [(n, m) for n in range(1, max_n + 1) for m in range(1, max_m + 1)]
    if len(rows) - 1 != len(pairs):
        return f"sweep has {len(rows) - 1} rows, expected {len(pairs)}"
    for row, (n, m) in zip(rows[1:], pairs):
        expected = [str(n), str(m), str(math.gcd(n + 1, m + 1)), str(grid_det(n, m)), "true"]
        if row != expected:
            return f"sweep row {row!r}, expected {expected!r}"
    return None


def identity_counts(max_k: int) -> dict[str, int]:
    """Checks per family for ``identities --max-k max_k``; the CLI fixes the
    annihilation multiplier bound at 5 and the power exponent bound at 4."""
    ks = range(1, max_k + 1)
    return {
        "splitting": max_k,
        "shift": sum(k + 1 for k in ks),
        "annihilation": 5 * max_k,
        "power": 4 * sum(k + 1 for k in ks),
        "product_n_plus_1": max_k,
        "symmetry": max_k * max_k,
    }


def check_identities(text: str, max_k: int) -> str | None:
    """``identities``: one ``pass`` line per family with the full check count."""
    seen = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[2].startswith("(") and parts[3] == "checks)":
            seen[parts[0]] = (parts[1], int(parts[2][1:]))
    for family, count in identity_counts(max_k).items():
        if seen.get(family) != ("pass", count):
            return f"identity family {family}: got {seen.get(family)}, expected ('pass', {count})"
    return None
