"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

The oracle-independence criterion runs first; everything later leans on the
determinant and resultant code it certifies.  Every criterion asserts both
its mathematical claim (exact integer equality, zero tolerance) and its
stated wall-clock budget.
"""
from __future__ import annotations

import random
import re
import time

from _oracles import (
    Parity,
    adjacency_matrix,
    box_product_by_definition,
    cofactor_det,
    dense_bareiss_det,
    parity,
    path,
    random_matrix,
    sylvester_matrix,
)
from boxdet.cli import main
from boxdet.det_methods import (
    check_product_n_plus_1,
    det_block,
    det_closed_form,
    det_direct,
    det_resultant,
    identity_suite,
)
from boxdet.polynomials import path_charpoly, resultant

TIMING = re.compile(r"\[\d+\.\d{3} ms\]")


def _finish(capsys, number: int, label: str, budget: float,
            elapsed: float, failures: list) -> None:
    ok = not failures and elapsed < budget
    with capsys.disabled():
        print(
            f"\nacceptance {number} ({label}): "
            f"{'PASS' if ok else 'FAIL'} [{elapsed:.2f}s < {budget:.0f}s]"
        )
    assert not failures, failures[:10]
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s >= {budget}s"


def test_criterion_7_oracle_independence(capsys):
    """Cofactor expansion certifies Bareiss, then the resultant sign bridge,
    before any other criterion is trusted."""
    failures = []
    start = time.perf_counter()

    # (a) cofactor vs Bareiss: 200 seeded random matrices, then every
    # box-product adjacency matrix small enough for the expansion guard.
    rng = random.Random(20260815)
    for trial in range(200):
        m = random_matrix(rng, 1 + trial % 7)
        if cofactor_det(m) != dense_bareiss_det(m):
            failures.append(("random", trial, m))
    small_pairs = [
        (n, m) for n in range(1, 11) for m in range(1, 11) if n * m <= 10
    ]
    for n, m in small_pairs:
        a = adjacency_matrix(box_product_by_definition(path(n), path(m)))
        if cofactor_det(a) != dense_bareiss_det(a):
            failures.append(("box adjacency", n, m))

    # (b) cofactor vs Euclid's algorithm over unit-led remainders, through
    # Sylvester determinants, wherever the expansion guard allows.
    for n in range(1, 10):
        for m in range(1, 10):
            if n + m > 10:
                continue
            f, g = path_charpoly(n), path_charpoly(m)
            if cofactor_det(sylvester_matrix(f, g)) != resultant(f, g):
                failures.append(("sylvester", n, m))

    # (c) the sign bridge on all n, m <= 6: the resultant route must equal
    # elimination on the assembled matrix (cofactor-certified in (a)).
    for n in range(1, 7):
        for m in range(1, 7):
            grid = box_product_by_definition(path(n), path(m))
            direct = dense_bareiss_det(adjacency_matrix(grid))
            if det_resultant(n, m) != direct:
                failures.append(("sign bridge", n, m))

    _finish(capsys, 7, "oracle independence", 30.0,
            time.perf_counter() - start, failures)


def test_criterion_1_closed_form_reproduction(capsys):
    """Direct elimination equals the gcd rule on every pair up to 12x12."""
    failures = []
    start = time.perf_counter()
    for n in range(1, 13):
        for m in range(1, 13):
            if det_direct(n, m) != det_closed_form(n, m):
                failures.append((n, m))
    _finish(capsys, 1, "closed-form reproduction 12x12", 60.0,
            time.perf_counter() - start, failures)


def test_criterion_2_four_method_agreement(capsys):
    """All four methods coincide on every pair up to 10x10."""
    failures = []
    start = time.perf_counter()
    for n in range(1, 11):
        for m in range(1, 11):
            values = {
                det_direct(n, m),
                det_block(n, m),
                det_resultant(n, m),
                det_closed_form(n, m),
            }
            if len(values) != 1:
                failures.append((n, m, values))
    _finish(capsys, 2, "four-method agreement 10x10", 30.0,
            time.perf_counter() - start, failures)


def test_criterion_3_square_grids_are_singular(capsys):
    """det = 0 on every square grid: by direct up to n=12, where the even
    squares are eliminated and the odd ones answered by their unequal
    colour classes, and by formula to a million."""
    failures = []
    start = time.perf_counter()
    for n in range(1, 13):
        if det_direct(n, n) != 0:
            failures.append(("direct", n))
    for n in range(1, 10**6 + 1):
        if det_closed_form(n, n) != 0:
            failures.append(("closed form", n))
            break
    _finish(capsys, 3, "square grids singular", 10.0,
            time.perf_counter() - start, failures)


def test_criterion_4_consecutive_resultants(capsys):
    """Res of consecutive path polynomials is (-1)**(n(n+1)/2) up to n=20."""
    failures = []
    start = time.perf_counter()
    for n in range(1, 21):
        expected = -1 if (n * (n + 1) // 2) % 2 else 1
        actual = resultant(path_charpoly(n), path_charpoly(n + 1))
        if actual != expected:
            failures.append((n, actual, expected))
        if not check_product_n_plus_1(n).passed:
            failures.append(("check wrapper", n))
    _finish(capsys, 4, "consecutive resultants", 10.0,
            time.perf_counter() - start, failures)


def test_criterion_5_identity_suite(capsys):
    """The full divisibility suite at its default bounds."""
    start = time.perf_counter()
    reports = identity_suite()
    failures = [
        (r.identity, r.params) for r in reports if not r.passed
    ]
    if len(reports) != 679:
        failures.append(("wrong suite size", len(reports)))
    _finish(capsys, 5, "identity suite, full bounds", 60.0,
            time.perf_counter() - start, failures)


def test_criterion_6_parity_and_leading_coefficient(capsys):
    """Coefficient support alternates and lc = (-1)**n for n up to 50."""
    failures = []
    start = time.perf_counter()
    for n in range(0, 51):
        q = path_charpoly(n)
        expected_parity = Parity.EVEN if n % 2 == 0 else Parity.ODD
        if parity(q) != expected_parity:
            failures.append(("parity", n))
        if q.leading_coefficient != (-1) ** n:
            failures.append(("leading coefficient", n))
        if q.degree != n:
            failures.append(("degree", n))
    _finish(capsys, 6, "parity and leading coefficient", 1.0,
            time.perf_counter() - start, failures)


DET_2_3_MASKED = (
    "P_2 box P_3: 6 vertices, gcd(n+1, m+1) = 1\n"
    "  direct       -1  [ms]\n"
    "  block        -1  [ms]\n"
    "  resultant    -1  [ms]\n"
    "  closed_form  -1  [ms]\n"
    "  agree: true\n"
)

DET_5_5_MASKED = (
    "P_5 box P_5: 25 vertices, gcd(n+1, m+1) = 6\n"
    "  direct       0  [ms]\n"
    "  block        0  [ms]\n"
    "  resultant    0  [ms]\n"
    "  closed_form  0  [ms]\n"
    "  agree: true\n"
)

SWEEP_3X3_CSV = (
    "n,m,gcd,det,methods_agree\n"
    "1,1,2,0,true\n"
    "1,2,1,-1,true\n"
    "1,3,2,0,true\n"
    "2,1,1,-1,true\n"
    "2,2,3,0,true\n"
    "2,3,1,-1,true\n"
    "3,1,2,0,true\n"
    "3,2,1,-1,true\n"
    "3,3,4,0,true\n"
)

IDENTITIES_K5 = (
    "splitting          pass  (5 checks)\n"
    "shift              pass  (20 checks)\n"
    "annihilation       pass  (25 checks)\n"
    "power              pass  (80 checks)\n"
    "product_n_plus_1   pass  (5 checks)\n"
    "symmetry           pass  (25 checks)\n"
)


def test_criterion_8_cli_golden(capsys):
    """The four documented invocations: byte-stable output, right exits."""
    failures = []
    start = time.perf_counter()

    cases = [
        (["det", "2", "3"], DET_2_3_MASKED, 0),
        (["det", "5", "5"], DET_5_5_MASKED, 0),
        (["sweep", "--max-n", "3", "--max-m", "3", "--format", "csv"],
         SWEEP_3X3_CSV, 0),
        (["identities", "--max-k", "5"], IDENTITIES_K5, 0),
    ]
    for argv, expected, expected_code in cases:
        outputs = []
        for _ in range(2):  # byte-stability: two runs, identical masked bytes
            code = main(list(argv))
            out = TIMING.sub("[ms]", capsys.readouterr().out)
            outputs.append(out)
            if code != expected_code:
                failures.append((argv, "exit", code, expected_code))
        if outputs[0] != expected:
            failures.append((argv, "output", outputs[0], expected))
        if outputs[0] != outputs[1]:
            failures.append((argv, "not byte-stable"))

    _finish(capsys, 8, "CLI golden invocations", 60.0,
            time.perf_counter() - start, failures)
