"""Census of the direct method's unit-pivot contract.

Runs ``det_direct(s, l, ceiling=s*l)`` against ``det_closed_form`` on every
grid with even ``s*l``, a short side ``s`` of 1 to 32 and a long side ``l``
of ``s`` to 200: 4,424 shapes.  The elimination core raises ValueError on
any pivot other than +1 or -1, so a shape that gives the closed form's value
met only unit pivots.  Each shape with a wrong value or an error is printed,
then one summary line; the exit code is 0 when all 4,424 agree and 1
otherwise.

The name does not start with ``test_``, so pytest does not collect it; it
takes about 30 s (2-CPU machine, Python 3.11.7).  From the repository root:

    PYTHONPATH=src python tests/census_direct.py
"""
from __future__ import annotations

import sys

from boxdet.det_methods import det_closed_form, det_direct

SHAPES = 4_424


def shapes():
    """Every (s, l) with 1 <= s <= 32, s <= l <= 200 and s*l even."""
    for s in range(1, 33):
        for l in range(s, 201):
            if s * l % 2 == 0:
                yield s, l


def main() -> int:
    checked = failed = 0
    for s, l in shapes():
        checked += 1
        expected = det_closed_form(s, l)
        try:
            value = det_direct(s, l, ceiling=s * l)
        except ValueError as error:
            value = f"ValueError: {error}"
        if value != expected:
            print(f"{s} x {l}: direct gives {value}, the closed form {expected}")
            failed += 1
    print(f"direct census: {checked} shapes, {failed} failed")
    return int(failed > 0 or checked != SHAPES)


if __name__ == "__main__":
    sys.exit(main())
