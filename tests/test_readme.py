"""The README's Library example and Command line examples run as written
against the package, and the package exports the API its Library section
describes."""
from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import boxdet
import boxdet.exact_linalg
import boxdet.graphs
import boxdet.polynomials

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_API = [
    "DEFAULT_BLOCK_CEILING",
    "DEFAULT_DIRECT_CEILING",
    "DetReport",
    "IdentityReport",
    "IntPoly",
    "SizeLimitError",
    "__version__",
    "check_annihilation",
    "check_power",
    "check_product_n_plus_1",
    "check_shift",
    "check_splitting",
    "check_symmetry",
    "det_block",
    "det_closed_form",
    "det_direct",
    "det_resultant",
    "identity_suite",
    "path_charpoly",
    "resultant",
    "verify_all",
]

# Test oracles, kept in tests/_oracles.py and out of the package.
ORACLE_NAMES = (
    "COFACTOR_SIZE_LIMIT",
    "IntMatrix",
    "Parity",
    "X",
    "_expand",
    "adjacency_matrix",
    "cofactor_det",
    "dense_bareiss",
    "dense_bareiss_det",
    "parity",
    "sylvester_matrix",
)


def test_public_api():
    assert sorted(boxdet.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(boxdet, name), name
    for module in (boxdet, boxdet.exact_linalg, boxdet.graphs, boxdet.polynomials):
        for name in ORACLE_NAMES:
            assert not hasattr(module, name), (module.__name__, name)
    # Graphs, paths and box products of any two graphs were test-only
    # code; the tests build them in tests/_oracles.py, and direct builds
    # its grid from n and m.
    for module in (boxdet, boxdet.graphs):
        for name in ("Graph", "path", "box_product", "box_neighbours"):
            assert not hasattr(module, name), (module.__name__, name)
    # IntPoly is a record with no arithmetic: the package multiplies
    # coefficient sequences, and the tests add, subtract and multiply
    # IntPolys with the oracles in tests/_oracles.py.
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__"):
        assert not hasattr(boxdet.IntPoly, name), name
    # _rem, on coefficient sequences, is the package's one remainder.
    for name in ("ZERO", "ONE", "pseudo_rem"):
        assert not hasattr(boxdet.polynomials, name), name


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_command_line_examples_run():
    """Every line of the sh block under "Command line" exits 0 when run as
    ``python -m boxdet ...``, and ``charpoly 3`` prints what its comment says."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 6
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "boxdet", line
        proc = subprocess.run(
            [sys.executable, "-m", "boxdet", *argv],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, (line, proc.stderr)
        if argv == ["charpoly", "3"]:
            assert proc.stdout == '["0", "2", "0", "-1"]\n'
            assert comment.strip().startswith(proc.stdout.strip()), line
