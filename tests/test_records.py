"""The four frozen record types, and the modules the command line loads."""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from boxdet.det_methods import DetReport, IdentityReport
from boxdet.graphs import Graph
from boxdet.polynomials import IntPoly

SRC = Path(__file__).resolve().parents[1] / "src"


# Two instances of each record type, with the text repr prints for each.
TEXTS = [
    (IntPoly((1, 0, -2, 0)), "IntPoly(coeffs=(1, 0, -2))"),
    (IntPoly(), "IntPoly(coeffs=())"),
    (Graph(3, [(2, 1)]), "Graph(n_vertices=3, edges=frozenset({(1, 2)}))"),
    (Graph(1), "Graph(n_vertices=1, edges=frozenset())"),
    (
        DetReport(2, 3, -1, None, -1, -1),
        "DetReport(n=2, m=3, direct=-1, block=None, resultant=-1,"
        " closed_form=-1, elapsed={})",
    ),
    (
        DetReport(1, 2, None, None, None, -1, {"closed_form": 0.5}),
        "DetReport(n=1, m=2, direct=None, block=None, resultant=None,"
        " closed_form=-1, elapsed={'closed_form': 0.5})",
    ),
    (
        IdentityReport("shift", {"k": 1, "s": 0}),
        "IdentityReport(identity='shift', params={'k': 1, 's': 0}, witness=None)",
    ),
    (
        IdentityReport("power", {"k": 2, "a": 1, "b": 0}, IntPoly((0, 3))),
        "IdentityReport(identity='power', params={'k': 2, 'a': 1, 'b': 0},"
        " witness=IntPoly(coeffs=(0, 3)))",
    ),
]

RECORDS = [record for record, _ in TEXTS]


def _name(record) -> str:
    return type(record).__name__


class TestText:
    @pytest.mark.parametrize(("record", "text"), TEXTS, ids=[_name(r) for r in RECORDS])
    def test_repr_and_str_are_the_field_listing(self, record, text):
        assert repr(record) == text
        assert str(record) == text


class TestEquality:
    @pytest.mark.parametrize("record", RECORDS, ids=_name)
    def test_equal_to_a_rebuilt_copy(self, record):
        twin = copy.copy(record)
        assert twin is not record
        assert twin == record
        assert not twin != record

    def test_fields_decide(self):
        assert IntPoly((1, 2)) == IntPoly([1, 2, 0])
        assert IntPoly((1, 2)) != IntPoly((1, 3))
        assert Graph(2, [(1, 2)]) == Graph(2, [(2, 1)])
        assert Graph(2) != Graph(3)
        assert DetReport(1, 1, 0, 0, 0, 0) != DetReport(1, 1, 0, 0, None, 0)
        assert IdentityReport("shift", {"k": 1}) != IdentityReport("shift", {"k": 2})

    def test_never_equal_across_classes(self):
        assert IntPoly((1, 0, -2)) != (1, 0, -2)
        assert IntPoly((1, 0, -2)) != ((1, 0, -2),)
        assert IntPoly((5,)) != 5
        assert Graph(1) != (1, frozenset())
        for a in RECORDS:
            for b in RECORDS:
                if type(a) is not type(b):
                    assert a != b


class TestHash:
    def test_hash_is_that_of_the_field_tuple(self):
        """The hash of the tuple of field values, as a frozen dataclass
        computes it, so equal records hash alike."""
        assert hash(IntPoly((1, 0, -2))) == hash(((1, 0, -2),))
        assert hash(IntPoly()) == hash(((),))
        g = Graph(3, [(1, 2), (3, 2)])
        assert hash(g) == hash((3, frozenset({(1, 2), (2, 3)})))
        assert hash(g) == hash(Graph(3, [(2, 3), (2, 1)]))
        assert len({IntPoly((1,)), IntPoly((1, 0)), IntPoly((2,))}) == 2

    @pytest.mark.parametrize(
        "record",
        [DetReport(1, 1, 0, 0, 0, 0), IdentityReport("shift", {"k": 1, "s": 0})],
        ids=_name,
    )
    def test_reports_holding_a_dict_are_unhashable(self, record):
        with pytest.raises(TypeError):
            hash(record)


class TestFrozen:
    @pytest.mark.parametrize("record", RECORDS, ids=_name)
    def test_no_field_can_be_assigned_or_deleted(self, record):
        for name in type(record).__slots__:
            before = getattr(record, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, before)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
            assert getattr(record, name) is before

    @pytest.mark.parametrize("record", RECORDS, ids=_name)
    def test_no_new_attribute(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record", RECORDS, ids=_name)
    def test_pickle_and_deepcopy_round_trip(self, record):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record


class TestConstructors:
    def test_keywords_and_defaults(self):
        assert IntPoly(coeffs=(0, 1)).coeffs == (0, 1)
        assert Graph(n_vertices=2, edges=[(1, 2)]).edges == frozenset({(1, 2)})
        assert Graph(2).edges == frozenset()
        report = DetReport(n=1, m=2, direct=None, block=None, resultant=None,
                           closed_form=-1)
        assert report.elapsed == {}
        assert DetReport(1, 2, None, None, None, -1, None).elapsed == {}
        # Each report gets a dict of its own.
        assert report.elapsed is not DetReport(1, 2, None, None, None, -1).elapsed
        assert IdentityReport(identity="shift", params={"k": 1}).witness is None

    def test_validation_runs_in_the_constructor(self):
        with pytest.raises(ValueError, match="^closed form value out of range: 2$"):
            DetReport(1, 1, None, None, None, 2)
        with pytest.raises(ValueError, match="^unknown identity name: nope$"):
            IdentityReport("nope", {})
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            Graph(2, [(1, 1)])


class TestImportSet:
    def test_cli_loads_no_dataclasses_inspect_ast_or_typing(self):
        """``import boxdet.cli`` under ``python -S`` adds none of these to
        what the CLI's own stdlib modules load; comparing the two sets keeps
        the test independent of what each Python's stdlib imports."""
        script = (
            "import sys\n"
            "import argparse, csv, json, math, time, itertools, functools, collections.abc\n"
            "before = set(sys.modules)\n"
            "import boxdet.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "boxdet.cli" in added
        unwanted = {"dataclasses", "inspect", "ast", "tokenize", "typing"}
        assert not added & unwanted, sorted(added)
