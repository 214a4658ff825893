"""Command-line surface: golden outputs, exit codes, formats."""
from __future__ import annotations

import json
import math
import re
import subprocess
import sys

import pytest

import boxdet.cli as cli
import boxdet.det_methods as det_methods
from boxdet.cli import main, parse_sizes
from boxdet.det_methods import DetReport, IdentityReport
from boxdet.polynomials import IntPoly

TIMING = re.compile(r"\[\d+\.\d{3} ms\]")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDet:
    def test_det_2_3_pretty_golden(self, capsys):
        code, out, err = run_cli(capsys, "det", "2", "3")
        assert code == 0
        assert err == ""
        masked = TIMING.sub("[ms]", out)
        assert masked == (
            "P_2 box P_3: 6 vertices, gcd(n+1, m+1) = 1\n"
            "  direct       -1  [ms]\n"
            "  block        -1  [ms]\n"
            "  resultant    -1  [ms]\n"
            "  closed_form  -1  [ms]\n"
            "  agree: true\n"
        )

    def test_det_5_5_json(self, capsys):
        code, out, _ = run_cli(capsys, "det", "5", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        data.pop("elapsed_ms")
        assert data == {
            "n": 5,
            "m": 5,
            "results": {
                "direct": "0",
                "block": "0",
                "resultant": "0",
                "closed_form": "0",
            },
            "agree": True,
        }

    def test_det_csv(self, capsys):
        code, out, _ = run_cli(capsys, "det", "2", "3", "--format", "csv")
        assert code == 0
        assert out == "n,m,gcd,det,methods_agree\n2,3,1,-1,true\n"

    def test_det_zero_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["det", "0", "3"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_det_respects_method_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "det", "30", "40", "--methods", "resultant", "closed",
            "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["direct"] is None and results["block"] is None
        assert results["resultant"] == results["closed_form"]

    def test_det_pretty_skipped_versus_unselected(self, capsys):
        # Over the ceiling, a selected method is reported as skipped.
        code, out, _ = run_cli(capsys, "det", "50", "60")
        assert code == 0
        assert "  direct       skipped (ceiling)" in out
        # A method that was never selected gets no row, skipped or otherwise.
        code, out, _ = run_cli(capsys, "det", "100", "101", "--methods", "closed")
        assert code == 0
        assert "skipped" not in out
        assert "direct" not in out
        assert "closed_form  1" in out
        # The closed form always runs, so it has a row even when not selected.
        code, out, _ = run_cli(capsys, "det", "4", "5", "--methods", "block")
        assert code == 0
        assert "  block        1  [" in out
        assert "  closed_form  1  [" in out

    def test_det_pretty_rows_follow_the_elapsed_entries(self, capsys, monkeypatch):
        """An unselected method gets a row exactly when the report timed it,
        whichever method that is; the rows keep the table's order."""
        fake = DetReport(n=2, m=3, direct=-1, block=None, resultant=-1,
                         closed_form=-1,
                         elapsed={"direct": 0.001, "closed_form": 0.002})
        monkeypatch.setattr(cli, "verify_all", lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "det", "2", "3", "--methods", "block")
        assert code == 0
        assert TIMING.sub("[ms]", out) == (
            "P_2 box P_3: 6 vertices, gcd(n+1, m+1) = 1\n"
            "  direct       -1  [ms]\n"
            "  block        skipped (ceiling)\n"
            "  closed_form  -1  [ms]\n"
            "  agree: true\n"
        )

    def test_det_disagreement_exits_nonzero(self, capsys, monkeypatch):
        fake = DetReport(n=2, m=3, direct=-1, block=1, resultant=None,
                         closed_form=-1)
        monkeypatch.setattr(cli, "verify_all", lambda *a, **k: fake)
        code, _, err = run_cli(capsys, "det", "2", "3")
        assert code == 1
        assert "disagreement at n=2 m=3" in err


class TestCharpoly:
    def test_golden_values(self, capsys):
        assert run_cli(capsys, "charpoly", "3")[1] == '["0", "2", "0", "-1"]\n'
        assert run_cli(capsys, "charpoly", "0")[1] == '["1"]\n'
        assert run_cli(capsys, "charpoly", "1")[1] == '["0", "-1"]\n'

    def test_negative_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "-1"])
        assert exc.value.code == 2


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


class TestSweep:
    def test_3x3_csv_golden(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--max-n", "3", "--max-m", "3", "--format", "csv"
        )
        assert code == 0
        assert err == ""
        assert out == SWEEP_3X3_CSV

    def test_1x1(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--max-n", "1", "--max-m", "1", "--format", "csv"
        )
        assert code == 0
        assert out == "n,m,gcd,det,methods_agree\n1,1,2,0,true\n"

    def test_20x20_closed_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--max-n", "20", "--max-m", "20",
            "--methods", "closed", "--format", "csv",
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert len(rows) == 1 + 400
        assert all(row.endswith("true") for row in rows[1:])

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "sweep", "--max-n", "4", "--max-m", "4",
                        "--format", "csv")
        second = run_cli(capsys, "sweep", "--max-n", "4", "--max-m", "4",
                         "--format", "csv")
        assert first == second

    def test_csv_and_json_encode_the_same_sweep(self, capsys):
        _, csv_out, _ = run_cli(
            capsys, "sweep", "--max-n", "4", "--max-m", "4", "--format", "csv"
        )
        _, json_out, _ = run_cli(
            capsys, "sweep", "--max-n", "4", "--max-m", "4", "--format", "json"
        )
        csv_rows = [line.split(",") for line in csv_out.strip().split("\n")[1:]]
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows)
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert csv_row[0] == str(json_row["n"])
            assert csv_row[1] == str(json_row["m"])
            assert csv_row[3] == json_row["results"]["closed_form"]
            assert csv_row[4] == ("true" if json_row["agree"] else "false")

    def test_pretty_format_runs(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-n", "2", "--max-m", "2")
        assert code == 0
        assert "methods_agree" in out
        assert len(out.strip().split("\n")) == 5

    def test_sweep_continues_past_disagreements(self, capsys, monkeypatch):
        real_verify_all = cli.verify_all

        def flaky(n, m, **kwargs):
            if (n, m) == (1, 2):
                return DetReport(n=1, m=2, direct=-1, block=7, resultant=None,
                                 closed_form=-1)
            return real_verify_all(n, m, **kwargs)

        monkeypatch.setattr(cli, "verify_all", flaky)
        code, out, err = run_cli(
            capsys, "sweep", "--max-n", "2", "--max-m", "2", "--format", "csv"
        )
        assert code == 1
        assert len(out.strip().split("\n")) == 1 + 4  # all rows still emitted
        assert "1,2,1,-1,false" in out
        assert "disagreement at n=1 m=2" in err

    @pytest.mark.parametrize("argv", [
        ["--max-n", "0", "--max-m", "2"],
        ["--max-n", "2", "--max-m", "0"],
        ["--max-n", "2", "--max-m", "2", "--ceiling", "0"],
        ["--max-n", "2", "--max-m", "2", "--methods"],
        ["--max-n", "2", "--max-m", "2", "--methods", "nope"],
        ["--max-n", "2", "--max-m", "2", "--format", "xml"],
    ])
    def test_invalid_arguments_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ("sweep", "--max-n", "2", "--max-m", "2"),
        ("identities", "--max-k", "2"),
    ])
    def test_threads_option_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


IDENTITIES_K5 = (
    "splitting          pass  (5 checks)\n"
    "shift              pass  (20 checks)\n"
    "annihilation       pass  (25 checks)\n"
    "power              pass  (80 checks)\n"
    "product_n_plus_1   pass  (5 checks)\n"
    "symmetry           pass  (25 checks)\n"
)


class TestIdentities:
    def test_max_k_5_golden(self, capsys):
        code, out, err = run_cli(capsys, "identities", "--max-k", "5")
        assert code == 0
        assert err == ""
        assert out == IDENTITIES_K5

    def test_max_k_1(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--max-k", "1")
        assert code == 0
        assert out == (
            "splitting          pass  (1 checks)\n"
            "shift              pass  (2 checks)\n"
            "annihilation       pass  (5 checks)\n"
            "power              pass  (8 checks)\n"
            "product_n_plus_1   pass  (1 checks)\n"
            "symmetry           pass  (1 checks)\n"
        )

    def test_max_k_30_all_pass(self, capsys):
        code, out, err = run_cli(capsys, "identities", "--max-k", "30")
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert all(" pass " in line for line in lines)

    def test_failure_exits_nonzero(self, capsys, monkeypatch):
        def broken(k):
            return IdentityReport("splitting", {"k": k}, witness=IntPoly((1,)))

        monkeypatch.setattr(det_methods, "check_splitting", broken)
        code, out, err = run_cli(capsys, "identities", "--max-k", "2")
        assert code == 1
        assert "splitting          FAIL" in out
        assert "identity failure: splitting" in err

    def test_polynomial_witness_prints_its_repr(self, capsys, monkeypatch):
        witness = IntPoly((0, 2, 0, -1))

        def broken(k):
            return IdentityReport("splitting", {"k": k}, witness=witness)

        monkeypatch.setattr(det_methods, "check_splitting", broken)
        code, _, err = run_cli(capsys, "identities", "--max-k", "1")
        assert code == 1
        assert f"identity failure: splitting k=1 witness={witness!r}\n" in err
        assert "witness=IntPoly(coeffs=(0, 2, 0, -1))\n" in err

    def test_max_k_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identities"])
        assert exc.value.code == 2


class TestBench:
    def test_monotone_direct_and_agreement(self, capsys):
        """direct's time grows with the grid, on each size's best of five
        bench calls, as one wall-clock sample can be delayed."""
        best = dict.fromkeys(("4", "8", "16"), math.inf)
        for _ in range(5):
            code, out, _ = run_cli(
                capsys, "bench", "--sizes", "4x4,8x8,16x16"
            )
            assert code == 0
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            assert all(row[3] == "ok" for row in rows)
            for r in rows:
                if r[2] == "direct":
                    best[r[0]] = min(best[r[0]], float(r[5]))
            for size in best:
                dets = {r[4] for r in rows if r[0] == size}
                assert len(dets) == 1  # every method reports the same value
        direct_times = list(best.values())
        assert direct_times == sorted(direct_times)

    def test_skipped_ceiling(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "50x60", "--methods", "direct", "block"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "50,60,direct,skipped (ceiling),,"
        assert lines[2].startswith("50,60,block,ok,1,")

    def test_block_ceiling_is_passed_through(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "2x70", "--methods", "block",
            "--block-ceiling", "80",
        )
        assert code == 0
        assert out.strip().split("\n")[1].startswith("2,70,block,ok,1,")

    def test_disagreement_exits_nonzero(self, capsys, monkeypatch):
        fake = DetReport(n=2, m=3, direct=-1, block=1, resultant=None,
                         closed_form=-1)
        monkeypatch.setattr(cli, "verify_all", lambda *a, **k: fake)
        code, out, err = run_cli(capsys, "bench", "--sizes", "2x3")
        assert code == 1
        assert out == (
            "n,m,method,status,det,elapsed_ms\n"
            "2,3,direct,ok,-1,0.000\n"
            "2,3,block,ok,1,0.000\n"
            "2,3,resultant,skipped (ceiling),,\n"
            "2,3,closed,ok,-1,0.000\n"
        )
        assert "disagreement at n=2 m=3" in err

    def test_empty_sizes(self, capsys):
        code, out, _ = run_cli(capsys, "bench")
        assert code == 0
        assert out == "n,m,method,status,det,elapsed_ms\n"

    def test_malformed_sizes_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "4y4"])
        assert exc.value.code == 2

    def test_parse_sizes(self):
        assert parse_sizes("4x4,8x8") == [(4, 4), (8, 8)]
        assert parse_sizes(" ") == []
        assert parse_sizes("10x2") == [(10, 2)]


class TestCeilingBoundary:
    """At each side of each bound, `det`, `bench` and `verify_all` agree on
    which methods ran.  P_4 box P_5 has n*m = 20 and m = 5."""

    @pytest.mark.parametrize("flag, keyword, bound, method", [
        ("--ceiling", "ceiling", 20, "direct"),
        ("--block-ceiling", "block_ceiling", 5, "block"),
    ])
    @pytest.mark.parametrize("below", [0, 1])
    def test_det_bench_and_verify_all_agree(
        self, capsys, flag, keyword, bound, method, below
    ):
        limit = str(bound - below)
        everything = {"direct", "block", "resultant", "closed_form"}
        expected = everything - {method} if below else everything

        code, out, _ = run_cli(capsys, "det", "4", "5", flag, limit, "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert {k for k, v in results.items() if v is not None} == expected

        code, out, _ = run_cli(capsys, "bench", "--sizes", "4x5", flag, limit)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        library = {"closed": "closed_form"}
        ran = {library.get(r[2], r[2]) for r in rows if r[3] == "ok"}
        skipped = {library.get(r[2], r[2]) for r in rows if r[3] == "skipped (ceiling)"}
        assert ran == expected
        assert skipped == everything - expected

        report = det_methods.verify_all(4, 5, **{keyword: bound - below})
        assert set(report.results()) == expected
        assert set(report.elapsed) == expected


class TestMethodChoices:
    @pytest.mark.parametrize("command", ["det", "sweep", "bench"])
    def test_choices_are_the_table_spellings(self, command):
        """--methods offers, and defaults to, each method's command-line
        spelling from det_methods.METHODS, in the table's order."""
        spellings = tuple(cli_name for _, cli_name, _ in det_methods.METHODS)
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if a.dest == "command")
        (methods,) = (
            a for a in commands.choices[command]._actions if a.dest == "methods"
        )
        assert tuple(methods.choices) == spellings
        assert tuple(methods.default) == spellings
        assert cli.CLI_METHODS == spellings


class TestEntryPoints:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "boxdet", "det", "2", "3", "--format", "csv"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stdout == "n,m,gcd,det,methods_agree\n2,3,1,-1,true\n"

    def test_closed_stdout_exits_141_quietly(self):
        """A reader that closes stdout early, as ``| head -1`` does, is no
        bug alarm: no traceback and exit 141 (128 + SIGPIPE), not 1.  The
        sweep prints about 150 KB, more than a pipe buffer holds, so the
        child is still writing when the pipe closes."""
        argv = ["sweep", "--max-n", "100", "--max-m", "100", "--methods", "closed"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "boxdet", *argv, "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "n,m,gcd,det,methods_agree\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, "")

    def test_reused_parser_matches_a_fresh_process(self, capsys):
        """main reuses one parser per process; after a run with --methods and
        a usage error, det and bench print what a fresh process prints."""
        assert cli.build_parser() is cli.build_parser()
        assert run_cli(capsys, "det", "4", "5", "--methods", "block")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["det", "0", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        for argv in (["det", "4", "5"], ["bench"]):
            code, out, err = run_cli(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "boxdet", *argv],
                capture_output=True,
                text=True,
                check=False,
            )
            assert (code, TIMING.sub("[ms]", out), err) == (
                fresh.returncode,
                TIMING.sub("[ms]", fresh.stdout),
                fresh.stderr,
            ), argv
