"""The workloads: seeded inputs, how one operation runs, and how its output
is checked.

Inputs come in rounds of 32 operations.  Each size parameter of a round
takes evenly spaced values across its range, shifted together by one seeded
offset (systematic sampling), and the parameters are paired and ordered by
fixed permutations, with the one that drives cost most in bit-reversed
order.  So every run, and every prefix of a round, sees nearly the same mix
of cheap and expensive operations whatever the seed, and a seed changes the
instances, not the mix.  The program receives only the drawn sizes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

import oracle
from traced_cli import MARKER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROUND = 32
# Pairs slice i of a first parameter with slice _PAIR[k][i] of a second:
# uncorrelated, and no slice meets its own neighbourhood.
_PAIR = {
    16: (4, 7, 6, 10, 13, 11, 1, 12, 0, 14, 3, 15, 5, 2, 8, 9),
    32: (21, 16, 12, 17, 28, 13, 24, 29, 1, 2, 0, 20, 23, 22, 3, 4,
         27, 7, 8, 26, 5, 11, 30, 31, 9, 10, 14, 15, 6, 18, 19, 25),
}
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target: str | None  # the method that must not come back skipped
    dominant: tuple[str, ...]  # the layers predicted to take most of the time
    warm_charpoly: int  # largest path polynomial requested during warm-up
    make_round: object  # Random -> list of operations
    opening: object = None  # Random -> operations that start every run


def _spread(rng: Random, k: int, lo: int, hi: int, *, paired: bool = False) -> list[float]:
    """k evenly spaced points of [lo, hi + 1) under one seeded offset, in
    bit-reversed order, or paired with a first parameter in that order."""
    offset = rng.random()
    width = (k - 1).bit_length()
    order = [int(format(i, f"0{width}b")[::-1], 2) for i in range(k)]
    if paired:
        order = [_PAIR[k][i] for i in order]
    return [lo + (i + offset) / k * (hi + 1 - lo) for i in order]


def _direct_dense(rng: Random) -> list[tuple]:
    # n*m spread over [300, 400]; the short side log-uniform over 1..20, so
    # paths, strips and squares all appear; orientation alternates.
    sizes = _spread(rng, ROUND, 300, 400)
    shorts = [round(20 ** ((x - 1) / 20)) for x in _spread(rng, ROUND, 1, 20, paired=True)]
    ops = []
    for i, (size, short) in enumerate(zip(sizes, shorts)):
        long = min(max(round(size / short), math.ceil(300 / short)), 400 // short)
        n, m = (short, long) if i % 2 else (long, short)
        ops.append(("verify_all", n, m))
    return ops


def _block_tall(rng: Random) -> list[tuple]:
    # m drives cost most (about m**2.7 against n**1.4), so m leads the order.
    ms = _spread(rng, ROUND, 30, 40)
    ns = _spread(rng, ROUND, 100, 250, paired=True)
    return [("verify_all", int(n), int(m)) for n, m in zip(ns, ms)]


def _resultant_cold(rng: Random) -> list[tuple]:
    # Balanced and skewed shapes alternate.  The short side of a skewed
    # shape comes first, so direct (n*m > 400) and block (m > 60) are priced
    # out and only the polynomial layer runs.
    ns = _spread(rng, ROUND // 2, 200, 1500)
    ms = _spread(rng, ROUND // 2, 200, 1500, paired=True)
    longs = _spread(rng, ROUND // 2, 600, 2000)
    shorts = _spread(rng, ROUND // 2, 1, 5, paired=True)
    ops = []
    for n, m, short, long in zip(ns, ms, shorts, longs):
        ops.append(("det", int(n), int(m)))
        ops.append(("det", int(short), int(long)))
    return ops


def _resultant_cold_opening(rng: Random) -> list[tuple]:
    # One shape with the longest side, 3000, opens every run, so every run
    # meets the peak memory; it costs several times a round's other shapes.
    return [("det", rng.randint(1, 5), 3000)]


def _suite_cli(rng: Random) -> list[tuple]:
    max_ns = _spread(rng, ROUND // 2, 4, 12)
    max_ms = _spread(rng, ROUND // 2, 4, 12, paired=True)
    max_ks = _spread(rng, ROUND // 2, 8, 20, paired=True)
    ops = []
    for a, b, k in zip(max_ns, max_ms, max_ks):
        ops.append(("sweep", int(a), int(b)))
        ops.append(("identities", int(k)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "direct-dense",
            "verify_all, 300<=n*m<=400 just under the direct ceiling; target direct; "
            "exact_linalg.bareiss_det predicted ~96% of time: banded Bareiss shows here, "
            "a block change must not",
            "direct",
            ("exact_linalg.bareiss_det",),
            400,
            _direct_dense,
        ),
        Workload(
            "block-tall",
            "verify_all, n in [100,250], m in [30,40], direct priced out; target block; "
            "exact_linalg.matpoly_eval predicted ~99%: the block recurrence shows here, "
            "Bareiss changes must not",
            "block",
            ("exact_linalg.matpoly_eval",),
            250,
            _block_tall,
        ),
        Workload(
            "resultant-cold",
            "python -m boxdet det N M, fresh interpreter per op; balanced 200..1500 and skewed "
            "(<=5 by 600..3000) shapes; target resultant; polynomials.path_charpoly+resultant "
            "predicted to dominate",
            "resultant",
            ("polynomials.path_charpoly", "polynomials.resultant"),
            -1,
            _resultant_cold,
            _resultant_cold_opening,
        ),
        Workload(
            "suite-cli",
            "cli.main sweep and identities on a warm cache; no target method; predicted "
            "split between exact_linalg.bareiss_det (sweeps) and det_methods.check",
            None,
            ("exact_linalg.bareiss_det", "det_methods.check"),
            104,
            _suite_cli,
        ),
    )
}


def operations(workload: Workload, seed: int):
    """Endless seeded stream of operations, round after round."""
    rng = Random(f"{workload.name}/{seed}")
    if workload.opening is not None:
        yield from workload.opening(rng)
    while True:
        yield from workload.make_round(rng)


# --- the program ------------------------------------------------------------


def load_boxdet():
    """Import boxdet from this checkout's src/, never from anywhere else."""
    if not (SRC / "boxdet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no boxdet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import boxdet
    import boxdet.cli

    if Path(boxdet.__file__).resolve().parent != (SRC / "boxdet").resolve():
        raise SystemExit(f"perfbench: imported boxdet from {boxdet.__file__}, not {SRC}")
    return boxdet


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BOXDET_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def warm_up(boxdet, workload: Workload) -> None:
    if workload.warm_charpoly >= 0:
        boxdet.polynomials.path_charpoly(workload.warm_charpoly)


@dataclass
class Outcome:
    code: int
    output: object  # a det report dict, or CLI stdout text
    rss_kb: int = 0  # peak RSS of the child that did the work, if any
    trace: dict | None = None  # span totals from a traced child


def execute(boxdet, op: tuple, *, traced: bool = False) -> Outcome:
    kind = op[0]
    if kind == "verify_all":
        report = boxdet.det_methods.verify_all(op[1], op[2])
        return Outcome(0, report.to_json_dict())
    if kind == "det":
        argv = ["det", str(op[1]), str(op[2]), "--format", "json"]
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "boxdet", *argv]
        code, out, err, rss_kb = run_child(cmd)
        trace = None
        for line in err.splitlines():
            if line.startswith(MARKER):
                trace = json.loads(line[len(MARKER):])
        return Outcome(code, json.loads(out) if code == 0 else out, rss_kb, trace)
    if kind == "sweep":
        argv = ["sweep", "--max-n", str(op[1]), "--max-m", str(op[2]), "--format", "csv"]
    else:
        argv = ["identities", "--max-k", str(op[1])]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = boxdet.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code
    return Outcome(code, buf.getvalue())


def check(workload: Workload, op: tuple, outcome: Outcome) -> str | None:
    """None when the operation's output is right, else the reason."""
    if outcome.code != 0:
        return f"{op} exited {outcome.code}"
    kind = op[0]
    if kind in ("verify_all", "det"):
        return oracle.check_det_report(outcome.output, op[1], op[2], workload.target)
    if kind == "sweep":
        return oracle.check_sweep_csv(outcome.output, op[1], op[2])
    return oracle.check_identities(outcome.output, op[1])


def run_child(cmd: list[str]) -> tuple[int, str, str, int]:
    """Run one child to completion; its exit code, stdout, stderr and its own
    peak RSS in KiB, read with wait4 (RUSAGE_CHILDREN is a running maximum
    over all children, so it cannot attribute a peak to one child)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss
