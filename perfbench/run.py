"""The boxdet benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

One client on one CPU runs operations in a closed loop (the next starts
when the last has finished) and checks every output against the oracle in
``oracle.py``.  The loop stops when the operations have taken S seconds at
the reference speed of ``calibrate.py``, or after S seconds of wall time.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
seed, the input mix, raw times and the details behind each metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for S/2 seconds, then runs exactly those operations again
under the timing wrappers of ``tracing.py``, and reports the per-layer
metrics with the tracer's overhead.

The workloads are defined in ``workloads.py``.  ``--self-test`` checks that
the oracle and the failure accounting catch a wrong value and a skipped
target; every run does the same check first.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from fractions import Fraction

import calibrate
import oracle
import tracing
import workloads

SETUP_SAMPLES = 5
PREGENERATED = 512  # operations drawn during set-up; more are drawn lazily
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


@dataclass
class Tally:
    """What a closed loop of operations did."""

    ops: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds, one per op
    kernel_s: list = field(default_factory=list)  # calibration time around each op
    failures: list = field(default_factory=list)  # (op, reason)
    wall_s: float = 0.0
    child_rss_kb: int = 0
    child_traces: list = field(default_factory=list)

    @property
    def scaled(self) -> list[float]:
        """Latencies at the reference speed (see calibrate.py)."""
        return [lat * calibrate.REFERENCE_S / k for lat, k in zip(self.latencies, self.kernel_s)]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_ops(ops, execute, check, seconds: float, *, around=None) -> Tally:
    """Closed loop: take operations until they have taken ``seconds`` at the
    reference speed, or ``seconds`` of wall time have passed, or the iterator
    ends; time each, and count it failed when it raises or its check returns
    a reason.  Stopping on reference-speed time keeps the number of samples,
    and so the tail percentile, the same from run to run on a host whose
    speed drifts.  ``around`` is an optional (begin, end) pair called just
    inside each operation's timing.  The calibration kernel runs between
    operations, outside their timing."""
    tally = Tally()
    start = time.perf_counter()
    before = calibrate.sample()
    work = 0.0
    for op in ops:
        if work >= seconds or time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        if around:
            around[0]()
        try:
            outcome = execute(op)
        except Exception as exc:  # an operation that raises is a failure, not a crash
            outcome, reason = None, f"{op} raised {type(exc).__name__}: {exc}"
        finally:
            if around:
                around[1]()
        latency = time.perf_counter() - t0
        after = calibrate.sample()
        tally.latencies.append(latency)
        tally.kernel_s.append((before + after) / 2)
        work += latency * calibrate.REFERENCE_S / tally.kernel_s[-1]
        before = after
        tally.ops.append(op)
        if outcome is not None:
            reason = check(op, outcome)
            tally.child_rss_kb = max(tally.child_rss_kb, outcome.rss_kb)
            if outcome.trace is not None:
                tally.child_traces.append(outcome.trace)
        if reason is not None:
            tally.failures.append((op, reason))
    tally.wall_s = time.perf_counter() - start
    return tally


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile); the maximum when there are too few samples."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: from spawning one to its report that
    boxdet is imported, the inputs drawn and the warm-up done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    before = calibrate.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=workloads.ROOT, env=workloads.child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed ({proc.returncode}): {line!r}")
        after = calibrate.sample()
        samples.append(elapsed * calibrate.REFERENCE_S * 2 / (before + after))
        before = after
    return samples


def set_up(workload, seed: int):
    boxdet = workloads.load_boxdet()
    stream = workloads.operations(workload, seed)
    drawn = list(itertools.islice(stream, PREGENERATED))
    workloads.warm_up(boxdet, workload)
    return boxdet, itertools.chain(drawn, stream)


def git_sha() -> str:
    if not (workloads.ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def input_mix(ops: list) -> dict:
    pairs = [op[1:] for op in ops if op[0] in ("verify_all", "det")]
    if not pairs:
        return {}
    return {
        "skewed_share": sum(min(p) <= 5 for p in pairs) / len(pairs),
        "shared_factor_share": sum(math.gcd(n + 1, m + 1) > 1 for n, m in pairs) / len(pairs),
    }


def _elimination_det(rows: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"perfbench self-test failed: {what}")


def self_test() -> None:
    """The gcd rule matches elimination on small grids, and a wrong value
    and a skipped target are both counted as failed operations."""
    for n in range(1, 5):
        for m in range(1, 5):
            cells = [(i, j) for i in range(n) for j in range(m)]
            adj = [[int(abs(i - k) + abs(j - l) == 1) for k, l in cells] for i, j in cells]
            _require(oracle.grid_det(n, m) == _elimination_det(adj), f"gcd rule at {n}x{m}")

    right = {"n": 2, "m": 3, "agree": True,
             "results": {"direct": "-1", "block": "-1", "resultant": "-1", "closed_form": "-1"}}
    wrong = dict(right, results={k: "1" for k in right["results"]})
    skipped = dict(right, results=dict(right["results"], direct=None))
    outputs = iter([right, wrong, skipped])
    workload = workloads.WORKLOADS["direct-dense"]
    tally = run_ops([("verify_all", 2, 3)] * 3,
                    lambda op: workloads.Outcome(0, next(outputs)),
                    lambda op, outcome: workloads.check(workload, op, outcome), math.inf)
    reasons = [reason for _, reason in tally.failures]
    _require(tally.failed / tally.attempted == 2 / 3, f"error rate of 2 in 3: {reasons}")
    _require("gave 1" in reasons[0] and "skipped" in reasons[1], f"failure reasons: {reasons}")

    good_sweep = "n,m,gcd,det,methods_agree\n1,1,2,0,true\n1,2,1,-1,true\n"
    _require(oracle.check_sweep_csv(good_sweep, 1, 2) is None, "a right sweep passes")
    _require(oracle.check_sweep_csv(good_sweep.replace("-1,true", "1,true"), 1, 2) is not None,
             "a wrong sweep determinant fails")
    good_identities = "".join(f"{family} pass  ({count} checks)\n"
                              for family, count in oracle.identity_counts(3).items())
    _require(oracle.check_identities(good_identities, 3) is None, "passing identities pass")
    _require(oracle.check_identities(good_identities.replace("pass", "FAIL", 1), 3) is not None,
             "a failed identity family fails")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        self_test()
        print("self-test passed")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    # Pin the program's environment: the pool runs at its default size.
    os.environ.pop("BOXDET_THREADS", None)
    # One CPU for the benchmark, its children and its calibration kernel:
    # the CPUs of a shared host differ in speed and drift partly apart, so
    # the kernel only tracks the speed an operation saw if both ran on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        set_up(workload, args.seed)
        print("ready", flush=True)
        return 0

    boxdet, ops = set_up(workload, args.seed)
    self_test()
    setup_samples = measure_setup(args.workload, args.seed)

    def execute(op, traced=False):
        return workloads.execute(boxdet, op, traced=traced)

    def check(op, outcome):
        return workloads.check(workload, op, outcome)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "target_method": workload.target,
        "predicted_dominant": workload.dominant,
        "setup_samples_s": setup_samples,
    }
    if args.trace == 0:
        tally = run_ops(ops, execute, check, args.seconds)
        runs = [tally]
        tail_ms, tail_pct = tail(tally.scaled)
        rss_kb = tally.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verified = tally.attempted - tally.failed
        metrics = {
            "throughput_ops_s": metric(verified / sum(tally.scaled), "1/s"),
            "latency_p50_ms": metric(statistics.median(tally.scaled) * 1e3, "ms"),
            "latency_tail_ms": metric(tail_ms * 1e3, "ms"),
            "peak_rss_mb": metric(rss_kb / 1024, "MB"),
            "verified_share": metric(verified / tally.attempted, "ratio"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
        }
        info.update(tail_percentile=tail_pct, tail_samples_beyond=TAIL_BEYOND,
                    samples=len(tally.latencies),
                    raw={"throughput_ops_s": verified / tally.wall_s,
                         "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
                         "latency_tail_ms": tail(tally.latencies)[0] * 1e3},
                    kernel_s_median=statistics.median(tally.kernel_s),
                    kernel_s_reference=calibrate.REFERENCE_S)
    else:
        plain = run_ops(ops, execute, check, args.seconds / 2)
        tracer = tracing.Tracer(workload.warm_charpoly)
        tracer.install()
        try:
            traced = run_ops(iter(plain.ops), lambda op: execute(op, traced=True), check,
                             args.seconds * 0.6, around=(tracer.begin_op, tracer.end_op))
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        snap = tracer.snapshot()
        for part in traced.child_traces:
            snap = tracing.merge(snap, part)
        op_time = sum(traced.latencies)
        overhead = sum(traced.scaled) / sum(plain.scaled[:traced.attempted]) - 1
        metrics = tracing.layer_metrics(snap, op_time, overhead)
        dominant = sum(metrics[f"{key}.time_s"]["value"] for key in workload.dominant)
        info.update(absent=snap["absent"], predicted_dominant_share=dominant / op_time,
                    traced_ops=traced.attempted)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    info.update(error_rate=failed / attempted, inputs=input_mix(runs[0].ops))
    for op, reason in [f for r in runs for f in r.failures][:10]:
        print(f"perfbench: failed {op}: {reason}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
