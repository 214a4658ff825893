"""Timing wrappers installed around boxdet's public functions from outside.

The package is not edited.  Callers inside boxdet import functions by name
(``det_methods`` holds its own ``bareiss_det``, ``cli`` its own
``verify_all``), so a wrapper replaces every binding of the original object
in every loaded ``boxdet`` module, not only the defining one.

Each wrapped call is a span with an inclusive time and a self time: the span
minus the union of its children's intervals.  ``sweep`` and ``identities``
run work on pool threads, where neither contextvars nor a thread-local stack
follows it, so a span that opens on a thread with no open span takes as its
parent the innermost open span of the thread that began the operation.
Spans of one operation therefore nest under that operation's root, and
parallel children are counted once in their parent's self time.  A
function's ``time_s`` adds up its spans, so functions that run on two pool
threads at once can add up to more than the operation's wall time.

A function that no longer exists is skipped and reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time

# (metric key, module, names): several names share a key when they form a
# family that is reported as one layer.
TRACED = (
    ("cli.main", "cli", ("main",)),
    ("det_methods.verify_all", "det_methods", ("verify_all",)),
    ("det_methods.det_direct", "det_methods", ("det_direct",)),
    ("det_methods.det_block", "det_methods", ("det_block",)),
    ("det_methods.det_resultant", "det_methods", ("det_resultant",)),
    ("det_methods.det_closed_form", "det_methods", ("det_closed_form",)),
    (
        "det_methods.check",
        "det_methods",
        (
            "check_splitting",
            "check_shift",
            "check_annihilation",
            "check_power",
            "check_product_n_plus_1",
            "check_symmetry",
        ),
    ),
    ("graphs.path", "graphs", ("path",)),
    ("graphs.box_product", "graphs", ("box_product",)),
    ("graphs.adjacency_matrix", "graphs", ("adjacency_matrix",)),
    ("exact_linalg.bareiss_det", "exact_linalg", ("bareiss_det",)),
    ("exact_linalg.matpoly_eval", "exact_linalg", ("matpoly_eval",)),
    ("polynomials.path_charpoly", "polynomials", ("path_charpoly",)),
    ("polynomials.resultant", "polynomials", ("resultant",)),
    ("polynomials.pseudo_rem", "polynomials", ("pseudo_rem",)),
)

# Counters computed from arguments and results, not measured.
COUNTERS = (
    "verify_all.reports",
    "verify_all.skipped_direct",
    "verify_all.skipped_block",
    "bareiss_det.dim3_sum",
    "matpoly_eval.matmuls",
    "path_charpoly.hits",
    "path_charpoly.calls",
    "resultant.calls",
    "resultant.shared_factor",
)

_ARG_ERRORS = (AttributeError, IndexError, TypeError, ValueError)


class Tracer:
    """Per-function span totals and counters for one process.

    ``charpoly_max`` is the largest path-polynomial size requested before
    tracing began, so ``path_charpoly`` hits count requests made during
    warm-up as already made.
    """

    def __init__(self, charpoly_max: int = -1) -> None:
        self.stats = {key: [0, 0, 0] for key, _, _ in TRACED}  # calls, ns, self ns
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._charpoly_max = charpoly_max
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list | None = None
        self._restore: list[tuple[object, str, object]] = []

    # --- operations --------------------------------------------------------

    def begin_op(self) -> None:
        """Open the root span of one operation on the calling thread."""
        stack = self._stack()
        stack.append([time.perf_counter_ns(), []])
        self._op_stack = stack

    def end_op(self) -> None:
        self._stack().pop()
        self._op_stack = None

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "boxdet" or name.startswith("boxdet."))
        ]
        for key, module, names in TRACED:
            home = importlib.import_module(f"boxdet.{module}")
            found = False
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                found = True
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            if not found:
                self.absent.append(key)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # --- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn):
        before = getattr(self, "_before_" + fn.__name__, None)
        after = getattr(self, "_after_" + fn.__name__, None)
        stats = self.stats[key]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._op_stack[-1]
                except (IndexError, TypeError):
                    parent = None
            span = [time.perf_counter_ns(), []]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                start, children = span
                own = end - start - _covered(children, start, end)
                with tracer._lock:
                    stats[0] += 1
                    stats[1] += end - start
                    stats[2] += own
                if parent is not None:
                    parent[1].append((start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # --- counters -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _after_verify_all(self, args, report) -> None:
        self._count("verify_all.reports")
        if getattr(report, "direct", 0) is None:
            self._count("verify_all.skipped_direct")
        if getattr(report, "block", 0) is None:
            self._count("verify_all.skipped_block")

    def _before_bareiss_det(self, args) -> None:
        try:
            self._count("bareiss_det.dim3_sum", args[0].size ** 3)
        except _ARG_ERRORS:
            pass

    def _before_matpoly_eval(self, args) -> None:
        try:
            self._count("matpoly_eval.matmuls", max(int(args[0].degree), 0))
        except _ARG_ERRORS + (OverflowError,):
            pass

    def _before_path_charpoly(self, args) -> None:
        try:
            n = int(args[0])
        except _ARG_ERRORS:
            return
        with self._lock:
            self.counters["path_charpoly.calls"] += 1
            if n <= self._charpoly_max:
                self.counters["path_charpoly.hits"] += 1
            else:
                self._charpoly_max = n

    def _before_resultant(self, args) -> None:
        try:
            shared = math.gcd(int(args[0].degree) + 1, int(args[1].degree) + 1) > 1
        except _ARG_ERRORS + (OverflowError,):
            return
        self._count("resultant.calls")
        if shared:
            self._count("resultant.shared_factor")

    # --- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals in a JSON-safe form that :func:`merge` can add up."""
        return {
            "stats": {key: list(v) for key, v in self.stats.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot to a running total (used across child processes)."""
    for key, values in part["stats"].items():
        row = total["stats"].setdefault(key, [0, 0, 0])
        for i, v in enumerate(values):
            row[i] += v
    for key, v in part["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0) + v
    total["absent"] = sorted(set(total["absent"]) | set(part["absent"]))
    return total


def _covered(intervals: list, start: int, end: int) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    if not intervals:
        return 0
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def layer_metrics(snap: dict, op_time_s: float, overhead_frac: float) -> dict:
    """The per-layer metrics, each as {"value", "unit"}.

    A function absent from the package reports zero calls and zero time; the
    run's info line lists it under ``absent``.
    """
    metrics = {}
    for key, _, _ in TRACED:
        calls, ns, self_ns = snap["stats"].get(key, (0, 0, 0))
        metrics[f"{key}.calls"] = (calls, "count")
        metrics[f"{key}.time_s"] = (ns / 1e9, "s")
        metrics[f"{key}.self_s"] = (self_ns / 1e9, "s")
    c = snap["counters"]
    reports = c["verify_all.reports"]
    metrics["det_methods.verify_all.skipped_direct_share"] = (
        _share(c["verify_all.skipped_direct"], reports), "ratio")
    metrics["det_methods.verify_all.skipped_block_share"] = (
        _share(c["verify_all.skipped_block"], reports), "ratio")
    metrics["exact_linalg.bareiss_det.dim3_sum"] = (c["bareiss_det.dim3_sum"], "count")
    metrics["exact_linalg.matpoly_eval.matmuls"] = (c["matpoly_eval.matmuls"], "count")
    metrics["polynomials.path_charpoly.hit_ratio"] = (
        _share(c["path_charpoly.hits"], c["path_charpoly.calls"]), "ratio")
    metrics["polynomials.resultant.shared_factor_share"] = (
        _share(c["resultant.shared_factor"], c["resultant.calls"]), "ratio")
    metrics["trace.op_time_s"] = (op_time_s, "s")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
