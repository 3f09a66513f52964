#!/usr/bin/env python3
"""Repository benchmark: the ``design``, ``exchange`` and ``ded-sweep`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exchange --seed 0 --seconds 10 --trace 0

Each run is a closed loop with one client: the next task starts when the
previous one has finished, everything serial.  ``--trace 0`` measures
the end-to-end metrics untraced; ``--trace 1`` alternates untraced and
traced passes over the workload's task cycle and reports the per-layer
metrics.  Every task is checked against its expected outcome; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--self-check`` runs every workload on its smallest inputs in seconds;
``--record-expected`` rewrites ``expected.json`` (the recorded outcomes
of the default seed) after checking them against the oracles.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2
MIN_COVERAGE = 0.95
MAX_PROBLEMS_SHOWN = 5

REFERENCE_ROWS = 4000
REFERENCE_S = 0.005
"""Normalized times are stated for a machine on which the reference loop
takes 5 ms, about its time on an idle 2-vCPU Xeon virtual machine."""
PROBE_EVERY_S = 0.1
"""Task seconds between two runs of the reference loop."""

TIME_LAYERS = (
    "dsl.parse_s",
    "dsl.serialize_s",
    "rewriter.rewrite_s",
    "analysis.analyze_s",
    "scenarios.build_s",
    "runtime.fingerprint_s",
    "runtime.cache_s",
    "compose.extend_source_s",
    "ded.run_s",
    "pipeline.strip_s",
    "verify.verify_s",
)
"""Every layer the benchmark times; their sum is the attributed wall."""

PER_TASK_COUNTERS = (
    "datalog.derived_facts",
    "chase.rounds",
    "chase.tgd_fires",
    "chase.premise_matches",
    "chase.nulls_created",
    "kernel.probe_rows",
    "kernel.probe_survivors",
    "kernel.encoded_appends",
    "plan.compiles",
    "plan.recompiles",
    "plan.served",
)
"""Flight-recorder counters reported per task."""


def load_program() -> None:
    """Put the checkout's ``src`` on the path, or stop without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))


def reference_loop() -> float:
    """Seconds one fixed pure-Python job takes right now.

    The job is of the program's kind (dict updates over tuple keys, then
    a sort) but shares no code or data with it, so its time tracks only
    how fast the machine runs Python at the moment.  On a shared machine
    that speed swings by up to 2x for tens of seconds at a time; dividing
    task times by it keeps the gated figures steady.  The collector is
    off so that the program's heap does not leak into the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(0)
        counts: Dict[Tuple[int, int], int] = {}
        for i in range(REFERENCE_ROWS):
            key = (rng.randrange(2000), i % 97)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def machine_factor(probes: List[float]) -> float:
    """How many times slower than the reference machine this one ran."""
    return statistics.median(probes) / REFERENCE_S


class TaskTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise :class:`TaskTimeout` in the main thread after ``seconds``."""

    def expire(_signum, _frame):
        raise TaskTimeout(f"timed out after {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mismatches(outcome: Dict[str, object], expected: Dict[str, object]) -> List[str]:
    """Keys of ``expected`` that ``outcome`` lacks or holds another value for."""
    return sorted(k for k in expected if k not in outcome or outcome[k] != expected[k])


class Checker:
    """Runs tasks, times them and counts the ones that fail their check."""

    def __init__(self, wl, workload, recorded: Optional[List[dict]]) -> None:
        self.wl = wl
        self.workload = workload
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def task(
        self, index: int, item, fn: Callable, finish: Callable, expected: dict
    ) -> Tuple[Optional[dict], float]:
        """One checked task: ``fn(item)`` is timed, ``finish`` turns its
        raw result into the outcome, which must match ``expected`` and the
        recorded outcome; returns (outcome or None, seconds)."""
        self.attempted += 1
        seconds = 0.0
        try:
            with deadline(self.wl.TASK_TIMEOUT):
                start = time.perf_counter()
                raw = fn(item)
                seconds = time.perf_counter() - start
            outcome = finish(raw)
        except Exception as exc:  # a raising task is a failed task
            self.failed += 1
            self.problem(f"{item.label}: {type(exc).__name__}: {exc}")
            return None, seconds
        wrong = mismatches(outcome, expected)
        if self.recorded is not None:
            wrong += mismatches(outcome, self.recorded[index])
        if wrong:
            self.failed += 1
            self.problem(
                f"{item.label}: {sorted(set(wrong))} differ: got {outcome}, "
                f"expected {expected}"
            )
            return None, seconds
        return outcome, seconds

    def untraced(self, index: int, item) -> Tuple[Optional[dict], float]:
        return self.task(
            index, item, self.workload.run, self.workload.result, item.expected
        )

    def traced(self, index: int, item, clock, rec) -> Tuple[Optional[dict], float]:
        return self.task(
            index,
            item,
            lambda it: self.workload.trace(it, clock, rec),
            self.workload.traced_result,
            item.traced_expected or item.expected,
        )


# ---------------------------------------------------------------------------
# Set-up, untraced and traced runs
# ---------------------------------------------------------------------------


def recorded_outcomes(name: str, seed: int, small: bool, count: int):
    if seed != DEFAULT_SEED or small:
        return None
    recorded = json.loads(EXPECTED.read_text())[name]
    if len(recorded) != count:
        sys.exit(f"perfbench: {EXPECTED.name} holds {len(recorded)} {name} tasks, "
                 f"the cycle has {count}")
    return recorded


def setup(wl, name: str, seed: int, small: bool, repeats: int):
    """Input generation, serialization, cache warm-up and one warm-up
    task, ``repeats`` times; returns the last state and the median time
    at reference speed."""
    timings = []
    probes = [reference_loop()]
    warmup_failures = []
    for __ in range(repeats):
        start = time.perf_counter()
        workload = wl.WORKLOADS[name](ROOT, seed, small)
        items = workload.prepare()
        checker = Checker(wl, workload, recorded_outcomes(name, seed, small, len(items)))
        checker.untraced(0, items[0])
        timings.append(time.perf_counter() - start)
        probes.append(reference_loop())
        warmup_failures += checker.problems
    checker = Checker(wl, workload, checker.recorded)
    for message in warmup_failures:
        checker.problem(f"warm-up: {message}")
    return workload, items, checker, statistics.median(timings) / machine_factor(probes)


def untraced_run(checker: Checker, items, seconds: float) -> Dict[str, float]:
    """Whole cycles over the inputs until ``seconds`` have passed.

    Each input runs once per cycle, and the reference loop runs between
    tasks about every ``PROBE_EVERY_S`` task seconds.  A task's time
    divided by its cycle's machine factor is its time at reference
    speed; the gated ``norm_*`` metrics take each input's median of
    those.  The plain task times are reported beside them.
    """
    runs: List[List[float]] = [[] for _ in items]
    factors: List[float] = []
    start = time.perf_counter()
    while True:
        probes = [reference_loop()]
        since_probe = 0.0
        for index, item in enumerate(items):
            _, elapsed = checker.untraced(index, item)
            runs[index].append(elapsed)
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                probes.append(reference_loop())
                since_probe = 0.0
        factors.append(machine_factor(probes))
        wall = time.perf_counter() - start
        if wall >= seconds:
            break
    normalized = [
        statistics.median(t / f for t, f in zip(times, factors)) for times in runs
    ]
    latencies = sorted(t for times in runs for t in times)
    busy = sum(latencies)
    facts = sum(item.source_facts for item in items)
    return {
        "norm_tasks_per_s": len(items) / sum(normalized),
        "norm_task_p50_ms": statistics.median(normalized) * 1000,
        "norm_source_facts_per_s": facts / sum(normalized),
        "machine_factor": statistics.median(factors),
        "tasks_per_s": len(latencies) / busy,
        "task_p50_ms": statistics.median(latencies) * 1000,
        "task_p99_ms": latencies[max(0, -(-99 * len(latencies) // 100) - 1)] * 1000,
        "source_facts_per_s": facts * len(factors) / busy,
        "tasks": len(latencies),
        "cycles": len(factors),
        "wall": wall,
    }


def compare_mirror(checker: Checker, item, traced, untraced) -> None:
    """The traced mirror must reproduce the product path's outcome."""
    if traced is None or untraced is None:
        return
    differ = sorted(k for k in traced.keys() & untraced.keys() if traced[k] != untraced[k])
    if differ:
        checker.problem(f"{item.label}: traced mirror differs on {differ}")


def traced_run(wl, checker: Checker, items, seconds: float) -> Dict[str, float]:
    """Alternate untraced and traced passes over the cycle; return the
    per-layer metrics of the traced passes."""
    from repro.obs.recorder import FlightRecorder

    # One untraced pass first, so no pair pays for first-time interning.
    for index, item in enumerate(items):
        checker.untraced(index, item)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        untraced_wall = 0.0
        baseline = []
        for index, item in enumerate(items):
            outcome, elapsed = checker.untraced(index, item)
            untraced_wall += elapsed
            baseline.append(outcome)
        clock = wl.LayerClock()
        rec = FlightRecorder()
        traced_wall = 0.0
        for index, item in enumerate(items):
            outcome, elapsed = checker.traced(index, item, clock, rec)
            traced_wall += elapsed
            compare_mirror(checker, item, outcome, baseline[index])
        snapshot = rec.metrics.snapshot()
        harvested = dict(snapshot["counters"], **snapshot["gauges"])
        harvested.update(("bench." + k, v) for k, v in clock.counts.items())
        passes.append((untraced_wall, traced_wall, clock, harvested))

    first = passes[0][3]
    for number, (_, _, _, harvested) in enumerate(passes[1:], start=2):
        if harvested != first:
            changed = sorted(
                k for k in first.keys() | harvested.keys()
                if first.get(k) != harvested.get(k)
            )
            checker.problem(f"traced pass {number} counters differ from pass 1: {changed}")
    return layer_metrics(passes, len(items), checker)


def layer_metrics(passes, cycle: int, checker: Checker) -> Dict[str, float]:
    tasks = cycle * len(passes)
    seconds = {layer: sum(p[2].seconds.get(layer, 0.0) for p in passes) for layer in TIME_LAYERS}
    traced_wall = sum(p[1] for p in passes)
    untraced_wall = sum(p[0] for p in passes)
    attributed = sum(seconds.values())
    counts = passes[0][3]

    def per_task(name: str) -> float:
        return counts.get(name, 0) / cycle

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {layer: seconds[layer] / tasks for layer in TIME_LAYERS}
    metrics["dsl.bytes_per_s"] = ratio(
        counts.get("bench.dsl.bytes", 0) * len(passes), seconds["dsl.parse_s"]
    )
    metrics["rewriter.dependencies"] = per_task("bench.rewriter.dependencies")
    metrics["rewriter.deds"] = per_task("bench.rewriter.deds")
    metrics["analysis.proven_terminating"] = per_task("bench.analysis.proven_terminating")
    metrics["runtime.cache_hit_rate"] = ratio(
        counts.get("bench.runtime.cache_hits", 0), counts.get("bench.runtime.cache_lookups", 0)
    )
    metrics["ded.scenarios_tried"] = per_task("bench.ded.scenarios_tried")
    metrics["ded.selection_yield"] = ratio(
        counts.get("bench.ded.successes", 0), counts.get("bench.ded.scenarios_tried", 0)
    )
    for name in PER_TASK_COUNTERS:
        metrics[name] = per_task(name)
    metrics["kernel.probe_yield"] = ratio(
        counts.get("kernel.probe_survivors", 0), counts.get("kernel.probe_rows", 0)
    )
    metrics["instance.intern_size"] = counts.get("instance.intern_size", 0)
    metrics["plan.hit_rate"] = ratio(
        counts.get("plan.served", 0),
        counts.get("plan.served", 0) + counts.get("plan.compiles", 0),
    )
    metrics["trace.coverage"] = ratio(attributed, traced_wall)
    metrics["trace.unattributed_s"] = (traced_wall - attributed) / tasks
    metrics["trace.overhead"] = ratio(traced_wall, untraced_wall) - 1
    if metrics["trace.coverage"] < MIN_COVERAGE:
        checker.problem(
            f"trace coverage {metrics['trace.coverage']:.4f} is below {MIN_COVERAGE}"
        )
    return metrics


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(name: str, seed: int, workload, items) -> Dict[str, object]:
    return {
        "workload": name,
        "seed": seed,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "inputs": workload.sizes(items),
    }


def print_table(rows: List[Tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def metric_units(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def measure(wl, name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, repeats: int = SETUP_REPEATS) -> dict:
    workload, items, checker, setup_s = setup(wl, name, seed, small, repeats)
    extra: Dict[str, Tuple[float, str]] = {}
    if trace:
        values = traced_run(wl, checker, items, seconds)
    else:
        run = untraced_run(checker, items, seconds)
        values = dict(run, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        extra = {
            "norm_source_facts_per_s": (run["norm_source_facts_per_s"], "1/s"),
            "machine_factor": (run["machine_factor"], "ratio"),
            "tasks_per_s": (run["tasks_per_s"], "1/s"),
            "task_p50_ms": (run["task_p50_ms"], "ms"),
            "task_p99_ms": (run["task_p99_ms"], "ms"),
            "source_facts_per_s": (run["source_facts_per_s"], "1/s"),
            "failed_share": (checker.failed / max(1, checker.attempted), "ratio"),
            "tasks": (run["tasks"], "count"),
            "cycles": (run["cycles"], "count"),
            "measured_s": (run["wall"], "s"),
        }
    report = {name: (values[name], unit) for name, unit in metric_units(trace).items()}
    correct = checker.failed == 0 and not checker.problems
    return {
        "env": environment(name, seed, workload, items),
        "report": report,
        "extra": extra,
        "problems": checker.problems,
        "result": {
            "correct": correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        },
    }


def emit(outcome: dict, trace: bool) -> None:
    env = outcome["env"]
    print(f"perfbench {env['workload']} seed={env['seed']} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("end-to-end:" if not trace else "per-layer:")
    print_table([(k, v, u) for k, (v, u) in outcome["report"].items()])
    if outcome["extra"]:
        print("also measured (not gated):")
        print_table([(k, v, u) for k, (v, u) in outcome["extra"].items()])
    for message in outcome["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {message}", file=sys.stderr)
    if len(outcome["problems"]) > MAX_PROBLEMS_SHOWN:
        print(f"problem: ... {len(outcome['problems']) - MAX_PROBLEMS_SHOWN} more",
              file=sys.stderr)
    print(json.dumps(outcome["result"]))


def self_check(wl) -> int:
    """Every workload on its smallest inputs, untraced and traced, plus a
    check that a wrong expectation is caught."""
    failures = []
    for name in wl.WORKLOADS:
        for trace in (False, True):
            outcome = measure(wl, name, DEFAULT_SEED, 0.0, trace, small=True, repeats=1)
            if not outcome["result"]["correct"]:
                failures.append(f"{name} trace={int(trace)}: {outcome['problems'][:3]}")
        workload = wl.WORKLOADS[name](ROOT, DEFAULT_SEED, True)
        items = workload.prepare()
        key = sorted(items[0].expected)[0]
        items[0].expected[key] = "tampered"
        checker = Checker(wl, workload, None)
        checker.untraced(0, items[0])
        if checker.failed != 1:
            failures.append(f"{name}: a tampered expectation went unnoticed")
    for failure in failures:
        print(f"self-check failed: {failure}", file=sys.stderr)
    print("self-check " + ("failed" if failures else "ok"))
    return 1 if failures else 0


def record_expected(wl) -> int:
    """Rewrite ``expected.json`` with the default seed's product-path
    outcomes, refusing outcomes that disagree with the oracles or with
    the traced mirror."""
    recorded = {}
    for name in wl.WORKLOADS:
        workload = wl.WORKLOADS[name](ROOT, DEFAULT_SEED, False)
        items = workload.prepare()
        checker = Checker(wl, workload, None)
        outcomes = []
        for index, item in enumerate(items):
            baseline, _ = checker.untraced(index, item)
            clock = wl.LayerClock()
            outcome, _ = checker.traced(index, item, clock, None)
            compare_mirror(checker, item, outcome, baseline)
            outcomes.append(baseline)
        if checker.failed or checker.problems:
            for message in checker.problems:
                print(f"problem: {message}", file=sys.stderr)
            return 1
        recorded[name] = outcomes
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("design", "exchange", "ded-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.record_expected):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads as wl

    if args.self_check:
        return self_check(wl)
    if args.record_expected:
        return record_expected(wl)
    outcome = measure(wl, args.workload, args.seed, args.seconds, bool(args.trace))
    emit(outcome, bool(args.trace))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
