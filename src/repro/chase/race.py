"""Deterministic racing of independent disjunctive-search branches.

The greedy ded sweep (:mod:`repro.chase.ded`) tries derived standard
scenarios one after another; the scenarios are completely independent —
each chases its own copy of the source — so they can *race* on a worker
pool.  Racing must not be observable in the results, so the contract
here is strict:

* **Deterministic winner.**  The winner is the successful branch with
  the smallest index in canonical selection order, never the branch
  that happened to finish first.  A racer therefore resolves every
  index below the best success before declaring it the winner, and the
  caller's result (winning branch, aggregated statistics, scenarios
  tried) is bit-identical to the serial sweep.
* **Early cancellation of losers.**  Once the winner is decided,
  branches with larger indices are not started (the racer stops
  dispatching and terminates workers still chasing a loser).  Losers
  only ever touched private state — each branch chases its own working
  copy in its own process — so cancellation cannot leave partial state
  behind.
* **Deterministic errors.**  An unexpected exception in a branch is
  re-raised only if the serial sweep would have reached that branch
  (its index is below every success), and always the lowest such index.

Two tiers mirror :mod:`repro.chase.parallel`: :class:`SerialRacer`
(the reference loop) and :class:`ProcessRacer` (forked workers — branch
payloads are inherited copy-on-write and only indices travel down /
results travel up).  Worker failures degrade to the serial loop with
identical results.

Branches need no term-pool coordination under the columnar kernel: each
forked worker grows its private copy-on-write pool — the columnar
instances inside its results pickle as portable decoded rows and
re-intern against the parent's pool on arrival, so codes never cross a
process boundary.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ChaseError
from repro.chase.parallel import parse_parallelism, resolve_parallelism

__all__ = [
    "BranchOutcome",
    "RaceResult",
    "SerialRacer",
    "ProcessRacer",
    "create_racer",
]


@dataclass
class BranchOutcome:
    """One branch's run: its result, wall time and executing worker.

    ``error`` is the branch's exception when it crashed — the exception
    *object* when it could travel to the parent (when picklable), else
    its rendered text.  Keeping the object lets :func:`_settle` re-raise
    exactly what the serial sweep would have raised.
    """

    index: int
    result: Any = None
    seconds: float = 0.0
    worker: str = "serial"
    error: Optional[object] = None


@dataclass
class RaceResult:
    """What a race resolved.

    ``winner`` is the smallest successful index (None when every branch
    failed); ``outcomes`` holds every *resolved* branch — always all
    indices up to and including the winner, and all of them when there
    is no winner.  Branches past the winner may appear (they were
    already running when the winner was decided) but carry no meaning
    for the serial-equivalent result.
    """

    winner: Optional[int] = None
    outcomes: Dict[int, BranchOutcome] = field(default_factory=dict)

    @property
    def tried(self) -> int:
        """How many branches the equivalent serial sweep would have run."""
        if self.winner is not None:
            return self.winner + 1
        return len(self.outcomes)

    def ordered(self) -> List[BranchOutcome]:
        """Outcomes the serial sweep would have seen, in sweep order."""
        stop = self.winner + 1 if self.winner is not None else len(self.outcomes)
        return [self.outcomes[index] for index in range(stop)]


def _settle(
    outcomes: Dict[int, BranchOutcome], successes: List[int], count: int
) -> Optional[int]:
    """Apply the deterministic winner/error rule to resolved outcomes.

    Raises the lowest-index error that the serial sweep would have hit
    (i.e. one below every success); otherwise returns the lowest
    successful index, or None.
    """
    winner = min(successes) if successes else None
    for index in range(winner if winner is not None else count):
        outcome = outcomes.get(index)
        if outcome is not None and outcome.error is not None:
            if isinstance(outcome.error, BaseException):
                raise outcome.error  # exactly what serial would raise
            raise ChaseError(
                f"branch {index} failed during the disjunctive race: "
                f"{outcome.error}"
            )
    return winner


class SerialRacer:
    """The reference: run branches in order, stop at the first success."""

    mode = "serial"
    workers = 1

    def describe(self) -> str:
        if self.workers <= 1:
            return self.mode
        return f"{self.mode}:{self.workers}"

    def race(
        self,
        count: int,
        run: Callable[[int], Any],
        success: Callable[[Any], bool],
    ) -> RaceResult:
        race = RaceResult()
        for index in range(count):
            start = time.perf_counter()
            result = run(index)
            race.outcomes[index] = BranchOutcome(
                index=index,
                result=result,
                seconds=time.perf_counter() - start,
                worker="serial",
            )
            if success(result):
                race.winner = index
                break
        return race


# ---------------------------------------------------------------------------
# Forked branch workers
# ---------------------------------------------------------------------------


def _branch_worker(conn, worker_id: int, run: Callable[[int], Any]) -> None:
    """Loop of one forked branch worker.

    ``run`` (and everything it closes over — compiled plans, the source
    instance) is inherited copy-on-write; only branch indices travel
    down and pickled results travel up.
    """
    label = f"fork-{worker_id}"
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            index = message[1]
            start = time.perf_counter()
            try:
                result = run(index)
                conn.send(
                    ("ok", index, time.perf_counter() - start, label, result)
                )
            except Exception as exc:  # report, keep serving
                seconds = time.perf_counter() - start
                try:
                    # Ship the exception object so the parent re-raises
                    # the exact type the serial sweep would have seen.
                    conn.send(("err", index, seconds, label, exc))
                except Exception:  # unpicklable: fall back to its text
                    conn.send(
                        (
                            "err",
                            index,
                            seconds,
                            label,
                            f"{type(exc).__name__}: {exc}",
                        )
                    )
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ProcessRacer(SerialRacer):
    """Race branches across forked worker processes.

    Workers are forked per race (copy-on-write payload, O(1) setup);
    the parent dispatches indices on demand, so no branch past the
    winner bound is ever started, and workers still chasing a loser
    when the winner resolves are terminated.  Any worker failure
    degrades the unresolved remainder to the in-process serial loop —
    results are unaffected, only the speedup is lost.
    """

    mode = "process"

    def __init__(self, workers: int) -> None:
        self.workers = max(2, int(workers))
        self._degraded = False

    def describe(self) -> str:
        if self._degraded:
            return f"serial (degraded from process:{self.workers})"
        return super().describe()

    def race(
        self,
        count: int,
        run: Callable[[int], Any],
        success: Callable[[Any], bool],
    ) -> RaceResult:
        context = multiprocessing.get_context("fork")
        connections: List = []
        processes: List = []
        try:
            for worker_id in range(min(self.workers, count)):
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_branch_worker,
                    args=(child_end, worker_id, run),
                    daemon=True,
                    name=f"branch-race-{worker_id}",
                )
                process.start()
                child_end.close()
                connections.append(parent_end)
                processes.append(process)
        except OSError:
            for conn in connections:
                conn.close()
            for process in processes:
                process.terminate()
                process.join(timeout=5)
            self._degraded = True
            return SerialRacer.race(self, count, run, success)

        outcomes: Dict[int, BranchOutcome] = {}
        successes: List[int] = []
        busy: Dict[Any, int] = {}
        idle: List = list(connections)
        next_index = 0

        def bound() -> int:
            return min(successes) if successes else count

        def dispatch() -> None:
            nonlocal next_index
            while idle and next_index < bound():
                conn = idle.pop()
                conn.send(("task", next_index))
                busy[conn] = next_index
                next_index += 1

        def decided() -> bool:
            if not successes:
                return False
            best = min(successes)
            return all(index in outcomes for index in range(best))

        broken = False
        try:
            dispatch()
            while busy and not decided():
                ready = multiprocessing.connection.wait(list(busy))
                for conn in ready:
                    index = busy.pop(conn)
                    try:
                        status, _idx, seconds, label, payload = conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-branch: resolve its branch (and
                        # any other stragglers) serially below.
                        broken = True
                        conn.close()
                        continue
                    if status == "ok":
                        outcomes[index] = BranchOutcome(
                            index=index,
                            result=payload,
                            seconds=seconds,
                            worker=label,
                        )
                        if success(payload):
                            successes.append(index)
                    else:
                        outcomes[index] = BranchOutcome(
                            index=index,
                            seconds=seconds,
                            worker=label,
                            error=payload,
                        )
                    idle.append(conn)
                dispatch()
        finally:
            # Idle workers stop politely; workers still chasing a loser
            # are cancelled hard — their state is process-private.
            for conn in connections:
                try:
                    if conn not in busy:
                        conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for process, conn in zip(processes, connections):
                if conn in busy and process.is_alive():
                    process.terminate()
                process.join(timeout=5)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5)
                try:
                    conn.close()
                except OSError:
                    pass

        if broken:
            # Resolve every branch the serial sweep needs that no worker
            # delivered, in sweep order, in-process.
            self._degraded = True
            for index in range(count):
                if index in outcomes:
                    if index in successes:
                        break
                    continue
                if successes and index > min(successes):
                    break
                start = time.perf_counter()
                result = run(index)
                outcomes[index] = BranchOutcome(
                    index=index,
                    result=result,
                    seconds=time.perf_counter() - start,
                    worker="serial",
                )
                if success(result):
                    successes.append(index)
                    break

        race = RaceResult(outcomes=outcomes)
        race.winner = _settle(outcomes, successes, count)
        return race


def create_racer(spec) -> SerialRacer:
    """Build the racer ``spec`` resolves to here
    (:func:`~repro.chase.parallel.resolve_parallelism`): forked workers,
    or the serial loop."""
    mode, workers = parse_parallelism(resolve_parallelism(spec))
    if mode == "process":
        return ProcessRacer(workers)
    return SerialRacer()
