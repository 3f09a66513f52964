"""The greedy ded chase (Section 3, "Handling Complexity").

Chasing disjunctive embedded dependencies is fundamentally harder than
chasing tgds/egds: the right notion of result is a *universal model
set*, which may be exponentially large (Deutsch–Nash–Remmel, the
paper's [3]).  GROM's answer is a **greedy** strategy:

    "searching for solutions to a set of deds by running multiple
     standard scenarios made of tgds and egds derived from the given
     deds [...] that capture specific branches in the deds."

Concretely: for every ded with ``k`` disjuncts, selecting one branch
yields a standard dependency; a *selection* (one branch per ded) yields
a standard scenario, which the classical chase can run.  Any solution of
a derived scenario satisfies the original deds, so the strategy is sound
(but not complete — a solvable ded set can have all uniform-selection
scenarios fail).

Selections are enumerated in a cost-heuristic order — branches that only
equate values come before branches that invent facts, smaller branches
before larger ones — and the first scenario that chases to success wins.
The paper's Section 4 observation that "many of the generated scenarios
fail and new ones need to be executed" on intricate constraints is
directly observable through :attr:`ChaseResult.scenarios_tried`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chase.compiled import compile_dependencies
from repro.chase.engine import ChaseConfig, StandardChase
from repro.chase.parallel import create_sharder, parse_parallelism
from repro.analysis.termination import TerminationReport
from repro.chase.race import create_racer
from repro.chase.result import ChaseResult, ChaseStats, ChaseStatus
from repro.obs.recorder import TraceConfig, resolve_recorder
from repro.logic.dependencies import Dependency, Disjunct
from repro.relational.instance import Instance

__all__ = ["GreedyDedChase", "branch_cost", "greedy_ded_chase"]


def branch_cost(disjunct: Disjunct) -> Tuple[int, int, int]:
    """Heuristic cost of enforcing a disjunct; lower chases first.

    Equality-only branches are cheapest (they merge values instead of
    inventing facts); then fewer atoms, then fewer equalities.  This is
    the "greedy" part: cheap branches tend to keep instances small and
    succeed fast, matching the paper's observation that the greedy chase
    is "often surprisingly quick in returning some solution".
    """
    return (1 if disjunct.atoms else 0, len(disjunct.atoms), len(disjunct.equalities))


@dataclass
class _DedInfo:
    dependency: Dependency
    branch_order: List[int]


def _branch_timing(
    index: int,
    selection: Tuple[int, ...],
    result: ChaseResult,
    seconds: float,
    worker: str,
) -> Dict[str, object]:
    """One derived scenario's entry in ``ChaseResult.branch_timings``."""
    return {
        "index": index,
        "selection": list(selection),
        "status": str(result.status),
        "seconds": seconds,
        "worker": worker,
    }


class GreedyDedChase:
    """Greedy branch-selection search over derived standard scenarios."""

    def __init__(
        self,
        dependencies: Sequence[Dependency],
        source_relations: Iterable[str] = (),
        config: Optional[ChaseConfig] = None,
        max_scenarios: int = 256,
        termination: Optional["TerminationReport"] = None,
    ) -> None:
        """``termination`` is the analyzer's verdict for the *whole* ded
        set (disjuncts union-edged), so it is sound for every derived
        scenario regardless of branch selection and is forwarded to each
        :class:`StandardChase` the sweep runs."""
        self.standard = [d for d in dependencies if not d.is_ded()]
        self.deds = [d for d in dependencies if d.is_ded()]
        self.source_relations = frozenset(source_relations)
        self.config = config or ChaseConfig()
        self.max_scenarios = max_scenarios
        self.termination = termination
        self._infos = [
            _DedInfo(
                dependency=ded,
                branch_order=sorted(
                    range(len(ded.disjuncts)),
                    key=lambda i: branch_cost(ded.disjuncts[i]),
                ),
            )
            for ded in self.deds
        ]
        # Every derived scenario shares one dependency list (standard part
        # followed by the whole deds); compile its plans once so the
        # selection sweep never re-plans a join between scenarios.
        self._compiled = compile_dependencies(
            self.standard + [info.dependency for info in self._infos]
        )

    # -- selection enumeration ----------------------------------------------

    def selections(self) -> Iterator[Tuple[int, ...]]:
        """Branch selections in heuristic order.

        The cartesian product of per-ded branch orders, enumerated so
        that globally cheaper selections come first: the sort key is the
        tuple of per-ded *ranks*, i.e. the first selection takes every
        ded's best branch, then single deviations, and so on.

        The enumeration is lazy up to the product construction;
        :attr:`max_scenarios` bounds how many the caller will consume.
        """
        if not self._infos:
            yield ()
            return
        ranked = [list(enumerate(info.branch_order)) for info in self._infos]
        # itertools.product of (rank, branch) pairs, sorted by total rank.
        product = itertools.product(*ranked)
        for combination in sorted(
            itertools.islice(product, self.max_scenarios * 4),
            key=lambda pairs: (sum(rank for rank, _ in pairs),
                               tuple(rank for rank, _ in pairs)),
        ):
            yield tuple(branch for _rank, branch in combination)

    def scenario_for(
        self, selection: Tuple[int, ...]
    ) -> Tuple[List[Dependency], Dict[int, int]]:
        """The dependency list and branch-choice map for a selection.

        The deds are kept whole (so the chase's satisfaction check sees
        every disjunct) and the choice map directs enforcement to the
        selected branch — the "standard scenario derived from the deds"
        of the paper.
        """
        dependencies = self.standard + [info.dependency for info in self._infos]
        offset = len(self.standard)
        choice = {
            offset + position: branch
            for position, branch in enumerate(selection)
        }
        return dependencies, choice

    # -- search ------------------------------------------------------------------

    def run(
        self,
        source_instance: Instance,
        target_instance: Optional[Instance] = None,
        recorder=None,
    ) -> ChaseResult:
        """Try derived scenarios until one chases to success.

        Returns the first successful result (annotated with the winning
        selection and the number of scenarios tried), or the FAILURE
        result of the last attempt when all scenarios fail or the budget
        is exhausted.

        When ``config.branch_parallelism`` asks for workers, the derived
        scenarios *race* on a worker pool (:mod:`repro.chase.race`): the
        winner is the lowest selection in canonical order that succeeds,
        so status, target, statistics and ``scenarios_tried`` are
        bit-identical to the serial sweep; losers past the winner are
        cancelled early.

        ``recorder`` follows the engine convention: an external recorder
        keeps the trace; otherwise one is built from ``config.trace``
        and its payload lands on ``ChaseResult.trace``.  Raced branches
        always record into their own recorder and ship the payload home
        on the branch result (over the racer's existing pickle channel);
        the parent folds the payloads in canonical selection order, so
        the merged trace is deterministic and structurally identical to
        the serial sweep's.
        """
        rec = resolve_recorder(recorder, self.config.trace)
        owned_rec = recorder is None and rec.enabled
        selections = list(
            itertools.islice(self.selections(), self.max_scenarios)
        )
        _mode, workers = parse_parallelism(self.config.branch_parallelism)
        with rec.span(
            "chase.search",
            selections=len(selections),
            racing=self.config.branch_parallelism,
        ):
            if workers > 1 and len(selections) > 1:
                result = self._run_raced(
                    selections, source_instance, target_instance, rec
                )
            else:
                result = self._run_serial(
                    selections, source_instance, target_instance, rec
                )
        result.trace = rec.to_payload() if owned_rec else None
        return result

    def _run_serial(
        self,
        selections: List[Tuple[int, ...]],
        source_instance: Instance,
        target_instance: Optional[Instance],
        rec,
    ) -> ChaseResult:
        start = time.perf_counter()
        aggregate = ChaseStats()
        last: Optional[ChaseResult] = None
        timings: List[Dict[str, object]] = []
        tried = 0
        # One sharder serves the whole selection sweep: every derived
        # scenario shares the compiled plans, so the worker fan-out is
        # configured once and re-armed per run (begin_run/end_run).
        sharder = create_sharder(self.config.parallelism)
        try:
            for selection in selections:
                tried += 1
                dependencies, choice = self.scenario_for(selection)
                engine = StandardChase(
                    dependencies,
                    self.source_relations,
                    self.config,
                    branch_choice=choice,
                    compiled=self._compiled,
                    sharder=sharder,
                    termination=self.termination,
                )
                step = time.perf_counter()
                result = engine.run(
                    source_instance, target_instance, recorder=rec
                )
                seconds = time.perf_counter() - step
                timings.append(
                    _branch_timing(tried - 1, selection, result, seconds, "serial")
                )
                rec.observe("race.branch_seconds", seconds)
                aggregate = aggregate.merge(result.stats)
                if result.ok:
                    result.stats = aggregate
                    result.stats.elapsed_seconds = time.perf_counter() - start
                    result.scenarios_tried = tried
                    result.branch_selection = {
                        info.dependency.describe(): branch
                        for info, branch in zip(self._infos, selection)
                    }
                    result.branch_timings = timings
                    return result
                last = result
            if last is None:  # no scenario budget?  run the standard part once
                engine = StandardChase(
                    self.standard,
                    self.source_relations,
                    self.config,
                    compiled=self._compiled[: len(self.standard)],
                    sharder=sharder,
                    termination=self.termination,
                )
                step = time.perf_counter()
                last = engine.run(
                    source_instance, target_instance, recorder=rec
                )
                timings.append(
                    _branch_timing(
                        0, (), last, time.perf_counter() - step, "serial"
                    )
                )
                tried = 1
        finally:
            sharder.close()
        return self._finish_failure(last, aggregate, tried, start, timings)

    def _run_raced(
        self,
        selections: List[Tuple[int, ...]],
        source_instance: Instance,
        target_instance: Optional[Instance],
        rec,
    ) -> ChaseResult:
        start = time.perf_counter()
        racer = create_racer(self.config.branch_parallelism)
        # Branches record into their own recorder (fork-safe) and ship
        # the payload on the result; make sure the branch config asks
        # for one whenever this sweep is being traced at all (the trace
        # may have been handed down as an external recorder).
        branch_trace = self.config.trace
        if rec.enabled and (branch_trace is None or not branch_trace.enabled):
            branch_trace = TraceConfig(enabled=True)
        # Racing is the outermost requested tier here, so every raced
        # branch chases serially: only one tier forks.  Forked workers
        # inherit the sweep's compiled plans copy-on-write, and the
        # serial loop reuses them branch after branch.
        inner_config = replace(
            self.config,
            parallelism="serial",
            branch_parallelism="serial",
            trace=branch_trace,
        )

        def run_selection(index: int) -> ChaseResult:
            dependencies, choice = self.scenario_for(selections[index])
            engine = StandardChase(
                dependencies,
                self.source_relations,
                inner_config,
                branch_choice=choice,
                compiled=self._compiled,
                termination=self.termination,
            )
            return engine.run(source_instance, target_instance)

        race = racer.race(
            len(selections), run_selection, success=lambda r: r.ok
        )
        ordered = race.ordered()
        timings = [
            _branch_timing(
                outcome.index,
                selections[outcome.index],
                outcome.result,
                outcome.seconds,
                outcome.worker,
            )
            for outcome in ordered
        ]
        aggregate = ChaseStats()
        for outcome in ordered:
            aggregate = aggregate.merge(outcome.result.stats)
        if rec.enabled:
            # Fold branch traces home in canonical selection order: the
            # merged span sequence matches what the serial sweep records.
            for outcome in ordered:
                rec.merge_payload(outcome.result.trace, worker=outcome.worker)
                outcome.result.trace = None
                rec.observe("race.branch_seconds", outcome.seconds)
            rec.count("race.branches", len(ordered))
            rec.count("race.skipped", len(selections) - race.tried)
        if race.winner is not None:
            selection = selections[race.winner]
            result = race.outcomes[race.winner].result
            result.stats = aggregate
            result.stats.elapsed_seconds = time.perf_counter() - start
            result.scenarios_tried = race.tried
            result.branch_selection = {
                info.dependency.describe(): branch
                for info, branch in zip(self._infos, selection)
            }
            result.branch_racing = racer.describe()
            result.branch_timings = timings
            return result
        last = race.outcomes[len(selections) - 1].result
        result = self._finish_failure(
            last, aggregate, race.tried, start, timings
        )
        result.branch_racing = racer.describe()
        return result

    def _finish_failure(
        self,
        last: ChaseResult,
        aggregate: ChaseStats,
        tried: int,
        start: float,
        timings: List[Dict[str, object]],
    ) -> ChaseResult:
        last.stats = aggregate.merge(ChaseStats())
        last.stats.elapsed_seconds = time.perf_counter() - start
        last.scenarios_tried = tried
        last.branch_timings = timings
        if last.status is ChaseStatus.SUCCESS:
            return last
        last.failure_reason = (
            f"all {tried} derived scenarios failed "
            f"(last: {last.failure_reason})"
        )
        return last


def greedy_ded_chase(
    dependencies: Sequence[Dependency],
    source_instance: Instance,
    source_relations: Iterable[str] = (),
    config: Optional[ChaseConfig] = None,
    max_scenarios: int = 256,
) -> ChaseResult:
    """One-shot convenience wrapper around :class:`GreedyDedChase`."""
    return GreedyDedChase(
        dependencies, source_relations, config, max_scenarios
    ).run(source_instance)
