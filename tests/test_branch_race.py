"""Differential suite for the branch-raced disjunctive search.

The racing contract is *bit-identical* results: whatever the racer
(threads, forked workers, or the serial reference), the greedy ded
sweep must return the same winning selection, target instance, failure
reason, aggregated statistics and ``scenarios_tried`` as the serial
sweep — the winner is decided by canonical selection order, never by
completion order.  The speculative disjunctive chase must likewise
produce the identical universal model set, leaf accounting and
truncation behaviour.  These tests sweep the shared scenario corpus
(``tests/corpus.py``) plus the ded-pressure cases through every racing
mode and compare, and unit-test the racer machinery (deterministic
winner, early cancellation, no partial state, the three-tier worker
budget, candidate-fanning verification).
"""

import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.disjunctive import DisjunctiveChase
from repro.chase.engine import ChaseConfig
from repro.chase.parallel import compose_parallelism
from repro.chase.race import (
    ProcessRacer,
    SerialRacer,
    ThreadRacer,
    create_racer,
)
from repro.core.rewriter import rewrite
from repro.core.verify import ScenarioVerifier
from repro.errors import ChaseError
from repro.pipeline import run_rewritten
from repro.runtime.fingerprint import fingerprint_instance

from corpus import (
    DISJUNCTIVE,
    chase_cases,
    ded_sweep_dependencies,
    ded_sweep_instance,
    ded_sweep_relations,
    pipeline_specs,
)

RACE_MODES = ["thread:2", "process:2"]

DISJUNCTIVE_SPECS = pipeline_specs(require={DISJUNCTIVE})


def _compare_chases(serial, raced, label):
    assert raced.status == serial.status, label
    assert raced.target == serial.target, label
    assert raced.failure_reason == serial.failure_reason, label
    assert raced.scenarios_tried == serial.scenarios_tried, label
    assert raced.branch_selection == serial.branch_selection, label
    assert raced.stats.rounds == serial.stats.rounds, label
    assert raced.stats.premise_matches == serial.stats.premise_matches, label
    assert raced.stats.nulls_created == serial.stats.nulls_created, label
    assert raced.stats.egd_unifications == serial.stats.egd_unifications, label
    assert raced.stats.tgd_fires == serial.stats.tgd_fires, label


class TestCorpusDifferential:
    """Branch-raced pipelines are bit-identical, corpus-wide."""

    @pytest.mark.parametrize(
        "spec", DISJUNCTIVE_SPECS, ids=[s.label for s in DISJUNCTIVE_SPECS]
    )
    def test_disjunctive_pipeline_specs_agree(self, spec):
        built = spec.build()
        rewritten = rewrite(built.scenario)
        assert rewritten.has_deds, spec.label  # the corpus flag is honest
        baseline = run_rewritten(
            built.scenario, rewritten, built.instance, verify=True
        )
        for mode in RACE_MODES:
            raced = run_rewritten(
                built.scenario,
                rewritten,
                built.instance,
                verify=True,
                config=ChaseConfig(branch_parallelism=mode),
            )
            _compare_chases(baseline.chase, raced.chase, f"{spec.label}/{mode}")
            assert raced.target == baseline.target, mode
            assert raced.ok == baseline.ok, mode
            if baseline.verification is not None:
                assert raced.verification.ok == baseline.verification.ok

    @pytest.mark.parametrize(
        "case",
        chase_cases(require={DISJUNCTIVE}),
        ids=lambda c: c.label,
    )
    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_ded_chase_cases_agree(self, case, mode):
        setup = case.build()
        serial = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(setup.instance)
        case.check_baseline(serial)
        raced = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        ).run(setup.instance)
        _compare_chases(serial, raced, f"{case.label}/{mode}")
        assert raced.branch_racing.startswith(mode.split(":")[0]) or (
            "degraded" in raced.branch_racing
        )

    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_deep_winner_identical(self, mode):
        # Three 2-branch deds whose equality branches all fail: the
        # winner is the *last* of the 8 selections, so the race must
        # resolve every earlier selection before declaring it.
        deps = list(ded_sweep_dependencies(deds=3))
        instance = ded_sweep_instance(deds=3)
        relations = ded_sweep_relations(deds=3)
        serial = GreedyDedChase(deps, relations).run(instance)
        raced = GreedyDedChase(
            deps, relations, ChaseConfig(branch_parallelism=mode)
        ).run(instance)
        assert serial.ok and serial.scenarios_tried == 8
        _compare_chases(serial, raced, mode)
        assert [t["status"] for t in raced.branch_timings] == [
            t["status"] for t in serial.branch_timings
        ]
        assert [t["selection"] for t in raced.branch_timings] == [
            t["selection"] for t in serial.branch_timings
        ]


class TestEarlyCancellation:
    """A losing/cancelled branch leaves no trace in shared structures."""

    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_source_instance_untouched(self, mode):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        source = setup.instance
        before_facts = set(source)
        before_generation = source.current_generation
        before_version = source.version
        engine = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        )
        result = engine.run(source)
        assert result.ok
        # Every branch — winner, losers, cancelled stragglers — chased
        # its own working copy; the shared source instance's contents
        # and version stamps are exactly those of a never-started run.
        assert set(source) == before_facts
        assert source.current_generation == before_generation
        assert source.version == before_version

    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_rerun_after_race_is_identical(self, mode):
        # The sweep object itself (compiled plans, ded infos) must not
        # be contaminated by a race: a second run — raced or serial —
        # reproduces the result bit-identically.
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        engine = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        )
        first = engine.run(setup.instance)
        second = engine.run(setup.instance)
        _compare_chases(first, second, mode)
        serial = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(setup.instance)
        _compare_chases(serial, first, mode)

    def test_no_leftover_worker_processes(self):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        engine = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism="process:2"),
        )
        engine.run(setup.instance)
        deadline = time.time() + 5
        while time.time() < deadline:
            racers = [
                p
                for p in multiprocessing.active_children()
                if p.name.startswith("branch-race")
            ]
            if not racers:
                break
            time.sleep(0.05)
        assert not racers, "race workers must not outlive the race"

    def test_cancelled_branches_never_run_serially(self):
        # The serial reference stops at the winner: later branches are
        # never even started (the strongest form of cancellation).
        ran = []

        def run(index):
            ran.append(index)
            return index  # every branch "succeeds"

        race = SerialRacer().race(8, run, success=lambda r: True)
        assert race.winner == 0
        assert ran == [0]

    def test_thread_racer_winner_is_canonical_not_fastest(self):
        # Branch 1 finishes long before branch 0, but both succeed:
        # the winner must still be branch 0.
        def run(index):
            if index == 0:
                time.sleep(0.2)
            return f"branch-{index}"

        race = ThreadRacer(2).race(2, run, success=lambda r: True)
        assert race.winner == 0
        assert race.outcomes[0].result == "branch-0"

    def test_thread_racer_cancels_pending_beyond_winner(self):
        # With one worker the pool is strictly sequential, so once
        # branch 0 succeeds nothing else may start.
        ran = []

        def run(index):
            ran.append(index)
            return index

        racer = ThreadRacer(2)
        racer.workers = 1  # deterministic: single pool slot
        race = racer.race(16, run, success=lambda r: True)
        assert race.winner == 0
        assert 15 not in ran  # the tail was cancelled, not run

    def test_error_in_reachable_branch_raises_original_type(self):
        # The serial sweep would hit the ValueError at branch 1 before
        # reaching the success at branch 3 — the race must re-raise the
        # exact same exception, not a wrapper.
        def run(index):
            if index == 1:
                raise ValueError("boom")
            return index

        for racer in (SerialRacer(), ThreadRacer(2)):
            with pytest.raises(ValueError, match="boom"):
                racer.race(4, run, success=lambda r: r == 3)

    def test_process_racer_error_preserves_exception_type(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")

        def run(index):
            raise KeyError(f"branch-{index}")

        with pytest.raises(KeyError, match="branch-0"):
            ProcessRacer(2).race(3, run, success=lambda r: True)

    def test_error_beyond_winner_is_ignored(self):
        def run(index):
            if index == 3:
                raise ValueError("boom")
            return index

        race = ThreadRacer(2).race(4, run, success=lambda r: r == 0)
        assert race.winner == 0


class TestProcessRacer:
    def test_all_fail_resolves_every_branch(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        race = ProcessRacer(2).race(
            5, lambda i: i * 10, success=lambda r: False
        )
        assert race.winner is None
        assert sorted(race.outcomes) == [0, 1, 2, 3, 4]
        assert race.outcomes[3].result == 30
        assert race.tried == 5

    def test_fork_worker_labels(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        race = ProcessRacer(2).race(
            3, lambda i: i, success=lambda r: False
        )
        assert all(
            outcome.worker.startswith("fork-")
            for outcome in race.outcomes.values()
        )

    def test_daemonic_caller_degrades_to_threads(self, monkeypatch):
        class _Daemonic:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: _Daemonic()
        )
        racer = create_racer("process:3")
        assert isinstance(racer, ThreadRacer)
        assert racer.workers == 3

    def test_create_racer_modes(self):
        assert type(create_racer("serial")) is SerialRacer
        assert isinstance(create_racer("thread:2"), ThreadRacer)
        if "fork" in multiprocessing.get_all_start_methods():
            assert isinstance(create_racer("process:2"), ProcessRacer)

    def test_describe(self):
        assert SerialRacer().describe() == "serial"
        assert ThreadRacer(2).describe() == "thread:2"
        assert ProcessRacer(4).describe() == "process:4"
        degraded = ProcessRacer(4)
        degraded._degraded = True
        assert degraded.describe() == "serial (degraded from process:4)"


class TestSpeculativeDisjunctive:
    """The speculative tree exploration is bit-identical to serial."""

    def _ded_setup(self):
        return (
            list(ded_sweep_dependencies(deds=2, insert_branches=2)),
            ded_sweep_relations(deds=2),
            ded_sweep_instance(deds=2),
        )

    def test_model_set_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(instance)
        raced = DisjunctiveChase(
            deps, relations, ChaseConfig(branch_parallelism="thread:3")
        ).run(instance)
        assert serial.satisfiable
        assert len(serial.models) == len(raced.models)
        for left, right in zip(serial.models, raced.models):
            assert left == right  # bit-identical, including null ids
            assert fingerprint_instance(left) == fingerprint_instance(right)
        assert (serial.leaves, serial.failures, serial.branchings) == (
            raced.leaves, raced.failures, raced.branchings
        )
        assert raced.branch_racing == "thread:3"

    def test_first_only_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(
            instance, first_only=True
        )
        raced = DisjunctiveChase(
            deps, relations, ChaseConfig(branch_parallelism="thread:2")
        ).run(instance, first_only=True)
        assert serial.models and serial.models[0] == raced.models[0]
        assert serial.leaves == raced.leaves

    def test_truncation_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations, max_leaves=3).run(instance)
        raced = DisjunctiveChase(
            deps,
            relations,
            ChaseConfig(branch_parallelism="thread:2"),
            max_leaves=3,
        ).run(instance)
        assert serial.truncated and raced.truncated
        assert serial.leaves == raced.leaves
        assert [m for m in serial.models] == [m for m in raced.models]

    def test_minimize_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(instance, minimize=True)
        raced = DisjunctiveChase(
            deps, relations, ChaseConfig(branch_parallelism="thread:2")
        ).run(instance, minimize=True)
        assert [m for m in serial.models] == [m for m in raced.models]

    def test_oblivious_policy_stays_serial(self):
        deps, relations, instance = self._ded_setup()
        result = DisjunctiveChase(
            deps,
            relations,
            ChaseConfig(policy="oblivious", branch_parallelism="thread:2"),
        ).run(instance)
        assert result.branch_racing == "serial"


class TestThreeTierBudget:
    """jobs × branch workers × chase workers ≤ cpu_count, always."""

    def test_branch_workers_take_the_job_share_first(self):
        branch, chase = compose_parallelism(
            2, "process:4", "process:4", cpu_count=16
        )
        assert branch == "process:4"  # 16 // 2 jobs = 8, capped at 4
        assert chase == "process:2"  # 16 // (2 × 4) = 2

    def test_chase_serializes_when_branches_eat_the_budget(self):
        branch, chase = compose_parallelism(
            2, "process:4", "process:4", cpu_count=8
        )
        assert branch == "process:4"
        assert chase == "serial"  # 8 // (2 × 4) = 1

    def test_serial_branch_leaves_chase_budget_unchanged(self):
        branch, chase = compose_parallelism(
            2, "serial", "process:4", cpu_count=8
        )
        assert branch == "serial"
        assert chase == "process:4"

    def test_single_cpu_serializes_everything(self):
        branch, chase = compose_parallelism(
            1, "process:4", "thread:4", cpu_count=1
        )
        assert branch == "serial"
        assert chase == "serial"

    def test_raced_sweep_caps_inner_sharding(self):
        # A raced GreedyDedChase divides the chase's own shard budget by
        # the racer width (observable through the inner config).
        from repro.chase.parallel import effective_parallelism

        assert effective_parallelism("process:4", jobs=2, cpu_count=8) == (
            "process:4"
        )
        assert effective_parallelism("process:4", jobs=4, cpu_count=8) == (
            "process:2"
        )


class TestCandidateFanVerifier:
    """verify_candidates == [verify(t) for t], reports in order."""

    def _built(self):
        spec = pipeline_specs(corpus="smoke")[0]
        built = spec.build()
        rewritten = rewrite(built.scenario)
        outcome = run_rewritten(
            built.scenario, rewritten, built.instance, verify=False
        )
        return built, outcome

    def test_reports_identical_to_serial(self):
        built, outcome = self._built()
        from repro.relational.instance import Instance

        candidates = [outcome.target, Instance(), outcome.target]
        verifier = ScenarioVerifier(built.scenario, built.instance)
        serial_reports = [verifier.verify(target) for target in candidates]
        batched_reports = verifier.verify_candidates(candidates)
        assert len(serial_reports) == len(batched_reports) == 3
        for left, right in zip(serial_reports, batched_reports):
            assert left.ok == right.ok
            assert left.premise_matches == right.premise_matches
            assert [str(v) for v in left.violations] == [
                str(v) for v in right.violations
            ]
        assert serial_reports[0].ok and not serial_reports[1].ok

    def test_serial_parallelism_stays_in_process(self):
        built, outcome = self._built()
        verifier = ScenarioVerifier(built.scenario, built.instance)
        reports = verifier.verify_candidates([outcome.target])
        assert len(reports) == 1 and reports[0].ok


class TestRacedResultMetadata:
    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_branch_timings_cover_the_serial_prefix(self, mode):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        raced = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        ).run(setup.instance)
        assert raced.branch_timings is not None
        assert [t["index"] for t in raced.branch_timings] == list(
            range(raced.scenarios_tried)
        )
        for timing in raced.branch_timings:
            assert timing["seconds"] >= 0
            assert timing["status"] in ("success", "failure", "nontermination")

    def test_serial_sweep_records_timings_too(self):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        serial = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(setup.instance)
        assert serial.branch_racing == "serial"
        assert [t["worker"] for t in serial.branch_timings] == (
            ["serial"] * serial.scenarios_tried
        )

    def test_batch_records_carry_branch_metadata(self, tmp_path):
        from repro.runtime.corpus import get_corpus
        from repro.runtime.executor import BatchOptions, run_batch
        from repro.runtime.results import read_jsonl, write_jsonl

        corpus = get_corpus("smoke").limited(2)
        report = run_batch(
            corpus,
            BatchOptions(branch_parallelism="thread:2", use_cache=False),
        )
        assert report.branch_parallelism in ("serial", "thread:2")
        assert report.summary.branch_parallelism == report.branch_parallelism
        path = tmp_path / "records.jsonl"
        write_jsonl(report.records, path)
        back = read_jsonl(path)
        assert [r.branch_parallelism for r in back] == [
            r.branch_parallelism for r in report.records
        ]

    def test_chase_config_replace_keeps_branch_field(self):
        config = replace(
            ChaseConfig(), parallelism="thread:2",
            branch_parallelism="process:4",
        )
        assert config.branch_parallelism == "process:4"
