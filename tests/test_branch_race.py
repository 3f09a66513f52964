"""Differential suite for the branch-raced disjunctive search.

The racing contract is *bit-identical* results: whatever the racer
(forked workers or the serial reference), the greedy ded sweep must
return the same winning selection, target instance, failure reason,
aggregated statistics and ``scenarios_tried`` as the serial sweep — the
winner is decided by canonical selection order, never by completion
order.  These tests sweep the shared scenario corpus
(``tests/corpus.py``) plus the ded-pressure cases through every racing
mode and compare, and unit-test the racer machinery (deterministic
winner, early cancellation, no partial state, the one-forking-tier
rule, candidate-fanning verification).
"""

import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.disjunctive import DisjunctiveChase
from repro.chase.engine import ChaseConfig
from repro.chase.race import ProcessRacer, SerialRacer, create_racer
from repro.core.rewriter import rewrite
from repro.core.verify import ScenarioVerifier
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

RACE_MODES = ["process:2"]

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

    def test_process_racer_winner_is_canonical_not_fastest(self):
        # Branch 1 finishes long before branch 0, but both succeed:
        # the winner must still be branch 0.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")

        def run(index):
            if index == 0:
                time.sleep(0.2)
            return f"branch-{index}"

        race = ProcessRacer(2).race(2, run, success=lambda r: True)
        assert race.winner == 0
        assert race.outcomes[0].result == "branch-0"

    def test_process_racer_dispatches_nothing_past_the_winner(self, tmp_path):
        # With one worker dispatch is strictly sequential, so once
        # branch 0 succeeds nothing else may start.  Forked branches log
        # to a file: their side effects never reach the parent's memory.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        log = tmp_path / "ran.log"

        def run(index):
            with open(log, "a") as handle:
                handle.write(f"{index}\n")
            return index

        racer = ProcessRacer(2)
        racer.workers = 1  # deterministic: a single worker
        race = racer.race(16, run, success=lambda r: True)
        assert race.winner == 0
        assert sorted(race.outcomes) == [0]
        assert log.read_text().split() == ["0"]

    def test_error_in_reachable_branch_raises_original_type(self):
        # The serial sweep would hit the ValueError at branch 1 before
        # reaching the success at branch 3 — the race must re-raise the
        # exact same exception, not a wrapper.
        def run(index):
            if index == 1:
                raise ValueError("boom")
            return index

        racers = [SerialRacer()]
        if "fork" in multiprocessing.get_all_start_methods():
            racers.append(ProcessRacer(2))
        for racer in racers:
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
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")

        def run(index):
            if index == 3:
                raise ValueError("boom")
            return index

        race = ProcessRacer(2).race(4, run, success=lambda r: r == 0)
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

    def test_daemonic_caller_degrades_to_serial(self, monkeypatch):
        class _Daemonic:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: _Daemonic()
        )
        assert type(create_racer("process:3")) is SerialRacer

    def test_create_racer_modes(self, monkeypatch):
        assert type(create_racer("serial")) is SerialRacer
        if "fork" not in multiprocessing.get_all_start_methods():
            assert type(create_racer("process:2")) is SerialRacer
            return
        racer = create_racer("process:2")
        assert isinstance(racer, ProcessRacer) and racer.workers == 2
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert create_racer("process:8").workers == 3  # capped at cpus
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert type(create_racer("process:8")) is SerialRacer

    def test_branch_chased_in_a_worker_shards_serial(self):
        # Race workers are daemonic: a chase inside one may not fork, so
        # even an explicit process sharding request runs serial there.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        deps = list(ded_sweep_dependencies(deds=1))[:1]  # the copy tgd
        instance = ded_sweep_instance(deds=1, rows=80)
        relations = ded_sweep_relations(deds=1)

        def run(_index):
            from repro.chase.engine import StandardChase

            return StandardChase(
                deps, relations, ChaseConfig(parallelism="process:2")
            ).run(instance)

        race = ProcessRacer(2).race(2, run, success=lambda r: r.ok)
        assert race.outcomes[0].worker.startswith("fork-")
        assert race.outcomes[0].result.sharding == "serial"

    def test_describe(self):
        assert SerialRacer().describe() == "serial"
        assert ProcessRacer(4).describe() == "process:4"
        degraded = ProcessRacer(4)
        degraded._degraded = True
        assert degraded.describe() == "serial (degraded from process:4)"


class TestDisjunctiveChaseIgnoresRacing:
    def test_process_branch_parallelism_returns_the_serial_model_set(self):
        deps = list(ded_sweep_dependencies(deds=2, insert_branches=2))
        relations = ded_sweep_relations(deds=2)
        instance = ded_sweep_instance(deds=2)
        serial = DisjunctiveChase(deps, relations).run(instance)
        raced = DisjunctiveChase(
            deps, relations, ChaseConfig(branch_parallelism="process:2")
        ).run(instance)
        assert serial.satisfiable
        assert serial.models == raced.models  # bit-identical, null ids too
        assert [fingerprint_instance(m) for m in serial.models] == [
            fingerprint_instance(m) for m in raced.models
        ]
        assert (serial.leaves, serial.failures, serial.branchings) == (
            raced.leaves, raced.failures, raced.branchings
        )

    def _ded_setup(self):
        return (
            list(ded_sweep_dependencies(deds=2, insert_branches=2)),
            ded_sweep_relations(deds=2),
            ded_sweep_instance(deds=2),
        )

    def test_first_only_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(
            instance, first_only=True
        )
        raced = DisjunctiveChase(
            deps, relations, ChaseConfig(branch_parallelism="process:2")
        ).run(instance, first_only=True)
        assert serial.models and serial.models == raced.models
        assert serial.leaves == raced.leaves

    def test_truncation_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations, max_leaves=3).run(instance)
        raced = DisjunctiveChase(
            deps,
            relations,
            ChaseConfig(branch_parallelism="process:2"),
            max_leaves=3,
        ).run(instance)
        assert serial.truncated and raced.truncated
        assert serial.leaves == raced.leaves
        assert serial.models == raced.models

    def test_minimize_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(instance, minimize=True)
        raced = DisjunctiveChase(
            deps, relations, ChaseConfig(branch_parallelism="process:2")
        ).run(instance, minimize=True)
        assert serial.models and serial.models == raced.models

    def test_node_chases_run_serial_under_any_parallel_config(self):
        deps, relations, instance = self._ded_setup()
        chase = DisjunctiveChase(
            deps,
            relations,
            ChaseConfig(
                parallelism="process:2", branch_parallelism="process:2"
            ),
        )
        assert chase.config.parallelism == "serial"
        assert chase.config.branch_parallelism == "serial"
        serial = DisjunctiveChase(deps, relations).run(instance)
        assert chase.run(instance).models == serial.models


class TestOneForkingTier:
    """Only the outermost requested tier forks: jobs > branch racing >
    chase shards, capped at cpu_count; tiers inside it run serial."""

    def _sweep(self, **config):
        deps = list(ded_sweep_dependencies(deds=2))
        return GreedyDedChase(
            deps, ded_sweep_relations(deds=2), ChaseConfig(**config)
        ).run(ded_sweep_instance(deds=2))

    def test_raced_sweep_shards_serial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        serial = self._sweep()
        raced = self._sweep(
            branch_parallelism="process:2", parallelism="process:2"
        )
        assert raced.branch_racing == "process:2"
        assert raced.sharding == "serial"
        _compare_chases(serial, raced, "raced+sharded")

    def test_racer_width_capped_at_cpu_count(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        raced = self._sweep(branch_parallelism="process:4")
        assert raced.branch_racing == "process:2"

    def test_single_cpu_serializes_everything(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = self._sweep()
        result = self._sweep(
            branch_parallelism="process:4", parallelism="process:4"
        )
        assert result.branch_racing == "serial"
        assert result.sharding == "serial"
        _compare_chases(serial, result, "one cpu")

    def test_batch_branch_tier_forks_and_shards_run_serial(self, monkeypatch):
        from repro.runtime.corpus import get_corpus
        from repro.runtime.executor import BatchOptions, run_batch

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        report = run_batch(
            get_corpus("smoke").limited(2),
            BatchOptions(
                branch_parallelism="process:2",
                parallelism="process:4",
                use_cache=False,
            ),
        )
        assert report.branch_parallelism == "process:2"
        assert report.parallelism == "serial"
        assert all(r.parallelism == "serial" for r in report.records)
        assert report.note == ""


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
            BatchOptions(branch_parallelism="process:2", use_cache=False),
        )
        assert report.branch_parallelism in ("serial", "process:2")
        assert report.summary.branch_parallelism == report.branch_parallelism
        path = tmp_path / "records.jsonl"
        write_jsonl(report.records, path)
        back = read_jsonl(path)
        assert [r.branch_parallelism for r in back] == [
            r.branch_parallelism for r in report.records
        ]

    def test_chase_config_replace_keeps_branch_field(self):
        config = replace(
            ChaseConfig(), parallelism="process:2",
            branch_parallelism="process:4",
        )
        assert config.branch_parallelism == "process:4"
