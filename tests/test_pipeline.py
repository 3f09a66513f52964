"""End-to-end pipeline tests across every scenario family."""

import pytest

from repro.chase.engine import ChaseConfig
from repro.chase.result import ChaseStatus
from repro.errors import ArityError, SchemaError, TypingError
from repro.logic.terms import Constant
from repro.pipeline import run_scenario, strip_auxiliary
from repro.relational.csv_io import save_instance
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.scenarios import (
    build_scenario,
    cleanup_instance,
    cleanup_scenario,
    evolution_instance,
    evolution_scenario,
    flagged_instance,
    flagged_scenario,
    generate_source_instance,
    partition_instance,
    partition_scenario,
)


class TestRunningExamplePipeline:
    def test_clean_run_verifies(self):
        outcome = run_scenario(
            build_scenario(), generate_source_instance(products=20, seed=1)
        )
        assert outcome.ok
        assert outcome.verification is not None and outcome.verification.ok
        assert outcome.rewrite.has_deds

    def test_conflict_run_fails_chase(self):
        outcome = run_scenario(
            build_scenario(),
            generate_source_instance(products=5, seed=1, popular_name_conflicts=1),
        )
        assert not outcome.ok
        assert outcome.chase.status is ChaseStatus.FAILURE
        assert outcome.verification is None  # nothing to verify

    def test_target_has_no_aux_relations(self):
        outcome = run_scenario(
            build_scenario(), generate_source_instance(products=10, seed=2)
        )
        assert all(
            not relation.startswith("_grom_req_")
            for relation in outcome.target.relations()
        )

    def test_empty_source_succeeds_trivially(self):
        outcome = run_scenario(build_scenario(), Instance())
        assert outcome.ok
        assert len(outcome.target) == 0


class TestFamilies:
    def test_cleanup_family(self):
        outcome = run_scenario(cleanup_scenario(), cleanup_instance(orders=30))
        assert outcome.ok
        # Every non-cancelled order became a valid order (no tombstone);
        # cancelled ones got tombstones.
        cancelled = outcome.target.size("T_Cancelled")
        orders = outcome.target.size("T_Order")
        assert orders == 30
        assert 0 < cancelled < 30

    def test_evolution_family(self):
        outcome = run_scenario(evolution_scenario(), evolution_instance(20))
        assert outcome.ok
        assert outcome.target.size("Person") == 20
        assert outcome.target.size("Job") == 20
        assert not outcome.rewrite.has_deds  # conjunctive views

    def test_evolution_soft_delete_family(self):
        outcome = run_scenario(
            evolution_scenario(with_soft_delete=True), evolution_instance(10)
        )
        assert outcome.ok
        # ActiveEmployee's negation compiles to a denial on Departed.
        assert outcome.rewrite.denials()

    def test_partition_family(self):
        scenario = partition_scenario(3, class_keys=True)
        outcome = run_scenario(scenario, partition_instance(3, items=25, seed=4))
        assert outcome.ok
        assert outcome.target.size("T_Item") == 25

    def test_partition_default_key_with_duplicates_is_unsatisfiable(self):
        """Two same-name default-class items violate the default key, and
        every ded branch is blocked: the equality branch equates distinct
        ids, and tagging either item into an explicit class trips the
        default mapping's companion denial.  The greedy chase correctly
        walks all 2*width+1 = 5 derived scenarios and reports failure."""
        scenario = partition_scenario(2, default_key=True)
        source = partition_instance(2, items=10, seed=4, duplicate_names=1)
        outcome = run_scenario(scenario, source)
        assert not outcome.ok
        assert outcome.chase.status is ChaseStatus.FAILURE
        assert outcome.chase.scenarios_tried == 5

    def test_partition_default_key_without_duplicates_succeeds(self):
        scenario = partition_scenario(2, default_key=True)
        source = partition_instance(2, items=10, seed=4, duplicate_names=0)
        outcome = run_scenario(scenario, source)
        assert outcome.ok
        assert outcome.chase.scenarios_tried == 1  # ded never fires

    def test_flagged_family_satisfiable(self):
        scenario = flagged_scenario(2)
        outcome = run_scenario(scenario, flagged_instance(products=8, name_pairs=1))
        assert outcome.ok
        assert outcome.verification is not None and outcome.verification.ok
        assert outcome.chase.scenarios_tried >= 1


class TestStripAuxiliary:
    def test_strip(self):
        instance = Instance()
        instance.add_row("T", 1)
        instance.add_row("_grom_req_e0_0", 1)
        stripped = strip_auxiliary(instance)
        assert stripped.relations() == ["T"]


class TestColumnarHandOff:
    """The chase target stays columnar through strip and verify; these
    pin the boundaries where it meets the Atom-level read surface."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return run_scenario(
            build_scenario(), generate_source_instance(products=12, seed=7)
        )

    def _chase_target(self, outcome):
        target = outcome.chase.target
        assert isinstance(target, ColumnarInstance)
        return target

    def test_strip_keeps_columnar_and_schema(self, outcome):
        assert isinstance(outcome.target, ColumnarInstance)
        assert outcome.target.schema is outcome.rewrite.scenario.target_schema
        assert not any(
            r.startswith("_grom_req_") for r in outcome.target.relations()
        )

    def test_strip_rejects_a_wrong_arity_row(self, outcome):
        chased = self._chase_target(outcome)
        # A columnar relation holds one arity, so the bad shape is a
        # whole T_Store table of two-column rows (the schema says four).
        target = chased.restricted_to(
            r for r in chased.relations() if r != "T_Store"
        )
        target.add_row("T_Store", 1, 2)
        with pytest.raises(ArityError):
            strip_auxiliary(target, outcome.rewrite.scenario.target_schema)

    def test_strip_rejects_a_wrongly_typed_row(self, outcome):
        target = self._chase_target(outcome).copy()
        target.add_row("T_Product", "not-an-int", "n", "s")
        schema = outcome.rewrite.scenario.target_schema
        with pytest.raises(TypingError) as columnar:
            strip_auxiliary(target, schema)
        decoded = Instance()
        decoded.add_all(target)
        with pytest.raises(TypingError) as reference:
            strip_auxiliary(decoded, schema)
        assert str(columnar.value) == str(reference.value)

    def test_strip_rejects_a_relation_outside_the_schema(self, outcome):
        target = self._chase_target(outcome).copy()
        target.add_row("Unknown", Constant(1))
        with pytest.raises(SchemaError):
            strip_auxiliary(target, outcome.rewrite.scenario.target_schema)

    def test_target_equals_the_reference_kernel_target(self, outcome):
        reference = run_scenario(
            build_scenario(),
            generate_source_instance(products=12, seed=7),
            config=ChaseConfig(kernel="reference"),
        )
        assert isinstance(reference.target, Instance)
        assert outcome.target == reference.target
        assert reference.target == outcome.target

    def test_rendering_and_csv_keep_null_hints(self, outcome, tmp_path):
        target = outcome.target
        assert target.nulls() and all(n.hint for n in target.nulls())
        decoded = Instance(target.schema)
        decoded.add_all(target)
        assert str(target) == str(decoded)
        save_instance(target, tmp_path / "columnar")
        save_instance(decoded, tmp_path / "decoded")
        for path in sorted((tmp_path / "decoded").iterdir()):
            assert (tmp_path / "columnar" / path.name).read_text() == (
                path.read_text()
            )
        assert "#N" in (tmp_path / "columnar" / "T_Rating.csv").read_text()
