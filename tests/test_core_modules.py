"""Tests for scenario validation, composition, verification and analysis."""

import pytest

from repro.core.analysis import analyze, predict_deds
from repro.core.compose import extend_source, materialize_source_views
from repro.core.rewriter import rewrite
from repro.core.scenario import MappingScenario
from repro.core.verify import semantic_target, verify_solution
from repro.datalog.program import ViewProgram
from repro.errors import SchemaError, UnsafeDependencyError
from repro.logic.atoms import Atom, Conjunction, Equality, NegatedConjunction
from repro.logic.dependencies import Disjunct, ded, egd, tgd
from repro.logic.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.schema import Schema

x, y, z = Variable("x"), Variable("y"), Variable("z")


def schemas():
    source_schema = Schema("src")
    source_schema.add_relation("S", [("a", "int"), ("b", "int")])
    target_schema = Schema("tgt")
    target_schema.add_relation("T", [("a", "int"), ("b", "int")])
    return source_schema, target_schema


class TestScenarioValidation:
    def test_mapping_must_be_tgd(self):
        source_schema, target_schema = schemas()
        bad = egd(
            Conjunction(atoms=(Atom("S", (x, y)),)), (Equality(x, y),)
        )
        with pytest.raises(UnsafeDependencyError):
            MappingScenario(source_schema, target_schema, [bad])

    def test_premise_vocabulary_enforced(self):
        source_schema, target_schema = schemas()
        bad = tgd(
            Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("T", (x, y)),)
        )
        with pytest.raises(SchemaError):
            MappingScenario(source_schema, target_schema, [bad])

    def test_conclusion_vocabulary_enforced(self):
        source_schema, target_schema = schemas()
        bad = tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("Nope", (x,)),)
        )
        with pytest.raises(SchemaError):
            MappingScenario(source_schema, target_schema, [bad])

    def test_tgd_constraint_accepted_ded_rejected(self):
        source_schema, target_schema = schemas()
        mapping = tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("T", (x, y)),)
        )
        # A tgd over the target vocabulary is a legal constraint
        # (foreign key / inclusion dependency, the paper's footnote 1).
        fk_constraint = tgd(
            Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("T", (y, x)),)
        )
        MappingScenario(
            source_schema,
            target_schema,
            [mapping],
            target_constraints=[fk_constraint],
        )
        # Deds, however, are an *output* language, not an input one.
        bad = ded(
            Conjunction(atoms=(Atom("T", (x, y)),)),
            (
                Disjunct(atoms=(Atom("T", (y, x)),)),
                Disjunct(equalities=(Equality(x, y),)),
            ),
        )
        with pytest.raises(UnsafeDependencyError):
            MappingScenario(
                source_schema,
                target_schema,
                [mapping],
                target_constraints=[bad],
            )

    def test_views_must_be_over_matching_schema(self):
        source_schema, target_schema = schemas()
        other = Schema("other")
        other.add_relation("T", [("a", "int"), ("b", "int")])
        program = ViewProgram(other)
        mapping = tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("T", (x, y)),)
        )
        with pytest.raises(SchemaError):
            MappingScenario(
                source_schema, target_schema, [mapping], target_views=program
            )

    def test_uses_source_views(self, running_scenario):
        assert not running_scenario.uses_source_views()


class TestCompose:
    def build(self):
        source_schema = Schema("src")
        source_schema.add_relation("S", [("a", "int"), ("b", "int")])
        target_schema = Schema("tgt")
        target_schema.add_relation("T", [("a", "int")])
        views = ViewProgram(source_schema)
        views.define(
            Atom("Big", (x,)),
            Conjunction(
                atoms=(Atom("S", (x, y)),),
                negations=(
                    NegatedConjunction(
                        Conjunction(atoms=(Atom("S", (x, Constant(0))),))
                    ),
                ),
            ),
        )
        mapping = tgd(
            Conjunction(atoms=(Atom("Big", (x,)),)), (Atom("T", (x,)),)
        )
        scenario = MappingScenario(
            source_schema,
            target_schema,
            [mapping],
            source_views=views,
        )
        instance = Instance(source_schema)
        instance.add_row("S", 1, 5)
        instance.add_row("S", 2, 5)
        instance.add_row("S", 2, 0)
        return scenario, instance

    def test_materialize_source_views(self):
        scenario, instance = self.build()
        views_only = materialize_source_views(scenario, instance)
        assert views_only.facts("Big") == frozenset(
            {Atom("Big", (Constant(1),))}
        )
        assert views_only.size("S") == 0

    def test_extend_source_unions_base_and_views(self):
        scenario, instance = self.build()
        extended = extend_source(scenario, instance)
        assert extended.size("S") == 3
        assert extended.size("Big") == 1

    def test_extend_source_without_views_copies(self, running_scenario):
        instance = Instance()
        instance.add_row("S_Store", "a", "b")
        extended = extend_source(running_scenario, instance)
        assert extended.size("S_Store") == 1

    def test_end_to_end_with_source_views(self):
        from repro.pipeline import run_scenario

        scenario, instance = self.build()
        outcome = run_scenario(scenario, instance)
        assert outcome.ok
        assert outcome.target.facts("T") == frozenset(
            {Atom("T", (Constant(1),))}
        )

    def test_unfolded_premises_agree_with_materialization(self):
        from repro.pipeline import run_scenario

        scenario, instance = self.build()
        materialized = run_scenario(scenario, instance)
        unfolded = run_scenario(scenario, instance, unfold_source_premises=True)
        assert materialized.target == unfolded.target


class TestVerify:
    def test_good_solution_verifies(self, running_scenario, small_source):
        from repro.pipeline import run_scenario

        outcome = run_scenario(running_scenario, small_source, verify=True)
        assert outcome.verification is not None
        assert outcome.verification.ok

    def test_empty_target_fails_verification(
        self, running_scenario, small_source
    ):
        report = verify_solution(running_scenario, small_source, Instance())
        assert not report.ok
        assert any("m0" in str(v) or "m1" in str(v) for v in report.violations)

    def test_constraint_violation_detected(self, running_scenario):
        source = Instance()
        target = Instance()
        # Two same-name products with no thumbs-down: both Popular,
        # violating e0.
        target.add_row("T_Product", 1, "same", "s")
        target.add_row("T_Product", 2, "same", "s")
        report = verify_solution(running_scenario, source, target)
        assert not report.ok
        assert any(v.dependency == "e0" for v in report.violations)

    def test_semantic_target_materializes_views(
        self, running_scenario
    ):
        target = Instance()
        target.add_row("T_Product", 1, "p", "s")
        combined = semantic_target(running_scenario, target)
        popular = Atom("PopularProduct", (Constant(1), Constant("p")))
        assert combined.facts("PopularProduct") == {popular}
        assert combined.facts("T_Product") == {
            Atom("T_Product", (Constant(1), Constant("p"), Constant("s")))
        }
        assert set(combined.relations()) >= {"T_Product", "PopularProduct"}
        assert len(combined) == sum(
            len(combined.facts(r)) for r in combined.relations()
        )
        assert popular in combined

    def test_report_rendering(self, running_scenario, small_source):
        report = verify_solution(running_scenario, small_source, Instance())
        assert "FAILED" in str(report)


class TestAnalysis:
    def test_running_example_prediction(self, running_scenario):
        prediction = predict_deds(running_scenario)
        assert prediction.may_have_deds
        assert prediction.culprits == {"e0": ("PopularProduct",)}
        assert prediction.view_diagnostics["PopularProduct"].problematic
        assert not prediction.view_diagnostics["Product"].problematic

    def test_no_key_prediction(self, running_scenario_no_key):
        prediction = predict_deds(running_scenario_no_key)
        assert not prediction.may_have_deds

    def test_prediction_soundness_across_families(self):
        """Whenever the prediction says 'no deds', the rewriting is ded-free
        — and on all our scenario families it is exact."""
        from repro.scenarios import (
            build_scenario,
            cleanup_scenario,
            evolution_scenario,
            flagged_scenario,
            partition_scenario,
        )

        cases = [
            build_scenario(),
            build_scenario(include_key=False),
            cleanup_scenario(),
            evolution_scenario(),
            evolution_scenario(with_soft_delete=True),
            flagged_scenario(2),
            partition_scenario(3),
            partition_scenario(2, default_key=True),
            partition_scenario(4, class_keys=True),
        ]
        for scenario in cases:
            prediction, result = analyze(scenario)
            if not prediction.may_have_deds:
                assert not result.has_deds, scenario.name
            else:
                assert result.has_deds, scenario.name  # exact on these

    def test_union_view_in_conclusion_predicted(self):
        source_schema, target_schema = schemas()
        target_schema.add_relation("W", [("a", "int")])
        program = ViewProgram(target_schema)
        program.define(Atom("U", (x,)), Conjunction(atoms=(Atom("T", (x, y)),)))
        program.define(Atom("U", (x,)), Conjunction(atoms=(Atom("W", (x,)),)))
        mapping = tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("U", (x,)),), name="m"
        )
        scenario = MappingScenario(
            source_schema, target_schema, [mapping], target_views=program
        )
        prediction = predict_deds(scenario)
        assert prediction.may_have_deds
        assert "m" in prediction.culprits

    def test_cleanup_scenario_has_deds(self):
        """The clean-up key constraint sits on a negation view: ded."""
        from repro.scenarios import cleanup_scenario

        prediction, result = analyze(cleanup_scenario())
        assert prediction.may_have_deds and result.has_deds

    def test_partition_default_key_ded_width(self):
        from repro.scenarios import partition_scenario

        for width in (2, 3, 4):
            result = rewrite(partition_scenario(width, default_key=True))
            deds = result.deds()
            assert deds, width
            # equality + one branch per negated class on each side:
            # the default view has `width` NECs per PopularProduct-like
            # occurrence, twice (two premise copies), plus the equality.
            assert max(len(d.disjuncts) for d in deds) == 2 * width + 1
