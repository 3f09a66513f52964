"""Differential suite: encoded soundness verification vs. the reference.

The product verifier stays on encoded rows end to end: premise matches
come off the encoded plan over the source side, and each conclusion
disjunct is probed on the columnar target side with the seeded slots
copied code for code.  Under ``reference_evaluator()`` the very same
call decodes every match and probes through the reference evaluator.
Both must produce the same :class:`VerificationReport` — verdict,
violations (in order, under the cap) and all three counters — on every
pipeline spec of the corpus, for the chase's own target and for
hand-mutated targets that do violate the scenario.
"""

from __future__ import annotations

import pytest

from corpus import pipeline_specs
from repro.core.scenario import MappingScenario
from repro.core.verify import ScenarioVerifier, verify_solution
from repro.logic.atoms import Atom, Conjunction
from repro.logic.dependencies import denial
from repro.logic.terms import Constant, Null, Variable
from repro.pipeline import run_scenario
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import reference_evaluator
from repro.scenarios.running_example import (
    build_scenario,
    generate_source_instance,
)

SPECS = pipeline_specs()
CAPS = (2, 100)

#: Ids of the nulls the mutations inject (far above any chase null).
_KEY_NULL = 900_001


def _columnar(facts) -> ColumnarInstance:
    instance = ColumnarInstance()
    instance.add_all(facts)
    return instance


def _ordered(instance):
    return sorted(instance, key=str)


def _dropped(target):
    """Every third fact removed: tgds lose their witnesses."""
    return _columnar(f for i, f in enumerate(_ordered(target)) if i % 3)


def _null_keyed(target):
    """Per relation, two copies of one fact sharing a null in the first
    column and differing in the last: keys see a null-keyed pair."""
    facts = _ordered(target)
    key = Null(_KEY_NULL, "key")
    seen = set()
    for fact in list(facts):
        if fact.relation in seen or len(fact.terms) < 2:
            continue
        seen.add(fact.relation)
        keyed = (key,) + fact.terms[1:]
        facts.append(Atom(fact.relation, keyed))
        facts.append(
            Atom(fact.relation, keyed[:-1] + (Null(_KEY_NULL + 1, "other"),))
        )
    return _columnar(facts)


def _with_denial(scenario):
    """The scenario plus a denial every fact of its first target view
    (or first target relation) violates."""
    if scenario.target_views is not None:
        relation = scenario.target_views.view_names()[0]
        arity = scenario.target_views.arity_of(relation)
    else:
        first = next(iter(scenario.target_schema))
        relation, arity = first.name, first.arity
    premise = Conjunction(
        atoms=(Atom(relation, tuple(Variable(f"d{i}") for i in range(arity))),)
    )
    return MappingScenario(
        scenario.source_schema,
        scenario.target_schema,
        scenario.mappings,
        target_views=scenario.target_views,
        source_views=scenario.source_views,
        target_constraints=list(scenario.target_constraints)
        + [denial(premise, name="no_" + relation)],
        name=scenario.name,
    )


def _report_fields(report):
    return (
        report.ok,
        list(report.violations),
        [str(v) for v in report.violations],
        report.mappings_checked,
        report.constraints_checked,
        report.premise_matches,
    )


def _assert_same(scenario, source, target, cap):
    encoded = verify_solution(scenario, source, target, max_violations=cap)
    with reference_evaluator():
        reference = verify_solution(scenario, source, target, max_violations=cap)
    assert _report_fields(encoded) == _report_fields(reference)
    assert len(encoded.violations) <= cap
    return encoded


@pytest.fixture(scope="module")
def chased():
    out = []
    for spec in SPECS:
        built = spec.build()
        outcome = run_scenario(built.scenario, built.instance, verify=False)
        out.append((spec, built, outcome.target))
    return out


@pytest.mark.parametrize("index", range(len(SPECS)), ids=[str(s) for s in SPECS])
def test_chase_target_reports_match(chased, index):
    spec, built, target = chased[index]
    assert isinstance(target, ColumnarInstance)
    for cap in CAPS:
        _assert_same(built.scenario, built.instance, target, cap)


@pytest.mark.parametrize("mutate", [_dropped, _null_keyed])
def test_mutated_target_reports_match(chased, mutate):
    failed = 0
    for _spec, built, target in chased:
        mutated = mutate(target)
        for cap in CAPS:
            report = _assert_same(built.scenario, built.instance, mutated, cap)
        failed += not report.ok
    # The mutations must actually produce violations somewhere, or the
    # comparison degrades into two trivially-OK reports.
    assert failed


def test_denial_violations_match(chased):
    denied = 0
    for _spec, built, target in chased:
        scenario = _with_denial(built.scenario)
        for cap in CAPS:
            report = _assert_same(scenario, built.instance, target, cap)
        denied += any(
            v.reason == "denial premise matched" for v in report.violations
        )
    assert denied > len(chased) // 2


def test_set_based_target_reports_match(chased):
    # A set-based target is seeded through the Atom surface; the checks
    # still run encoded and must agree with the reference.
    for _spec, built, target in chased[:10]:
        plain = Instance()
        plain.add_all(_dropped(target))
        for cap in CAPS:
            _assert_same(built.scenario, built.instance, plain, cap)


class TestRunningExample:
    @pytest.fixture(scope="class")
    def setup(self):
        scenario = build_scenario(include_key=True)
        source = generate_source_instance(products=30, stores=4, seed=5)
        outcome = run_scenario(scenario, source)
        assert outcome.ok
        return scenario, source, outcome.target

    def test_null_in_key_column_is_reported_with_its_hint(self, setup):
        scenario, source, target = setup
        mutated = _columnar(list(target))
        # Two popular products with a shared name: the name key (e0)
        # sees a pair whose product ids are labeled nulls.
        mutated.add(Atom("T_Product", (Null(_KEY_NULL, "pid"), Constant("dup"),
                                       Constant("s"))))
        mutated.add(Atom("T_Product", (Null(_KEY_NULL + 1, "pid"),
                                       Constant("dup"), Constant("s"))))
        report = _assert_same(scenario, source, mutated, 100)
        assert not report.ok
        rendered = [str(v) for v in report.violations if v.dependency == "e0"]
        assert rendered and any(f"#N{_KEY_NULL}_pid" in line for line in rendered)

    def test_cap_takes_the_canonical_prefix(self, setup):
        scenario, source, _target = setup
        verifier = ScenarioVerifier(scenario, source)
        full = verifier.verify(Instance(), max_violations=1000)
        assert len(full.violations) > 5
        for cap in (1, 5):
            capped = verifier.verify(Instance(), max_violations=cap)
            assert capped.violations == full.violations[:cap]
            assert capped.premise_matches == full.premise_matches
            assert not capped.ok

    def test_foreign_pool_falls_back_to_decoded(self, setup):
        from repro.relational.kernel import TermPool

        scenario, source, target = setup
        verifier = ScenarioVerifier(scenario, source)
        foreign = ColumnarInstance(pool=TermPool())
        foreign.add_all(verifier.source_side)
        fallback = ScenarioVerifier(scenario, source, source_side=foreign)
        mutated = _dropped(target)
        assert _report_fields(fallback.verify(mutated)) == _report_fields(
            verifier.verify(mutated)
        )
