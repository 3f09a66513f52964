"""E6 — the two-semantic-schema variant reduces to source-to-semantic.

Claim (§3 "Variants of the Problem"): with a source semantic schema,
GROM (i) materializes ``Υ_S(I_S)`` and (ii) solves the remaining
source-to-semantic problem.  We measure the materialization overhead
against the chase itself, and cross-check the alternative strategy
(premise unfolding) produces the same target.
"""

import time


from repro.core.compose import extend_source
from repro.core.scenario import MappingScenario
from repro.datalog.program import ViewProgram
from repro.logic.atoms import Atom, Conjunction, NegatedConjunction
from repro.logic.dependencies import tgd
from repro.logic.terms import Variable
from repro.pipeline import run_scenario
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.reporting import Table

from conftest import print_experiment_table

SIZES = [200, 1000, 3000]


def two_sided_scenario() -> MappingScenario:
    """Source views (incl. negation) feeding target views."""
    x, y = Variable("x"), Variable("y")
    source_schema = Schema("src6")
    source_schema.add_relation("Items", [("id", "int"), ("grade", "int")])
    source_schema.add_relation("Banned", [("id", "int")])
    target_schema = Schema("tgt6")
    target_schema.add_relation("Good", [("id", "int")])

    source_views = ViewProgram(source_schema)
    source_views.define(
        Atom("Eligible", (x,)),
        Conjunction(
            atoms=(Atom("Items", (x, y)),),
            negations=(
                NegatedConjunction(Conjunction(atoms=(Atom("Banned", (x,)),))),
            ),
        ),
    )
    target_views = ViewProgram(target_schema)
    target_views.define(
        Atom("GoodView", (x,)), Conjunction(atoms=(Atom("Good", (x,)),))
    )
    mapping = tgd(
        Conjunction(atoms=(Atom("Eligible", (x,)),)),
        (Atom("GoodView", (x,)),),
        name="m6",
    )
    return MappingScenario(
        source_schema,
        target_schema,
        [mapping],
        target_views=target_views,
        source_views=source_views,
        name="two-sided",
    )


def make_instance(rows: int) -> Instance:
    scenario = two_sided_scenario()
    instance = Instance(scenario.source_schema)
    for i in range(rows):
        instance.add_row("Items", i, i % 7)
        if i % 5 == 0:
            instance.add_row("Banned", i)
    return instance


def test_bench_materialization(benchmark):
    scenario = two_sided_scenario()
    source = make_instance(1000)
    extended = benchmark(extend_source, scenario, source)
    assert extended.size("Eligible") == 800


def test_bench_full_pipeline_via_materialization(benchmark):
    scenario = two_sided_scenario()
    source = make_instance(1000)
    outcome = benchmark.pedantic(
        lambda: run_scenario(scenario, source, verify=False),
        rounds=3,
        iterations=1,
    )
    assert outcome.ok


def test_report_e6(benchmark):
    def run_report():
        table = Table(
            "E6: source-view reduction (materialize) vs premise unfolding",
            [
                "rows",
                "materialize (s)",
                "chase after mat. (s)",
                "unfolded total (s)",
                "targets equal",
            ],
        )
        scenario = two_sided_scenario()
        for rows in SIZES:
            source = make_instance(rows)
            t0 = time.perf_counter()
            extend_source(scenario, source)
            t1 = time.perf_counter()
            via_materialization = run_scenario(scenario, source, verify=False)
            t2 = time.perf_counter()
            via_unfolding = run_scenario(
                scenario, source, verify=False, unfold_source_premises=True
            )
            t3 = time.perf_counter()
            assert via_materialization.ok and via_unfolding.ok
            equal = via_materialization.target == via_unfolding.target
            table.add(rows, t1 - t0, t2 - t1, t3 - t2, equal)
            assert equal
        print_experiment_table(table)

    benchmark.pedantic(run_report, rounds=1, iterations=1)
