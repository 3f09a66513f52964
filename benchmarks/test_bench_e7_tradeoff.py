"""E7 — the expressiveness/complexity trade-off (conjunctive vs negation).

Claim (§1, §4): "the rewriting is fairly straightforward if views are
conjunctive queries [...] Negation is a powerful addition, but it comes
at a cost."  We run the same logical scenario in three view languages —
conjunctive only, negation without key constraints, negation with the
key (deds) — and compare rewriting output size, chase cost, and which
engine is needed.
"""

import time

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.engine import StandardChase
from repro.core.rewriter import rewrite
from repro.reporting import Table
from repro.scenarios.running_example import (
    build_scenario,
    build_source_schema,
    build_target_schema,
    generate_source_instance,
)

from conftest import print_experiment_table, quick_mode, record_bench_json


def conjunctive_variant():
    """The running example with the classification flattened into
    conjunctive views over an explicit class-tag column — what a designer
    must do when the view language has no negation (the paper's point:
    expressiveness must be paid for somewhere)."""
    from repro.core.scenario import MappingScenario
    from repro.datalog.program import ViewProgram
    from repro.logic.atoms import Atom, Comparison, Conjunction
    from repro.logic.dependencies import tgd
    from repro.logic.terms import Constant, Variable

    pid, name, store, rating = (
        Variable("pid"),
        Variable("name"),
        Variable("store"),
        Variable("rating"),
    )
    source_schema = build_source_schema()
    target_schema = build_target_schema()
    # The conjunctive variant needs a physical class column: model it as
    # T_Rating(thumbsUp) codes 10/11/12 used as class tags.
    views = ViewProgram(target_schema)
    rid = Variable("rid")
    for code, view_name in (
        (10, "PopularProduct"),
        (11, "AvgProduct"),
        (12, "UnpopularProduct"),
    ):
        views.define(
            Atom(view_name, (pid, name)),
            Conjunction(
                atoms=(
                    Atom("T_Product", (pid, name, store)),
                    Atom("T_Rating", (rid, pid, Constant(code))),
                )
            ),
        )
    product = Atom("S_Product", (pid, name, store, rating))
    mappings = [
        tgd(
            Conjunction(
                atoms=(product,),
                comparisons=(Comparison("<", rating, Constant(2)),),
            ),
            (Atom("UnpopularProduct", (pid, name)),),
            name="m0",
        ),
        tgd(
            Conjunction(
                atoms=(product,),
                comparisons=(
                    Comparison(">=", rating, Constant(2)),
                    Comparison("<", rating, Constant(4)),
                ),
            ),
            (Atom("AvgProduct", (pid, name)),),
            name="m1",
        ),
        tgd(
            Conjunction(
                atoms=(product,),
                comparisons=(Comparison(">=", rating, Constant(4)),),
            ),
            (Atom("PopularProduct", (pid, name)),),
            name="m2",
        ),
    ]
    return MappingScenario(
        source_schema, target_schema, mappings, target_views=views,
        name="conjunctive-variant",
    )


VARIANTS = [
    ("conjunctive", conjunctive_variant, False),
    ("negation, no key", lambda: build_scenario(include_key=False), False),
    ("negation + key", lambda: build_scenario(include_key=True), True),
]


@pytest.mark.parametrize(
    "name,factory",
    [(n, f) for n, f, _expect_ded in VARIANTS],
    ids=[n for n, _f, _e in VARIANTS],
)
def test_bench_rewrite_variants(benchmark, name, factory):
    scenario = factory()
    result = benchmark(rewrite, scenario)
    assert result.dependencies


def test_report_e7(benchmark):
    def run_report():
        table = Table(
            "E7: view-language expressiveness vs rewriting & execution cost",
            [
                "view language",
                "deps out",
                "tgds",
                "denials",
                "deds",
                "engine",
                "rewrite (s)",
                "chase (s)",
            ],
        )
        products = 60 if quick_mode() else 300
        source = generate_source_instance(products=products, stores=10, seed=6)
        rows = {}
        for name, factory, expect_ded in VARIANTS:
            scenario = factory()
            t0 = time.perf_counter()
            rewritten = rewrite(scenario)
            t1 = time.perf_counter()
            assert rewritten.has_deds == expect_ded
            if rewritten.has_deds:
                engine_name = "greedy-ded"
                result = GreedyDedChase(
                    rewritten.dependencies, rewritten.source_relations()
                ).run(source)
            else:
                engine_name = "standard"
                result = StandardChase(
                    rewritten.dependencies, rewritten.source_relations()
                ).run(source)
            t2 = time.perf_counter()
            assert result.ok
            counts = rewritten.counts()
            table.add(
                name,
                len(rewritten.dependencies),
                counts.get("tgd", 0),
                counts.get("denial", 0),
                counts.get("ded", 0),
                engine_name,
                t1 - t0,
                t2 - t1,
            )
            rows[name] = {
                "dependencies": len(rewritten.dependencies),
                "engine": engine_name,
                "rewrite_seconds": t1 - t0,
                "chase_seconds": t2 - t1,
            }
        print_experiment_table(table)
        record_bench_json(
            "e7_tradeoff", {"quick": quick_mode(), "products": products, "rows": rows}
        )

    benchmark.pedantic(run_report, rounds=1, iterations=1)
