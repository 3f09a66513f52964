"""E1 — the Figure-2 pipeline end to end on the running example.

Claim (§2–§3): mappings designed over the semantic schema execute
transparently over the physical databases.  We measure the three stages
separately — rewriting, chase, verification — on the Section 2 scenario.
"""


from repro.chase.ded import GreedyDedChase
from repro.core.rewriter import rewrite
from repro.core.verify import verify_solution
from repro.pipeline import run_scenario, strip_auxiliary
from repro.reporting import Table
from repro.scenarios.running_example import build_scenario, generate_source_instance

from conftest import print_experiment_table


def test_bench_rewriting(benchmark):
    scenario = build_scenario()
    result = benchmark(rewrite, scenario)
    assert result.has_deds and len(result.dependencies) == 10


def test_bench_chase_small(benchmark, running_rewritten):
    source = generate_source_instance(products=50, stores=5, seed=1)

    def run():
        return GreedyDedChase(
            running_rewritten.dependencies, running_rewritten.source_relations()
        ).run(source)

    result = benchmark(run)
    assert result.ok


def test_bench_verification(benchmark):
    scenario = build_scenario()
    source = generate_source_instance(products=50, stores=5, seed=1)
    outcome = run_scenario(scenario, source, verify=False)
    target = strip_auxiliary(outcome.chase.target)

    report = benchmark(verify_solution, scenario, source, target)
    assert report.ok


def test_report_e1(benchmark):
    """The E1 summary table (stage breakdown at a fixed size)."""
    def run_report():
        import time

        scenario = build_scenario()
        source = generate_source_instance(products=100, stores=8, seed=1)

        t0 = time.perf_counter()
        rewritten = rewrite(scenario)
        t1 = time.perf_counter()
        chase_result = GreedyDedChase(
            rewritten.dependencies, rewritten.source_relations()
        ).run(source)
        t2 = time.perf_counter()
        target = strip_auxiliary(chase_result.target)
        report = verify_solution(scenario, source, target)
        t3 = time.perf_counter()

        table = Table(
            "E1: pipeline stage breakdown (100 products)",
            ["stage", "time (s)", "output"],
        )
        table.add("rewrite", t1 - t0, f"{len(rewritten.dependencies)} dependencies "
                                      f"(1 ded = d0)")
        table.add("chase", t2 - t1, f"{len(target)} target facts, "
                                    f"{chase_result.stats.nulls_created} nulls")
        table.add("verify", t3 - t2, str(report))
        print_experiment_table(table)
        assert chase_result.ok and report.ok

    benchmark.pedantic(run_report, rounds=1, iterations=1)
