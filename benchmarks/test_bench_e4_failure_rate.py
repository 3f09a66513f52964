"""E4 — intricate constraints make many derived scenarios fail.

Claim (§4): "when the constraints are more intricate, the greedy chase
will take considerably more time, due to the fact that many of the
generated scenarios fail to generate a solution, and new ones need to
be executed."

With ``k`` flag keys, each rewritten ded's *equality* branch fails on
any conflicting pair (distinct constant ids), so every selection that
keeps any ded on its preferred equality branch dies; the greedy search
must walk past all cheaper selections before reaching the first
all-insert selection.  The number of failing scenarios grows
combinatorially with k — exactly the paper's observation.
"""

import pytest

from repro.chase.ded import GreedyDedChase
from repro.core.rewriter import rewrite
from repro.reporting import Table
from repro.scenarios.generators import flagged_instance, flagged_scenario

from conftest import print_experiment_table

FLAGS = [1, 2, 3, 4]


@pytest.mark.parametrize("flags", [1, 2, 3])
def test_bench_greedy_with_failures(benchmark, flags):
    rewritten = rewrite(flagged_scenario(flags=flags))
    source = flagged_instance(products=4, name_pairs=1, seed=3)
    engine = GreedyDedChase(
        rewritten.dependencies, rewritten.source_relations(), max_scenarios=512
    )
    result = benchmark.pedantic(lambda: engine.run(source), rounds=2, iterations=1)
    assert result.ok


def test_report_e4(benchmark):
    def run_report():
        table = Table(
            "E4: failing derived scenarios vs number of ded constraints",
            [
                "flag keys",
                "deds",
                "scenarios tried",
                "failed",
                "time (s)",
            ],
        )
        tried = {}
        for flags in FLAGS:
            rewritten = rewrite(flagged_scenario(flags=flags))
            source = flagged_instance(products=4, name_pairs=1, seed=3)
            engine = GreedyDedChase(
                rewritten.dependencies,
                rewritten.source_relations(),
                max_scenarios=512,
            )
            result = engine.run(source)
            assert result.ok, result.failure_reason
            tried[flags] = result.scenarios_tried
            table.add(
                flags,
                len(rewritten.deds()),
                result.scenarios_tried,
                result.scenarios_tried - 1,
                result.stats.elapsed_seconds,
            )
        print_experiment_table(table)
        # Shape: the failing-scenario count grows with the constraint count,
        # strictly (each extra ded adds more cheap-but-doomed selections).
        assert tried[1] < tried[2] < tried[3] < tried[4]

    benchmark.pedantic(run_report, rounds=1, iterations=1)
