"""E5 — the static ded-prediction analysis.

Claim (§3): "the system is able to look at the view definitions and
tell whether the rewritten mappings may contain deds or not", plus §4's
"GROM supports this process by highlighting problematic views".  We
measure the analysis cost against the full rewriting cost across the
scenario families, and check the prediction agrees with the actual
rewriting on every one of them.
"""

import time


from repro.core.analysis import predict_deds
from repro.core.rewriter import rewrite
from repro.reporting import Table
from repro.scenarios import (
    build_scenario,
    cleanup_scenario,
    evolution_scenario,
    flagged_scenario,
    partition_scenario,
)

from conftest import print_experiment_table

FAMILIES = [
    ("running", lambda: build_scenario()),
    ("running-nokey", lambda: build_scenario(include_key=False)),
    ("cleanup", cleanup_scenario),
    ("evolution", lambda: evolution_scenario()),
    ("evolution-sd", lambda: evolution_scenario(with_soft_delete=True)),
    ("flagged-3", lambda: flagged_scenario(3)),
    ("partition-4", lambda: partition_scenario(4, class_keys=True)),
    ("partition-4-dk", lambda: partition_scenario(4, default_key=True)),
]


def test_bench_prediction(benchmark):
    scenario = build_scenario()
    prediction = benchmark(predict_deds, scenario)
    assert prediction.may_have_deds


def test_bench_prediction_wide_partition(benchmark):
    scenario = partition_scenario(6, default_key=True)
    prediction = benchmark(predict_deds, scenario)
    assert prediction.may_have_deds


def test_report_e5(benchmark):
    def run_report():
        table = Table(
            "E5: static ded prediction vs actual rewriting",
            [
                "scenario",
                "predicted",
                "actual",
                "agrees",
                "problematic views",
                "analysis (s)",
                "rewrite (s)",
            ],
        )
        all_agree = True
        for name, factory in FAMILIES:
            scenario = factory()
            t0 = time.perf_counter()
            prediction = predict_deds(scenario)
            t1 = time.perf_counter()
            result = rewrite(scenario)
            t2 = time.perf_counter()
            agrees = prediction.may_have_deds == result.has_deds
            all_agree &= agrees
            # Soundness must hold regardless of exactness.
            if not prediction.may_have_deds:
                assert not result.has_deds
            table.add(
                name,
                prediction.may_have_deds,
                result.has_deds,
                agrees,
                ", ".join(prediction.problematic_views()) or "-",
                t1 - t0,
                t2 - t1,
            )
        print_experiment_table(table)
        assert all_agree  # exact on every family we ship

    benchmark.pedantic(run_report, rounds=1, iterations=1)
