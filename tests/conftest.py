"""Shared fixtures: the paper's running example and small instances.

Also registers the hypothesis profiles the property suites run under:

* ``dev`` (default) — a quick pass for the local tier-1 suite;
* ``ci`` — more examples, derandomized so every CI run checks the same
  example set (a red CI run is reproducible by definition);
* ``deep`` — the ``make fuzz`` profile: many examples, fresh randomness
  each run, for actually *finding* new failing seeds (which then get
  pinned as ``@example`` lines in the test files).

Select one with ``HYPOTHESIS_PROFILE=<name>``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core.rewriter import rewrite

settings.register_profile(
    "dev",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "deep",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
from repro.core.scenario import MappingScenario
from repro.relational.instance import Instance
from repro.scenarios.running_example import (
    build_scenario,
    build_source_schema,
    build_target_views,
    generate_source_instance,
)


@pytest.fixture(autouse=True, scope="session")
def _forkable_cpu_count():
    """Let the process tier fork on a single-CPU machine too.

    The determinism suites compare serial runs against ``process:2``
    (and pooled batches against serial ones), and the one-forking-tier
    rule caps worker counts at ``os.cpu_count()`` — on one CPU that
    would quietly turn every cross-check into serial against serial.
    Tests that exercise the cap itself monkeypatch ``os.cpu_count`` on
    top of this.
    """
    if (os.cpu_count() or 1) >= 2:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "cpu_count", lambda: 2)
        yield


@pytest.fixture(scope="session")
def running_scenario() -> MappingScenario:
    return build_scenario()


@pytest.fixture(scope="session")
def running_scenario_no_key() -> MappingScenario:
    return build_scenario(include_key=False)


@pytest.fixture(scope="session")
def rewritten(running_scenario):
    return rewrite(running_scenario)


@pytest.fixture(scope="session")
def rewritten_no_key(running_scenario_no_key):
    return rewrite(running_scenario_no_key)


@pytest.fixture()
def small_source() -> Instance:
    """Three products: one popular (5), one average (3), one unpopular (0)."""
    schema = build_source_schema()
    instance = Instance(schema)
    instance.add_row("S_Store", "acme", "rome")
    instance.add_row("S_Product", 1, "alpha", "acme", 5)
    instance.add_row("S_Product", 2, "beta", "acme", 3)
    instance.add_row("S_Product", 3, "gamma", "acme", 0)
    return instance


@pytest.fixture(scope="session")
def target_views():
    return build_target_views()


@pytest.fixture()
def medium_source() -> Instance:
    return generate_source_instance(products=30, stores=4, seed=11)
