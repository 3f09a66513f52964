"""The benchmark's three workloads: inputs, tasks, oracles and traced mirrors.

Every workload turns a seed into a fixed *cycle* of task inputs.  Its
``run`` method is one untraced task through the product's public entry
point; its ``trace`` method repeats the same task step by step through
the public function of each layer, timing every call with a
:class:`LayerClock` and handing the chase a flight recorder so its
existing counters can be read afterwards.  Both return the program's raw
result; ``result`` and ``traced_result`` turn it into a comparable
outcome outside the timed region.

Each input carries an ``expected`` outcome built without the chase: the
running-example target sizes follow in closed form from the source rows,
the rewrite of a DSL document must equal the rewrite of the in-memory
scenario it was serialized from, and the status and number of greedy
selections of each scenario shape are fixed by the canonical selection
order (:data:`SHAPES`).
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis import Severity, analyze_dependencies
from repro.chase.ded import GreedyDedChase
from repro.chase.engine import StandardChase
from repro.core.compose import extend_source
from repro.core.rewriter import rewrite
from repro.core.verify import verify_solution
from repro.dsl import parse_scenario, serialize_dependency, serialize_scenario
from repro.pipeline import run_scenario, strip_auxiliary
from repro.runtime.cache import RewriteCache
from repro.runtime.corpus import Corpus, ScenarioSpec, get_corpus, spec
from repro.runtime.executor import BatchOptions, run_batch
from repro.runtime.fingerprint import fingerprint_scenario, fingerprint_task
from repro.runtime.results import STATUS_ERROR, STATUS_TIMEOUT
from repro.scenarios.running_example import build_scenario, generate_source_instance

SEED_STRIDE = 1000
"""Seed ``n`` shifts every generator seed by ``n * SEED_STRIDE``, so seed
0 reproduces the registered corpora exactly."""

TASK_TIMEOUT = 60.0
"""Wall-clock budget of one task; a task past it counts as failed."""

MAX_SCENARIOS = 256
"""Greedy ded-chase budget, the default of ``run_scenario``/``run_batch``."""

SHAPES: Dict[str, Dict[str, object]] = {
    "running": {"status": "success", "tried": 1},
    "flagged-3": {"status": "success", "tried": 14},
    "flagged-4": {"status": "success", "tried": 41},
    "partition-5": {"status": "failure", "tried": 11},
    "partition-6": {"status": "failure", "tried": 13},
}
"""Chase status and greedy selections tried per scenario shape.  Both
depend only on the dependency set, never on the seeded data: a flagged
scenario succeeds once the sweep reaches a selection without an equality
branch, and a partition scenario with a duplicated default-class name
fails after trying every selection."""


class TaskFailed(Exception):
    """A task raised inside the program or ran out of time."""


@dataclass
class Item:
    """One task input of a workload's cycle."""

    label: str
    payload: object
    expected: Dict[str, object]
    source_facts: int = 0
    size_bytes: int = 0
    traced_expected: Optional[Dict[str, object]] = None
    """The outcome a traced mirror must match, where the mirror sees more
    than the product path returns (default: ``expected``)."""


@dataclass
class LayerClock:
    """Seconds and counts per layer, taken around the benchmark's calls."""

    seconds: Dict[str, float] = field(default_factory=Counter)
    counts: Dict[str, float] = field(default_factory=Counter)

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] += time.perf_counter() - start

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def relation_sizes(instance) -> Dict[str, int]:
    return {name: len(instance.facts(name)) for name in sorted(instance.relations())}


def pipeline_outcome(raw) -> Dict[str, object]:
    """The comparable result of one ``(chase, target, verification)`` run."""
    chase_result, target, verification = raw
    ok = chase_result.ok
    return {
        "status": str(chase_result.status),
        "tried": chase_result.scenarios_tried,
        "verified": verification.ok if verification is not None else None,
        "target": relation_sizes(target) if ok else None,
    }


def shape_expectation(shape: str) -> Dict[str, object]:
    expected = dict(SHAPES[shape])
    expected["verified"] = True if expected["status"] == "success" else None
    return expected


def running_target(instance, flags: int = 0, name_pairs: int = 0) -> Dict[str, int]:
    """Closed-form target sizes of the running example (and its flagged
    extension) from the source rows alone.

    Every product yields two ``T_Product`` facts (one from its
    classification mapping, one from ``m3``) and one ``T_Store`` fact
    per matching store.  An unpopular product needs one thumbs-down
    rating, an average one a thumbs-up plus a thumbs-down rating (it
    must not be popular), a popular one none.  The flagged family adds
    one flag rating per same-name pair and flag.
    """
    stores = {fact.terms[0].value for fact in instance.facts("S_Store")}
    products = sold = unpopular = average = 0
    for fact in instance.facts("S_Product"):
        products += 1
        sold += fact.terms[2].value in stores
        rating = fact.terms[3].value
        unpopular += rating < 2
        average += 2 <= rating < 4
    return {
        "T_Product": 2 * products,
        "T_Rating": unpopular + 2 * average + flags * name_pairs,
        "T_Store": sold,
    }


def mirror_run_rewritten(clock: LayerClock, rec, scenario, rewritten, instance):
    """``repro.pipeline.run_rewritten`` step by step, one public call per
    layer; returns ``(chase result, stripped target, verification)``."""
    chase_input = clock.call(
        "compose.extend_source_s", extend_source, scenario, instance, recorder=rec
    )
    analysis = clock.call("analysis.analyze_s", _analyze, rewritten)
    clock.add("analysis.proven_terminating", int(analysis.termination.proven))
    engine_type = GreedyDedChase if rewritten.has_deds else StandardChase
    extra = {"max_scenarios": MAX_SCENARIOS} if rewritten.has_deds else {}

    def chase():
        engine = engine_type(
            rewritten.dependencies,
            rewritten.source_relations(),
            None,
            termination=analysis.termination,
            **extra,
        )
        return engine.run(chase_input, recorder=rec)

    chase_result = clock.call("ded.run_s", chase)
    clock.add("ded.scenarios_tried", chase_result.scenarios_tried)
    clock.add("ded.successes", int(chase_result.ok))
    target = clock.call(
        "pipeline.strip_s", strip_auxiliary, chase_result.target, scenario.target_schema
    )
    verification = None
    if chase_result.ok:
        verification = clock.call(
            "verify.verify_s",
            verify_solution,
            scenario,
            instance,
            target,
            source_side=chase_input,
        )
    return chase_result, target, verification


def _analyze(rewritten):
    return analyze_dependencies(
        rewritten.dependencies,
        rewritten.source_relations(),
        rewritten.target_relations(),
    )


def count_rewrite(clock: LayerClock, rewritten) -> None:
    clock.add("rewriter.dependencies", len(rewritten.dependencies))
    clock.add("rewriter.deds", sum(1 for d in rewritten.dependencies if d.is_ded()))


# ---------------------------------------------------------------------------
# design: parse -> rewrite -> analyze -> serialize over DSL documents
# ---------------------------------------------------------------------------


def _reseeded(specs, seed: int) -> List[ScenarioSpec]:
    out = []
    for item in specs:
        params = item.params_dict()
        if "seed" in params:
            params["seed"] += seed * SEED_STRIDE
        out.append(spec(item.family, **params))
    return out


def _serialized_rewrite(rewritten) -> str:
    return "\n".join(serialize_dependency(d) for d in rewritten.dependencies)


class Design:
    """The designer's loop behind ``grom lint`` plus ``grom rewrite``."""

    name = "design"

    def __init__(self, root: Path, seed: int, small: bool = False) -> None:
        self.root = root
        self.seed = seed
        self.small = small

    def prepare(self) -> List[Item]:
        specs = list(get_corpus("random-100")) + list(get_corpus("mixed"))
        if self.small:
            specs = specs[::25]
        documents = []
        for item in _reseeded(specs, self.seed):
            scenario = item.build().scenario
            documents.append((item.label, serialize_scenario(scenario), scenario))
        example = self.root / "examples" / "running_example.grom"
        documents.append((example.name, example.read_text(), build_scenario()))
        items = []
        for label, text, scenario in documents:
            # The reference is the in-memory scenario the text was
            # serialized from: the round trip must not change the rewrite
            # or the error-severity diagnostics (a parse or rewrite failure
            # is one, GROM104/GROM105).
            rewritten = rewrite(scenario)
            expected = self._outcome(
                _analyze(rewritten), _serialized_rewrite(rewritten)
            )
            items.append(
                Item(
                    label=label,
                    payload=text,
                    expected=expected,
                    size_bytes=len(text.encode("utf-8")),
                )
            )
        return items

    @staticmethod
    def _outcome(analysis, text: str) -> Dict[str, object]:
        return {
            "rewrite": digest(text),
            "errors": [
                f"{d.code} {d.subject}"
                for d in analysis.diagnostics
                if d.severity is Severity.ERROR
            ],
        }

    def run(self, item: Item):
        scenario = parse_scenario(item.payload).scenario
        rewritten = rewrite(scenario)
        return _analyze(rewritten), _serialized_rewrite(rewritten)

    def result(self, raw) -> Dict[str, object]:
        return self._outcome(*raw)

    traced_result = result

    def trace(self, item: Item, clock: LayerClock, rec):
        document = clock.call("dsl.parse_s", parse_scenario, item.payload)
        clock.add("dsl.bytes", item.size_bytes)
        rewritten = clock.call("rewriter.rewrite_s", rewrite, document.scenario)
        count_rewrite(clock, rewritten)
        analysis = clock.call("analysis.analyze_s", _analyze, rewritten)
        clock.add("analysis.proven_terminating", int(analysis.termination.proven))
        text = clock.call("dsl.serialize_s", _serialized_rewrite, rewritten)
        return analysis, text

    def sizes(self, items: List[Item]) -> Dict[str, object]:
        return {
            "documents": len(items),
            "dsl_bytes": sum(item.size_bytes for item in items),
        }


# ---------------------------------------------------------------------------
# exchange: run_scenario(..., verify=True) on the running example
# ---------------------------------------------------------------------------


class Exchange:
    """Bulk exchange: what ``grom chase`` runs on the paper's example."""

    name = "exchange"

    def __init__(self, root: Path, seed: int, small: bool = False) -> None:
        self.seed = seed
        # Eight instances of 250 products keep the bulk of a cycle while a
        # task stays near 0.12 s.  Short tasks track run.py's machine
        # factor better than 0.5 s ones: the spread over seeds was about
        # 0.04 here against 0.09 at 1,000 products.
        self.products = 40 if small else 250
        self.stores = 10
        self.instances = 2 if small else 8
        self.scenario = None

    def prepare(self) -> List[Item]:
        self.scenario = build_scenario(include_key=True)
        items = []
        for index in range(self.instances):
            instance_seed = self.seed * SEED_STRIDE + index
            instance = generate_source_instance(
                products=self.products, stores=self.stores, seed=instance_seed
            )
            expected = shape_expectation("running")
            expected["target"] = running_target(instance)
            items.append(
                Item(
                    label=f"running(products={self.products},seed={instance_seed})",
                    payload=instance,
                    expected=expected,
                    source_facts=len(instance),
                )
            )
        return items

    def run(self, item: Item):
        outcome = run_scenario(self.scenario, item.payload, verify=True)
        return outcome.chase, outcome.target, outcome.verification

    result = traced_result = staticmethod(pipeline_outcome)

    def trace(self, item: Item, clock: LayerClock, rec):
        rewritten = clock.call("rewriter.rewrite_s", rewrite, self.scenario)
        count_rewrite(clock, rewritten)
        return mirror_run_rewritten(clock, rec, self.scenario, rewritten, item.payload)

    def sizes(self, items: List[Item]) -> Dict[str, object]:
        return {
            "instances": len(items),
            "products": self.products,
            "stores": self.stores,
            "source_facts": [item.source_facts for item in items],
        }


# ---------------------------------------------------------------------------
# ded-sweep: run_batch(jobs=1) tasks over a warmed rewrite cache
# ---------------------------------------------------------------------------


class DedSweep:
    """The greedy ded sweep as ``grom batch`` runs it, one spec per task."""

    name = "ded-sweep"

    def __init__(self, root: Path, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.small = small
        self.cache: Optional[RewriteCache] = None
        self.options = BatchOptions(jobs=1)

    def _specs(self) -> List[ScenarioSpec]:
        # The structure is fixed (flag counts, product counts, widths), so
        # every seed walks the same amount of chase work; the seed only
        # draws the data.  The cycle is short so that each input repeats
        # often within a run.
        rng = random.Random(self.seed)

        def partition(width: int) -> ScenarioSpec:
            return spec(
                "partition",
                width=width,
                default_key=True,
                duplicate_names=1,
                items=80,
                seed=rng.randrange(SEED_STRIDE * SEED_STRIDE),
            )

        def flagged(flags: int, products: int) -> ScenarioSpec:
            return spec(
                "flagged",
                flags=flags,
                products=products,
                name_pairs=2,
                seed=rng.randrange(SEED_STRIDE * SEED_STRIDE),
            )

        if self.small:
            return [partition(5), flagged(3, 30), partition(6), flagged(4, 30)]
        return [
            partition(5),
            flagged(3, 30),
            flagged(4, 30),
            partition(6),
            flagged(3, 40),
            flagged(4, 40),
        ]

    @staticmethod
    def _shape(item: ScenarioSpec) -> str:
        params = item.params_dict()
        size = params["flags"] if item.family == "flagged" else params["width"]
        return f"{item.family}-{size}"

    def prepare(self) -> List[Item]:
        self.cache = RewriteCache(capacity=self.options.cache_capacity)
        items = []
        for item in self._specs():
            built = item.build()
            fingerprint = fingerprint_scenario(built.scenario)
            if self.cache.fetch(built.scenario, fingerprint)[0] is None:
                self.cache.store(fingerprint, rewrite(built.scenario))
            expected = shape_expectation(self._shape(item))
            expected["cache_hit"] = True
            target = None
            if expected["status"] == "success":
                params = item.params_dict()
                target = running_target(
                    built.instance, params["flags"], params["name_pairs"]
                )
            # A TaskRecord carries only the total target size, so the
            # product path is checked on the total; the traced mirror
            # sees the target and is checked per relation as well.
            expected["target_facts"] = sum(target.values()) if target else None
            items.append(
                Item(
                    label=item.label,
                    payload=item,
                    expected=expected,
                    source_facts=len(built.instance),
                    traced_expected=dict(expected, target=target),
                )
            )
        return items

    def run(self, item: Item):
        corpus = Corpus(self.name, "one ded-sweep task", (item.payload,))
        return run_batch(corpus, self.options, cache=self.cache).records[0]

    @staticmethod
    def result(record) -> Dict[str, object]:
        if record.status in (STATUS_ERROR, STATUS_TIMEOUT):
            raise TaskFailed(record.error)
        return {
            "status": record.status,
            "tried": record.scenarios_tried,
            "verified": record.verified,
            "target_facts": record.target_facts if record.ok else None,
            "cache_hit": record.cache_hit,
        }

    def trace(self, item: Item, clock: LayerClock, rec):
        """``repro.runtime.executor._execute`` step by step."""
        built = clock.call("scenarios.build_s", item.payload.build)
        scenario, instance = built.scenario, built.instance
        fingerprint = clock.call(
            "runtime.fingerprint_s", fingerprint_scenario, scenario
        )
        clock.call(
            "runtime.fingerprint_s",
            fingerprint_task,
            scenario,
            instance,
            scenario_fingerprint=fingerprint,
            verify=self.options.verify,
            max_scenarios=self.options.max_scenarios,
        )
        rewritten, _ = clock.call("runtime.cache_s", self.cache.fetch, scenario, fingerprint)
        clock.add("runtime.cache_lookups")
        cache_hit = rewritten is not None
        if cache_hit:
            clock.add("runtime.cache_hits")
        else:
            rewritten = clock.call("rewriter.rewrite_s", rewrite, scenario)
            clock.call("runtime.cache_s", self.cache.store, fingerprint, rewritten)
        count_rewrite(clock, rewritten)
        return mirror_run_rewritten(clock, rec, scenario, rewritten, instance), cache_hit

    @staticmethod
    def traced_result(raw) -> Dict[str, object]:
        pipeline, cache_hit = raw
        outcome = pipeline_outcome(pipeline)
        target = outcome["target"]
        outcome["target_facts"] = sum(target.values()) if target is not None else None
        outcome["cache_hit"] = cache_hit
        return outcome

    def sizes(self, items: List[Item]) -> Dict[str, object]:
        return {
            "specs": [item.label for item in items],
            "source_facts": [item.source_facts for item in items],
        }


WORKLOADS = {cls.name: cls for cls in (Design, Exchange, DedSweep)}
