"""Shared semi-naive delta-evaluation engine.

This module is the incremental layer both chase enforcement and Datalog
view materialization stand on.  PR 2 grew the machinery inside
``chase/compiled.py`` — anchored delta plans, generation-windowed fact
iteration, recompile-on-growth — and this module extracts it so the two
consumers of the paper's hot loop share one implementation:

* :class:`~repro.chase.compiled.CompiledDependency` finds premise
  matches of tgds/egds/denials against the round's new facts, and
* :func:`repro.datalog.evaluate.materialize` runs rule bodies against
  each fixpoint iteration's new facts (classical semi-naive evaluation
  of ``Υ(I)``).

Three pieces:

:class:`PlanCache`
    Compiled-plan storage with the *recompile policy*.  A
    :class:`~repro.relational.query.CompiledQuery` join order is chosen
    from selectivity statistics captured at compile time; the cache
    recompiles a plan when the data has outgrown those statistics —
    either the watched relations doubled in size (the PR 2 rule, keeps
    recompiles logarithmic) or a probed key-set's *bucket estimate*
    (relation size over distinct keys) drifted by :data:`DRIFT_FACTOR`
    in either direction.  Drift checks use only the per-index
    distinct-key counts :class:`~repro.relational.instance.Instance`
    maintains incrementally, so a cache fetch costs O(plan steps), not a
    relation scan.

:class:`DeltaPlans`
    One conjunction's full plan plus one *anchored* plan per positive
    atom.  ``delta_matches`` implements the delta-join: for each atom
    whose relation gained facts, evaluate with that atom first and
    restricted to the delta, then deduplicate bindings across anchors.
    Every match found this way uses at least one delta fact, which is
    exactly the semi-naive guarantee (no old-old recombination).

:class:`GenerationWindow`
    A window over an instance's per-generation insertion log.  ``advance``
    returns the facts inserted since the window last moved and bumps the
    instance's generation, so consumers iterate "what changed since I
    last looked" in O(|delta|) without materializing snapshots.

All three respect :func:`repro.relational.query.reference_evaluator`
mode, falling back to the materialized reference evaluator so the
differential suites compare the full incremental pipeline against the
naive one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.logic.atoms import Atom, Conjunction
from repro.logic.terms import Term, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance, RowMask
from repro.relational import query as _query
from repro.relational.query import (
    Binding,
    CompiledQuery,
    evaluate,
    evaluate_delta,
    exists,
)

__all__ = [
    "PlanCache",
    "DeltaPlans",
    "GenerationWindow",
    "group_rows",
    "mask_rows",
]

#: Encoded delta: relation -> set of row ids inserted this window.
RowDelta = Dict[str, Set[int]]


def group_rows(rows: Iterable[Tuple[str, int]]) -> RowDelta:
    """Group (relation, row id) pairs into the encoded delta shape."""
    grouped: RowDelta = {}
    for relation, row_id in rows:
        grouped.setdefault(relation, set()).add(row_id)
    return grouped


def mask_rows(delta_rows: RowDelta) -> Dict[str, RowMask]:
    """Wrap an encoded delta's row-id sets as :class:`RowMask` windows.

    A mask precomputes its span/contiguity once, so every anchored probe
    in the pass restricts index buckets by identity or bisect slice
    instead of per-row membership — build the masks once per round (or
    fixpoint pass) and hand the dict to every plan that evaluates
    against that delta.
    """
    return {
        relation: rows if isinstance(rows, RowMask) else RowMask(rows)
        for relation, rows in delta_rows.items()
    }


class PlanCache:
    """Compiled plans plus the shared recompile policy.

    Plans are keyed by an arbitrary hashable ``key`` chosen by the
    consumer (a dependency keys its premise, anchors and disjunct
    probes; the materializer keys each rule's body and anchors).  A
    cached plan is returned as long as its compile-time statistics are
    still trustworthy:

    * **growth** — the watched relations' total size is below twice the
      size at compile time (with a floor so tiny instances never churn);
    * **selectivity** — no probed key-set's bucket estimate
      (``size / distinct keys``) moved by more than
      :data:`DRIFT_FACTOR` either way.  Sizes can stay inside the
      doubling budget while a key collapses (many duplicates on a
      formerly near-unique column); the drift rule catches that case,
      which pure size tracking cannot (ROADMAP "Plan statistics").
    """

    __slots__ = ("_plans", "compiles", "recompiles", "served")

    #: Below this many facts any plan is fine; avoids churn on tiny data.
    RECOMPILE_FLOOR = 8

    #: Bucket-estimate ratio past which a plan's join order is distrusted.
    DRIFT_FACTOR = 4.0

    def __init__(self) -> None:
        # key -> (plan, growth limit, bucket estimates, watched relations)
        self._plans: Dict[
            object,
            Tuple[
                CompiledQuery,
                int,
                Tuple[Tuple[str, Tuple[int, ...], float], ...],
                Tuple[str, ...],
            ],
        ] = {}
        #: Plans built from scratch / rebuilt under the recompile policy /
        #: served from cache — the ``plan.*`` metrics the flight recorder
        #: harvests (a recompile counts in both ``compiles`` and
        #: ``recompiles``).
        self.compiles = 0
        self.recompiles = 0
        self.served = 0

    def plan(
        self,
        key: object,
        body: Conjunction,
        bound: frozenset,
        instance: Instance,
        first_atom: Optional[int] = None,
    ) -> CompiledQuery:
        """The cached plan for ``key``, recompiled when the policy says so.

        Callers consult this on every evaluation — the chase on every
        satisfaction probe — so a hit costs only the policy check: the
        watched relations and the growth limit are kept in the entry,
        and the drift check reads O(1) statistics per probed key-set.
        A caller may keep work derived from the returned plan while the
        same plan object keeps coming back.
        """
        entry = self._plans.get(key)
        size = instance.size
        if entry is not None:
            plan, limit, estimates, relations = entry
            if sum(map(size, relations)) < limit and not self._drifted(
                estimates, instance
            ):
                self.served += 1
                return plan
            self.recompiles += 1
        else:
            relations = tuple({atom.relation: None for atom in body.atoms})
        self.compiles += 1
        plan = CompiledQuery(body, bound, instance, first_atom)
        self._plans[key] = (
            plan,
            2 * max(sum(map(size, relations)), self.RECOMPILE_FLOOR),
            self._snapshot(plan, instance),
            relations,
        )
        return plan

    def _snapshot(
        self, plan: CompiledQuery, instance: Instance
    ) -> Tuple[Tuple[str, Tuple[int, ...], float], ...]:
        """Bucket estimates of every index probe the plan performs, as
        (relation, positions, estimate floored at 1) triples."""
        out = []
        for step in plan.steps:
            if not step.positions:
                continue
            keys = instance.key_count(step.relation, step.positions)
            if keys:
                estimate = instance.size(step.relation) / keys
                out.append((step.relation, step.positions, max(estimate, 1.0)))
        return tuple(out)

    def _drifted(
        self,
        estimates: Tuple[Tuple[str, Tuple[int, ...], float], ...],
        instance: Instance,
    ) -> bool:
        """Whether any probed key-set's selectivity left its trust band.

        Consults only statistics that are O(1) to read (live index key
        counts or version-fresh cached scans) — a fetch must never scan.
        """
        factor = self.DRIFT_FACTOR
        for relation, positions, compiled_estimate in estimates:
            size = instance.size(relation)
            if size < self.RECOMPILE_FLOOR:
                continue
            keys = instance.cached_key_count(relation, positions)
            if not keys:
                continue
            estimate = size / keys
            if (
                estimate >= compiled_estimate * factor
                or compiled_estimate >= estimate * factor
            ):
                return True
        return False

    def __len__(self) -> int:
        return len(self._plans)


class DeltaPlans:
    """Full and per-anchor delta plans for one conjunction.

    ``bound`` names the variables a runtime seed will always bind (the
    chase seeds satisfaction probes with premise variables; rule bodies
    bind nothing).  Plans live in a :class:`PlanCache` — pass a shared
    one to give several conjunctions (e.g. all plans of one dependency)
    a single recompile policy, or omit it for a private cache.
    """

    __slots__ = ("body", "bound", "_cache", "_key")

    def __init__(
        self,
        body: Conjunction,
        bound: Iterable[Variable] = (),
        cache: Optional[PlanCache] = None,
        key: object = None,
    ) -> None:
        self.body = body
        self.bound = frozenset(bound)
        self._cache = cache if cache is not None else PlanCache()
        self._key = key if key is not None else id(self)

    # -- evaluation --------------------------------------------------------

    def matches(
        self, instance: Instance, seed: Optional[Binding] = None
    ) -> List[Binding]:
        """All bindings of the body (no delta restriction)."""
        if _query.reference_mode_active():
            return evaluate(self.body, instance, seed=seed)
        plan = self._cache.plan((self._key, "full"), self.body, self.bound, instance)
        return list(plan.bindings(instance, seed))

    def delta_matches(
        self,
        instance: Instance,
        delta: Set[Atom],
        seed: Optional[Binding] = None,
    ) -> List[Binding]:
        """Bindings using at least one ``delta`` fact (the semi-naive join).

        One anchored plan per positive atom whose relation gained facts;
        bindings are deduplicated across anchors (a match touching two
        delta facts is found once per anchor).
        """
        if _query.reference_mode_active():
            return evaluate_delta(self.body, instance, delta, seed=seed)
        if not self.body.atoms:
            return self.matches(instance, seed)
        relations_in_delta = {fact.relation for fact in delta}
        out: List[Binding] = []
        seen: Set[Tuple[Tuple[Variable, Term], ...]] = set()
        for anchor_index, anchor in enumerate(self.body.atoms):
            if anchor.relation not in relations_in_delta:
                continue
            plan = self._cache.plan(
                (self._key, "anchor", anchor_index),
                self.body,
                self.bound,
                instance,
                first_atom=anchor_index,
            )
            for binding in plan.bindings(instance, seed, delta=delta):
                key = tuple(sorted(binding.items()))
                if key not in seen:
                    seen.add(key)
                    out.append(binding)
        return out

    def anchor_matches(
        self,
        instance: Instance,
        anchor_index: int,
        restrict: Set[Atom],
        seed: Optional[Binding] = None,
    ) -> List[Binding]:
        """Raw bindings of the plan anchored at one atom, the anchor
        restricted to ``restrict``.

        This is one shard of :meth:`delta_matches`: the union over all
        anchors (whose relation gained facts) of the union over a
        partition of the delta equals the full delta-match set.  No
        cross-anchor deduplication happens here — the caller merging
        shards owns it — which is what lets the parallel chase hand each
        (anchor, delta-chunk) pair to a different worker.
        """
        plan = self._cache.plan(
            (self._key, "anchor", anchor_index),
            self.body,
            self.bound,
            instance,
            first_atom=anchor_index,
        )
        return list(plan.bindings(instance, seed, delta=restrict))

    def warm(self, instance: Instance) -> None:
        """Compile every anchored plan (indexes are left to the first probe).

        The parallel chase calls this on the parent *before* forking its
        replica workers, which inherit the plans copy-on-write.  Over the
        columnar kernel the encoded plans are lowered here too, which
        interns every literal the body mentions — forked workers then
        never grow the pool.  The hash indexes the plans probe are *not*
        built here: each replica builds the ones its shards probe, in
        parallel with the others and in its own heap, instead of the
        parent building them serially and every replica then taking
        copy-on-write faults on the shared index objects it reads.
        """
        columnar = isinstance(instance, ColumnarInstance)
        for anchor_index in range(len(self.body.atoms)):
            plan = self._cache.plan(
                (self._key, "anchor", anchor_index),
                self.body,
                self.bound,
                instance,
                first_atom=anchor_index,
            )
            if columnar:
                plan.encoded(instance.pool)

    # -- encoded evaluation (columnar kernel fast path) --------------------

    def varlist(self, store) -> Tuple[Variable, ...]:
        """Result-row layout of the encoded plans (bound + fresh
        variables in name order; identical across anchors)."""
        plan = self._cache.plan((self._key, "full"), self.body, self.bound, store)
        return plan.encoded(store.pool).varlist

    def matches_encoded(self, store) -> List[Tuple[int, ...]]:
        """All result rows as code tuples (no Atom or dict objects)."""
        plan = self._cache.plan((self._key, "full"), self.body, self.bound, store)
        out: List[Tuple[int, ...]] = []
        for block in plan.encoded(store.pool).blocks(store):
            out += block
        return out

    def delta_matches_encoded(
        self, store, delta_rows: RowDelta
    ) -> List[Tuple[int, ...]]:
        """Encoded semi-naive join: rows touching at least one delta row,
        deduplicated across anchors by raw row tuple (the row is the
        binding, in varlist order, so tuple equality is binding
        equality).  ``delta_rows`` values may be row-id sets or
        pre-built :class:`RowMask` windows (see :func:`mask_rows`);
        sets are wrapped here, once per relation, shared across a
        self-join's anchors."""
        if not self.body.atoms:
            return self.matches_encoded(store)
        masks: Dict[str, RowMask] = {}
        out: List[Tuple[int, ...]] = []
        seen: Set[Tuple[int, ...]] = set()
        for anchor_index, anchor in enumerate(self.body.atoms):
            rows = masks.get(anchor.relation)
            if rows is None:
                rows = delta_rows.get(anchor.relation)
                if not rows:
                    continue
                if not isinstance(rows, RowMask):
                    rows = RowMask(rows)
                masks[anchor.relation] = rows
            plan = self._cache.plan(
                (self._key, "anchor", anchor_index),
                self.body,
                self.bound,
                store,
                first_atom=anchor_index,
            )
            add = seen.add
            append = out.append
            for block in plan.encoded(store.pool).blocks(store, delta=rows):
                for row in block:
                    if row not in seen:
                        add(row)
                        append(row)
        return out

    def anchor_matches_encoded(
        self, store, anchor_index: int, restrict
    ) -> List[Tuple[int, ...]]:
        """One shard of :meth:`delta_matches_encoded` (no cross-anchor
        dedup — the merging caller owns it, as in :meth:`anchor_matches`).

        ``restrict`` is a row-id set or a pre-built :class:`RowMask`
        (sharder chunks arrive as sets and are wrapped by the encoded
        plan)."""
        plan = self._cache.plan(
            (self._key, "anchor", anchor_index),
            self.body,
            self.bound,
            store,
            first_atom=anchor_index,
        )
        out: List[Tuple[int, ...]] = []
        for block in plan.encoded(store.pool).blocks(store, delta=restrict):
            out += block
        return out

    def probe(self, store, outer_varlist: Tuple[Variable, ...]):
        """A satisfaction probe over encoded outer rows aligned to
        ``outer_varlist`` (the chase's premise rows).

        Each call consults the plan cache, so the recompile policy
        (growth, drift) sees every probe, as it sees every other
        evaluation; the pinned :meth:`~repro.relational.query._EncodedPlan.probe` is
        reused while the cache keeps returning the same plan object and
        rebuilt when it does not.  Build one per enforcement pass: the
        probe pins index objects that stay current only while ``store``
        grows through encoded appends.
        """
        plan_of = self._cache.plan
        key = (self._key, "full")
        body = self.body
        bound = self.bound
        pool = store.pool
        pinned = None
        holds = None

        def probe(row) -> bool:
            nonlocal pinned, holds
            plan = plan_of(key, body, bound, store)
            if plan is not pinned:
                encoded = plan.encoded(pool)
                holds = encoded.probe(store, encoded.fill_for(outer_varlist))
                pinned = plan
            return holds(row)

        return probe

    def exists(self, instance: Instance, seed: Optional[Binding] = None) -> bool:
        """Whether the body has at least one match (short-circuits)."""
        if _query.reference_mode_active():
            return exists(self.body, instance, seed=seed)
        plan = self._cache.plan((self._key, "full"), self.body, self.bound, instance)
        return plan.exists(instance, seed)

    def relations(self) -> frozenset:
        """Relations of the positive atoms (delta anchors can only be these)."""
        return frozenset(atom.relation for atom in self.body.atoms)


class GenerationWindow:
    """A moving window over an instance's insertion generations.

    Each :meth:`advance` call returns the facts inserted since the
    window last advanced (initially: since ``since``) and opens a fresh
    generation, so facts the consumer inserts *after* the call land in
    the next window.  This is the iteration discipline of both the chase
    round loop and the semi-naive fixpoint loop: evaluate against the
    previous iteration's insertions only.
    """

    __slots__ = ("instance", "_since")

    def __init__(self, instance: Instance, since: Optional[int] = None) -> None:
        self.instance = instance
        self._since = instance.current_generation if since is None else since

    def advance(self) -> Set[Atom]:
        """Facts inserted since the last advance; opens a new generation."""
        delta = set(self.instance.facts_since(self._since))
        self._since = self.instance.bump_generation()
        return delta

    def advance_rows(self) -> List[Tuple[str, int]]:
        """Encoded :meth:`advance`: (relation, row id) pairs instead of
        decoded atoms (columnar instances only)."""
        rows = self.instance.rows_since(self._since)
        self._since = self.instance.bump_generation()
        return rows

    @property
    def since(self) -> int:
        return self._since
