"""End-to-end soundness verification.

The paper's correctness contract for the rewriting is *soundness*:
whenever the rewritten dependencies ``Σ_ST ∪ Σ_T`` admit a universal
solution ``J_T`` over ``I_S``, then ``Υ_T(J_T)`` is a solution for the
original semantic scenario.  This module checks exactly that, given a
produced target instance:

* every mapping tgd of the scenario is satisfied by
  ``I_S ∪ Υ_S(I_S)`` versus ``J_T ∪ Υ_T(J_T)``;
* every target constraint (egd/denial over the semantic schema) is
  satisfied by ``Υ_T(J_T)``.

The verifier is used by the integration tests and by the property-based
soundness suite; it is also exported so downstream users can audit runs.

The source side ``I_S ∪ Υ_S(I_S)`` never depends on the candidate
target, so :class:`ScenarioVerifier` materializes it once (into a
shared :class:`~repro.datalog.evaluate.SemanticDatabase`) and reuses it
across every candidate — verifying k rewritings of one scenario costs
one source materialization, not k.

The chase hands its target over as a columnar store, and the checks
stay on encoded rows: premise matches come off the encoded plan over
the source side, each conclusion disjunct is an existence probe over
the target side seeded code for code (both sides share the
process-wide term pool), and only violating matches are decoded.
Under :func:`~repro.relational.query.reference_evaluator` every match
is decoded into a binding and probed through the reference evaluator
instead — the oracle the differential suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from operator import itemgetter
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.compose import source_database
from repro.core.scenario import MappingScenario
from repro.datalog.evaluate import SemanticDatabase
from repro.logic.atoms import Conjunction
from repro.logic.dependencies import Dependency
from repro.logic.terms import Term, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import (
    compile_query,
    evaluate_iter,
    exists,
    reference_mode_active,
)
from repro.relational.types import term_order_key

__all__ = [
    "Violation",
    "VerificationReport",
    "ScenarioVerifier",
    "verify_solution",
    "semantic_target",
]


@dataclass(frozen=True)
class Violation:
    """One unsatisfied premise match of a dependency."""

    dependency: str
    binding: Tuple[Tuple[Variable, Term], ...]
    reason: str

    def __str__(self) -> str:
        assignment = ", ".join(f"{v}={t}" for v, t in self.binding)
        return f"{self.dependency} violated at [{assignment}]: {self.reason}"


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_solution`."""

    ok: bool
    violations: List[Violation] = field(default_factory=list)
    mappings_checked: int = 0
    constraints_checked: int = 0
    premise_matches: int = 0

    def __str__(self) -> str:
        if self.ok:
            return (
                f"OK ({self.mappings_checked} mappings, "
                f"{self.constraints_checked} constraints, "
                f"{self.premise_matches} premise matches)"
            )
        lines = [f"FAILED with {len(self.violations)} violations:"]
        lines += [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(lines)


def semantic_target(
    scenario: MappingScenario, target_instance: Instance
) -> Instance:
    """``J_T ∪ Υ_T(J_T)``: the semantic view of a produced target.

    The live store of a :class:`SemanticDatabase` over the target views,
    seeded with ``target_instance`` — as code tuples when the target is
    columnar, so the chase's encoded rows reach the view fixpoint
    without a decode.
    """
    database = SemanticDatabase(scenario.target_views)
    database.add_instance(target_instance)
    return database.refresh().instance


def _check(
    dependency: Dependency,
    premise_side: Instance,
    target_side: Instance,
    seeded: Optional[FrozenSet[Variable]],
    reason: str,
    violations: List[Violation],
    max_violations: int,
) -> int:
    """Count ``dependency``'s premise matches over ``premise_side`` and
    append (up to ``max_violations``) those no conclusion disjunct
    satisfies over ``target_side``.

    Each disjunct's atoms and comparisons are probed with the match's
    ``seeded`` variables bound (all of them when ``None``); equalities
    compare under the full match.  Violations are appended in canonical
    binding order, so the report does not depend on enumeration order;
    only the smallest ``max_violations`` are kept (a bounded heap, not a
    sort of every violation), and with no room left the premise matches
    are only counted.
    Both sides on one term pool (the product path) run on encoded rows;
    otherwise — including under :func:`reference_evaluator` — every
    match is decoded into a binding.
    """
    if (
        not reference_mode_active()
        and isinstance(premise_side, ColumnarInstance)
        and isinstance(target_side, ColumnarInstance)
        and premise_side.pool is target_side.pool
    ):
        check = _check_encoded
    else:
        check = _check_decoded
    matched, violating = check(
        dependency, premise_side, target_side, seeded, max_violations
    )
    name = dependency.describe()
    violations.extend(Violation(name, binding, reason) for binding in violating)
    return matched


def _check_decoded(dependency, premise_side, target_side, seeded, cap):
    if cap <= 0:
        return sum(1 for _ in evaluate_iter(dependency.premise, premise_side)), []
    matched = 0
    bodies = [
        Conjunction(atoms=disjunct.atoms, comparisons=disjunct.comparisons)
        for disjunct in dependency.disjuncts
    ]

    def unsatisfied():
        nonlocal matched
        for binding in evaluate_iter(dependency.premise, premise_side):
            matched += 1
            seed = (
                binding
                if seeded is None
                else {v: t for v, t in binding.items() if v in seeded}
            )
            if not any(
                all(
                    _resolve(e.left, binding) == _resolve(e.right, binding)
                    for e in disjunct.equalities
                )
                and exists(body, target_side, seed=seed)
                for disjunct, body in zip(dependency.disjuncts, bodies)
            ):
                yield tuple(sorted(binding.items()))

    violating = nsmallest(
        cap,
        unsatisfied(),
        key=lambda items: tuple(term_order_key(t) for _v, t in items),
    )
    return matched, violating


def _resolve(term, binding):
    if isinstance(term, Variable):
        return binding.get(term, term)
    return term


def _check_encoded(dependency, premise_side, target_side, seeded, cap):
    """:func:`_check_decoded` over code rows: premise rows come off the
    encoded plan, each disjunct probes the target with the seeded slots
    copied code for code (one pool, so a code means the same term on
    both sides), and equalities compare codes.  Only violating rows are
    decoded."""
    pool = target_side.pool
    premise = compile_query(dependency.premise, (), premise_side).encoded(pool)
    varlist = premise.varlist
    bound = frozenset(varlist if seeded is None else seeded & set(varlist))
    probes = [
        _ConclusionProbe(disjunct, bound, premise.slot_of, target_side)
        for disjunct in dependency.disjuncts
    ]
    if cap <= 0:
        return sum(map(len, premise.blocks(premise_side))), []
    matched = 0

    def unsatisfied():
        nonlocal matched
        for block in premise.blocks(premise_side):
            matched += len(block)
            for row in block:
                if not any(probe.holds(row) for probe in probes):
                    yield row

    order_key = pool.order_key
    violating = nsmallest(
        cap, unsatisfied(), key=lambda row: tuple(map(order_key, row))
    )
    decode = premise_side.decode_term
    return matched, [
        tuple(zip(varlist, map(decode, row))) for row in violating
    ]


class _ConclusionProbe:
    """One conclusion disjunct lowered onto premise code rows.

    ``equalities`` pair two readers of a row: a premise slot, an
    interned constant, or — for a variable the premise does not bind —
    the variable itself, which (as in the decoded check) only equals
    itself.  ``exists`` is the atoms-and-comparisons existence probe
    over the target side, pinned once per check and seeded straight
    from the premise row (see
    :meth:`~repro.relational.query._EncodedPlan.probe`); it is ``None``
    for a disjunct with neither, which always holds once its
    equalities do.
    """

    __slots__ = ("equalities", "exists")

    def __init__(self, disjunct, bound, slot_of, store) -> None:
        pool = store.pool
        self.equalities = tuple(
            (_reader(e.left, slot_of, pool), _reader(e.right, slot_of, pool))
            for e in disjunct.equalities
        )
        self.exists = None
        if disjunct.atoms or disjunct.comparisons:
            body = Conjunction(
                atoms=disjunct.atoms, comparisons=disjunct.comparisons
            )
            plan = compile_query(body, bound, store).encoded(pool)
            self.exists = plan.probe(
                store, tuple((plan.slot_of[v], slot_of[v]) for v in sorted(bound))
            )

    def holds(self, row) -> bool:
        for left, right in self.equalities:
            if left(row) != right(row):
                return False
        return self.exists is None or self.exists(row)


def _reader(term, slot_of, pool):
    if isinstance(term, Variable):
        slot = slot_of.get(term)
        if slot is None:
            return lambda _row, _term=term: _term
        return itemgetter(slot)
    code = pool.encode(term)
    return lambda _row, _code=code: _code


class ScenarioVerifier:
    """Soundness checks for many candidate targets of one scenario.

    The source side ``I_S ∪ Υ_S(I_S)`` is materialized once — either
    handed in (``source_side``, typically the chase input the pipeline
    already built) or computed on first use — and shared by every
    :meth:`verify` call.  Only the target side, which differs per
    candidate, is materialized per call.
    """

    def __init__(
        self,
        scenario: MappingScenario,
        source_instance: Instance,
        source_side: Optional[Instance] = None,
    ) -> None:
        self.scenario = scenario
        self.source_instance = source_instance
        self._source_side = source_side

    @property
    def source_side(self) -> Instance:
        """``I_S ∪ Υ_S(I_S)``, materialized lazily and kept."""
        if self._source_side is None:
            self._source_side = source_database(
                self.scenario, self.source_instance
            ).instance
        return self._source_side

    def verify(
        self, target_instance: Instance, max_violations: int = 100
    ) -> VerificationReport:
        """Check one candidate target against the semantic scenario.

        Dependencies are checked in scenario order (mappings, then
        target constraints); the first ``max_violations`` violations in
        that order are reported.
        """
        report = VerificationReport(ok=True)
        source_side = self.source_side
        target_side = semantic_target(self.scenario, target_instance)
        for mapping in self.scenario.mappings:
            report.premise_matches += _check(
                mapping, source_side, target_side, mapping.frontier(),
                "no conclusion disjunct satisfied", report.violations,
                max_violations - len(report.violations),
            )
            report.mappings_checked += 1
        for constraint in self.scenario.target_constraints:
            reason = (
                "constraint conclusion not satisfied"
                if constraint.disjuncts
                else "denial premise matched"
            )
            report.premise_matches += _check(
                constraint, target_side, target_side, None, reason,
                report.violations, max_violations - len(report.violations),
            )
            report.constraints_checked += 1
        report.ok = not report.violations
        return report

    def verify_candidates(
        self,
        target_instances: Sequence[Instance],
        max_violations: int = 100,
    ) -> List[VerificationReport]:
        """Check many candidate targets against the one shared source
        side; reports come back in candidate order, identical to
        ``[verify(t) for t in targets]``."""
        return [
            self.verify(target, max_violations=max_violations)
            for target in target_instances
        ]


def verify_solution(
    scenario: MappingScenario,
    source_instance: Instance,
    target_instance: Instance,
    max_violations: int = 100,
    source_side: Optional[Instance] = None,
) -> VerificationReport:
    """Check that ``target_instance`` solves the original semantic scenario.

    ``target_instance`` should contain physical target facts (auxiliary
    ``_grom_req_*`` relations, if present, are ignored by virtue of not
    being mentioned in the scenario's dependencies).  ``source_side``
    lets callers that already hold ``I_S ∪ Υ_S(I_S)`` (the pipeline's
    chase input) skip its re-materialization; verifying several
    candidates is cheaper still through :class:`ScenarioVerifier`.
    """
    return ScenarioVerifier(
        scenario, source_instance, source_side=source_side
    ).verify(target_instance, max_violations=max_violations)
