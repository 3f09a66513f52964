"""Chase outcomes: status, produced instance, statistics and traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.relational.instance import Instance

__all__ = ["ChaseStatus", "ChaseStats", "ChaseResult"]


class ChaseStatus(enum.Enum):
    """How a chase run ended."""

    SUCCESS = "success"
    FAILURE = "failure"
    """An egd equated distinct constants, a denial fired, or a required
    disjunct comparison was unsatisfiable — the scenario has no solution
    on this branch."""

    NONTERMINATION = "nontermination"
    """Step/round budget exhausted; the scenario may not terminate."""

    def __str__(self) -> str:
        return self.value


@dataclass
class ChaseStats:
    """Counters accumulated during one chase run."""

    rounds: int = 0
    tgd_fires: int = 0
    egd_unifications: int = 0
    facts_created: int = 0
    nulls_created: int = 0
    premise_matches: int = 0
    null_rewrites: int = 0
    elapsed_seconds: float = 0.0

    dependencies_pruned: int = 0
    """Dependencies the static analyzer proved dead for this run's base
    instance (their premise mentions a never-populatable relation); the
    engine never enumerates them."""

    enumerations_skipped: int = 0
    """Enumerate phases skipped without calling the sharder — dead
    dependencies plus delta rounds whose new facts cannot touch the
    premise."""

    def merge(self, other: "ChaseStats") -> "ChaseStats":
        return ChaseStats(
            rounds=self.rounds + other.rounds,
            tgd_fires=self.tgd_fires + other.tgd_fires,
            egd_unifications=self.egd_unifications + other.egd_unifications,
            facts_created=self.facts_created + other.facts_created,
            nulls_created=self.nulls_created + other.nulls_created,
            premise_matches=self.premise_matches + other.premise_matches,
            null_rewrites=self.null_rewrites + other.null_rewrites,
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            dependencies_pruned=self.dependencies_pruned
            + other.dependencies_pruned,
            enumerations_skipped=self.enumerations_skipped
            + other.enumerations_skipped,
        )


@dataclass
class ChaseResult:
    """The outcome of a chase run.

    ``target`` is the produced physical target instance (source and
    auxiliary requirement relations stripped); ``working`` is the full
    working instance for diagnosis.  ``failure_reason`` explains
    FAILURE/NONTERMINATION outcomes.  For greedy ded runs,
    ``branch_selection`` records which disjunct of each ded the winning
    standard scenario used and ``scenarios_tried`` how many scenarios
    were attempted before success (or exhaustion).
    """

    status: ChaseStatus
    target: Instance
    working: Optional[Instance] = None
    stats: ChaseStats = field(default_factory=ChaseStats)
    failure_reason: str = ""
    branch_selection: Optional[Dict[str, int]] = None
    scenarios_tried: int = 0
    sharding: str = "serial"
    """How the enumerate phase was sharded (``serial`` or ``process:N``
    — see :mod:`repro.chase.parallel`)."""

    branch_racing: str = "serial"
    """How the disjunctive search raced its derived scenarios
    (``serial`` or ``process:N`` — see :mod:`repro.chase.race`)."""

    branch_timings: Optional[List[Dict[str, object]]] = None
    """Per derived-scenario timings of the greedy ded sweep, in
    canonical selection order up to the winner: ``index``, ``selection``,
    ``status``, ``seconds`` and the ``worker`` that chased it."""

    guards: str = "enforced"
    """``enforced`` when the run kept its step budget and bounded
    trigger memory, ``dropped`` when a static termination proof let the
    engine run unbudgeted with exact trigger memory (see
    :meth:`repro.analysis.TerminationReport.proven_for`)."""

    trace: Optional[Dict[str, object]] = None
    """Flight-recorder payload (spans + metric snapshot) when the run
    owned its recorder — i.e. tracing was enabled via ``config.trace``
    and no external recorder was passed in.  Raced branches use this
    field to ship their trace across the process boundary: the payload
    is plain picklable data (see :meth:`repro.obs.FlightRecorder.to_payload`)."""

    @property
    def ok(self) -> bool:
        return self.status is ChaseStatus.SUCCESS

    def __str__(self) -> str:
        if self.ok:
            return (
                f"chase: success in {self.stats.rounds} rounds, "
                f"{len(self.target)} target facts, "
                f"{self.stats.nulls_created} nulls"
            )
        return f"chase: {self.status} ({self.failure_reason})"
