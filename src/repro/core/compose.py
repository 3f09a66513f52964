"""The paper's "Variants of the Problem" reduction (Section 3).

When both a source and a target semantic schema exist, GROM reduces the
general semantic-to-semantic problem to the source-to-semantic one by
composing two steps: (i) apply the source view definitions to the source
instance, materializing ``Υ_S(I_S)``; (ii) treat the materialized
instance as a new source database.  :func:`extend_source` implements
step (i); the chase then runs over the returned instance.

The materialization lives in a
:class:`~repro.datalog.evaluate.SemanticDatabase`: callers that check
many candidate targets over one scenario (the verifier, the batch
runtime) keep the database via :func:`source_database` and share the
single incrementally-maintained ``I_S ∪ Υ_S(I_S)`` instead of paying
one cold materialization per candidate.
"""

from __future__ import annotations


from repro.core.scenario import MappingScenario
from repro.datalog.evaluate import SemanticDatabase, materialize
from repro.relational.instance import Instance

__all__ = ["extend_source", "materialize_source_views", "source_database"]


def materialize_source_views(
    scenario: MappingScenario, source_instance: Instance
) -> Instance:
    """``Υ_S(I_S)``: just the source view extents (no base facts)."""
    if scenario.source_views is None:
        return Instance()
    return materialize(scenario.source_views, source_instance)


def source_database(
    scenario: MappingScenario, source_instance: Instance, recorder=None
) -> SemanticDatabase:
    """A live semantic database holding ``I_S ∪ Υ_S(I_S)``.

    Reusable and extendable: feed it more source facts and ``refresh()``
    to maintain the view extents semi-naively rather than rebuilding.
    ``recorder`` attaches a flight recorder before the initial
    materialization so its ``datalog.*`` metrics are captured too.
    """
    database = SemanticDatabase(scenario.source_views)
    if recorder is not None:
        database.set_recorder(recorder)
    database.add_instance(source_instance)
    database.refresh()
    return database


def extend_source(
    scenario: MappingScenario, source_instance: Instance, recorder=None
) -> Instance:
    """``I_S ∪ Υ_S(I_S)``: the instance mapping premises evaluate against.

    Without source views this is a plain copy (schema dropped, since the
    chase working instance mixes vocabularies).  The returned instance
    is freshly built and exclusively the caller's; holders that want to
    keep extending it should use :func:`source_database` instead.
    """
    return source_database(scenario, source_instance, recorder).instance
