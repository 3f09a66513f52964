"""Guard: the encoded chase and verify paths never decode a term.

The greedy ded chase and the soundness verifier run on code rows end to
end — comparisons read the pool's typed keys, satisfaction and
conclusion probes seed index keys code for code.  Decoding belongs to
the edges: rendering violations or failure messages, and
``strip_auxiliary``'s per-distinct-code schema check (not exercised
here).  Counting :meth:`TermPool.decode` calls over a restricted-policy
run on the running example keeps a later change from quietly bringing
a decoded path back.
"""

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.engine import ChaseConfig
from repro.core.rewriter import rewrite
from repro.core.verify import verify_solution
from repro.relational.kernel import TermPool
from repro.scenarios.running_example import (
    build_scenario,
    generate_source_instance,
)


@pytest.fixture
def decode_calls(monkeypatch):
    calls = []
    decode = TermPool.decode

    def counting(self, code):
        calls.append(code)
        return decode(self, code)

    monkeypatch.setattr(TermPool, "decode", counting)
    return calls


def test_greedy_chase_and_verify_make_no_decode_calls(decode_calls):
    scenario = build_scenario(include_key=True)
    source = generate_source_instance(products=250, stores=10, seed=3)
    rewritten = rewrite(scenario)
    decode_calls.clear()
    result = GreedyDedChase(
        rewritten.dependencies,
        rewritten.source_relations(),
        config=ChaseConfig(policy="restricted"),
    ).run(source)
    assert result.ok, result.failure_reason
    assert result.stats.premise_matches > 0
    assert decode_calls == []
    report = verify_solution(scenario, source, result.target)
    assert report.ok, str(report)
    assert report.premise_matches > 0
    assert decode_calls == []


def test_the_guard_sees_decodes(decode_calls):
    """The counter is live: a violation report decodes its binding."""
    scenario = build_scenario(include_key=True)
    source = generate_source_instance(products=20, stores=3, seed=3)
    rewritten = rewrite(scenario)
    result = GreedyDedChase(
        rewritten.dependencies, rewritten.source_relations()
    ).run(source)
    empty_target = result.target.restricted_to(())
    decode_calls.clear()
    report = verify_solution(scenario, source, empty_target)
    assert not report.ok
    assert decode_calls
