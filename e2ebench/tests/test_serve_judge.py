"""A corrupted, failed or retried serve answer counts as failed."""

import json

from e2ebench import inputs, serve
from e2ebench.spans import Recorder
from repro.serve.engine import execute
from repro.serve.protocol import parse_query
from repro.serve.scenario import ScenarioCache
from repro.topology.registry import create


def _answered(graph, stream):
    scenarios = ScenarioCache(graph)
    sent = []
    for i, (_, op, params) in enumerate(stream):
        answer = json.loads(json.dumps(execute(graph, parse_query(op, params), scenarios)))
        sent.append(serve.Sent(i, 0.0, 0.0, 0.01, answer, None, 1))
    return sent


def test_correct_answers_pass_and_a_corrupted_one_fails():
    graph = create("abccc", n=4, k=2, s=2).compiled()
    stream = inputs.request_stream(graph, 9, 24)
    sent = _answered(graph, stream)
    failed, problems, _, _ = serve.judge(graph, stream, sent, None, 9, Recorder(False))
    assert failed == set() and problems == []

    route = next(
        s for s in sent[3:] if stream[s.index][1] == "route" and "link_hops" in s.answer
    )
    route.answer["link_hops"] += 1
    sent[1].error = "overload"  # shed and never answered
    sent[2].attempts = 2  # answered only after a retry
    failed, problems, _, _ = serve.judge(graph, stream, sent, None, 9, Recorder(False))
    assert failed == {route.index, 1, 2}
    assert len(problems) == 3


def test_traced_judge_times_execute_per_kind():
    graph = create("abccc", n=4, k=2, s=2).compiled()
    stream = inputs.request_stream(graph, 4, 40)
    sent = _answered(graph, stream)
    _, _, execute_ms, transport_ms = serve.judge(graph, stream, sent, None, 4, Recorder(True))
    assert sum(len(v) for v in execute_ms.values()) == len(sent) == len(transport_ms)
