"""Evaluation harness: a question that raises does not stop the eval."""

import json

from propgraph import RunConfig
from propgraph.errors import BackendUnavailable
from propgraph.evaluation import QARecord, run_eval
from propgraph.llm import LLMGateway, MockChatBackend, MockRule

from test_cli import EVAL_RULES


def outage(prompt):
    raise BackendUnavailable("chat endpoint failed after 3 attempts")


def test_run_eval_records_a_raising_question_and_goes_on(two_hop_graph, embedder, tmp_path):
    failing = EVAL_RULES[1][0]
    rules = [MockRule(template="FinalAnswer", slot_equals={"question": failing}, respond=outage)]
    rules += [MockRule(template="FinalAnswer", slot_equals={"question": q}, response=a) for q, a in EVAL_RULES]
    records = [QARecord(q, [a]) for q, a in EVAL_RULES]
    artifacts = []
    for workers in (1, 3):
        out = tmp_path / f"workers{workers}"
        config = RunConfig(top_k=5, eval_workers=workers)
        report = run_eval(records, two_hop_graph, LLMGateway(MockChatBackend(rules)), embedder, config, out_dir=out)
        assert report == {"count": 3, "exact_match": 2 / 3, "f1": 2 / 3, "failed": 1}
        rows = [json.loads(line) for line in (out / "questions.jsonl").read_text().splitlines()]
        assert [row.get("error") for row in rows] == [None, "BackendUnavailable", None]
        assert rows[1] == {
            "index": 1, "question": failing, "gold_answers": [EVAL_RULES[1][1]], "mode": "naive",
            "answer": "", "failed": True, "em": 0, "f1": 0.0, "error": "BackendUnavailable",
        }
        assert [row["em"] for row in rows] == [1, 0, 1]
        artifacts.append(((out / "report.json").read_bytes(), (out / "questions.jsonl").read_bytes()))
    assert artifacts[0] == artifacts[1]  # serial and threaded runs write the same bytes
