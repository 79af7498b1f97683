import re

import pytest

from propgraph.errors import BackendUnavailable, ExtractionFailed
from propgraph.llm import (
    ChatBackend,
    EvalVerdict,
    LLMGateway,
    MockChatBackend,
    MockRule,
    parse_eval,
    parse_keep,
    parse_numbered,
    parse_scored_answer,
)
from propgraph.prompts import TemplateId, render, template_slots
from propgraph.tokens import estimate_tokens
from propgraph.usage import UsageLedger


def gateway_with(rules):
    return LLMGateway(MockChatBackend(rules))


DUMMY_SLOTS = {
    "passage": "p",
    "entities": "e",
    "question": "q",
    "candidates": "c",
    "facts": "f",
    "context": "x",
    "count": "3",
    "max_questions": "3",
}


def test_every_template_renders_without_leftover_slots():
    for template_id in TemplateId:
        slots = {name: DUMMY_SLOTS[name] for name in template_slots(template_id)}
        prompt = render(template_id, **slots)
        for name in template_slots(template_id):
            assert "{" + name + "}" not in prompt.rendered


def test_render_requires_all_slots():
    with pytest.raises(KeyError):
        render(TemplateId.SELECT, question="only one")


def test_parse_numbered_variants():
    assert parse_numbered("1. Paris\n2) France\n- Berlin") == ["Paris", "France", "Berlin"]
    assert parse_numbered("NONE") == []
    assert parse_numbered("(none)") == []
    assert parse_numbered("free prose with no list at all") is None


def test_parse_keep_variants():
    assert parse_keep("KEEP: 1, 3", 4) == [0, 2]
    assert parse_keep("keep: none", 4) == []
    assert parse_keep("KEEP: 2, 9", 3) == [1]  # out of range dropped
    assert parse_keep("whatever", 3) is None


def test_parse_eval_variants():
    verdict = parse_eval("SUFFICIENT: France")
    assert verdict.sufficient and verdict.answer == "France"
    assert parse_eval("INSUFFICIENT").sufficient is False
    assert parse_eval("maybe?") is None


def test_parse_scored_answer_variants():
    assert parse_scored_answer("SCORE: 80\nANSWER: partial text") == ("partial text", 80)
    assert parse_scored_answer("SCORE: 120\nANSWER: x") == ("x", 100)  # clamped
    assert parse_scored_answer("no score here") is None


# ----------------------------------------------------------------------
# gateway operations against the scripted mock
# ----------------------------------------------------------------------


def test_extract_entities_scripted():
    gw = gateway_with([MockRule(template="NER", contains="Paris is in France.", response="1. Paris\n2. France")])
    assert gw.extract_entities("Paris is in France.") == ["Paris", "France"]


def test_extract_entities_no_names():
    gw = gateway_with([MockRule(template="NER", contains="nothing named", response="NONE")])
    assert gw.extract_entities("nothing named here") == []


def test_extract_entities_dedupes_case_insensitively():
    gw = gateway_with([MockRule(template="NER", response="1. Paris\n2. paris\n3. France")])
    assert gw.extract_entities("text") == ["Paris", "France"]


def test_extract_entities_malformed_twice_raises():
    gw = gateway_with([MockRule(template="NER", response="garbled ramble")])
    with pytest.raises(ExtractionFailed):
        gw.extract_entities("text")


def test_extract_propositions_scripted_and_subset_rule():
    gw = gateway_with(
        [
            MockRule(
                template="Propositions",
                response="1. Paris is located in France. | Paris; France; Berlin",
            )
        ]
    )
    props = gw.extract_propositions("Paris is in France.", ["Paris", "France"])
    assert props == [("Paris is located in France.", ["Paris", "France"])]  # Berlin dropped


def test_extract_propositions_empty_entity_list_allowed():
    gw = gateway_with([MockRule(template="Propositions", response="1. Water is wet.")])
    assert gw.extract_propositions("Water is wet.", []) == [("Water is wet.", [])]


def test_select_default_keyword_rule():
    gw = gateway_with([])
    assert gw.select_relevant("Where is Paris?", ["Paris is in France.", "Cats are mammals."]) == [0]


def test_select_single_candidate_kept():
    gw = gateway_with([MockRule(template="Select", response="KEEP: 1")])
    assert gw.select_relevant("q", ["only one"]) == [0]


def test_select_fail_open_on_malformed_output():
    gw = gateway_with([MockRule(template="Select", response="mumbling, no verdict")])
    assert gw.select_relevant("q", ["a", "b", "c"]) == [0, 1, 2]


def test_select_verdict_always_partitions():
    gw = gateway_with([MockRule(template="Select", response="KEEP: 3, 2, 3")])
    assert gw.select_relevant("q", ["a", "b", "c"]) == [1, 2]  # ascending, each index once


def test_eval_scripted_answer_and_degradations():
    gw = gateway_with([MockRule(template="Eval", contains="France", response="SUFFICIENT: France")])
    assert gw.evaluate_answerable("q", ["Paris is in France."]).answer == "France"
    assert gw.evaluate_answerable("q", []).sufficient is False  # default INSUFFICIENT
    garbled = gateway_with([MockRule(template="Eval", response="???")])
    assert garbled.evaluate_answerable("q", ["fact"]).sufficient is False


def test_next_questions_scripted_capped_and_fallback():
    gw = gateway_with(
        [MockRule(template="NextQ", response="1. Which country is Paris in?\n2. Where is France?")]
    )
    assert gw.next_questions("q0", ["f"], 3) == ["Which country is Paris in?", "Where is France?"]
    five = gateway_with([MockRule(template="NextQ", response="1. a\n2. b\n3. c\n4. d\n5. e")])
    assert five.next_questions("q0", ["f"], 3) == ["a", "b", "c"]  # capped at 3
    garbled = gateway_with([MockRule(template="NextQ", response="nothing here")])
    assert garbled.next_questions("q0", ["f"], 3) == ["q0"]


def test_decompose_exact_count_pad_truncate():
    one = gateway_with([MockRule(template="Decompose", response="1. sub")])
    assert one.decompose("q0", 1) == ["sub"]
    seven = gateway_with(
        [MockRule(template="Decompose", response="\n".join(f"{i}. s{i}" for i in range(1, 8)))]
    )
    padded = seven.decompose("q0", 10)
    assert len(padded) == 10 and padded[7:] == ["q0", "q0", "q0"]
    garbled = gateway_with([MockRule(template="Decompose", response="???")])
    assert garbled.decompose("q0", 4) == ["q0"] * 4
    with pytest.raises(ValueError):
        one.decompose("q0", 0)


class GarbledBackend(ChatBackend):
    """Answers every prompt with an unparseable ``???`` and keeps the prompts."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return "???"


# template, ledger stage, operation, degraded result (ExtractionFailed: none, it raises)
DEGRADED = [
    ("NER", "index", lambda gw: gw.extract_entities("text"), ExtractionFailed),
    ("Propositions", "index", lambda gw: gw.extract_propositions("text", ["E"]), ExtractionFailed),
    ("Select", "suggest_select", lambda gw: gw.select_relevant("q", ["a", "b", "c"]), [0, 1, 2]),
    ("Eval", "eval", lambda gw: gw.evaluate_answerable("q", ["f"]), EvalVerdict(False)),
    ("NextQ", "suggest_select", lambda gw: gw.next_questions("q0", ["f"], 3), ["q0"]),
    ("Decompose", "suggest_select", lambda gw: gw.decompose("q0", 2), ["q0", "q0"]),
    ("IntermediaryAnswer", "answer", lambda gw: gw.intermediary_answer("q", "chunk"), ("", 0)),
]


@pytest.mark.parametrize("template, stage, op, degraded", DEGRADED, ids=[row[0] for row in DEGRADED])
def test_unparseable_completion_is_asked_twice_then_degrades(template, stage, op, degraded):
    backend, ledger = GarbledBackend(), UsageLedger()
    gw = LLMGateway(backend, ledger)
    if degraded is ExtractionFailed:
        with pytest.raises(ExtractionFailed, match=re.escape(f"{template}: unparseable completion: '???'")):
            op(gw)
    else:
        assert op(gw) == degraded
    assert [p.template_id.value for p in backend.prompts] == [template, template]
    assert backend.prompts[0] == backend.prompts[1]
    assert ledger.snapshot()[stage] == {
        "prompt_tokens": 2 * estimate_tokens(backend.prompts[0].rendered),
        "completion_tokens": 2 * estimate_tokens("???"),
    }


def test_intermediary_answer_default_scoring_and_failure():
    gw = gateway_with([])
    answer, score = gw.intermediary_answer("soil health", "soil health improves yields\nunrelated line")
    assert score == 80 and "soil" in answer
    answer, score = gw.intermediary_answer("soil health", "quantum chromodynamics")
    assert score == 0
    garbled = gateway_with([MockRule(template="IntermediaryAnswer", response="not structured")])
    assert garbled.intermediary_answer("q", "chunk") == ("", 0)


def test_final_answer_echoes_first_context_line():
    gw = gateway_with([])
    assert gw.final_answer("q", ["first line", "second line"]) == "first line"
    assert gw.final_answer("the question", []) == "the question"


class _FailingBackend(ChatBackend):
    def complete(self, prompt):
        raise BackendUnavailable("down")


def test_transport_failure_surfaces():
    gw = LLMGateway(_FailingBackend())
    with pytest.raises(BackendUnavailable):
        gw.final_answer("q", ["ctx"])


def test_mock_backend_is_pure():
    gw = MockChatBackend([])
    prompt = render(TemplateId.EVAL, question="q", facts="1. f")
    assert gw.complete(prompt) == gw.complete(prompt)


def test_mock_rule_from_file(tmp_path):
    script = tmp_path / "rules.json"
    script.write_text('[{"template": "Eval", "contains": "magic", "response": "SUFFICIENT: yes"}]')
    backend = MockChatBackend.from_file(script)
    prompt = render(TemplateId.EVAL, question="q", facts="1. magic fact")
    assert backend.complete(prompt) == "SUFFICIENT: yes"


def test_usage_ledger_counts_by_stage():
    ledger = UsageLedger()
    gw = LLMGateway(MockChatBackend([]), ledger=ledger)
    gw.evaluate_answerable("q", ["a fact"])
    gw.final_answer("q", ["ctx"])
    snap = ledger.snapshot()
    assert snap["eval"]["prompt_tokens"] > 0
    assert snap["answer"]["prompt_tokens"] > 0
    assert snap["index"]["prompt_tokens"] == 0
    total = sum(snap[s]["prompt_tokens"] for s in ("index", "suggest_select", "eval", "answer"))
    assert snap["total"]["prompt_tokens"] == total
