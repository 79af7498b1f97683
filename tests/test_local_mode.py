from collections import Counter

import numpy as np
import pytest

from propgraph import local_mode, suggest, traversal
from propgraph.config import RunConfig
from propgraph.encoding import HashedNgramEmbedder
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.local_mode import answer_local, answer_naive

from conftest import (
    TWO_HOP_GOLD,
    TWO_HOP_HOP1,
    TWO_HOP_HOP2,
    TWO_HOP_QUESTION,
    build_random_graph,
    two_hop_rules,
)
from test_global_mode import CountingEmbedder, keeps, recording_select_rule


class CountingGateway(LLMGateway):
    """Spy wrapper counting suggest-relevant backend operations."""

    def __init__(self, backend):
        super().__init__(backend)
        self.eval_calls = 0
        self.nextq_calls = 0

    def evaluate_answerable(self, q_start, facts):
        self.eval_calls += 1
        return super().evaluate_answerable(q_start, facts)

    def next_questions(self, q_start, facts, m):
        self.nextq_calls += 1
        return super().next_questions(q_start, facts, m)


def local_cfg(max_iter=1, k=5):
    return RunConfig(max_iter=max_iter, top_k=k, subgraph_max_size=500)


def test_early_exit_when_seeding_suffices(two_hop_graph, embedder):
    # an Eval rule that fires on the hop-1 fact alone answers at iteration 0
    rules = two_hop_rules() + [
        MockRule(
            template="Eval",
            contains="Albert Einstein was born in the city of Ulm.",
            response="SUFFICIENT: Ulm",
        )
    ]
    gateway = LLMGateway(MockChatBackend(rules))
    result = answer_local("Where was Albert Einstein born?", two_hop_graph, gateway, embedder, local_cfg())
    assert result.answer == "Ulm"
    assert not result.failed
    assert result.trace.of_kind("suggest") == []  # no walk ever ran
    assert result.trace.of_kind("result")[0]["iterations"] == 0


def test_two_hop_fixture_answers_after_one_iteration(two_hop_graph, two_hop_gateway, embedder):
    # the seeding round cannot see the bridging fact; one walk reaches it
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, two_hop_gateway, embedder, local_cfg(max_iter=1))
    assert result.answer == TWO_HOP_GOLD
    assert not result.failed
    seed = result.trace.of_kind("seed")[0]
    assert TWO_HOP_HOP1 in seed["kept"]
    assert TWO_HOP_HOP2 not in seed["suggested"]  # top-5 misses the bridge fact
    assert TWO_HOP_HOP2 in result.collected
    first_kept = next(e for e in result.trace.of_kind("suggest") if TWO_HOP_HOP2 in e["kept"])
    assert first_kept["iteration"] == 1
    evals = result.trace.of_kind("eval")
    assert [e["sufficient"] for e in evals] == [False, True]


def test_exhausted_run_falls_back_to_best_effort_answer(two_hop_graph, embedder):
    # no Eval rule ever fires: the loop exhausts and answers from s_loc
    gateway = LLMGateway(
        MockChatBackend(
            [r for r in two_hop_rules() if r.template != "Eval"]
            + [MockRule(template="FinalAnswer", response="best effort")]
        )
    )
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, gateway, embedder, local_cfg(max_iter=2))
    assert result.failed
    assert result.answer == "best effort"
    final = result.trace.of_kind("result")[0]
    assert final["exhausted"] and final["iterations"] == 2


def test_suggest_calls_match_active_question_count(two_hop_graph, embedder):
    # two follow-up questions at iteration 1 mean two walks at iteration 2
    rules = [r for r in two_hop_rules() if r.template != "Eval"] + [
        MockRule(
            template="NextQ",
            response="1. Which country is Ulm located in?\n2. Where is the city of Ulm?",
        ),
    ]
    gateway = CountingGateway(MockChatBackend(rules))
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, gateway, embedder, local_cfg(max_iter=2))
    per_iter = {}
    for event in result.trace.of_kind("suggest"):
        per_iter.setdefault(event["iteration"], []).append(event["query"])
    assert len(per_iter[1]) == 1  # the starting question only
    assert len(per_iter[2]) == 2  # both follow-ups
    # one sufficiency check after seeding plus one per iteration
    assert gateway.eval_calls == 3
    # follow-ups for the second iteration only: none after the last
    assert gateway.nextq_calls == 1


def test_follow_up_cap_comes_from_the_run_config(two_hop_graph, embedder):
    # the gateway holds no cap of its own: RunConfig.max_subquestions bounds both the prompt and the result
    nextq_prompts = []

    def three_questions(prompt):
        nextq_prompts.append(prompt)
        return "1. Which country is Ulm located in?\n2. Where is the city of Ulm?\n3. Who was born in Ulm?"

    rules = [r for r in two_hop_rules() if r.template != "Eval"] + [MockRule(template="NextQ", respond=three_questions)]
    cfg = RunConfig(max_iter=2, top_k=5, subgraph_max_size=500, max_subquestions=1)
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, LLMGateway(MockChatBackend(rules)), embedder, cfg)
    events = result.trace.of_kind("next_questions")
    assert [e["questions"] for e in events] == [["Which country is Ulm located in?"]]
    assert [p.slots["max_questions"] for p in nextq_prompts] == ["1"]


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
def test_an_exhausted_answer_asks_for_follow_ups_after_every_iteration_but_the_last(max_iter):
    # the default mock never finds the facts sufficient, and this graph never runs out of suggestions
    graph = build_random_graph(np.random.default_rng(11), 240, dim=16)
    gateway = CountingGateway(MockChatBackend())
    question = "Which proposition number links entity number 7 to passage number 3?"
    cfg = RunConfig(max_iter=max_iter, top_k=6, subgraph_max_size=40)
    result = answer_local(question, graph, gateway, HashedNgramEmbedder(dim=16), cfg)
    assert result.trace.of_kind("result")[0] == {
        "event": "result", "answer": result.answer, "failed": True, "exhausted": True, "iterations": max_iter
    }
    assert not result.trace.of_kind("pool_empty")
    assert gateway.nextq_calls == max_iter - 1
    assert [e["iteration"] for e in result.trace.of_kind("next_questions")] == list(range(1, max_iter))


def test_an_iteration_that_keeps_nothing_asks_for_no_follow_ups(two_hop_graph, embedder):
    # the follow-up shares no content word with any fact, so the mock Select keeps nothing for it
    rules = [r for r in two_hop_rules() if r.template != "Eval"] + [
        MockRule(template="NextQ", response="1. Xylophone zygote quorum?")
    ]
    gateway = CountingGateway(MockChatBackend(rules))
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, gateway, embedder, local_cfg(max_iter=5))
    assert [e["kept"] for e in result.trace.of_kind("suggest") if e["iteration"] == 2] == [[]]
    assert result.trace.of_kind("pool_empty") == [{"event": "pool_empty", "iteration": 3}]
    assert gateway.nextq_calls == 1
    assert [e["iteration"] for e in result.trace.of_kind("next_questions")] == [1]


class ScriptedLoop(MockChatBackend):
    """Select keeps all but in iteration ``dead``; Eval first reads sufficient after iteration ``sufficient``.

    Each pass of the loop checks sufficiency before it walks, so the Eval
    calls made so far number the iteration a Select belongs to (0 at
    seeding). Each NextQ asks a question text not asked before, so every
    wave's candidates are unjudged and each wave sends one Select.
    """

    def __init__(self, dead=None, sufficient=None):
        super().__init__()
        self.dead, self.sufficient = dead, sufficient
        self.calls = Counter()

    def complete(self, prompt):
        template = prompt.template_id.value
        self.calls[template] += 1
        if template == "Select":
            count = len(prompt.slots["candidates"].splitlines())
            if self.calls["Eval"] == self.dead:
                return "KEEP: none"
            return "KEEP: " + ", ".join(str(i + 1) for i in range(count))
        if template == "Eval":
            return "SUFFICIENT: found" if self.calls["Eval"] - 1 == self.sufficient else "INSUFFICIENT"
        if template == "NextQ":
            return f"1. Which passage number holds entity number {self.calls['NextQ']}?"
        return super().complete(prompt)


def scripted_answer(monkeypatch, max_iter, dead=None, sufficient=None):
    """A local answer on a seeded random graph under :class:`ScriptedLoop`; its backend and each carving's pool."""
    pools = []
    carve = local_mode.carve_local
    monkeypatch.setattr(
        local_mode, "carve_local", lambda graph, seeds, cfg: pools.append(list(seeds)) or carve(graph, seeds, cfg)
    )
    graph = build_random_graph(np.random.default_rng(11), 240, dim=16)
    backend = ScriptedLoop(dead, sufficient)
    cfg = RunConfig(max_iter=max_iter, top_k=6, subgraph_max_size=40)
    result = answer_local(CARVED_QUESTION, graph, LLMGateway(backend), HashedNgramEmbedder(dim=16), cfg)
    return result, backend, pools


def kept_in(result, iteration):
    return [c for e in result.trace.of_kind("suggest") if e["iteration"] == iteration for c in e["kept"]]


@pytest.mark.parametrize("dead", [1, 2, 3])
def test_an_iteration_that_keeps_nothing_ends_the_loop(monkeypatch, dead):
    # the first iteration follows the rule of every later one: no NextQ
    # after it, and the next iteration stops at pool_empty
    result, backend, pools = scripted_answer(monkeypatch, max_iter=5, dead=dead)
    assert kept_in(result, dead) == []
    assert all(kept_in(result, i) for i in range(1, dead))
    assert [e["iteration"] for e in result.trace.of_kind("next_questions")] == list(range(1, dead))
    assert backend.calls["NextQ"] == dead - 1
    assert result.trace.of_kind("pool_empty") == [{"event": "pool_empty", "iteration": dead + 1}]
    assert result.trace.of_kind("result")[0]["iterations"] == dead + 1
    # an iteration walks from what the one before kept; after a first
    # iteration that kept something, the second walks from the seeds too
    [seed] = result.trace.of_kind("seed")
    assert pools == [seed["kept"], seed["kept"] + kept_in(result, 1), kept_in(result, 2)][:dead]


@pytest.mark.parametrize("sufficient", [None, 0, 1, 2])
@pytest.mark.parametrize("dead", [None, 1, 2])
@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_every_exit_of_the_loop(monkeypatch, max_iter, dead, sufficient):
    # the spec: iterations walk until the budget runs out, one keeps
    # nothing, or an Eval reads sufficient; NextQ comes before every walk
    # but the first, and an iteration that kept nothing before the budget
    # ran out is followed by pool_empty
    last = min(max_iter, dead or max_iter)
    answered = sufficient is not None and sufficient <= last
    walks = sufficient if answered else last
    kinds = ["seed", "eval"]
    for iteration in range(1, walks + 1):
        kinds += (["next_questions"] if iteration > 1 else []) + ["suggest", "eval"]
    if not answered and last < max_iter:
        kinds.append("pool_empty")
    kinds.append("result")

    result, backend, pools = scripted_answer(monkeypatch, max_iter, dead, sufficient)
    assert [e["event"] for e in result.trace.events] == kinds
    calls = {t: backend.calls[t] for t in ("Eval", "NextQ", "Select", "FinalAnswer")}
    assert calls == {
        "Eval": walks + 1, "NextQ": max(walks - 1, 0), "Select": walks + 1, "FinalAnswer": int(not answered)
    }
    assert len(pools) == walks
    final = result.trace.of_kind("result")[0]
    assert final["iterations"] == walks + (not answered and last < max_iter)
    assert (final["failed"], final["exhausted"], result.failed) == (not answered,) * 3
    assert (result.answer == "found") == answered


def test_collected_pool_grows_monotonically(two_hop_graph, two_hop_gateway, embedder):
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, two_hop_gateway, embedder, local_cfg(max_iter=3))
    seen = set(result.trace.of_kind("seed")[0]["kept"])
    for event in result.trace.of_kind("suggest"):
        seen |= set(event["kept"])
    assert set(result.collected) == seen


def test_deterministic_trace(two_hop_graph, embedder):
    first = answer_local(
        TWO_HOP_QUESTION, two_hop_graph, LLMGateway(MockChatBackend(two_hop_rules())), embedder, local_cfg()
    )
    second = answer_local(
        TWO_HOP_QUESTION, two_hop_graph, LLMGateway(MockChatBackend(two_hop_rules())), embedder, local_cfg()
    )
    assert first.trace.events == second.trace.events
    assert first.answer == second.answer


def test_empty_seed_pool_short_circuits(two_hop_graph, embedder):
    # select prunes everything: no walk can run, fallback answers anyway
    rules = [
        MockRule(template="Select", response="KEEP: none"),
        MockRule(template="FinalAnswer", response="nothing collected"),
    ]
    gateway = LLMGateway(MockChatBackend(rules))
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, gateway, embedder, local_cfg(max_iter=2))
    assert result.failed
    assert result.answer == "nothing collected"
    assert result.trace.of_kind("pool_empty")
    assert result.trace.of_kind("suggest") == []


def test_answer_naive_bypasses_selection(two_hop_graph, embedder):
    rules = two_hop_rules() + [
        MockRule(
            template="FinalAnswer",
            contains="Albert Einstein was born in the city of Ulm.",
            response="Ulm",
        )
    ]
    backend = MockChatBackend(rules)
    gateway = CountingGateway(backend)
    result = answer_naive("Where was Albert Einstein born?", two_hop_graph, gateway, embedder, RunConfig(top_k=5))
    assert result.answer == "Ulm"
    assert gateway.eval_calls == 0  # no selection, no sufficiency checks
    assert len(result.trace.of_kind("seed")[0]["suggested"]) == 5


def test_naive_misses_bridge_while_local_catches_it(two_hop_graph, two_hop_gateway, embedder):
    naive = answer_naive(TWO_HOP_QUESTION, two_hop_graph, two_hop_gateway, embedder, RunConfig(top_k=5))
    assert TWO_HOP_HOP2 not in naive.collected
    local = answer_local(TWO_HOP_QUESTION, two_hop_graph, two_hop_gateway, embedder, local_cfg(max_iter=1))
    assert TWO_HOP_HOP2 in local.collected
    assert local.answer == TWO_HOP_GOLD


def test_one_carving_per_iteration_serves_every_question(two_hop_graph, embedder, tmp_path, monkeypatch):
    # NextQ asks two questions, so iteration 2 walks twice from the same pool
    rules = [r for r in two_hop_rules() if r.template != "Eval"] + [
        MockRule(
            template="NextQ",
            response="1. Which country is Ulm located in?\n2. Where is the city of Ulm?",
        ),
    ]
    carvings = []
    extract = suggest.extract_subgraph
    monkeypatch.setattr(suggest, "extract_subgraph", lambda *a: carvings.append(a[1]) or extract(*a))

    def run(path):
        carvings.clear()
        result = answer_local(TWO_HOP_QUESTION, two_hop_graph, LLMGateway(MockChatBackend(rules)), embedder, local_cfg(max_iter=2))
        result.trace.write_jsonl(path)
        return result, list(carvings)

    shared, shared_carvings = run(tmp_path / "shared.jsonl")
    walks = shared.trace.of_kind("suggest")
    assert [e["iteration"] for e in walks] == [1, 2, 2]
    assert len(shared_carvings) == 2
    # each question carving its own subgraph, as suggest_local does when given none
    monkeypatch.setattr(local_mode, "carve_local", lambda *a: None)
    unshared, unshared_carvings = run(tmp_path / "unshared.jsonl")
    assert unshared_carvings == [shared_carvings[e["iteration"] - 1] for e in walks]
    assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "unshared.jsonl").read_bytes()


def test_each_iteration_builds_its_structural_operator_and_length_groups_once(two_hop_graph, embedder, monkeypatch):
    # NextQ asks two questions, so iteration 2 walks twice over one carving
    rules = [r for r in two_hop_rules() if r.template != "Eval"] + [
        MockRule(
            template="NextQ",
            response="1. Which country is Ulm located in?\n2. Where is the city of Ulm?",
        ),
    ]
    builds, patterns = [], []
    build, pattern = suggest.build_structural_transition, traversal._Pattern
    monkeypatch.setattr(suggest, "build_structural_transition", lambda view: builds.append(view) or build(view))
    monkeypatch.setattr(traversal, "_Pattern", lambda matrix: patterns.append(matrix) or pattern(matrix))
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, LLMGateway(MockChatBackend(rules)), embedder, local_cfg(max_iter=2))
    assert [e["iteration"] for e in result.trace.of_kind("suggest")] == [1, 2, 2]
    assert len(builds) == 2
    assert len(patterns) == 2


# ----------------------------------------------------------------------
# one verdict per question text
# ----------------------------------------------------------------------

CARVED_QUESTION = "Which proposition number links entity number 7 to passage number 3?"
FOLLOW_UP = "Which passage number holds entity number 7?"


def recorded_answer(next_questions, embedder=None, prompts=None):
    """A local answer on a seeded random graph whose Select keeps what ``keeps`` keeps; the (question, ids) of each Select."""
    prompts = [] if prompts is None else prompts
    rules = [
        recording_select_rule(prompts),
        MockRule(template="NextQ", response="\n".join(f"{i + 1}. {q}" for i, q in enumerate(next_questions))),
    ]
    graph = build_random_graph(np.random.default_rng(11), 120, dim=16)
    cfg = RunConfig(top_k=6, subgraph_max_size=40, max_iter=3)
    embedder = embedder or HashedNgramEmbedder(dim=16)
    result = answer_local(CARVED_QUESTION, graph, LLMGateway(MockChatBackend(rules)), embedder, cfg)
    return result, prompts


def test_a_suggestion_pruned_at_seeding_is_not_sent_again_for_its_question():
    result, prompts = recorded_answer([CARVED_QUESTION, FOLLOW_UP])
    [seed] = result.trace.of_kind("seed")
    walks = result.trace.of_kind("suggest")
    pruned = set(seed["suggested"]) - set(seed["kept"])
    again = pruned & {c for e in walks if e["query"] == CARVED_QUESTION for c in e["candidates"]}
    assert again  # offered again to the starting question, as its candidates field shows
    judged = {(CARVED_QUESTION, c) for c in seed["suggested"]}
    expected = [(CARVED_QUESTION, seed["suggested"])]
    for event in walks:
        fresh = [c for c in event["candidates"] if (event["query"], c) not in judged]
        judged.update((event["query"], c) for c in fresh)
        if fresh:  # an iteration's questions differ here, and each is offered at most top_k
            expected.append((event["query"], fresh))
        assert event["kept"] == [c for c in event["candidates"] if keeps(c)]
    assert prompts == expected
    assert len(prompts) < 1 + sum(1 for e in walks if e["candidates"])  # a wave with nothing unjudged sends none
    for prop in again:
        assert sum(prop in ids for question, ids in prompts if question == CARVED_QUESTION) == 1


def test_no_local_verdict_crosses_question_texts_or_answers():
    prompts = []
    recorded_answer([FOLLOW_UP], prompts=prompts)
    first = list(prompts)
    by_text = {}
    for question, ids in first:
        by_text.setdefault(question, set()).update(ids)
    assert by_text[CARVED_QUESTION] & by_text[FOLLOW_UP]  # judged against each text
    assert any(not keeps(p) for p in by_text[CARVED_QUESTION] & by_text[FOLLOW_UP])
    recorded_answer([FOLLOW_UP], prompts=prompts)
    assert prompts == first + first


def test_each_question_text_is_embedded_once_per_answer():
    embedder = CountingEmbedder(dim=16)
    result, _ = recorded_answer([CARVED_QUESTION, FOLLOW_UP], embedder)
    assert [e["query"] for e in result.trace.of_kind("suggest")] == [CARVED_QUESTION] + [CARVED_QUESTION, FOLLOW_UP] * 2
    assert embedder.batches == [[CARVED_QUESTION], [FOLLOW_UP]]
