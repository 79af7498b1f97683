from propgraph import local_mode, suggest, traversal
from propgraph.config import RunConfig
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.local_mode import answer_local, answer_naive

from conftest import (
    TWO_HOP_GOLD,
    TWO_HOP_HOP1,
    TWO_HOP_HOP2,
    TWO_HOP_QUESTION,
    two_hop_rules,
)


class CountingGateway(LLMGateway):
    """Spy wrapper counting suggest-relevant backend operations."""

    def __init__(self, backend):
        super().__init__(backend)
        self.eval_calls = 0
        self.nextq_calls = 0

    def evaluate_answerable(self, q_start, facts):
        self.eval_calls += 1
        return super().evaluate_answerable(q_start, facts)

    def next_questions(self, q_start, facts):
        self.nextq_calls += 1
        return super().next_questions(q_start, facts)


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
    assert gateway.nextq_calls == 2


def test_collected_pool_grows_monotonically(two_hop_graph, two_hop_gateway, embedder):
    result = answer_local(TWO_HOP_QUESTION, two_hop_graph, two_hop_gateway, embedder, local_cfg(max_iter=3))
    seen = set(result.trace.of_kind("seed")[0]["kept"])
    for event in result.trace.of_kind("suggest"):
        seen |= set(event["kept"])
    assert set(result.collected.ids()) == seen


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
