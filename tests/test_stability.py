"""Guards that reach beyond one run of the current code.

The acceptance suite compares two runs of the same code. The digests
below pin the c10 fixture's outputs themselves, so a change to how a
graph is stored or walked that alters a single byte of the saved graph,
of a local- or global-mode trace or of a clean eval's report and
per-question log fails here. A deliberate format
change must re-record them and say why.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from propgraph import RunConfig, evaluation, indexing
from propgraph import graph as graph_module
from propgraph.cli import main
from propgraph.encoding import HashedNgramEmbedder
from propgraph.global_mode import answer_global
from propgraph.graph import load, save
from propgraph.llm import LLMGateway, MockChatBackend, MockRule
from propgraph.local_mode import answer_local

from conftest import TWO_HOP_PASSAGES, TWO_HOP_QUESTION, build_random_graph, two_hop_rules
from test_cli import DATASET, EVAL_RULES, rules_as_json

BENCH = Path(__file__).resolve().parent.parent / "bench"

PINNED_GRAPH = {
    "edges.txt": "3ec4ac7e8c0a2a4886ce7221399a28b9e6cb1297801ffd8d63a99d2caafbc65b",
    "entities.jsonl": "dfa991556132816f2167bbc61d34c982291cfc83aea00fe995a0a290b7522d34",
    "entity_embeddings.bin": "43538bcd1196f0bcc7acf77a2aca4ebd41aa4d81e3b68ea489436d8caf08a157",
    "manifest.json": "635360f682f9c8c60d69c5bf2db647793b9fb9f007cf6f154c623a0f0957ead2",
    "passages.jsonl": "848f3c5fc8950174449d4ebb3988ca3e95418995be0de5c8c4511812ac1c7360",
    "proposition_embeddings.bin": "5f8ed9567a61167d60c21aa9e8b39a05925887fff9b1bcab8c14418ee0a67272",
    "propositions.jsonl": "15a9792b46f8637c0d4937d5a730d645a13f79414b0a23716e88a0d1d1472ddb",
}
PINNED_EVAL = {
    "questions.jsonl": "2bbd0c8ce119eeb1abdfc63d5508e8a76c65b119bff64271197c61a1626d797f",
    "report.json": "3cb15df8cdb1a7f4b3a5784ec99265015ac530d5d942e0a18d0522cb9a1af540",
}
PINNED_LOCAL_TRACE = "4b8acd9ad3eb49108bd4359c2822775a93681d2ee354ea5254d652852ddcb0bb"
PINNED_GLOBAL_TRACE = "924dd1fc34dc64f2cb98d2ef61ccab42a328ceed5597950c7be73c64e8a71642"

# The c10 graph is smaller than any carving, so those traces cannot see
# which nodes a carving admits. This seeded graph is seven times the
# carving size, and the default mock selection keeps every candidate, so
# each carving's node set reaches the trace.
CARVED_GRAPH_SEED = 11
CARVED_QUESTION = "Which proposition number links entity number 7 to passage number 3?"
PINNED_CARVED_TRACES = {
    "local": "8c862c64dc78429d7c8701e7bb9cad4189f3d44119f6e7374eda3607863e27ce",
    "global": "d3840c89f753f857995c46786623ba43522cc83c77036ff3d36fe572775f0812",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c10_fixture_outputs_match_pinned_digests(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, (text, _, _) in enumerate(TWO_HOP_PASSAGES):
        (corpus / f"{i:02d}.txt").write_text(text)
    rules = two_hop_rules()
    for question, answer in EVAL_RULES:
        rules.append(MockRule(template="FinalAnswer", slot_equals={"question": question}, response=answer))
    (tmp_path / "rules.json").write_text(json.dumps(rules_as_json(rules)))
    config = {
        "top_k": 5,
        "chat_backend": {"kind": "mock", "script": "rules.json"},
        "embed_backend": {"kind": "mock", "dimension": 256},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    graph_dir, trace = tmp_path / "graph", tmp_path / "trace.jsonl"
    assert main(["index", "--config", str(tmp_path / "config.json"), "--corpus", str(corpus), "--out", str(graph_dir)]) == 0
    assert main([
        "query", "--config", str(tmp_path / "config.json"), "--graph", str(graph_dir),
        "--mode", "local", "--trace", str(trace), TWO_HOP_QUESTION,
    ]) == 0
    global_trace = tmp_path / "global_trace.jsonl"
    assert main([
        "query", "--config", str(tmp_path / "config.json"), "--graph", str(graph_dir),
        "--mode", "global", "--trace", str(global_trace), TWO_HOP_QUESTION,
    ]) == 0
    assert {p.name: _sha256(p) for p in sorted(graph_dir.iterdir())} == PINNED_GRAPH
    save(load(graph_dir), tmp_path / "resaved")
    assert {p.name: _sha256(p) for p in sorted((tmp_path / "resaved").iterdir())} == PINNED_GRAPH
    assert _sha256(trace) == PINNED_LOCAL_TRACE
    assert _sha256(global_trace) == PINNED_GLOBAL_TRACE
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps({**row, "mode": mode}) + "\n" for row in DATASET for mode in ("naive", "local")))
    eval_dir = tmp_path / "eval"
    assert main([
        "eval", "--config", str(tmp_path / "config.json"), "--graph", str(graph_dir),
        "--dataset", str(dataset), "--out", str(eval_dir),
    ]) == 0
    assert {p.name: _sha256(p) for p in sorted(eval_dir.iterdir())} == PINNED_EVAL


@pytest.mark.parametrize("mode", ["local", "global"])
def test_carving_trace_matches_pinned_digest(tmp_path, mode):
    graph = build_random_graph(np.random.default_rng(CARVED_GRAPH_SEED), 240, dim=16)
    cfg = RunConfig(
        top_k=6, subgraph_max_size=40, breadth_m=3, min_facts=60, embed_backend={"kind": "mock", "dimension": 16}
    )
    assert graph.node_count >= 7 * cfg.subgraph_max_size
    answer = {"local": answer_local, "global": answer_global}[mode]
    result = answer(CARVED_QUESTION, graph, LLMGateway(MockChatBackend()), HashedNgramEmbedder(dim=16), cfg)
    result.trace.write_jsonl(tmp_path / "trace.jsonl")
    assert _sha256(tmp_path / "trace.jsonl") == PINNED_CARVED_TRACES[mode]


def test_bench_span_boundaries_resolve(monkeypatch):
    # the traced benchmark run rebinds each (owner, attr); a rename in the
    # library must fail here rather than break `bench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [name for owner, attr, name in spans.BOUNDARIES if not callable(getattr(owner, attr, None))]
    assert not missing


def test_bench_spans_see_every_layer_the_questions_reach(tmp_path, monkeypatch):
    # a wrapper the library routes around (a call moved to a name the
    # benchmark does not rebind) records nothing: every span that indexing
    # and one question of each mode must pass through records a call, and
    # tracing changes no trace
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    # top-5 seeding misses the bridge fact, so the local answer walks; the
    # fixture's communities are small, so the global one builds reports
    cfg = RunConfig(top_k=5, min_community_size=2)
    docs = [indexing.CorpusDocument(f"doc{i}", text) for i, (text, _, _) in enumerate(TWO_HOP_PASSAGES)]
    modes = ("naive", "local", "global")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        gateway = LLMGateway(spans.CountingBackend(MockChatBackend(two_hop_rules()), tracer))
        embedder = spans.TracedEmbedder(HashedNgramEmbedder(), tracer)
        graph_module.save(indexing.index_corpus(docs, gateway, embedder, cfg), tmp_path / "graph")
        loaded = graph_module.load(tmp_path / "graph")
        tracer.phase = "op"
        traced = [evaluation.answer_question(TWO_HOP_QUESTION, m, loaded, gateway, embedder, cfg) for m in modes]
    finally:
        tracer.uninstall()

    calls = {phase: Counter(s.name for s in tracer.spans if s.phase == phase) for phase in ("setup", "op")}
    setup = [
        *[f"indexing.{f}" for f in ("index_corpus", "chunk", "resolve")],
        *[f"graph.{f}" for f in ("add", "finalize", "save", "load")],
    ]
    questions = [
        "evaluation.answer_question",
        *[f"suggest.{f}" for f in ("suggest_naive", "suggest_local", "suggest_global", "select")],
        *[
            f"traversal.{f}"
            for f in ("extract_subgraph", "build_structural_transition", "query_aware_transition", "ppr")
        ],
        "encoding.top_k_similar",
        *[
            f"global_mode.{f}"
            for f in ("collect_anchors", "compute_queries", "detect_communities", "select_communities", "build_reports")
        ],
        "community.leiden_levels",
    ]
    both = ["llm.complete", "encoding.embed"]
    assert [name for name in setup + both if not calls["setup"][name]] == []
    assert [name for name in questions + both if not calls["op"][name]] == []
    assert [s.name for s in tracer.spans if s.phase == "op" and s.parent is None] == ["evaluation.answer_question"] * 3

    plain_graph = graph_module.load(tmp_path / "graph")
    plain_gateway = LLMGateway(MockChatBackend(two_hop_rules()))
    for mode, result in zip(modes, traced):
        plain = evaluation.answer_question(
            TWO_HOP_QUESTION, mode, plain_graph, plain_gateway, HashedNgramEmbedder(), cfg
        )
        assert (result.trace.events, result.answer) == (plain.trace.events, plain.answer)


@pytest.mark.parametrize("module", ["networkx", "requests"])
def test_library_imports_without(module):
    # networkx is a test oracle only, and the HTTP client is the standard
    # library's; every library module must import without either
    code = (
        f"import sys, pkgutil, importlib; sys.modules[{module!r}] = None; import propgraph; "
        "[importlib.import_module(m.name) for m in pkgutil.iter_modules(propgraph.__path__, 'propgraph.')]"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})


def test_the_library_loads_no_package_beyond_its_runtime_dependencies():
    # the same check that CI runs against an install without the dev extra
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src")}
    subprocess.run([sys.executable, str(tests / "runtime_imports.py")], check=True, timeout=60, env=env)


def test_the_ci_workflow_parses_and_every_step_runs_or_uses_an_action():
    # a workflow that is not valid YAML starts no job, and says so nowhere else
    import yaml

    workflow = yaml.safe_load((Path(__file__).resolve().parent.parent / ".github/workflows/tier1.yml").read_text())
    assert workflow["jobs"]
    for name, job in workflow["jobs"].items():
        assert job.get("steps"), name
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)
