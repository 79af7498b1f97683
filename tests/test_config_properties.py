"""Property tests: a config either loads and runs, or fails at load with ConfigError.

Config dicts are drawn over every ``RunConfig`` key with in-range,
boundary, out-of-range and wrong-type values. Configs that load must
answer in every mode on a small random graph with mock backends, where
any failure must be a ``PropGraphError``, and their walk operators must
hold finite numbers only.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from propgraph import evaluation
from propgraph.config import RunConfig, load_config
from propgraph.encoding import NORM_TOL, HashedNgramEmbedder
from propgraph.errors import ConfigError, PropGraphError
from propgraph.llm import LLMGateway, MockChatBackend
from propgraph.traversal import build_structural_transition, query_aware_transition

from conftest import build_random_graph

DIM = 8
# below this temperature exp(cosine / temperature) overflows
SMALLEST_TEMPERATURE = (1.0 + NORM_TOL) / np.log(np.finfo(np.float64).max)

# In-range values for every key, boundaries included, and small enough
# that answering on a 24-proposition graph stays fast. Each key is drawn on
# its own, so a draw may still break a bound between keys (top_k above
# subgraph_max_size, community sizes out of order, overlap not below the
# chunk target).
IN_RANGE = {
    "lambda": st.floats(0.0, 1.0),
    "damping": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "cosine_threshold": st.floats(-1.0, 1.0),
    "temperature": st.floats(SMALLEST_TEMPERATURE * (1 + 1e-9), 10.0),
    "ppr_epsilon": st.floats(1e-12, 1.0),
    "ppr_max_iters": st.integers(1, 50),
    "top_k": st.integers(1, 12),
    "subgraph_max_size": st.integers(1, 60),
    "max_iter": st.integers(1, 3),
    "max_subquestions": st.integers(1, 3),
    "breadth_m": st.integers(1, 4),
    "min_facts": st.integers(1, 30),
    "node_budget": st.integers(1, 100),
    "min_community_size": st.integers(1, 40),
    "max_community_size": st.integers(1, 40),
    "rocchio_alpha": st.floats(0.0, 2.0),
    "rocchio_beta": st.floats(0.0, 2.0),
    "rocchio_gamma": st.floats(0.0, 2.0),
    "max_tokens_report": st.integers(1, 200),
    "passage_token_limit": st.integers(1, 50),
    "max_tokens_community_chunks": st.integers(1, 200),
    "leiden_seed": st.integers(-3, 3),
    "leiden_resolution": st.floats(1e-3, 5.0),
    "chunk_target_tokens": st.integers(1, 400),
    "chunk_overlap_tokens": st.integers(0, 400),
    "synonym_threshold": st.floats(0.0, 1.0),
    "eval_workers": st.integers(1, 4),
    "chat_backend": st.sampled_from([{"kind": "mock"}, {"kind": "mock", "script": None}]),
    "embed_backend": st.sampled_from([{"kind": "mock"}, {"kind": "mock", "dimension": DIM}]),
}

WRONG_TYPE = st.sampled_from(["20", "", None, True, False, [], [1], {}])
OUT_OF_RANGE = st.integers(-10, 0) | st.floats(allow_nan=True, allow_infinity=True)
BAD_SPEC = st.sampled_from(
    [
        {"kind": "openai"},
        {"kind": "openai", "base_url": "http://127.0.0.1:9/v1"},
        {"kind": "quantum"},
        {"kind": None},
        {"kind": "openai", "base_url": "http://127.0.0.1:9/v1", "model": "m"},
    ]
)


def any_value(key):
    extra = BAD_SPEC if key.endswith("_backend") else OUT_OF_RANGE
    if key == "temperature":
        extra |= st.floats(1e-6, SMALLEST_TEMPERATURE * (1 - 1e-9))
    return IN_RANGE[key] | WRONG_TYPE | extra


MIXED = st.fixed_dictionaries({}, optional={key: any_value(key) for key in IN_RANGE})
VALID = st.fixed_dictionaries(IN_RANGE)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "cfg.json"


@pytest.fixture(scope="module")
def graph():
    return build_random_graph(np.random.default_rng(4), 24, dim=DIM)


def load(path, raw):
    path.write_text(json.dumps(raw))
    return load_config(path)


def test_strategies_cover_every_key():
    assert set(IN_RANGE) == {"lambda" if f.name == "lambda_" else f.name for f in fields(RunConfig)}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(raw=MIXED)
def test_every_config_loads_or_fails_with_config_error(cfg_path, raw):
    try:
        cfg = load(cfg_path, raw)
    except ConfigError:
        return
    for key, value in raw.items():
        assert getattr(cfg, "lambda_" if key == "lambda" else key) == value


@settings(max_examples=30, derandomize=True, deadline=None)
@given(raw=VALID)
def test_accepted_configs_run_in_every_mode(cfg_path, graph, raw):
    """Every key is set, so the whole run uses the drawn small sizes."""
    try:
        cfg = load(cfg_path, raw)
    except ConfigError:
        reject()
    # a query equal to a proposition's vector puts the largest cosines in play
    structural = build_structural_transition(graph)
    for query in graph.proposition_embeddings:
        walk = query_aware_transition(graph, query, cfg, structural=structural)
        assert np.isfinite(walk.matrix.data).all()
    gateway = LLMGateway(MockChatBackend())
    embedder = HashedNgramEmbedder(dim=DIM)
    for mode in evaluation.MODES:
        try:
            result = evaluation.answer_question(
                "What links proposition number 3 to entity number 2?", mode, graph, gateway, embedder, cfg
            )
        except PropGraphError:
            continue
        assert isinstance(result.answer, str)
