import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from propgraph.config import BACKEND_SPECS, RunConfig, build_chat_backend, build_embed_backend, load_config
from propgraph.encoding import NORM_TOL, HashedNgramEmbedder, OpenAICompatEmbedder
from propgraph.errors import ConfigError, DimensionMismatchError
from propgraph.llm import MockChatBackend, OpenAICompatChatBackend
from propgraph.traversal import build_structural_transition, query_aware_transition

from conftest import build_random_graph


OPENAI = {"kind": "openai", "base_url": "http://srv/v1", "model": "m"}


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert (cfg.lambda_, cfg.damping, cfg.cosine_threshold, cfg.temperature) == (0.5, 0.85, 0.4, 0.1)
    assert (cfg.top_k, cfg.subgraph_max_size) == (20, 500)
    assert (cfg.breadth_m, cfg.node_budget) == (10, 8000)
    assert (cfg.min_community_size, cfg.max_community_size) == (10, 150)
    assert (cfg.rocchio_alpha, cfg.rocchio_beta, cfg.rocchio_gamma) == (1.0, 0.7, 0.15)
    assert cfg.max_tokens_report == 8000
    assert cfg.passage_token_limit == 500
    assert cfg.max_tokens_community_chunks == 8000


def test_lambda_key_maps_through_to_walk_params(tmp_path):
    cfg = load_config(write_config(tmp_path, {"lambda": 0.9, "damping": 0.5, "top_k": 7}))
    assert (cfg.lambda_, cfg.damping, cfg.top_k) == (0.9, 0.5, 7)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"lamda": 0.5}))
    # an attribute name is not a second spelling of its file key
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"lambda_": 0.2}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"lambda": 0.9, "lambda_": 0.2}))


def test_out_of_range_values_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"lambda": 1.5}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"damping": 0.0}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"eval_workers": 0}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"min_community_size": 20, "max_community_size": 10}))


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"top_k": "20"}, "top_k must be an integer, got '20'"),
        ({"top_k": 20.0}, "top_k must be an integer, got 20.0"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"lambda": None}, "lambda must be a finite number, got None"),
        ({"damping": False}, "damping must be a finite number, got False"),
        ({"temperature": float("nan")}, "temperature must be a finite number, got nan"),
        ({"leiden_resolution": float("inf")}, "leiden_resolution must be a finite number, got inf"),
        ({"rocchio_beta": [0.7]}, r"rocchio_beta must be a finite number, got \[0.7\]"),
        ({"chat_backend": "mock"}, "chat_backend must be an object, got 'mock'"),
        ({"embed_backend": None}, "embed_backend must be an object, got None"),
        ({"chat_backend": {"kind": "openai"}}, "chat_backend of kind 'openai' needs base_url and model"),
        ({"embed_backend": {"kind": "openai", "base_url": "http://srv/v1"}}, "embed_backend of kind 'openai' needs model"),
        ({"embed_backend": {"kind": "quantum"}}, "unknown embed_backend kind 'quantum'"),
        ({"max_subquestions": 0}, "max_subquestions must be >= 1"),
        ({"leiden_resolution": 0}, "leiden_resolution must be positive"),
        ({"temperature": 1e-3}, "temperature 0.001 is too small: exp"),
        ({"embed_backend": {"kind": "mock", "dimension": 1}}, "embed_backend dimension must be an integer >= 2, got 1"),
        ({"embed_backend": {"kind": "mock", "dimension": "256"}}, "dimension must be an integer >= 2, got '256'"),
        ({"embed_backend": {"kind": "mock", "dimension": None}}, "dimension must be an integer >= 2, got None"),
        ({"embed_backend": {"kind": "mock", "dimension": True}}, "dimension must be an integer >= 2, got True"),
        (
            {"embed_backend": {"kind": "openai", "base_url": "http://srv/v1", "model": "m", "dimension": 0}},
            "dimension must be an integer >= 2, got 0",
        ),
        ({"chat_backend": {**OPENAI, "max_concurrency": 0}}, "chat_backend max_concurrency must be an integer >= 1, got 0"),
        ({"chat_backend": {**OPENAI, "max_concurrency": -1}}, "chat_backend max_concurrency must be an integer >= 1, got -1"),
        ({"embed_backend": {**OPENAI, "batch_size": 0}}, "embed_backend batch_size must be an integer >= 1, got 0"),
        ({"chat_backend": {**OPENAI, "timeout": "60"}}, "chat_backend timeout must be a finite number > 0, got '60'"),
        ({"embed_backend": {**OPENAI, "timeout": 0}}, "embed_backend timeout must be a finite number > 0, got 0"),
        ({"chat_backend": {**OPENAI, "temperature": "hot"}}, "chat_backend temperature must be a finite number >= 0, got 'hot'"),
        ({"chat_backend": {**OPENAI, "model": ""}}, "chat_backend model must be a non-empty string, got ''"),
        ({"chat_backend": {"kind": "mock", "script": 5}}, "chat_backend script must be a string or null, got 5"),
        ({"chat_backend": {"kind": ["mock"]}}, r"unknown chat_backend kind \['mock'\]"),
        ({"chat_backend": {"kind": "mock", "timeuot": 60}}, "chat_backend of kind 'mock' has unknown key 'timeuot'"),
        ({"chat_backend": {**OPENAI, "timeuot": 60}}, "chat_backend of kind 'openai' has unknown key 'timeuot'"),
        ({"embed_backend": {"kind": "mock", "timeuot": 60}}, "embed_backend of kind 'mock' has unknown key 'timeuot'"),
        ({"embed_backend": {**OPENAI, "timeuot": 60}}, "embed_backend of kind 'openai' has unknown key 'timeuot'"),
    ],
)
def test_wrong_types_and_backend_specs_rejected_at_load(tmp_path, payload, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize(
    "payload",
    [
        {"lambda": 1.5},
        {"damping": 1.0},
        {"temperature": 0.0},
        {"temperature": 0.0001},
        {"cosine_threshold": -1.5},
        {"ppr_epsilon": 0.0},
        {"top_k": 0},
        {"chunk_overlap_tokens": 300},
        {"synonym_threshold": 1.5},
    ],
)
def test_range_errors_name_the_file_key(tmp_path, payload):
    [key] = payload
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    message = str(err.value)
    assert message.startswith(key)
    assert not re.search(r"\b(tau|theta|k|overlap_tokens)\b", message), message


def test_construction_and_replace_run_every_check():
    with pytest.raises(ConfigError, match="max_iter must be >= 1"):
        RunConfig(max_iter=0)
    with pytest.raises(ConfigError, match="subgraph_max_size 500 is below top_k 600"):
        dataclasses.replace(RunConfig(), top_k=600)
    assert dataclasses.replace(RunConfig(), max_iter=1).max_iter == 1
    # no layer checks a field again, so none can be set past the checks
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().temperature = 0.0


def test_carving_smaller_than_top_k_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError, match="subgraph_max_size 50 is below top_k 60"):
        load_config(write_config(tmp_path, {"top_k": 60, "subgraph_max_size": 50}))
    cfg = load_config(write_config(tmp_path, {"top_k": 60, "subgraph_max_size": 60}))
    assert (cfg.top_k, cfg.subgraph_max_size) == (60, 60)


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text('["a", "list"]')
    with pytest.raises(ConfigError):
        load_config(path)


def test_backend_builders(tmp_path):
    cfg = RunConfig()
    assert isinstance(build_chat_backend(cfg), MockChatBackend)
    assert isinstance(build_embed_backend(cfg), HashedNgramEmbedder)

    cfg = RunConfig(
        chat_backend={"kind": "openai", "base_url": "http://srv/v1", "model": "chat-x"},
        embed_backend={"kind": "openai", "base_url": "http://srv/v1", "model": "emb-x", "dimension": 64},
    )
    chat = build_chat_backend(cfg)
    embed = build_embed_backend(cfg)
    assert isinstance(chat, OpenAICompatChatBackend) and chat.client.model == "chat-x"
    assert isinstance(embed, OpenAICompatEmbedder)
    with pytest.raises(DimensionMismatchError, match="served a 63-d vector, expected 64-d"):
        embed._parse({"data": [{"index": 0, "embedding": [1.0] * 63}]}, 1)

    # a spec changed in place after construction is checked again when built
    cfg.chat_backend["kind"] = "quantum"
    with pytest.raises(ConfigError):
        build_chat_backend(cfg)
    cfg.embed_backend["kind"] = "quantum"
    with pytest.raises(ConfigError):
        build_embed_backend(cfg)


def test_minimal_openai_specs_build_with_the_constructor_defaults():
    cfg = RunConfig(chat_backend=dict(OPENAI), embed_backend=dict(OPENAI))
    chat, embed = build_chat_backend(cfg), build_embed_backend(cfg)
    assert (chat.client.timeout, chat.temperature, chat.client.max_retries) == (120.0, 0.0, 3)
    assert (embed.client.timeout, embed.batch_size) == (60.0, 64)


def test_every_spec_key_names_a_parameter_of_its_constructor():
    for (name, kind), (build, keys) in BACKEND_SPECS.items():
        parameters = inspect.signature(build).parameters
        for key, (parameter, _) in keys.items():
            assert parameter in parameters, f"{name} {kind} key {key!r} feeds no parameter of {build.__qualname__}"


def test_smallest_temperatures_keep_the_semantic_weights_finite():
    # exp(c / temperature) of the largest cosine must stay finite: accepted just
    # above the bound, rejected just below it
    bound = (1.0 + NORM_TOL) / np.log(np.finfo(np.float64).max)
    cfg = RunConfig(temperature=bound * (1 + 1e-9))
    with pytest.raises(ConfigError, match="too small"):
        RunConfig(temperature=bound * (1 - 1e-9))
    graph = build_random_graph(np.random.default_rng(8), 30)
    structural = build_structural_transition(graph)
    for prop in range(len(graph.propositions)):  # a query equal to each proposition in turn
        query = graph.proposition_embeddings[prop]
        t = query_aware_transition(graph, query, cfg, structural=structural)
        assert np.isfinite(t.matrix.data).all()


@pytest.mark.parametrize(
    "script, message",
    [
        ("{not json", "cannot read mock script .*rules.json"),
        ('{"template": "Eval"}', "mock script .*rules.json must be a JSON list of rule objects"),
        ('["Eval"]', "mock script .*rules.json must be a JSON list of rule objects"),
        (None, "cannot read mock script .*rules.json"),
        ('[{"response": 5}]', "mock script .*rules.json rule 0 response must be a string or null, got 5"),
        ('[{}, {"slot_equals": "x"}]', "mock script .*rules.json rule 1 slot_equals must be an object, got 'x'"),
        ('[{"respnose": "KEEP: 1"}]', "mock script .*rules.json rule 0 has unknown key 'respnose'"),
        ('[{"template": "Slect"}]', "mock script .*rules.json rule 0 template must be one of NER, .*, got 'Slect'"),
    ],
)
def test_unusable_mock_script_is_a_config_error(tmp_path, script, message):
    if script is not None:
        (tmp_path / "rules.json").write_text(script)
    cfg = RunConfig(chat_backend={"kind": "mock", "script": "rules.json"})
    with pytest.raises(ConfigError, match=message):
        build_chat_backend(cfg, tmp_path)


def test_mock_script_resolved_relative_to_config(tmp_path):
    (tmp_path / "rules.json").write_text('[{"template": "Eval", "response": "INSUFFICIENT"}]')
    cfg = load_config(
        write_config(tmp_path, {"chat_backend": {"kind": "mock", "script": "rules.json"}})
    )
    backend = build_chat_backend(cfg, tmp_path)
    assert isinstance(backend, MockChatBackend)
    assert len(backend.rules) == 1
