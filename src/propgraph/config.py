"""Run configuration: one flat JSON file with explicit, validated keys.

Key names mirror the walk/retrieval parameter vocabulary used throughout
the package (lambda, damping, cosine_threshold, subgraph_max_size,
temperature, top_k, breadth_m, node_budget, ...). Unknown keys are
rejected so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .encoding import DEFAULT_MOCK_DIM, EmbedBackend, HashedNgramEmbedder, OpenAICompatEmbedder
from .errors import ConfigError
from .indexing import ChunkingPolicy, ReconciliationPolicy
from .llm import ChatBackend, MockChatBackend, OpenAICompatChatBackend
from .suggest import SuggestConfig
from .traversal import WalkParams

# file key -> attribute (only where they differ)
_KEY_ALIASES = {"lambda": "lambda_"}
_FILE_KEYS = {attr: key for key, attr in _KEY_ALIASES.items()}

# field annotation -> what a value of that field must be
_EXPECTED = {"int": "an integer", "float": "a finite number", "dict": "an object"}


def _has_type(annotation: str, value) -> bool:
    if annotation == "dict":
        return isinstance(value, dict)
    if isinstance(value, bool):
        return False
    if annotation == "int":
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class RunConfig:
    """Every run-level knob with its default, shared by all answer modes.

    Construction checks every value, types first, then ranges, then the
    backend specs, and raises ``ConfigError`` on the first bad one.
    """

    # walk
    lambda_: float = 0.5
    damping: float = 0.85
    cosine_threshold: float = 0.4
    temperature: float = 0.1
    ppr_epsilon: float = 1e-8
    ppr_max_iters: int = 200
    # retrieval
    top_k: int = 20
    subgraph_max_size: int = 500
    max_iter: int = 3
    max_subquestions: int = 3
    # global mode
    breadth_m: int = 10
    min_facts: int = 200
    node_budget: int = 8000
    min_community_size: int = 10
    max_community_size: int = 150
    rocchio_alpha: float = 1.0
    rocchio_beta: float = 0.7
    rocchio_gamma: float = 0.15
    max_tokens_report: int = 8000
    passage_token_limit: int = 500
    max_tokens_community_chunks: int = 8000
    leiden_seed: int = 0
    leiden_resolution: float = 1.0
    # indexing
    chunk_target_tokens: int = 300
    chunk_overlap_tokens: int = 0
    synonym_threshold: float = 0.9
    # harness
    eval_workers: int = 1
    chat_backend: dict = field(default_factory=lambda: {"kind": "mock"})
    embed_backend: dict = field(default_factory=lambda: {"kind": "mock", "dimension": DEFAULT_MOCK_DIM})

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(f.type, value):
                raise ConfigError(f"{_FILE_KEYS.get(f.name, f.name)} must be {_EXPECTED[f.type]}, got {value!r}")
        try:  # the walk, suggestion and indexing layers check their own inputs
            self.walk_params()
            self.suggest_config()
            self.chunking_policy()
            self.reconciliation_policy()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        for f in fields(self):  # every integer but the seed and the overlap counts something
            if f.type == "int" and f.name not in ("leiden_seed", "chunk_overlap_tokens") and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1")
        if self.min_community_size > self.max_community_size:
            raise ConfigError("community size bounds out of order")
        if min(self.rocchio_alpha, self.rocchio_beta, self.rocchio_gamma) < 0:
            raise ConfigError("feedback coefficients must be non-negative")
        if self.leiden_resolution <= 0:
            raise ConfigError("leiden_resolution must be positive")
        # a carving must hold its seeds: a selection of top_k, or a global
        # partition, which never has more members than top_k
        if self.subgraph_max_size < self.top_k:
            raise ConfigError(f"subgraph_max_size {self.subgraph_max_size} is below top_k {self.top_k}")
        for name in ("chat_backend", "embed_backend"):
            spec = getattr(self, name)
            kind = spec.get("kind", "mock")
            if kind not in ("mock", "openai"):
                raise ConfigError(f"unknown {name} kind {kind!r}")
            missing = [key for key in ("base_url", "model") if kind == "openai" and key not in spec]
            if missing:
                raise ConfigError(f"{name} of kind 'openai' needs {' and '.join(missing)}")
        dimension = self.embed_backend.get("dimension", DEFAULT_MOCK_DIM)
        if not _has_type("int", dimension) or dimension < 2:
            raise ConfigError(f"embed_backend dimension must be an integer >= 2, got {dimension!r}")

    def walk_params(self) -> WalkParams:
        return WalkParams(
            lambda_=self.lambda_,
            damping=self.damping,
            tau=self.temperature,
            theta=self.cosine_threshold,
            ppr_epsilon=self.ppr_epsilon,
            ppr_max_iters=self.ppr_max_iters,
        )

    def suggest_config(self) -> SuggestConfig:
        return SuggestConfig(k=self.top_k, subgraph_size=self.subgraph_max_size, walk=self.walk_params())

    def chunking_policy(self) -> ChunkingPolicy:
        return ChunkingPolicy(self.chunk_target_tokens, self.chunk_overlap_tokens)

    def reconciliation_policy(self) -> ReconciliationPolicy:
        return ReconciliationPolicy(self.synonym_threshold)


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    kwargs = {}
    for key, value in raw.items():
        attr = _KEY_ALIASES.get(key, key)
        if attr not in known:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[attr] = value
    return RunConfig(**kwargs)


def build_chat_backend(cfg: RunConfig, base_dir: Path | None = None) -> ChatBackend:
    spec = cfg.chat_backend
    kind = spec.get("kind", "mock")
    if kind == "mock":
        script = spec.get("script")
        if script:
            script_path = Path(script)
            if base_dir is not None and not script_path.is_absolute():
                script_path = base_dir / script_path
            return MockChatBackend.from_file(script_path)
        return MockChatBackend()
    if kind == "openai":
        return OpenAICompatChatBackend(
            base_url=spec["base_url"],
            model=spec["model"],
            api_key_env=spec.get("api_key_env", "OPENAI_API_KEY"),
            temperature=spec.get("temperature", 0.0),
            timeout=spec.get("timeout", 120.0),
            max_concurrency=spec.get("max_concurrency", 4),
        )
    raise ConfigError(f"unknown chat backend kind {kind!r}")


def build_embed_backend(cfg: RunConfig) -> EmbedBackend:
    spec = cfg.embed_backend
    kind = spec.get("kind", "mock")
    if kind == "mock":
        return HashedNgramEmbedder(dim=spec.get("dimension", DEFAULT_MOCK_DIM))
    if kind == "openai":
        return OpenAICompatEmbedder(
            base_url=spec["base_url"],
            model=spec["model"],
            api_key_env=spec.get("api_key_env", "OPENAI_API_KEY"),
            dim=spec.get("dimension"),
            batch_size=spec.get("batch_size", 64),
            timeout=spec.get("timeout", 60.0),
        )
    raise ConfigError(f"unknown embed backend kind {kind!r}")
