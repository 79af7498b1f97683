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
from typing import Callable

import numpy as np

from .encoding import DEFAULT_MOCK_DIM, NORM_TOL, EmbedBackend, HashedNgramEmbedder, OpenAICompatEmbedder
from .errors import ConfigError
from .llm import ChatBackend, MockChatBackend, OpenAICompatChatBackend

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


# a backend spec value's requirement, and the check that it meets it
_NAME = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
_PATH = ("a string or null", lambda v: v is None or isinstance(v, str))
_SECONDS = ("a finite number > 0", lambda v: _has_type("float", v) and v > 0)
_NON_NEGATIVE = ("a finite number >= 0", lambda v: _has_type("float", v) and v >= 0)
_COUNT = ("an integer >= 1", lambda v: _has_type("int", v) and v >= 1)
_DIMENSION = ("an integer >= 2", lambda v: _has_type("int", v) and v >= 2)

_OPENAI_KEYS = {
    "base_url": ("base_url", _NAME),
    "model": ("model", _NAME),
    "api_key_env": ("api_key_env", _NAME),
    "timeout": ("timeout", _SECONDS),
}

# (spec, kind) -> the constructor it builds, and for each accepted key
# besides "kind", the constructor parameter it feeds and its check
BACKEND_SPECS = {
    ("chat_backend", "mock"): (MockChatBackend.from_file, {"script": ("path", _PATH)}),
    ("chat_backend", "openai"): (
        OpenAICompatChatBackend,
        {**_OPENAI_KEYS, "temperature": ("temperature", _NON_NEGATIVE), "max_concurrency": ("max_concurrency", _COUNT)},
    ),
    ("embed_backend", "mock"): (HashedNgramEmbedder, {"dimension": ("dim", _DIMENSION)}),
    ("embed_backend", "openai"): (
        OpenAICompatEmbedder,
        {**_OPENAI_KEYS, "dimension": ("dim", _DIMENSION), "batch_size": ("batch_size", _COUNT)},
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """Every run-level knob with its default, read by every layer from indexing to the walk.

    Construction checks every value, types first, then ranges, then the
    backend specs, and raises ``ConfigError`` on the first bad one. No layer
    checks a field again, so a config is frozen: ``dataclasses.replace``
    makes a changed copy, checked the same way.
    """

    # walk: lambda_ balances structure against query similarity (1.0
    # ignores the query), damping is the continue-walk probability,
    # temperature the similarity temperature and cosine_threshold the floor
    # below which a neighbor attracts no semantic mass
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
        for f in fields(self):  # every integer but the seed and the overlap counts something
            if f.type == "int" and f.name not in ("leiden_seed", "chunk_overlap_tokens") and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lambda_}")
        if not 0.0 < self.damping < 1.0:
            raise ConfigError(f"damping must be in (0, 1), got {self.damping}")
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        # the largest cosine of two unit vectors, normalized within NORM_TOL
        with np.errstate(over="ignore"):
            if not np.isfinite(np.exp(np.array([(1.0 + NORM_TOL) / self.temperature]))).all():
                raise ConfigError(
                    f"temperature {self.temperature} is too small: exp(similarity / temperature) overflows"
                )
        if not -1.0 <= self.cosine_threshold <= 1.0:
            raise ConfigError(f"cosine_threshold must be in [-1, 1], got {self.cosine_threshold}")
        if self.ppr_epsilon <= 0.0:
            raise ConfigError(f"ppr_epsilon must be positive, got {self.ppr_epsilon}")
        if not 0 <= self.chunk_overlap_tokens < self.chunk_target_tokens:
            raise ConfigError("chunk_overlap_tokens must be in [0, chunk_target_tokens)")
        if not 0.0 <= self.synonym_threshold <= 1.0:
            raise ConfigError(f"synonym_threshold must be in [0, 1], got {self.synonym_threshold}")
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
            _backend_arguments(name, getattr(self, name))


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    # each setting has one file key: its alias where it has one, else its attribute name
    known = {_FILE_KEYS.get(f.name, f.name) for f in fields(RunConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[_KEY_ALIASES.get(key, key)] = value
    return RunConfig(**kwargs)


def _backend_arguments(name: str, spec: dict) -> tuple[Callable, dict]:
    """Check the ``name`` spec against its table, raising ``ConfigError`` on a fault.

    Returns its constructor and the arguments of the keys present only, so
    each default lives in its constructor.
    """
    kind = spec.get("kind", "mock")
    if not isinstance(kind, str) or (name, kind) not in BACKEND_SPECS:
        raise ConfigError(f"unknown {name} kind {kind!r}")
    build, keys = BACKEND_SPECS[name, kind]
    missing = [key for key in ("base_url", "model") if key in keys and key not in spec]
    if missing:
        raise ConfigError(f"{name} of kind {kind!r} needs {' and '.join(missing)}")
    arguments = {}
    for key, value in spec.items():
        if key == "kind":
            continue
        if key not in keys:
            raise ConfigError(f"{name} of kind {kind!r} has unknown key {key!r}")
        parameter, (requirement, ok) = keys[key]
        if not ok(value):
            raise ConfigError(f"{name} {key} must be {requirement}, got {value!r}")
        arguments[parameter] = value
    return build, arguments


def build_chat_backend(cfg: RunConfig, base_dir: Path | None = None) -> ChatBackend:
    build, arguments = _backend_arguments("chat_backend", cfg.chat_backend)
    if build is OpenAICompatChatBackend:
        return build(**arguments)
    if not arguments.get("path"):
        return MockChatBackend()
    return MockChatBackend.from_file((base_dir or Path()) / arguments["path"])


def build_embed_backend(cfg: RunConfig) -> EmbedBackend:
    build, arguments = _backend_arguments("embed_backend", cfg.embed_backend)
    return build(**arguments)
