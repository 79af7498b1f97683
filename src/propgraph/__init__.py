"""propgraph: retrieval over a heterogeneous proposition graph.

A corpus is indexed into a graph of passages, propositions and entities;
questions are answered by query-aware graph traversal with iterative
suggestion-selection cycles, in three modes: naive (similarity only),
local (multi-hop walks) and global (community-grounded synthesis).
"""

from .config import RunConfig
from .encoding import HashedNgramEmbedder, OpenAICompatEmbedder, cosine, top_k_similar
from .graph import HeteroGraph, NodeId, NodeKind, graph_stats, load, save
from .indexing import CorpusDocument, index_corpus
from .llm import LLMGateway, MockChatBackend, OpenAICompatChatBackend
from .local_mode import answer_local, answer_naive
from .global_mode import answer_global
from .suggest import Result, suggest_global, suggest_local, suggest_naive

__version__ = "0.1.0"

__all__ = [
    "CorpusDocument",
    "HashedNgramEmbedder",
    "HeteroGraph",
    "LLMGateway",
    "MockChatBackend",
    "NodeId",
    "NodeKind",
    "OpenAICompatChatBackend",
    "OpenAICompatEmbedder",
    "Result",
    "RunConfig",
    "answer_global",
    "answer_local",
    "answer_naive",
    "cosine",
    "graph_stats",
    "index_corpus",
    "load",
    "save",
    "suggest_global",
    "suggest_local",
    "suggest_naive",
    "top_k_similar",
]
