"""Command-line interface: index, query, eval, stats."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import graph as graph_io
from .config import RunConfig, build_chat_backend, build_embed_backend, load_config
from .encoding import EmbedBackend
from .errors import PropGraphError
from .evaluation import MODES, answer_question, load_dataset, run_eval
from .indexing import graph_stats, index_corpus, load_corpus
from .llm import LLMGateway
from .usage import UsageLedger


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="propgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="index a corpus into a graph directory")
    p_index.add_argument("--config", required=True, help="JSON run configuration")
    p_index.add_argument("--corpus", required=True, help="directory of .txt files or a JSONL file")
    p_index.add_argument("--out", required=True, help="output graph directory")

    p_query = sub.add_parser("query", help="answer one question against an indexed graph")
    p_query.add_argument("--config", required=True)
    p_query.add_argument("--graph", required=True, help="graph directory from `index`")
    p_query.add_argument("--mode", choices=MODES, default="naive")
    p_query.add_argument("--max-iter", type=int, default=None, help="override config max_iter")
    p_query.add_argument("--trace", default="trace.jsonl", help="where to write the run trace")
    p_query.add_argument("question")

    p_eval = sub.add_parser("eval", help="score a QA dataset (JSONL: question, answers[, mode])")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--graph", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--mode", choices=MODES, default="naive")
    p_eval.add_argument("--out", required=True, help="directory for report.json and questions.jsonl")

    p_stats = sub.add_parser("stats", help="print node/edge counts of a graph directory")
    p_stats.add_argument("--graph", required=True)
    return parser


def _backends(args: argparse.Namespace, config: RunConfig, ledger: UsageLedger) -> tuple[LLMGateway, EmbedBackend]:
    """The gateway and embedder ``config`` names; a mock script path is relative to the config file."""
    chat = build_chat_backend(config, Path(args.config).parent)
    return LLMGateway(chat, ledger), build_embed_backend(config)


def cmd_index(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    gateway, embedder = _backends(args, config, UsageLedger())
    docs = load_corpus(args.corpus)
    graph = index_corpus(docs, gateway, embedder, config)
    graph_io.save(graph, args.out)
    print(json.dumps(graph_stats(graph).as_dict(), sort_keys=True))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.max_iter is not None:  # checked like a value from the file
        config = dataclasses.replace(config, max_iter=args.max_iter)
    graph = graph_io.load(args.graph)
    gateway, embedder = _backends(args, config, UsageLedger())
    result = answer_question(args.question, args.mode, graph, gateway, embedder, config)
    result.trace.write_jsonl(args.trace)
    print(result.answer)
    print(f"trace: {args.trace}", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    graph = graph_io.load(args.graph)
    ledger = UsageLedger()
    gateway, embedder = _backends(args, config, ledger)
    records = load_dataset(args.dataset)
    report = run_eval(
        records, graph, gateway, embedder, config,
        default_mode=args.mode, out_dir=args.out, ledger=ledger,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = graph_io.load(args.graph)
    print(json.dumps(graph_stats(graph).as_dict(), sort_keys=True))
    return 0


_COMMANDS = {"index": cmd_index, "query": cmd_query, "eval": cmd_eval, "stats": cmd_stats}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PropGraphError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
