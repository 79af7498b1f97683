"""QA evaluation harness: run a dataset through a mode, score EM/F1.

Dataset rows are JSONL objects with ``question`` and ``answers`` (and an
optional per-row ``mode``). Questions may run concurrently; the report
and per-question log are written in question order so identical runs
produce identical bytes.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig
from .encoding import EmbedBackend
from .errors import InputFileError, PropGraphError
from .graph import HeteroGraph
from .indexing import read_jsonl
from .llm import LLMGateway
from .local_mode import answer_local, answer_naive
from .global_mode import answer_global
from .metrics import exact_match, f1
from .suggest import Result
from .usage import UsageLedger

log = logging.getLogger(__name__)

_ANSWER = {"naive": answer_naive, "local": answer_local, "global": answer_global}
MODES = tuple(_ANSWER)


@dataclass
class QARecord:
    question: str
    gold_answers: list[str]
    mode: str | None = None


def load_dataset(path: str | Path) -> list[QARecord]:
    records: list[QARecord] = []
    for where, obj in read_jsonl(path):
        question, answers, mode = obj.get("question"), obj.get("answers"), obj.get("mode")
        if not isinstance(question, str):
            raise InputFileError(f"{where}: question must be a string")
        if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
            raise InputFileError(f"{where}: answers must be a list of strings")
        if not answers:
            raise InputFileError(f"{where}: record {question!r} has no gold answers")
        if mode is not None and mode not in MODES:
            raise InputFileError(f"{where}: unknown mode {mode!r} in dataset")
        records.append(QARecord(question, answers, mode))
    return records


def answer_question(
    question: str,
    mode: str,
    graph: HeteroGraph,
    gateway: LLMGateway,
    embedder: EmbedBackend,
    config: RunConfig,
) -> Result:
    return _ANSWER[mode](question, graph, gateway, embedder, config)


def run_eval(
    records: list[QARecord],
    graph: HeteroGraph,
    gateway: LLMGateway,
    embedder: EmbedBackend,
    config: RunConfig,
    default_mode: str = "naive",
    out_dir: str | Path | None = None,
    ledger: UsageLedger | None = None,
) -> dict:
    """Answer every record, aggregate mean EM/F1, optionally write artifacts.

    A question that raises a ``PropGraphError`` (a backend still down after
    its retries, say) does not stop the eval: its row is failed, scores 0
    and names the exception type under ``error``.
    """

    def run_one(index_record):
        index, record = index_record
        mode = record.mode or default_mode
        row = {"index": index, "question": record.question, "gold_answers": record.gold_answers, "mode": mode}
        try:
            result = answer_question(record.question, mode, graph, gateway, embedder, config)
        except PropGraphError as err:
            log.warning("question %d failed: %s: %s", index, type(err).__name__, err)
            return {**row, "answer": "", "failed": True, "em": 0, "f1": 0.0, "error": type(err).__name__}
        return {
            **row,
            "answer": result.answer,
            "failed": result.failed,
            "em": exact_match(result.answer, record.gold_answers),
            "f1": f1(result.answer, record.gold_answers),
        }

    with ThreadPoolExecutor(max_workers=config.eval_workers) as pool:
        rows = list(pool.map(run_one, enumerate(records)))

    n = len(rows)
    report = {
        "count": n,
        "exact_match": (sum(r["em"] for r in rows) / n) if n else 0.0,
        "f1": (sum(r["f1"] for r in rows) / n) if n else 0.0,
        "failed": sum(1 for r in rows if r["failed"]),
    }
    if ledger is not None:
        report["usage"] = ledger.snapshot()

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        with open(out / "questions.jsonl", "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return report
