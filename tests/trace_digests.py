"""Print one digest of every benchmark question's outcome per seed and workload, to compare two trees.

Run it from the root of a tree, with ``bench/`` on the import path:
``PYTHONPATH=src:bench python tests/trace_digests.py --seeds 7,911``.
For each seed and workload it builds the benchmark's set-up through
``workloads.Bench`` in a temporary directory and answers every question of
the workload once. It prints the question count, the chat completion count
and one sha256 over each question's trace events, answer, ``failed`` and
``collected``, followed by the usage ledger's snapshot. Two trees that
answer every question alike print the same lines.

A walk's float rounding depends on the BLAS kernel and its thread count, so
run both trees on one machine under one kernel (the same
``OPENBLAS_CORETYPE``, if any) with ``OPENBLAS_NUM_THREADS=1``; the script
sets the latter when it is unset. It only reads ``bench/``. It exits 1 if
one of the benchmark's output checks failed. A seed takes about 4 s on two
shared vCPUs.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from propgraph import evaluation
from workloads import Bench, Sample


def digest(seed: int, workload: str) -> tuple[str, bool]:
    """The line printed for ``workload`` at ``seed``, and whether every check passed."""
    with tempfile.TemporaryDirectory(prefix="trace-digests-") as work:
        args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=0)
        bench = Bench(args, Path(work), Path(work))
        prepared, failed = bench.attempt(bench.prepare)
        if not failed:
            state, failed = bench.attempt(bench.setup, prepared, bench.embedder)
        if failed:
            return f"seed {seed} {workload}: set-up failed", False
        client = bench.client(state["backend"], bench.embedder)

        def answer(op):
            result = evaluation.answer_question(op.question, op.kind, state["graph"], client["gateway"], client["embedder"], bench.config)
            bench.check_answer(op, result, Sample(op, 0.0))
            return result

        sha = hashlib.sha256()
        ops = bench.operations(state)
        for op in ops:
            result, _ = bench.attempt(answer, op)
            outcome = None
            if result is not None:
                outcome = [result.trace.events, result.answer, result.failed, [int(p) for p in result.collected]]
            sha.update(json.dumps([op.kind, op.question, outcome], sort_keys=True).encode() + b"\n")
        sha.update(json.dumps(client["ledger"].snapshot(), sort_keys=True).encode())
        line = f"seed {seed} {workload}: {len(ops)} questions, {client['backend'].calls} completions, sha256 {sha.hexdigest()}"
        return line, not bench.failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7", help="comma-separated benchmark seeds")
    seeds = [int(s) for s in parser.parse_args().seeds.split(",")]
    ok = True
    for seed in seeds:
        for workload in ("qa_local", "qa_global"):
            line, passed = digest(seed, workload)
            print(line, flush=True)
            ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
