#!/usr/bin/env python3
"""propgraph benchmark: seeded workloads against the library's public API.

    python3 bench/run.py --workload qa_local --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``.
Every number is compute only: the chat backend is a scripted mock and the
embedder is ``HashedNgramEmbedder``, so LLM cost appears as counts (calls
and tokens per operation), never as time. The load is a closed loop with
one client in one thread: each operation starts when the previous one ends.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics. ``--trace 1`` reports per-layer metrics from a traced replay of the
operations of an untraced pass (see ``spans.py``). The last line of
standard output is one JSON object with the metrics named in
``BENCHMARK.json``; the full report, and the spans of a traced run, go
under ``bench/out/``. The exit code is 1 if an output check failed and 2
if the benchmark cannot run at all. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH_DIR / "out"
WORKLOADS = ("qa_local", "qa_global")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="propgraph benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def source_identity() -> dict:
    """The git commit, when run in a git checkout, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "propgraph" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: {SRC / 'propgraph'} or {SPEC} is missing; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports propgraph, so only once src/ is on the path

    wanted = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        bench = workloads.Bench(args, Path(work), OUT)
        values, report = bench.run_traced() if args.trace else bench.run_timed()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    bench.check(not missing, f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "label": "compute only: scripted mock chat backend and hashed n-gram embedder, no LLM on the path",
        "load": "closed loop, 1 client, 1 process, 1 thread (eval_workers=1)",
        "nproc": os.cpu_count(),
        "versions": bench.versions,
        "generator": bench.params.as_dict(),
        **source_identity(),
    }
    result = {"meta": meta, "values": values, "report": report, "failures": bench.failures, "samples": bench.samples}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    for key, value in {**meta, **report}.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
