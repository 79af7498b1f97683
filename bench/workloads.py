"""The benchmark's workloads: set-up, operations, output checks and metrics.

``run.py`` imports this module once ``src/`` is on the import path. The
library's functions are called through their modules (``graph.save``, not a
name imported from it), so that the wrappers ``spans.Tracer`` installs for a
traced pass see every call.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import networkx
import numpy
import scipy

from corpus import CorpusParams, generate, scripted_backend
from propgraph import evaluation, graph, indexing
from propgraph.config import RunConfig
from propgraph.encoding import HashedNgramEmbedder
from propgraph.llm import LLMGateway
from propgraph.metrics import exact_match
from propgraph.usage import UsageLedger
from spans import CountingBackend, TracedEmbedder, Tracer, layer_metrics

# The kind of question each workload is timed on; see README.md.
MAIN_KIND = {"qa_local": "local", "qa_global": "global"}
SETUP_REPS = 4
CORPUS = CorpusParams(passages=1800, props_per_passage=5, entities=1300, zipf=1.6, chains=12, deep_chains=6, hub_facts=20, dim=256)
# qa_global cycles over this many questions; each takes seconds.
GLOBAL_QUESTIONS = 5


@dataclass
class Op:
    """One measured operation: a question."""

    kind: str  # "naive", "local" or "global"
    question: str
    gold: str | None = None
    hops: int = 0  # of a planted question


@dataclass
class Sample:
    op: Op
    seconds: float
    calls: int = 0
    tokens: int = 0
    extra: dict = field(default_factory=dict)
    failed: bool = False


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(path.iterdir()):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def per_question(samples: list[Sample], attr: str) -> float:
    """Mean over distinct questions of their mean ``attr``, so that a cycle
    cut short by the clock does not weigh some questions more than others."""
    by_question: dict[str, list[float]] = {}
    for s in samples:
        by_question.setdefault(s.op.question, []).append(getattr(s, attr))
    return mean([mean(v) for v in by_question.values()])


class Bench:
    """One run of one workload; collects samples, check failures and counts."""

    def __init__(self, args: argparse.Namespace, work: Path, out: Path):
        self.args = args
        self.work = work
        self.out = out
        self.config = RunConfig()
        self.params = CORPUS
        self.embedder = HashedNgramEmbedder(dim=CORPUS.dim)
        self.versions = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "networkx": networkx.__version__,
        }
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: list[dict] = []
        self.traces: dict[str, bytes] = {}
        self.saved_digest: str | None = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def attempt(self, fn, *args):
        """Run one set-up or question; it fails if it raises or a check fails during it."""
        self.attempted += 1
        before = len(self.failures)
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{getattr(fn, '__name__', fn)} raised")
            out = None
        failed = len(self.failures) > before
        self.failed += failed
        return out, failed

    def client(self, backend, embedder, tracer: Tracer | None = None) -> dict:
        counting = CountingBackend(backend, tracer)
        ledger = UsageLedger()
        gateway = LLMGateway(counting, ledger)
        if tracer is not None:
            tracer.watch(gateway)
        return {"backend": counting, "ledger": ledger, "gateway": gateway, "embedder": embedder}

    # -- set-up ----------------------------------------------------------------

    def prepare(self) -> dict:
        """Generate the corpus and the scripted backend for the run's seed."""
        corpus = generate(CORPUS, self.args.seed)
        docs = [indexing.CorpusDocument(f"doc{i}", text) for i, text in enumerate(corpus.texts())]
        return {"corpus": corpus, "docs": docs, "backend": scripted_backend(corpus.chains)}

    def setup(self, prepared: dict, embedder, tracer: Tracer | None = None) -> dict:
        """Index the corpus, save the graph and load it back, then check all three.

        Indexing runs once per corpus and loading once per process, so
        both are set-up for the questions that follow. Only the library
        calls are timed: ``setup_s`` is ``index_s + save_s + load_s``.
        """
        client = self.client(prepared["backend"], embedder, tracer)
        path = self.work / "graph"
        build = self.build if tracer is None else partial(tracer.call, "bench.setup", self.build)
        state = {**prepared, **build(prepared["docs"], client, path)}
        state["setup_s"] = state["index_s"] + state["save_s"] + state["load_s"]
        self.check_counts(state["indexed"], prepared["corpus"].expected_counts(), "indexed")
        self.check_counts(state["graph"], indexing.graph_stats(state.pop("indexed")).as_dict(), "loaded")
        digest = dir_digest(path)
        shutil.rmtree(path)
        self.saved_digest = self.saved_digest or digest
        self.check(digest == self.saved_digest, "indexing the same corpus gave a different graph directory")
        return state

    def build(self, docs: list, client: dict, path: Path) -> dict:
        """The timed library calls of a set-up."""
        t0 = time.perf_counter()
        indexed = indexing.index_corpus(docs, client["gateway"], client["embedder"])
        t1 = time.perf_counter()
        graph.save(indexed, path)
        t2 = time.perf_counter()
        loaded = graph.load(path)
        t3 = time.perf_counter()
        return {"indexed": indexed, "graph": loaded, "index_s": t1 - t0, "save_s": t2 - t1, "load_s": t3 - t2}

    def check_counts(self, g, expected: dict, what: str) -> None:
        counts = indexing.graph_stats(g).as_dict()
        self.check(counts == expected, f"{what} graph has {counts}, expected {expected}")

    def operations(self, state: dict) -> list[Op]:
        chains = state["corpus"].chains
        if self.args.workload == "qa_local":
            # naive and local questions alternate, on the same planted questions
            return [Op(kind, c.question, c.gold, c.hops) for c in chains for kind in ("naive", "local")]
        return [Op("global", f"What is known about the life of {c.subject}?") for c in chains[:GLOBAL_QUESTIONS]]

    # -- questions ---------------------------------------------------------------

    def run_op(self, op: Op, state: dict, client: dict) -> Sample:
        """Answer and check one question; only the library call is timed."""
        backend, ledger = client["backend"], client["ledger"]
        calls, tokens = backend.calls, sum(ledger.snapshot()["total"].values())
        args = (op.question, op.kind, state["graph"], client["gateway"], client["embedder"], self.config)
        start = time.perf_counter()
        result = evaluation.answer_question(*args)
        sample = Sample(op, time.perf_counter() - start)
        sample.calls = backend.calls - calls
        sample.tokens = sum(ledger.snapshot()["total"].values()) - tokens
        self.check_answer(op, result, sample)
        return sample

    def check_answer(self, op: Op, result, sample: Sample) -> None:
        outcome = result.trace.of_kind("result")[-1]
        if op.kind in ("naive", "local"):
            sample.extra["em"] = exact_match(result.answer, [op.gold])
        if op.kind == "local":
            sample.extra["iterations"] = outcome["iterations"]
            sample.extra["exhausted"] = outcome["exhausted"]
            # A two-hop question must be answered. A three-hop one may run out
            # of iterations (a miss, counted in local.em), but an answer the
            # loop accepted as sufficient must be the gold.
            self.check(
                sample.extra["em"] == 1 or (op.hops == 3 and outcome["exhausted"]),
                f"local answer {result.answer!r} != gold {op.gold!r} for {op.question!r}",
            )
        if op.kind == "global":
            sample.extra["anchors"] = outcome["anchors"]
            self.check(bool(result.answer.strip()) and not result.failed, f"no global answer for {op.question!r}")
        path = self.work / "trace.jsonl"
        result.trace.write_jsonl(path)
        content = path.read_bytes()
        first = self.traces.setdefault(f"{op.kind}:{op.question}", content)
        self.check(content == first, f"repeated {op.kind} question {op.question!r} gave a different trace")

    def loop(self, ops: list[Op], state: dict, client: dict, seconds=None, count=None, tracer=None) -> list[Sample]:
        """Closed loop cycling over ``ops`` for ``seconds``, or for ``count`` questions."""
        samples: list[Sample] = []
        start = time.perf_counter()
        while len(samples) < count if count is not None else time.perf_counter() - start < seconds:
            op = ops[len(samples) % len(ops)]
            if tracer is not None:
                tracer.op = f"{len(samples)}:{op.kind}"
            sample, failed = self.attempt(self.run_op, op, state, client)
            sample = sample or Sample(op, float("nan"))
            sample.failed = failed
            samples.append(sample)
            self.samples.append(
                {"kind": op.kind, "question": op.question, "seconds": sample.seconds, "calls": sample.calls, "tokens": sample.tokens, **sample.extra}
            )
        return samples

    # -- runs --------------------------------------------------------------------

    def run_timed(self) -> tuple[dict, dict]:
        """Set up ``SETUP_REPS`` times, then time the workload's loop untraced."""
        prepared, failed = self.attempt(self.prepare)
        if failed:
            return {}, {}
        setups = []
        state = None
        for _ in range(SETUP_REPS):
            state = None  # drop the previous set-up's graph before timing the next
            gc.collect()
            state, failed = self.attempt(self.setup, prepared, self.embedder)
            if failed:
                return {}, {}
            setups.append({k: state[k] for k in ("setup_s", "index_s", "save_s", "load_s")})
        client = self.client(state["backend"], self.embedder)
        samples = self.loop(self.operations(state), state, client, seconds=self.args.seconds)
        return self.end_to_end(setups, samples)

    def end_to_end(self, setups: list[dict], samples: list[Sample]) -> tuple[dict, dict]:
        ok = [s for s in samples if not s.failed]
        main = [s for s in ok if s.op.kind == MAIN_KIND[self.args.workload]]
        # Latency is gated on the two-hop questions, which take one
        # iteration: how many three-hop questions need a second or third
        # varies with the seed and would move the median between seeds.
        timed = [s for s in main if s.op.hops != 3]
        metrics = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "p50_ms": 1000.0 * median([s.seconds for s in timed]),
            "llm_calls_per_op": per_question(main, "calls"),
            "tokens_per_op": per_question(main, "tokens"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report: dict = {"error_frac": sum(s.failed for s in samples) / max(1, len(samples))}
        report["setup"] = {key: median([s[key] for s in setups]) for key in setups[0]}
        report["setup"]["index_passages_per_s"] = CORPUS.passages / report["setup"]["index_s"]
        report["setup"]["setup_s_each"] = [s["setup_s"] for s in setups]
        for kind in ("naive", "local", "global"):
            group = [s for s in ok if s.op.kind == kind]
            if not group:
                continue
            seconds = [s.seconds for s in group]
            row = {
                "count": len(group),
                "p50_ms": 1000.0 * median(seconds),
                "mean_ms": 1000.0 * mean(seconds),
                "llm_calls_per_op": per_question(group, "calls"),
                "tokens_per_op": per_question(group, "tokens"),
            }
            if tail(seconds) is not None:
                row["tail_percentile"], row["tail_ms"] = tail(seconds)[0], 1000.0 * tail(seconds)[1]
            if kind in ("naive", "local"):
                row["em"] = mean([s.extra["em"] for s in group])
            if kind == "local":
                iterations = [s.extra["iterations"] for s in group]
                row["iterations"] = {i: iterations.count(i) for i in sorted(set(iterations))}
                row["exhausted"] = sum(s.extra["exhausted"] for s in group)
                for hops in (2, 3):
                    row[f"p50_ms_{hops}_hop"] = 1000.0 * median([s.seconds for s in group if s.op.hops == hops])
            if kind == "global":
                row["anchors_per_q"] = mean([s.extra["anchors"] for s in group])
            report[kind] = row
        return metrics, report

    def run_traced(self) -> tuple[dict, dict]:
        """A traced set-up, then untraced and traced passes over the same questions."""
        prepared, failed = self.attempt(self.prepare)
        if failed:
            return {}, {}
        tracer = Tracer()
        embedder = TracedEmbedder(self.embedder, tracer)
        tracer.phase, tracer.op = "setup", "setup"
        tracer.install()
        try:
            state, failed = self.attempt(self.setup, prepared, embedder, tracer)
        finally:
            tracer.uninstall()
        if failed:
            return {}, {}
        ops = self.operations(state)
        plain = self.loop(ops, state, self.client(state["backend"], self.embedder), seconds=self.args.seconds / 2)

        tracer.phase = "op"
        tracer.install()
        try:
            client = self.client(state["backend"], embedder, tracer)
            traced = self.loop(ops, state, client, count=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        spans_path = self.out / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
        tracer.write(spans_path)

        roots = {phase: [s.name for s in tracer.spans if s.phase == phase and s.parent is None] for phase in ("setup", "op")}
        self.check(roots["setup"] == ["bench.setup"], f"set-up root spans are {roots['setup']}, not one bench.setup")
        self.check(
            roots["op"] == ["evaluation.answer_question"] * len(traced),
            f"{len(traced)} questions have {len(roots['op'])} root spans, named {sorted(set(roots['op']))}",
        )
        values = layer_metrics(tracer)
        self.check(
            values["trace.layers_self_s"] <= values["trace.root_s"],
            f"layer self times {values['trace.layers_self_s']} exceed the root span's {values['trace.root_s']}",
        )
        iterations = [s.extra["iterations"] for s in traced if "iterations" in s.extra]
        anchors = [s.extra["anchors"] for s in traced if "anchors" in s.extra]
        values["local_mode.iterations_per_q"] = mean(iterations) if iterations else 0.0
        values["global_mode.anchors_per_q"] = mean(anchors) if anchors else 0.0
        values["trace.untraced_s"] = mean([s.seconds for s in plain])
        values["trace.overhead_s"] = values["trace.root_s"] - values["trace.untraced_s"]
        return values, {"spans": spans_path.name, "questions": len(traced)}
