import json
from pathlib import Path

import pytest

from propgraph.cli import main
from propgraph.evaluation import MODES

from conftest import TWO_HOP_PASSAGES, TWO_HOP_QUESTION, two_hop_rules


def rules_as_json(rules) -> list[dict]:
    out = []
    for rule in rules:
        assert rule.respond is None, "only static rules can be serialized"
        entry = {"response": rule.response}
        if rule.template:
            entry["template"] = rule.template
        if rule.contains:
            entry["contains"] = rule.contains
        if rule.slot_equals:
            entry["slot_equals"] = rule.slot_equals
        out.append(entry)
    return out


EVAL_RULES = [
    ("Where was Albert Einstein born?", "Ulm"),
    ("What did Marie Curie discover?", "radium"),
    ("Which river flows through Brazil?", "the Amazon River"),
]

DATASET = [
    {"question": "Where was Albert Einstein born?", "answers": ["Ulm"]},
    {"question": "What did Marie Curie discover?", "answers": ["radium"]},
    {"question": "Which river flows through Brazil?", "answers": ["Amazon River"]},
]


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, (text, _, _) in enumerate(TWO_HOP_PASSAGES):
        (corpus / f"{i:02d}.txt").write_text(text)

    from propgraph.llm import MockRule

    rules = two_hop_rules()
    for question, answer in EVAL_RULES:
        rules.append(MockRule(template="FinalAnswer", slot_equals={"question": question}, response=answer))
    (tmp_path / "rules.json").write_text(json.dumps(rules_as_json(rules), indent=2))

    config = {
        "top_k": 5,
        "chat_backend": {"kind": "mock", "script": "rules.json"},
        "embed_backend": {"kind": "mock", "dimension": 256},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    with open(tmp_path / "dataset.jsonl", "w") as fh:
        for row in DATASET:
            fh.write(json.dumps(row) + "\n")
    return tmp_path


def run_index(ws: Path) -> Path:
    graph_dir = ws / "graph"
    code = main(
        ["index", "--config", str(ws / "config.json"), "--corpus", str(ws / "corpus"), "--out", str(graph_dir)]
    )
    assert code == 0
    return graph_dir


def test_index_and_stats(workspace, capsys):
    graph_dir = run_index(workspace)
    capsys.readouterr()
    assert main(["stats", "--graph", str(graph_dir)]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts["passages"] == 12
    assert counts["propositions"] == 12
    assert counts["entities"] > 0 and counts["edges"] > 0


def test_query_local_mode_answers_and_writes_trace(workspace, capsys):
    graph_dir = run_index(workspace)
    trace_path = workspace / "trace.jsonl"
    code = main(
        [
            "query",
            "--config", str(workspace / "config.json"),
            "--graph", str(graph_dir),
            "--mode", "local",
            "--max-iter", "3",
            "--trace", str(trace_path),
            TWO_HOP_QUESTION,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "Germany"
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert events[0]["event"] == "seed"
    assert events[-1]["event"] == "result"


def test_eval_perfect_scores_and_determinism(workspace, capsys):
    graph_dir = run_index(workspace)
    runs = []
    for name in ("run1", "run2"):
        out_dir = workspace / name
        code = main(
            [
                "eval",
                "--config", str(workspace / "config.json"),
                "--graph", str(graph_dir),
                "--dataset", str(workspace / "dataset.jsonl"),
                "--mode", "naive",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        runs.append(out_dir)
    report = json.loads((runs[0] / "report.json").read_text())
    assert report["count"] == 3
    assert report["exact_match"] == 1.0
    assert report["f1"] == 1.0
    assert report["usage"]["total"]["prompt_tokens"] > 0
    assert (runs[0] / "report.json").read_bytes() == (runs[1] / "report.json").read_bytes()
    assert (runs[0] / "questions.jsonl").read_bytes() == (runs[1] / "questions.jsonl").read_bytes()


def test_eval_empty_dataset(workspace, capsys):
    graph_dir = run_index(workspace)
    (workspace / "empty.jsonl").write_text("")
    code = main(
        [
            "eval",
            "--config", str(workspace / "config.json"),
            "--graph", str(graph_dir),
            "--dataset", str(workspace / "empty.jsonl"),
            "--out", str(workspace / "empty_run"),
        ]
    )
    assert code == 0
    report = json.loads((workspace / "empty_run" / "report.json").read_text())
    assert report == {"count": 0, "exact_match": 0.0, "f1": 0.0, "failed": 0, "usage": report["usage"]}
    assert (workspace / "empty_run" / "questions.jsonl").read_text() == ""


def test_bad_flag_exits_2(workspace):
    with pytest.raises(SystemExit) as err:
        main(["stats", "--no-such-flag"])
    assert err.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_config_flag_exits_2(workspace):
    with pytest.raises(SystemExit) as err:
        main(["query", "--graph", "somewhere", "question"])
    assert err.value.code == 2


def test_missing_graph_is_reported(workspace, capsys):
    code = main(["stats", "--graph", str(workspace / "nonexistent")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_graph_with_a_non_object_manifest_is_reported(workspace, capsys):
    graph_dir = workspace / "not_a_graph"
    graph_dir.mkdir()
    (graph_dir / "manifest.json").write_text("[]")
    code = main(["stats", "--graph", str(graph_dir)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_parallel_workers_report_identical(workspace):
    graph_dir = run_index(workspace)
    reports = {}
    for workers, name in ((1, "serial"), (3, "parallel")):
        config = json.loads((workspace / "config.json").read_text())
        config["eval_workers"] = workers
        cfg_path = workspace / f"config_{name}.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = workspace / f"run_{name}"
        assert main(
            [
                "eval",
                "--config", str(cfg_path),
                "--graph", str(graph_dir),
                "--dataset", str(workspace / "dataset.jsonl"),
                "--mode", "naive",
                "--out", str(out_dir),
            ]
        ) == 0
        reports[name] = (out_dir / "report.json").read_bytes(), (out_dir / "questions.jsonl").read_bytes()
    assert reports["serial"] == reports["parallel"]


def test_dataset_requires_gold_answers(tmp_path):
    from propgraph.evaluation import load_dataset

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"question": "q", "answers": []}\n')
    with pytest.raises(ValueError):
        load_dataset(bad)
    also_bad = tmp_path / "mode.jsonl"
    also_bad.write_text('{"question": "q", "answers": ["a"], "mode": "turbo"}\n')
    with pytest.raises(ValueError):
        load_dataset(also_bad)


def test_unknown_config_key_is_reported(workspace, capsys):
    (workspace / "bad.json").write_text('{"no_such_key": 1}')
    code = main(
        ["index", "--config", str(workspace / "bad.json"), "--corpus", str(workspace / "corpus"), "--out", str(workspace / "g2")]
    )
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_query_global_mode_runs_end_to_end(workspace, capsys):
    graph_dir = run_index(workspace)
    trace_path = workspace / "global_trace.jsonl"
    code = main(
        [
            "query",
            "--config", str(workspace / "config.json"),
            "--graph", str(graph_dir),
            "--mode", "global",
            "--trace", str(trace_path),
            "What do these passages cover?",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip()
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert events[0]["event"] == "decompose"
    assert events[-1]["event"] == "result"


def write_sized_config(ws: Path, top_k: int, subgraph_max_size: int) -> Path:
    config = json.loads((ws / "config.json").read_text())
    config.update(top_k=top_k, subgraph_max_size=subgraph_max_size)
    path = ws / f"sized_{top_k}_{subgraph_max_size}.json"
    path.write_text(json.dumps(config))
    return path


def test_carving_smaller_than_top_k_is_a_config_error(workspace, capsys):
    graph_dir = run_index(workspace)
    capsys.readouterr()
    config = write_sized_config(workspace, 60, 50)
    code = main(["query", "--config", str(config), "--graph", str(graph_dir), "--mode", "local", TWO_HOP_QUESTION])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: subgraph_max_size 50 is below top_k 60" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["local", "global"])
def test_carving_equal_to_top_k_runs(workspace, mode):
    graph_dir = run_index(workspace)
    config = write_sized_config(workspace, 5, 5)
    trace = workspace / f"trace_{mode}.jsonl"
    args = ["query", "--config", str(config), "--graph", str(graph_dir), "--mode", mode, "--trace", str(trace)]
    assert main([*args, TWO_HOP_QUESTION]) == 0


def assert_reported(code: int, err: str, message: str) -> None:
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_max_iter_override_is_checked(workspace, capsys):
    graph_dir = run_index(workspace)
    capsys.readouterr()
    args = ["query", "--config", str(workspace / "config.json"), "--graph", str(graph_dir), "--mode", "local"]
    code = main([*args, "--max-iter", "0", TWO_HOP_QUESTION])
    assert_reported(code, capsys.readouterr().err, "max_iter must be >= 1")


@pytest.mark.parametrize(
    "row, message",
    [
        ('{"question": "q", "answers": ["a"], "mode": "turbo"}', "bad.jsonl:2: unknown mode 'turbo'"),
        ('{"question": "q"}', "bad.jsonl:2: answers must be a list of strings"),
        ('["q", ["a"]]', "bad.jsonl:2: expected a JSON object"),
        ("{not json", "bad.jsonl:2: "),
    ],
)
def test_malformed_dataset_row_is_reported(workspace, capsys, row, message):
    graph_dir = run_index(workspace)
    capsys.readouterr()
    (workspace / "bad.jsonl").write_text(json.dumps(DATASET[0]) + "\n" + row + "\n")
    code = main(
        [
            "eval",
            "--config", str(workspace / "config.json"),
            "--graph", str(graph_dir),
            "--dataset", str(workspace / "bad.jsonl"),
            "--out", str(workspace / "bad_run"),
        ]
    )
    assert_reported(code, capsys.readouterr().err, message)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"embed_backend": {"kind": "mock", "dimension": 1}}, "embed_backend dimension must be an integer >= 2, got 1"),
        ({"chat_backend": {"kind": "mock", "script": "broken.json"}}, "cannot read mock script "),
        ({"chat_backend": {"kind": "mock", "script": "absent.json"}}, "cannot read mock script "),
        (
            {"chat_backend": {"kind": "openai", "base_url": "http://127.0.0.1:9/v1", "model": "m", "max_concurrency": 0}},
            "chat_backend max_concurrency must be an integer >= 1, got 0",
        ),
        (
            {"embed_backend": {"kind": "openai", "base_url": "http://127.0.0.1:9/v1", "model": "m", "batch_size": 0}},
            "embed_backend batch_size must be an integer >= 1, got 0",
        ),
    ],
)
def test_unusable_backend_spec_is_reported(workspace, capsys, change, message):
    (workspace / "broken.json").write_text('[{"template": "Eval", ')
    config = json.loads((workspace / "config.json").read_text())
    (workspace / "config.json").write_text(json.dumps({**config, **change}))
    args = ["index", "--config", str(workspace / "config.json"), "--corpus", str(workspace / "corpus"), "--out", str(workspace / "g")]
    code = main(args)
    err = capsys.readouterr().err
    assert_reported(code, err, message)
    script = change.get("chat_backend", {}).get("script")
    assert script is None or str(workspace / script) in err


def test_corpus_row_without_doc_id_is_reported(workspace, capsys):
    corpus = workspace / "corpus.jsonl"
    corpus.write_text('{"doc_id": "d0", "text": "Ulm is a city."}\n\n{"text": "no id here"}\n')
    args = ["index", "--config", str(workspace / "config.json"), "--corpus", str(corpus), "--out", str(workspace / "g")]
    code = main(args)
    assert_reported(code, capsys.readouterr().err, "corpus.jsonl:3: a corpus row needs a doc_id and a text string")


@pytest.mark.parametrize(
    "bad, command, message",
    [
        ("corpus/bad.txt", "index --config {ws}/config.json --corpus {ws}/corpus --out {ws}/g", "bad.txt: not valid UTF-8"),
        ("corpus.jsonl", "index --config {ws}/config.json --corpus {ws}/corpus.jsonl --out {ws}/g", "corpus.jsonl: not valid UTF-8"),
        ("config.json", "query --config {ws}/config.json --graph {ws}/graph Ulm?", "cannot read config "),
        ("dataset.jsonl", "eval --config {ws}/config.json --graph {ws}/graph --dataset {ws}/dataset.jsonl --out {ws}/run", "dataset.jsonl: not valid UTF-8"),
        ("graph/manifest.json", "stats --graph {ws}/graph", "unreadable manifest"),
    ],
)
def test_input_that_is_not_utf8_is_reported(workspace, capsys, bad, command, message):
    run_index(workspace)
    capsys.readouterr()
    (workspace / bad).write_bytes(b'{"doc_id": "d0", "text": "Ulm \xff"}\n')
    code = main(command.format(ws=workspace).split())
    assert_reported(code, capsys.readouterr().err, message)


@pytest.mark.parametrize("mode", MODES)
def test_a_graph_without_propositions_is_reported(tmp_path, capsys, mode):
    # every default: the unscripted mock extracts no propositions
    (tmp_path / "config.json").write_text("{}")
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "a.txt").write_text("Ulm is a city on the Danube.")
    (tmp_path / "dataset.jsonl").write_text(json.dumps({"question": "Where is Ulm?", "answers": ["Danube"]}) + "\n")
    config, graph_dir = str(tmp_path / "config.json"), str(tmp_path / "graph")
    assert main(["index", "--config", config, "--corpus", str(tmp_path / "corpus"), "--out", graph_dir]) == 0
    capsys.readouterr()
    trace = str(tmp_path / "trace.jsonl")
    code = main(["query", "--config", config, "--graph", graph_dir, "--mode", mode, "--trace", trace, "Where is Ulm?"])
    assert_reported(code, capsys.readouterr().err, "graph has no propositions")
    out_dir = tmp_path / "run"
    args = ["eval", "--config", config, "--graph", graph_dir, "--dataset", str(tmp_path / "dataset.jsonl")]
    assert main([*args, "--mode", mode, "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "report.json").read_text())["failed"] == 1
    [row] = [json.loads(line) for line in (out_dir / "questions.jsonl").read_text().splitlines()]
    assert (row["failed"], row["error"]) == (True, "EmptyGraphError")


def index_counts(ws: Path, capsys, corpus: Path, **change) -> dict:
    """The counts ``index`` prints for ``corpus`` under the workspace config with ``change`` applied."""
    config = {**json.loads((ws / "config.json").read_text()), **change}
    name = "_".join(f"{key}_{value}" for key, value in change.items())
    (ws / f"{name}.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["index", "--config", str(ws / f"{name}.json"), "--corpus", str(corpus), "--out", str(ws / name)]) == 0
    return json.loads(capsys.readouterr().out)


def test_index_knobs_reach_the_index(workspace, capsys):
    # the corpus as one document, so the chunk target decides how it splits
    joined = workspace / "joined.jsonl"
    joined.write_text(json.dumps({"doc_id": "all", "text": " ".join(text for text, _, _ in TWO_HOP_PASSAGES)}) + "\n")
    assert index_counts(workspace, capsys, joined, chunk_target_tokens=300)["passages"] == 1
    assert index_counts(workspace, capsys, joined, chunk_target_tokens=1)["passages"] == len(TWO_HOP_PASSAGES)
    # at 0.0 a surface joins the first founder with a cosine >= 0, at 1.0 only an identical one
    corpus = workspace / "corpus"
    merged = index_counts(workspace, capsys, corpus, synonym_threshold=0.0)["entities"]
    assert merged < index_counts(workspace, capsys, corpus, synonym_threshold=1.0)["entities"]
