"""Wire-format tests for the OpenAI-compatible HTTP backends.

A tiny in-process HTTP server plays the serving side so the client's
request shape, response parsing, retry policy and failure surface are
exercised end to end without any network dependency.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from propgraph.cli import main
from propgraph.encoding import HashedNgramEmbedder, OpenAICompatEmbedder, is_normalized
from propgraph.errors import BackendUnavailable
from propgraph.indexing import CorpusDocument, index_corpus
from propgraph.llm import LLMGateway, MockChatBackend, OpenAICompatChatBackend
from propgraph.prompts import TemplateId, render

from conftest import NILE_PASSAGES, extraction_rules
from test_cli import run_index, workspace  # noqa: F401 (a fixture)


class _Handler(BaseHTTPRequestHandler):
    server_version = "fake"
    fail_first = 0  # failures served before succeeding
    always_fail = False
    fail_status = 500
    retry_after: str | None = None  # the Retry-After header of each failure
    reply: bytes | None = None  # served in place of a well-formed 200 body
    seen: list[dict] = []

    def log_message(self, *args):  # keep test output quiet
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append({"path": self.path, "body": body, "auth": self.headers.get("Authorization")})
        if type(self).always_fail or type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(type(self).fail_status)
            if type(self).retry_after is not None:
                self.send_header("Retry-After", type(self).retry_after)
            self.end_headers()
            return
        if type(self).reply is not None:
            payload = None
        elif self.path.endswith("/embeddings"):
            data = [
                {"index": i, "embedding": [float(i + 1), 1.0, 0.0]}
                for i in range(len(body["input"]))
            ]
            payload = {"data": data}
        else:
            payload = {"choices": [{"message": {"content": f"echo: {body['messages'][0]['content'][:20]}"}}]}
        raw = type(self).reply if payload is None else json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)


@pytest.fixture
def fake_server():
    _Handler.fail_first = 0
    _Handler.always_fail = False
    _Handler.fail_status = 500
    _Handler.retry_after = None
    _Handler.reply = None
    _Handler.seen = []
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1", _Handler
    server.shutdown()
    thread.join(timeout=2)


def test_embedder_round_trip(fake_server):
    base_url, handler = fake_server
    embedder = OpenAICompatEmbedder(base_url, model="test-embed", api_key="sekrit", batch_size=2)
    vectors = embedder.embed(["alpha", "beta", "gamma"])
    assert len(vectors) == 3
    for vec in vectors:
        assert vec.shape == (3,)
        assert is_normalized(vec)  # client re-normalizes server output
    assert handler.seen[0]["body"] == {"model": "test-embed", "input": ["alpha", "beta"]}
    assert handler.seen[1]["body"]["input"] == ["gamma"]  # batch_size respected
    assert handler.seen[0]["auth"] == "Bearer sekrit"


def test_embedder_retries_transient_errors(fake_server):
    base_url, handler = fake_server
    handler.fail_first = 2
    embedder = OpenAICompatEmbedder(base_url, model="m", max_retries=3, backoff=0.0)
    vectors = embedder.embed(["hello"])
    assert len(vectors) == 1
    assert len(handler.seen) == 3  # two 500s then success


def test_embedder_gives_up_after_retries(fake_server):
    base_url, handler = fake_server
    handler.always_fail = True
    embedder = OpenAICompatEmbedder(base_url, model="m", max_retries=2, backoff=0.0)
    with pytest.raises(BackendUnavailable):
        embedder.embed(["hello"])
    assert len(handler.seen) == 2


def test_chat_backend_round_trip(fake_server):
    base_url, handler = fake_server
    backend = OpenAICompatChatBackend(base_url, model="test-chat", api_key="sekrit")
    prompt = render(TemplateId.FINAL_ANSWER, question="q", context="ctx")
    completion = backend.complete(prompt)
    assert completion.startswith("echo: ")
    body = handler.seen[0]["body"]
    assert body["model"] == "test-chat"
    assert body["temperature"] == 0.0
    assert body["messages"][0]["role"] == "user"
    assert prompt.rendered.startswith(body["messages"][0]["content"][:10])


def test_chat_backend_surfaces_outage(fake_server):
    base_url, handler = fake_server
    handler.always_fail = True
    backend = OpenAICompatChatBackend(base_url, model="m", max_retries=2, backoff=0.0)
    with pytest.raises(BackendUnavailable):
        backend.complete(render(TemplateId.FINAL_ANSWER, question="q", context="c"))


def _call(kind, base_url, **kwargs):
    """One request through the chat or the embeddings client."""
    if kind == "chat":
        backend = OpenAICompatChatBackend(base_url, model="m", backoff=0.0, **kwargs)
        return backend.complete(render(TemplateId.FINAL_ANSWER, question="q", context="c"))
    return OpenAICompatEmbedder(base_url, model="m", backoff=0.0, **kwargs).embed(["hello"])


def test_chat_backend_retries_transient_errors(fake_server):
    base_url, handler = fake_server
    handler.fail_first = 2
    assert _call("chat", base_url, max_retries=3).startswith("echo: ")
    assert len(handler.seen) == 3  # two 500s then success


@pytest.mark.parametrize(
    "status, retry_after, backoff, waits",
    [
        # the header's delay when it is longer than the backoff
        (429, "2", 0.5, [2.0, 2.0]),
        (503, "3", 0.5, [3.0, 3.0]),
        # the backoff when it is longer
        (429, "1", 4.0, [4.0, 8.0]),
        (429, "0", 0.5, [0.5, 1.0]),
        # never longer than the timeout of 5 s
        (503, "120", 0.5, [5.0, 5.0]),
        # only 429 and 503 are read
        (500, "2", 0.5, [0.5, 1.0]),
        # a missing or unparseable header, or the HTTP-date form, keeps the backoff
        (429, None, 0.5, [0.5, 1.0]),
        (429, "soon", 0.5, [0.5, 1.0]),
        (429, "1.5", 0.5, [0.5, 1.0]),
        (429, "-3", 0.5, [0.5, 1.0]),
        (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5, [0.5, 1.0]),
    ],
)
@pytest.mark.parametrize("kind", ["chat", "embed"])
def test_retry_after_lengthens_the_backoff(fake_server, monkeypatch, kind, status, retry_after, backoff, waits):
    base_url, handler = fake_server
    handler.fail_first = 2
    handler.fail_status = status
    handler.retry_after = retry_after
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    if kind == "chat":
        backend = OpenAICompatChatBackend(base_url, model="m", timeout=5.0, max_retries=3, backoff=backoff)
        assert backend.complete(render(TemplateId.FINAL_ANSWER, question="q", context="c")).startswith("echo: ")
    else:
        assert len(OpenAICompatEmbedder(base_url, model="m", timeout=5.0, max_retries=3, backoff=backoff).embed(["hello"])) == 1
    assert slept == waits
    assert len(handler.seen) == 3


@pytest.mark.parametrize("kind", ["chat", "embed"])
def test_client_error_is_not_retried(fake_server, kind):
    base_url, handler = fake_server
    handler.always_fail = True
    handler.fail_status = 400
    with pytest.raises(BackendUnavailable, match="returned 400"):
        _call(kind, base_url, max_retries=3)
    assert len(handler.seen) == 1


@pytest.mark.parametrize("kind", ["chat", "embed"])
@pytest.mark.parametrize(
    "reply",
    [
        b"null",
        b"[1, 2]",
        b"{}",
        # vectors that normalize to no unit vector: a NaN entry, and a norm that overflows
        b'{"data": [{"index": 0, "embedding": [NaN, 1.0]}]}',
        b'{"data": [{"index": 0, "embedding": [1e200, 1e200]}]}',
    ],
)
def test_malformed_body_is_retried_then_unavailable(fake_server, kind, reply):
    base_url, handler = fake_server
    handler.reply = reply
    with pytest.raises(BackendUnavailable, match="after 3 attempts"):
        _call(kind, base_url, max_retries=3)
    assert len(handler.seen) == 3


@pytest.mark.parametrize("kind", ["chat", "embed"])
def test_index_fails_fast_naming_the_passage(fake_server, kind):
    base_url, handler = fake_server
    handler.always_fail = True
    if kind == "chat":
        backend = OpenAICompatChatBackend(base_url, model="m", max_retries=2, backoff=0.0)
        embedder = HashedNgramEmbedder()
    else:
        backend = MockChatBackend(extraction_rules(NILE_PASSAGES))
        embedder = OpenAICompatEmbedder(base_url, model="m", max_retries=2, backoff=0.0)
    text = NILE_PASSAGES[0][0]
    with pytest.raises(BackendUnavailable, match=rf"while indexing nile \(0, {len(text)}\): .*after 2 attempts") as info:
        index_corpus([CorpusDocument("nile", text)], LLMGateway(backend), embedder)
    assert isinstance(info.value.__cause__, BackendUnavailable)
    assert len(handler.seen) == 2  # the first request's retries, then nothing more


def _choice(**fields):
    return json.dumps({"choices": [fields]}).encode()


# replies whose first choice carries no string content
NO_TEXT_REPLIES = {
    "null content": _choice(message={"role": "assistant", "content": None}),
    "int content": _choice(message={"role": "assistant", "content": 5}),
    "list content": _choice(message={"role": "assistant", "content": [{"type": "text", "text": "KEEP: 1"}]}),
    "no message": _choice(finish_reason="stop"),
    "refusal": _choice(message={"role": "assistant", "content": None, "refusal": "I can't help with that."}),
}


@pytest.mark.parametrize("reply", NO_TEXT_REPLIES.values(), ids=NO_TEXT_REPLIES.keys())
def test_a_reply_without_string_content_is_retried_then_unavailable(fake_server, reply):
    base_url, handler = fake_server
    handler.reply = reply
    gateway = LLMGateway(OpenAICompatChatBackend(base_url, model="m", max_retries=3, backoff=0.0))
    with pytest.raises(BackendUnavailable, match="after 3 attempts: no string content"):
        gateway.select_relevant("q", ["a fact", "another fact"])
    with pytest.raises(BackendUnavailable, match="after 3 attempts: no string content"):
        gateway.final_answer("q", ["a fact"])
    assert len(handler.seen) == 6


def test_query_against_a_server_without_string_content_exits_1(fake_server, workspace, monkeypatch, capsys):
    base_url, handler = fake_server
    graph_dir = run_index(workspace)
    handler.reply = NO_TEXT_REPLIES["refusal"]
    config = {
        "chat_backend": {"kind": "openai", "base_url": base_url, "model": "m"},
        "embed_backend": {"kind": "mock", "dimension": 256},
    }
    (workspace / "openai.json").write_text(json.dumps(config))
    monkeypatch.setattr(time, "sleep", lambda seconds: None)
    capsys.readouterr()
    args = ["query", "--config", str(workspace / "openai.json"), "--graph", str(graph_dir), "--mode", "local"]
    assert main([*args, "--trace", str(workspace / "trace.jsonl"), "Where was Albert Einstein born?"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no string content" in err and "I can't help with that." in err
    assert len(handler.seen) == 3  # the first Select's attempts, then nothing more
