"""Wire-format tests for the OpenAI-compatible HTTP backends.

A tiny in-process HTTP server plays the serving side so the client's
request shape, response parsing, retry policy and failure surface are
exercised end to end without any network dependency.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from propgraph.encoding import HashedNgramEmbedder, OpenAICompatEmbedder, is_normalized
from propgraph.errors import BackendUnavailable
from propgraph.indexing import CorpusDocument, index_corpus
from propgraph.llm import LLMGateway, MockChatBackend, OpenAICompatChatBackend
from propgraph.prompts import TemplateId, render

from conftest import NILE_PASSAGES, extraction_rules


class _Handler(BaseHTTPRequestHandler):
    server_version = "fake"
    fail_first = 0  # failures served before succeeding
    always_fail = False
    fail_status = 500
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
        assert is_normalized(vec)  # client re-normalizes server output
    assert handler.seen[0]["body"] == {"model": "test-embed", "input": ["alpha", "beta"]}
    assert handler.seen[1]["body"]["input"] == ["gamma"]  # batch_size respected
    assert handler.seen[0]["auth"] == "Bearer sekrit"
    assert embedder.dimension() == 3


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
