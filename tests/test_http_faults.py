"""Malformed HTTP replies reach the caller as ``BackendUnavailable``, never as an ``http.client`` error.

A raw socket server writes each reply byte for byte, so the client meets
replies that no well-behaved HTTP server sends: a status line that is not
HTTP, a body shorter than its ``Content-Length``, and a connection closed
before any reply. Each is retried like an unreadable body. A redirect is
never followed: it fails at once, and its target sees no request.
"""

import contextlib
import socketserver
import threading

import pytest

from propgraph.errors import BackendUnavailable
from propgraph.http_json import OpenAICompatClient


class _RawReply(socketserver.StreamRequestHandler):
    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)
        self.server.requests += 1
        self.wfile.write(self.server.reply)


@contextlib.contextmanager
def _serve():
    """A server that answers every request with ``server.reply`` and closes the connection."""
    server = socketserver.TCPServer(("127.0.0.1", 0), _RawReply)
    server.requests, server.reply = 0, b""
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


@pytest.fixture
def raw_server():
    with _serve() as server:
        yield server


def _client(server, api_key=None):
    base_url = f"http://127.0.0.1:{server.server_address[1]}/v1"
    return OpenAICompatClient(base_url, "m", api_key, "PROPGRAPH_NO_SUCH_KEY", timeout=5.0, max_retries=3, backoff=0.0)


@pytest.mark.parametrize(
    "reply",
    [
        b"NOT HTTP AT ALL\r\n\r\n",
        b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{"data": []}',
        b"",
    ],
    ids=["garbled status line", "body shorter than its length", "closed without a reply"],
)
def test_malformed_reply_is_retried_then_unavailable(raw_server, reply):
    raw_server.reply = reply
    with pytest.raises(BackendUnavailable, match="failed after 3 attempts"):
        _client(raw_server).post("embeddings", {"input": ["hello"]}, parse=lambda body: body)
    assert raw_server.requests == 3


def test_well_formed_reply_from_the_raw_server_parses(raw_server):
    # the control: the failures above come from the malformed bytes, not from the server
    raw_server.reply = b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{"data": []}'
    assert _client(raw_server).post("embeddings", {"input": ["hello"]}, parse=lambda body: body) == {"data": []}
    assert raw_server.requests == 1


@pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
def test_redirect_is_not_followed(raw_server, code):
    # the target is another origin: following it would hand the API key to that host
    with _serve() as target:
        target.reply = b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{"data": []}'
        location = f"http://localhost:{target.server_address[1]}/v1/embeddings"
        raw_server.reply = f"HTTP/1.1 {code} Moved\r\nLocation: {location}\r\nContent-Length: 0\r\n\r\n".encode()
        with pytest.raises(BackendUnavailable, match=f"returned {code}"):
            _client(raw_server, api_key="sk-secret").post("embeddings", {"input": ["hello"]}, parse=lambda body: body)
        assert target.requests == 0
    assert raw_server.requests == 1
