"""The one client of the OpenAI-compatible HTTP endpoints, and its retry policy.

A POST is retried with exponential backoff on connection errors, 429 and
5xx responses, malformed HTTP replies, and bodies that ``parse`` cannot
read. A 429 or 503 that names a delay in seconds in its ``Retry-After``
header waits at least that long, and at most the client's timeout, before
the next attempt. Any other 4xx is a permanent fault (bad request, auth)
and fails at once, and so does every 3xx: no redirect is followed, so the
request and its ``Authorization`` header never reach another URL.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, TypeVar

from .errors import BackendUnavailable

T = TypeVar("T")


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args, **kwargs):  # follow none: a 3xx reaches the caller as an HTTPError
        return None


class OpenAICompatClient:
    """One endpoint's base URL, model, auth, timeout and retry budget.

    The API key is ``api_key`` when given, else the ``api_key_env``
    variable; an empty key sends no ``Authorization`` header. At most
    ``max_concurrency`` requests are in flight across threads when it is
    given.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None,
        api_key_env: str,
        timeout: float,
        max_retries: int,
        backoff: float,
        max_concurrency: int | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._headers = {"Content-Type": "application/json"}
        api_key = api_key or os.environ.get(api_key_env, "")
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._gate = contextlib.nullcontext() if max_concurrency is None else threading.Semaphore(max_concurrency)
        self._opener = urllib.request.build_opener(_NoRedirect)  # proxies come from the environment, as urlopen's

    def post(self, path: str, payload: dict, parse: Callable[[object], T]) -> T:
        """POST ``payload`` and the model to ``path``; return ``parse`` of the decoded body.

        The gate is held around each POST and its body read, never during
        backoff. Raises ``BackendUnavailable`` once ``max_retries`` attempts have failed.
        """
        url = f"{self.base_url}/{path}"
        body = json.dumps({"model": self.model, **payload}).encode()
        request = urllib.request.Request(url, data=body, headers=self._headers, method="POST")
        last_err: Exception | None = None
        for attempt in range(self.max_retries):
            delay = self.backoff * 2.0**attempt
            try:
                with self._gate, self._opener.open(request, timeout=self.timeout) as resp:
                    raw = resp.read()
                return parse(json.loads(raw))
            except urllib.error.HTTPError as err:  # an OSError too, so it comes first
                err.close()
                if err.code < 500 and err.code != 429:  # permanent: bad request, auth, a redirect
                    raise BackendUnavailable(f"{url} returned {err.code}") from None
                if err.code in (429, 503):
                    asked = _delay_seconds(err.headers.get("Retry-After"))
                    if asked is not None:
                        delay = max(delay, min(asked, self.timeout))
                last_err = err  # 429 and 5xx are worth another attempt
            # a malformed status line or a short body is an HTTPException, not an OSError
            except (OSError, http.client.HTTPException, KeyError, IndexError, TypeError, ValueError) as err:
                last_err = err
            if attempt + 1 < self.max_retries:
                time.sleep(delay)
        raise BackendUnavailable(f"{url} failed after {self.max_retries} attempts: {last_err}")


def _delay_seconds(retry_after: str | None) -> float | None:
    """The delay a ``Retry-After`` header asks for in its delta-seconds form, or None.

    The HTTP-date form and anything unparseable give None.
    """
    value = (retry_after or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None
