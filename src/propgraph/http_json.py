"""The one client of the OpenAI-compatible HTTP endpoints, and its retry policy.

A POST is retried with exponential backoff on connection errors, 429 and
5xx responses, and bodies that ``parse`` cannot read. Any other 4xx is a
permanent fault (bad request, auth) and fails at once.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Callable, TypeVar

import requests

from .errors import BackendUnavailable

T = TypeVar("T")


class OpenAICompatClient:
    """One endpoint's base URL, model, auth, session, timeout and retry budget.

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
        self._session = requests.Session()

    def post(self, path: str, payload: dict, parse: Callable[[object], T]) -> T:
        """POST ``payload`` and the model to ``path``; return ``parse`` of the decoded body.

        The gate is held around each POST only, never during backoff. Raises
        ``BackendUnavailable`` once ``max_retries`` attempts have failed.
        """
        url = f"{self.base_url}/{path}"
        body = {"model": self.model, **payload}
        last_err: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                with self._gate:
                    resp = self._session.post(url, json=body, headers=self._headers, timeout=self.timeout)
                if 400 <= resp.status_code < 500 and resp.status_code != 429:  # permanent: bad request/auth
                    raise BackendUnavailable(f"{url} returned {resp.status_code}")
                resp.raise_for_status()  # 429 and 5xx are worth another attempt
                return parse(resp.json())
            except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as err:
                last_err = err
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff * 2.0**attempt)
        raise BackendUnavailable(f"{url} failed after {self.max_retries} attempts: {last_err}")
