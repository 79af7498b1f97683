"""The one retry policy of the OpenAI-compatible HTTP clients.

A POST is retried with exponential backoff on connection errors, 429 and
5xx responses, and bodies that ``parse`` cannot read. Any other 4xx is a
permanent fault (bad request, auth) and fails at once.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, ContextManager, TypeVar

import requests

from .errors import BackendUnavailable

T = TypeVar("T")


class _RetryableHTTP(Exception):
    """Transient server-side condition worth another attempt."""


def post_json(
    session: requests.Session,
    url: str,
    payload: dict,
    parse: Callable[[object], T],
    *,
    api_key: str,
    timeout: float,
    max_retries: int,
    backoff: float,
    gate: ContextManager = contextlib.nullcontext(),
) -> T:
    """POST ``payload`` as JSON and return ``parse`` of the decoded body.

    ``gate`` is held around each POST only, never during backoff. Raises
    ``BackendUnavailable`` once ``max_retries`` attempts have failed.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_err: Exception | None = None
    for attempt in range(max_retries):
        try:
            with gate:
                resp = session.post(url, json=payload, headers=headers, timeout=timeout)
            if resp.status_code == 429 or resp.status_code >= 500:
                raise _RetryableHTTP(f"status {resp.status_code}")
            if resp.status_code >= 400:  # permanent: bad request/auth, do not retry
                raise BackendUnavailable(f"{url} returned {resp.status_code}")
            return parse(resp.json())
        except (_RetryableHTTP, requests.RequestException, KeyError, IndexError, TypeError, ValueError) as err:
            last_err = err
            if attempt + 1 < max_retries:
                time.sleep(backoff * 2.0**attempt)
    raise BackendUnavailable(f"{url} failed after {max_retries} attempts: {last_err}")
