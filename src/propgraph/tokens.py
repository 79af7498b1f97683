"""Token-count estimation, and packing text under a token budget.

The estimator is deliberately tokenizer-free: whitespace word count scaled
by a words-to-tokens ratio.
"""

from __future__ import annotations

import math
from typing import Iterable

WORDS_TO_TOKENS = 1.3


def estimate_tokens(text: str) -> int:
    """Estimate the token count of ``text`` from its whitespace word count."""
    if not text:
        return 0
    return math.ceil(len(text.split()) * WORDS_TO_TOKENS)


def truncate_to_tokens(text: str, limit: int) -> str:
    """Truncate ``text`` at a word boundary so its estimate fits ``limit``."""
    if limit <= 0:
        return ""
    words = text.split()
    keep = int(limit / WORDS_TO_TOKENS)
    if len(words) <= keep:
        return text
    return " ".join(words[:keep])


def split_to_fit(text: str, limit: int) -> list[str]:
    """``[text]`` if its estimate fits ``limit``, else its words in runs of ``limit`` tokens' worth (at least one)."""
    if estimate_tokens(text) <= limit:
        return [text]
    words = text.split()
    step = max(1, int(limit / WORDS_TO_TOKENS))
    return [" ".join(words[i : i + step]) for i in range(0, len(words), step)]


def pack(pieces: Iterable[str], limit: int) -> list[list[str]]:
    """Greedy consecutive runs of ``pieces``, each estimated within ``limit`` unless it is one piece over it.

    A piece opens a new run only when the current run is non-empty and the
    piece would take its sum past ``limit``, so every run holds at least
    one piece and a piece over ``limit`` stands alone.
    """
    runs: list[list[str]] = []
    total = 0
    for piece in pieces:
        t = estimate_tokens(piece)
        if not runs or total + t > limit:
            runs.append([])
            total = 0
        runs[-1].append(piece)
        total += t
    return runs
