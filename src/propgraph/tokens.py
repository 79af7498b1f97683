"""Token-count estimation used for chunking and context budgets.

The estimator is deliberately tokenizer-free: whitespace word count scaled
by a words-to-tokens ratio.
"""

from __future__ import annotations

import math

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
