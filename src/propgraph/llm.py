"""Chat backends and the gateway that turns prompts into typed results.

The gateway owns the retry-then-degrade policy: every structured prompt
gets one retry on unparseable output, after which each operation falls
back to its documented degraded result (selection keeps every candidate,
follow-ups ask the original question again, and so on); the extraction
prompts have none and raise ``ExtractionFailed``. The mock backend is a
pure function of the prompt, scriptable through ordered match rules, with
keyword-overlap defaults that keep a full pipeline runnable offline.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .errors import ConfigError, ExtractionFailed
from .http_json import OpenAICompatClient
from .prompts import PromptInstance, TemplateId, numbered, render
from .tokens import estimate_tokens
from .usage import UsageLedger

log = logging.getLogger(__name__)

# ledger stage per template
_STAGE: dict[TemplateId, str] = {
    TemplateId.NER: "index",
    TemplateId.PROPOSITIONS: "index",
    TemplateId.SELECT: "suggest_select",
    TemplateId.NEXTQ: "suggest_select",
    TemplateId.DECOMPOSE: "suggest_select",
    TemplateId.EVAL: "eval",
    TemplateId.FINAL_ANSWER: "answer",
    TemplateId.INTERMEDIARY_ANSWER: "answer",
    TemplateId.COMBINE_ANSWERS: "answer",
}

_STOPWORDS = frozenset(
    """a an the is are was were be been am do does did have has had having of in on at to for from
    by with and or as it its this that these those which what who whom whose where when why how
    not no nor so if then than there here into over under about""".split()
)


def content_words(text: str) -> set[str]:
    return {w for w in re.findall(r"[a-z0-9]+", text.lower()) if w not in _STOPWORDS}


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class ChatBackend:
    def complete(self, prompt: PromptInstance) -> str:
        raise NotImplementedError


@dataclass
class MockRule:
    """First-match-wins scripting rule for the mock backend.

    ``template`` restricts the rule to one template id (None matches all);
    ``contains`` must be a substring of the rendered prompt; ``slot_equals``
    requires exact slot values. ``respond`` takes precedence over
    ``response`` and allows computed completions in test code.
    """

    response: str | None = None
    template: str | None = None
    contains: str | None = None
    slot_equals: dict | None = None
    respond: Callable[[PromptInstance], str] | None = None

    def matches(self, prompt: PromptInstance) -> bool:
        if self.template is not None and prompt.template_id.value != self.template:
            return False
        if self.contains is not None and self.contains not in prompt.rendered:
            return False
        if self.slot_equals:
            for key, value in self.slot_equals.items():
                if prompt.slots.get(key) != value:
                    return False
        return True


class MockChatBackend(ChatBackend):
    """Deterministic offline backend: scripted rules plus keyword defaults.

    Rules are checked in order; the first match wins. Without a matching
    rule the backend falls back to per-template behavior that is a pure
    function of the prompt: selection keeps candidates sharing a content
    word with the question, evaluation reports insufficiency, scoring
    grants 80 to chunks overlapping the question and 0 otherwise, and the
    answer templates echo the first context line.
    """

    def __init__(self, rules: Sequence[MockRule] = ()):
        self.rules = list(rules)

    @classmethod
    def from_file(cls, path: str | Path) -> "MockChatBackend":
        """Load scripting rules from a JSON list of rule objects, raising ``ConfigError`` on a bad one."""
        try:
            entries = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read mock script {path}: {err}") from err
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ConfigError(f"mock script {path} must be a JSON list of rule objects")
        templates = [t.value for t in TemplateId]
        for index, entry in enumerate(entries):
            where = f"mock script {path} rule {index}"
            for key, value in entry.items():
                if key not in ("response", "template", "contains", "slot_equals"):
                    raise ConfigError(f"{where} has unknown key {key!r}")
                if key == "slot_equals" and not isinstance(value, dict):
                    raise ConfigError(f"{where} slot_equals must be an object, got {value!r}")
                if key != "slot_equals" and not (value is None or isinstance(value, str)):
                    raise ConfigError(f"{where} {key} must be a string or null, got {value!r}")
            if entry.get("template") not in (None, *templates):
                raise ConfigError(f"{where} template must be one of {', '.join(templates)}, got {entry['template']!r}")
        return cls([MockRule(**entry) for entry in entries])

    def complete(self, prompt: PromptInstance) -> str:
        for rule in self.rules:
            if rule.matches(prompt):
                if rule.respond is not None:
                    return rule.respond(prompt)
                return rule.response or ""
        return self._default(prompt)

    def _default(self, prompt: PromptInstance) -> str:
        tid = prompt.template_id
        slots = prompt.slots
        if tid in (TemplateId.NER, TemplateId.PROPOSITIONS):
            return "NONE"
        if tid is TemplateId.SELECT:
            question_words = content_words(slots.get("question", ""))
            kept = []
            for line in slots.get("candidates", "").splitlines():
                m = re.match(r"\s*(\d+)[.)]\s*(.*)", line)
                if not m:
                    continue
                if question_words & content_words(m.group(2)):
                    kept.append(m.group(1))
            return "KEEP: " + (", ".join(kept) if kept else "none")
        if tid is TemplateId.EVAL:
            return "INSUFFICIENT"
        if tid in (TemplateId.NEXTQ, TemplateId.DECOMPOSE):
            return f"1. {slots.get('question', '')}"
        if tid is TemplateId.INTERMEDIARY_ANSWER:
            question_words = content_words(slots.get("question", ""))
            for line in slots.get("context", "").splitlines():
                if question_words & content_words(line):
                    return f"SCORE: 80\nANSWER: {line.strip()}"
            return "SCORE: 0\nANSWER:"
        # FinalAnswer / CombineAnswers
        for line in slots.get("context", "").splitlines():
            if line.strip():
                return line.strip()
        return slots.get("question", "")


class OpenAICompatChatBackend(ChatBackend):
    """Client for an OpenAI-compatible ``/chat/completions`` endpoint.

    ``max_concurrency`` bounds in-flight requests across threads.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        api_key_env: str = "OPENAI_API_KEY",
        temperature: float = 0.0,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        max_concurrency: int = 4,
    ):
        self.client = OpenAICompatClient(base_url, model, api_key, api_key_env, timeout, max_retries, backoff, max_concurrency)
        self.temperature = temperature

    def complete(self, prompt: PromptInstance) -> str:
        return self.client.post(
            "chat/completions",
            {"messages": [{"role": "user", "content": prompt.rendered}], "temperature": self.temperature},
            _completion_text,
        )


def _completion_text(body: object) -> str:
    """The first choice's message content, when it is a string.

    Any other reply (a null content, as a refusal or a tool call sends, a
    non-string content, or no message at all) raises ``TypeError``, which
    the client retries like an unreadable body.
    """
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    if not isinstance(content, str):
        raise TypeError(f"no string content in the reply's first message: {json.dumps(body)[:200]}")
    return content


# ----------------------------------------------------------------------
# structured-output parsers
# ----------------------------------------------------------------------

_ITEM_RE = re.compile(r"^\s*(?:\d+[.)]|[-*])\s*(.+?)\s*$")
_NONE_RE = re.compile(r"^\s*\(?none\)?\s*$", re.IGNORECASE)
_KEEP_RE = re.compile(r"keep\s*:\s*(.*)", re.IGNORECASE)
_SCORE_RE = re.compile(r"score\s*:\s*(-?\d+)", re.IGNORECASE)
_ANSWER_RE = re.compile(r"answer\s*:\s*(.*)", re.IGNORECASE | re.DOTALL)


def parse_numbered(text: str) -> list[str] | None:
    """Items from a numbered/bulleted list; [] for NONE; None if unparseable."""
    items: list[str] = []
    saw_none = False
    for line in text.splitlines():
        if _NONE_RE.match(line):
            saw_none = True
            continue
        m = _ITEM_RE.match(line)
        if m and m.group(1):
            items.append(m.group(1))
    if items:
        return items
    if saw_none:
        return []
    return None


def parse_keep(text: str, n_candidates: int) -> list[int] | None:
    """Zero-based kept indices from a "KEEP: 1, 3" line; None if unparseable."""
    for line in text.splitlines():
        m = _KEEP_RE.search(line)
        if not m:
            continue
        body = m.group(1).strip()
        if _NONE_RE.match(body) or body.lower().startswith("none"):
            return []
        nums = re.findall(r"\d+", body)
        if not nums:
            return None
        kept = sorted({int(x) - 1 for x in nums if 1 <= int(x) <= n_candidates})
        return kept
    return None


@dataclass
class EvalVerdict:
    sufficient: bool
    answer: str = ""


def parse_eval(text: str) -> EvalVerdict | None:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.upper().startswith("SUFFICIENT"):
            _, _, rest = stripped.partition(":")
            return EvalVerdict(True, rest.strip())
        if stripped.upper().startswith("INSUFFICIENT"):
            return EvalVerdict(False)
    return None


def parse_scored_answer(text: str) -> tuple[str, int] | None:
    m = _SCORE_RE.search(text)
    if not m:
        return None
    score = max(0, min(100, int(m.group(1))))
    am = _ANSWER_RE.search(text)
    answer = am.group(1).strip() if am else ""
    return answer, score


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------


class LLMGateway:
    """Typed operations over a chat backend, with usage accounting.

    Run knobs such as the follow-up cap come in as arguments from the
    caller's ``RunConfig``; the gateway holds none of its own.
    """

    def __init__(self, backend: ChatBackend, ledger: UsageLedger | None = None):
        self.backend = backend
        self.ledger = ledger

    def _complete(self, template_id: TemplateId, **slots: str) -> str:
        prompt = render(template_id, **slots)
        completion = self.backend.complete(prompt)
        if self.ledger is not None:
            self.ledger.add(_STAGE[template_id], estimate_tokens(prompt.rendered), estimate_tokens(completion))
        return completion

    def _complete_parsed(self, template_id: TemplateId, parser: Callable[[str], object], degraded: object, **slots: str):
        """The parsed completion, asking once more if it cannot be parsed.

        After a second unparseable completion the operation degrades to
        ``degraded``; ``None`` means it has no degraded result, and
        ``ExtractionFailed`` is raised instead.
        """
        for _ in range(2):
            completion = self._complete(template_id, **slots)
            parsed = parser(completion)
            if parsed is not None:
                return parsed
        if degraded is None:
            raise ExtractionFailed(f"{template_id.value}: unparseable completion: {completion[:200]!r}")
        return degraded

    # -- indexing prompts ------------------------------------------------

    def extract_entities(self, passage_text: str) -> list[str]:
        if not passage_text:
            raise ValueError("passage text must be non-empty")
        items = self._complete_parsed(TemplateId.NER, parse_numbered, None, passage=passage_text)
        seen: set[str] = set()
        out: list[str] = []
        for item in items:
            key = item.lower()
            if key not in seen:
                seen.add(key)
                out.append(item)
        return out

    def extract_propositions(self, passage_text: str, entities: list[str]) -> list[tuple[str, list[str]]]:
        entity_field = "; ".join(entities) if entities else "(none)"
        items = self._complete_parsed(
            TemplateId.PROPOSITIONS, parse_numbered, None, passage=passage_text, entities=entity_field
        )
        by_lower = {e.lower(): e for e in entities}
        out: list[tuple[str, list[str]]] = []
        for item in items:
            text, _, tail = item.rpartition("|")
            if not text:  # no separator: statement with no entities
                text, tail = item, ""
            text = text.strip()
            if not text:
                continue
            refs: list[str] = []
            for name in (s.strip() for s in tail.split(";")):
                if not name:
                    continue
                matched = by_lower.get(name.lower())
                if matched is None:
                    log.warning("dropping unknown entity %r cited by %r", name, text)
                elif matched not in refs:
                    refs.append(matched)
            out.append((text, refs))
        return out

    # -- retrieval prompts -----------------------------------------------

    def select_relevant(self, query: str, candidates: list[str]) -> list[int]:
        """Ascending indices of the candidates to keep; every index on parse failure."""
        if not candidates:
            raise ValueError("candidate list must be non-empty")
        return self._complete_parsed(
            TemplateId.SELECT,
            lambda text: parse_keep(text, len(candidates)),
            list(range(len(candidates))),
            question=query,
            candidates=numbered(candidates),
        )

    def evaluate_answerable(self, q_start: str, facts: list[str]) -> EvalVerdict:
        return self._complete_parsed(
            TemplateId.EVAL, parse_eval, EvalVerdict(False), question=q_start, facts=numbered(facts)
        )

    def next_questions(self, q_start: str, facts: list[str], m: int) -> list[str]:
        """At most ``m`` follow-up questions; ``[q_start]`` when there are none."""
        items = self._complete_parsed(
            TemplateId.NEXTQ, parse_numbered, [], question=q_start, facts=numbered(facts), max_questions=str(m)
        )
        return [q for q in items if q.strip()][:m] or [q_start]

    def decompose(self, q_start: str, m: int) -> list[str]:
        if m < 1:
            raise ValueError("m must be >= 1")
        items = self._complete_parsed(TemplateId.DECOMPOSE, parse_numbered, [], question=q_start, count=str(m))
        items = [q for q in items if q.strip()][:m]
        return items + [q_start] * (m - len(items))

    # -- answer prompts ----------------------------------------------------

    def intermediary_answer(self, q_start: str, chunk: str) -> tuple[str, int]:
        return self._complete_parsed(
            TemplateId.INTERMEDIARY_ANSWER, parse_scored_answer, ("", 0), question=q_start, context=chunk
        )

    def final_answer(self, q_start: str, context: Sequence[str], combine: bool = False) -> str:
        template = TemplateId.COMBINE_ANSWERS if combine else TemplateId.FINAL_ANSWER
        return self._complete(template, question=q_start, context="\n".join(context))
