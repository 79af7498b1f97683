"""Prompt catalog: templates, rendering, and the structured-output grammar.

Every template asks for line-delimited, numbered output (or a fixed marker
line) so parsing stays robust across models.
"""

from __future__ import annotations

import enum
import string
from dataclasses import dataclass

class TemplateId(enum.Enum):
    NER = "NER"
    PROPOSITIONS = "Propositions"
    SELECT = "Select"
    EVAL = "Eval"
    NEXTQ = "NextQ"
    DECOMPOSE = "Decompose"
    FINAL_ANSWER = "FinalAnswer"
    INTERMEDIARY_ANSWER = "IntermediaryAnswer"
    COMBINE_ANSWERS = "CombineAnswers"


@dataclass(frozen=True)
class PromptInstance:
    template_id: TemplateId
    slots: dict
    rendered: str


TEMPLATES: dict[TemplateId, str] = {
    TemplateId.NER: """\
You extract named entities from text passages.
List every named entity in the passage: people, places, organizations,
works, events and other proper nouns. Output one entity per line as a
numbered list. If the passage contains no named entities, output exactly:
NONE

Example
Passage:
Marie Curie won the Nobel Prize in 1903 together with Pierre Curie.
Entities:
1. Marie Curie
2. Nobel Prize
3. Pierre Curie

Passage:
{passage}
Entities:""",
    TemplateId.PROPOSITIONS: """\
You rewrite a passage into atomic, self-contained factual statements.
Each statement must be a single declarative sentence that is
understandable without the passage, naming entities in full. After each
statement, append " | " followed by the entities from the provided list
that appear in it, separated by "; ". Use only entities from the list.
Output a numbered list, one statement per line. If nothing factual can be
extracted, output exactly:
NONE

Example
Passage:
Marie Curie won the Nobel Prize in 1903 together with Pierre Curie.
Entity list: Marie Curie; Nobel Prize; Pierre Curie
Statements:
1. Marie Curie won the Nobel Prize in 1903. | Marie Curie; Nobel Prize
2. Pierre Curie shared the 1903 Nobel Prize with Marie Curie. | Pierre Curie; Nobel Prize; Marie Curie

Passage:
{passage}
Entity list: {entities}
Statements:""",
    TemplateId.SELECT: """\
You judge which of the candidate facts are relevant to the question.
Keep a fact if it answers the question, or provides a plausible
intermediate step toward the answer. Reply with one line of the form:
KEEP: <comma-separated numbers of the kept facts>
Reply "KEEP: none" if no fact is relevant.

Question: {question}

Candidate facts:
{candidates}""",
    TemplateId.EVAL: """\
Decide whether the known facts below are sufficient to answer the
question. If they are, reply with one line of the form:
SUFFICIENT: <the answer, as concise as possible>
If they are not, reply with exactly:
INSUFFICIENT

Question: {question}

Known facts:
{facts}""",
    TemplateId.NEXTQ: """\
The known facts are not yet sufficient to answer the question. Write up
to {max_questions} short follow-up questions that would help locate the
missing facts. Output them as a numbered list, one per line.

Question: {question}

Known facts:
{facts}""",
    TemplateId.DECOMPOSE: """\
Decompose the question into {count} diverse sub-queries, each probing a
different facet needed for a comprehensive answer. Output them as a
numbered list, one per line.

Question: {question}""",
    TemplateId.FINAL_ANSWER: """\
Answer the question using the context below. Reply with the answer only.

Question: {question}

Context:
{context}""",
    TemplateId.INTERMEDIARY_ANSWER: """\
Using only the context below, write a partial answer to the question,
and rate how relevant the context is to the question as an integer from
0 (unrelated) to 100 (directly answers it). Reply in the form:
SCORE: <0-100>
ANSWER: <your partial answer>

Question: {question}

Context:
{context}""",
    TemplateId.COMBINE_ANSWERS: """\
Combine the partial answers below into one final, well-organized answer
to the question. The partial answers are ordered so that the most
relevant material appears at the beginning and at the end.

Question: {question}

Partial answers:
{context}""",
}


def template_slots(template_id: TemplateId) -> set[str]:
    """Slot names a template requires."""
    fields = set()
    for _, name, _, _ in string.Formatter().parse(TEMPLATES[template_id]):
        if name:
            fields.add(name)
    return fields


def render(template_id: TemplateId, **slots: str) -> PromptInstance:
    """Fill a template; every slot must be provided."""
    required = template_slots(template_id)
    missing = required - slots.keys()
    if missing:
        raise KeyError(f"{template_id.value}: missing slots {sorted(missing)}")
    rendered = TEMPLATES[template_id].format(**{k: slots[k] for k in required})
    return PromptInstance(template_id, dict(slots), rendered)


def numbered(items: list[str]) -> str:
    """Render items as the 1-based numbered list the templates expect."""
    if not items:
        return "(none)"
    return "\n".join(f"{i + 1}. {item}" for i, item in enumerate(items))
