"""Seeded synthetic corpus, planted multi-hop questions and a scripted mock.

Everything the library receives in a benchmark run is made here from the
workload seed: documents (one passage each), the expected graph counts,
the planted two- and three-hop chains with their gold answers, and the rules of the
mock chat backend. The rules parse the generated text instead of looking
it up, so the mock does work proportional to its input, as a model would.

Entity names are two capitalised pseudo-words, a given name and a family
name, and no word is part of two names. They are the only capitalised words in the
corpus, so the NER rule finds them with one regular expression. Two
distinct names share few character 3-grams, so the hashed embedder never
puts them above the default synonym threshold and indexing founds one
entity per name; the expected counts below rely on that.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import asdict, dataclass

from propgraph.llm import MockChatBackend, MockRule

_NAME_RE = re.compile(r"[A-Z][a-z]+ [A-Z][a-z]+")
_SENTENCE_RE = re.compile(r"[^.]+\.")
_SYLLABLES = [c + v for c in "bdfghklmnprstvz" for v in "aeiou"]

# Lexicon of generic facts. It shares no content word with the planted
# chains, so only chain facts match a chain question beyond the subject's name.
_VERBS_1 = ["retired", "travelled abroad", "wrote a memoir", "fell ill", "moved house", "won an award"]
_VERBS_2 = ["visited", "founded", "praised", "married", "sued", "painted", "met", "trained", "hired", "funded"]
_VERBS_3 = ["introduced", "compared", "reconciled", "sponsored", "debated"]
# Chain lexicon. Chains differ in their words as well as their names, so the
# facts of one planted question do not crowd out those of another.
_EVENTS = ["was born", "studied law", "died", "was crowned", "first performed", "was baptised", "learned to sail"]
_PLACES = ["city", "town", "village", "port", "fortress", "valley"]
_REGIONS = ["country", "province", "kingdom", "republic", "duchy"]
_REALMS = ["empire", "federation", "commonwealth", "confederacy"]


@dataclass(frozen=True)
class CorpusParams:
    """Generator sizes; recorded with every result."""

    passages: int
    props_per_passage: int
    entities: int
    zipf: float
    chains: int
    deep_chains: int
    hub_facts: int
    dim: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Chain:
    """A planted multi-hop question: subject -> place -> region, and on a
    three-hop chain on to the realm. ``bridge`` is the last hop's fact: the
    question is answerable once it is known."""

    subject: str
    question: str
    gold: str
    bridge: str
    hops: int


@dataclass
class Corpus:
    # per passage: its sentences, each with the entity names it mentions
    passages: list[list[tuple[str, list[str]]]]
    chains: list[Chain]

    def texts(self) -> list[str]:
        return [" ".join(s for s, _ in sentences) for sentences in self.passages]

    def expected_counts(self) -> dict:
        """Graph counts after indexing this corpus."""
        props = [refs for sentences in self.passages for _, refs in sentences]
        mentioned = {name for refs in props for name in refs}
        return {
            "passages": len(self.passages),
            "propositions": len(props),
            "entities": len(mentioned),
            "edges": len(props) + sum(len(refs) for refs in props),
        }


def _names(rng: random.Random, count: int) -> list[str]:
    given: set[str] = set()
    family: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        first = "".join(rng.choice(_SYLLABLES) for _ in range(2)).capitalize()
        last = "".join(rng.choice(_SYLLABLES) for _ in range(3)).capitalize()
        # every word is in one name only, so a question about one entity
        # shares no word with the facts of another
        if {first, last} & (given | family):
            continue
        given.add(first)
        family.add(last)
        out.append(f"{first} {last}")
    return out


def _fact(rng: random.Random, refs: list[str]) -> str:
    year = rng.randrange(1500, 2000)
    if len(refs) == 1:
        return f"{refs[0]} {rng.choice(_VERBS_1)} in {year}."
    if len(refs) == 2:
        return f"{refs[0]} {rng.choice(_VERBS_2)} {refs[1]} in {year}."
    return f"{refs[0]} {rng.choice(_VERBS_3)} {refs[1]} to {refs[2]} in {year}."


def generate(params: CorpusParams, seed: int) -> Corpus:
    """Make the corpus for ``seed``; the same seed gives the same corpus."""
    rng = random.Random(seed)
    names = _names(rng, params.entities)
    n_chain_names = 3 * params.chains + 4 * params.deep_chains
    generic, chain_names = names[n_chain_names:], names[:n_chain_names]

    # Zipf over a seeded ranking of the generic entities; the first pass
    # mentions every entity once so the entity count does not depend on luck.
    ranking = generic[:]
    rng.shuffle(ranking)
    cum_weights = list(itertools.accumulate(1.0 / (r + 1) ** params.zipf for r in range(len(ranking))))
    unseen = ranking[:]
    rng.shuffle(unseen)

    def draw_refs(count: int, first: str | None = None) -> list[str]:
        refs = [first] if first else []
        while len(refs) < count:
            name = unseen.pop() if unseen else rng.choices(ranking, cum_weights=cum_weights)[0]
            if name not in refs:
                refs.append(name)
        return refs

    passages: list[list[tuple[str, list[str]]]] = []
    for _ in range(params.passages):
        sentences = []
        for _ in range(params.props_per_passage):
            refs = draw_refs(rng.randint(1, 3))
            sentences.append((_fact(rng, refs), refs))
        passages.append(sentences)

    chains: list[Chain] = []
    names_left = iter(chain_names)
    for i in range(params.chains + params.deep_chains):
        hops = 2 if i < params.chains else 3
        subject, place_name, region_name = next(names_left), next(names_left), next(names_left)
        event = _EVENTS[i % len(_EVENTS)]
        place = _PLACES[i % len(_PLACES)]
        region = _REGIONS[i % len(_REGIONS)]
        hop1 = f"{subject} {event} in the {place} of {place_name}."
        # The second hop shares only the place word with the question (the
        # mock's selection keeps it by that word); the tail dilutes its
        # similarity to the question so that similarity search alone does
        # not reach it.
        hop2 = f"{place_name} is a {place} of {region_name}, known for its markets, rivers and old stone bridges."
        planted = [(hop1, [subject, place_name]), (hop2, [place_name, region_name])]
        hubs = [(subject, params.hub_facts)]
        if hops == 2:
            question = f"In which {region} is the {place} where {subject} {event}?"
            gold, bridge = region_name, hop2
        else:
            # A third hop, one more walk away from the subject's facts.
            realm, gold = _REALMS[i % len(_REALMS)], next(names_left)
            bridge = f"{region_name} lies in the {realm} of {gold}, with vineyards, harbours, orchards and high mountain passes."
            planted.append((bridge, [region_name, gold]))
            question = f"In which {realm} is the {place} where {subject} {event}?"
            # The region's own facts spread the walk that reaches it, so
            # that the first iteration often does not get as far as the bridge.
            hubs.append((region_name, params.hub_facts // 4))
        for hub, count in hubs:
            for _ in range(count):
                refs = draw_refs(rng.randint(1, 3), first=hub)
                planted.append((_fact(rng, refs), refs))
        for sentence in planted:
            passages[rng.randrange(len(passages))].append(sentence)
        chains.append(Chain(subject, question, gold, bridge, hops))
    return Corpus(passages, chains)


def _numbered(items: list[str]) -> str:
    return "\n".join(f"{i + 1}. {item}" for i, item in enumerate(items)) or "NONE"


def _ner(prompt) -> str:
    found: list[str] = []
    for name in _NAME_RE.findall(prompt.slots["passage"]):
        if name not in found:
            found.append(name)
    return _numbered(found)


def _propositions(prompt) -> str:
    lines = []
    for sentence in _SENTENCE_RE.findall(prompt.slots["passage"]):
        sentence = sentence.strip()
        refs = list(dict.fromkeys(_NAME_RE.findall(sentence)))
        lines.append(f"{sentence} | {'; '.join(refs)}" if refs else sentence)
    return _numbered(lines)


def _next_questions(prompt) -> str:
    """The question again, and one about a name in the newest known fact
    that the question does not mention."""
    facts = prompt.slots["facts"].splitlines()
    names = [n for n in _NAME_RE.findall(facts[-1]) if n not in prompt.slots["question"]] if facts else []
    return _numbered([prompt.slots["question"], *[f"Where is {name}?" for name in names[:1]]])


def scripted_backend(chains: list[Chain]) -> MockChatBackend:
    """Mock whose NER and proposition rules parse the passage text, whose
    Eval rule answers a planted question only once its bridge fact is known,
    and whose NextQ rule asks a second, follow-up question. Every other
    template keeps the mock's keyword-overlap defaults."""
    by_question = {c.question: c for c in chains}

    def evaluate(prompt) -> str:
        chain = by_question.get(prompt.slots["question"])
        if chain is not None and chain.bridge in prompt.slots["facts"]:
            return f"SUFFICIENT: {chain.gold}"
        return "INSUFFICIENT"

    return MockChatBackend(
        [
            MockRule(template="NER", respond=_ner),
            MockRule(template="Propositions", respond=_propositions),
            MockRule(template="Eval", respond=evaluate),
            MockRule(template="NextQ", respond=_next_questions),
        ]
    )
