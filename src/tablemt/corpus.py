"""Sentence/triplet data model, the ``sentence####[triplets]`` line format,
and a deterministic synthetic two-domain corpus generator."""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np


class Polarity(enum.Enum):
    POS = "POS"
    NEU = "NEU"
    NEG = "NEG"


@dataclass(frozen=True)
class Span:
    """Inclusive token-index interval [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    def tokens(self) -> range:
        return range(self.start, self.end + 1)

    def overlaps(self, other: "Span") -> bool:
        return max(self.start, other.start) <= min(self.end, other.end)


@dataclass(frozen=True)
class Triplet:
    aspect: Span
    opinion: Span
    polarity: Polarity


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise ValueError("sentence must have at least one token")
        # Splitting the joined tokens gives them back exactly when every one
        # is a non-empty string without whitespace; only otherwise look for
        # the token to name.
        try:
            plain = " ".join(self.tokens).split() == list(self.tokens)
        except TypeError:
            plain = False
        if not plain:
            for t in self.tokens:
                if not t or any(ch.isspace() for ch in t):
                    raise ValueError(f"token contains whitespace or is empty: {t!r}")

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LabeledSentence:
    sentence: Sentence
    triplets: tuple[Triplet, ...]

    def __post_init__(self):
        n = self.sentence.n
        for t in self.triplets:
            if t.aspect.end >= n or t.opinion.end >= n:
                break
        else:
            if len(set(self.triplets)) == len(self.triplets):
                return
        seen = set()  # name the first bad triplet
        for t in self.triplets:
            if t.aspect.end >= n or t.opinion.end >= n:
                raise ValueError(f"triplet span out of bounds for n={n}: {t}")
            if t in seen:
                raise ValueError(f"duplicate triplet: {t}")
            seen.add(t)


class ParseError(ValueError):
    """Raised on malformed corpus lines; carries the offending line text."""

    def __init__(self, message: str, line: str, line_no: int | None = None):
        loc = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{loc}: {line!r}")
        self.message = message
        self.line = line
        self.line_no = line_no


def _indices_to_span(indices, line: str) -> Span:
    if not isinstance(indices, list) or not indices:
        raise ParseError("index list must be a non-empty list", line)
    if not all(type(i) is int and i >= 0 for i in indices):  # bool is an int subclass
        raise ParseError("index list must contain non-negative integers", line)
    for a, b in zip(indices, indices[1:]):
        if b != a + 1:
            raise ParseError(f"non-contiguous index list {indices}", line)
    return Span(indices[0], indices[-1])


def parse_aste_line(line: str) -> LabeledSentence:
    """Parse one ``<tokens>####<triplet list>`` record."""
    parts = line.rstrip("\n").split("####")
    if len(parts) != 2:
        raise ParseError("expected exactly one '####' separator", line)
    text, label = parts
    tokens = tuple(text.split())
    if not tokens:
        raise ParseError("empty sentence", line)
    try:
        raw = ast.literal_eval(label.strip())
    except (ValueError, TypeError, SyntaxError, RecursionError) as exc:
        raise ParseError(f"unparseable triplet list ({exc})", line) from None
    if not isinstance(raw, list):
        raise ParseError("triplet list must be a list", line)
    sentence = Sentence(tokens)
    triplets = []
    for entry in raw:
        if not (isinstance(entry, tuple) and len(entry) == 3):
            raise ParseError(f"triplet entry must be a 3-tuple, got {entry!r}", line)
        a_idx, o_idx, pol = entry
        aspect = _indices_to_span(a_idx, line)
        opinion = _indices_to_span(o_idx, line)
        try:
            polarity = Polarity(pol)
        except ValueError:
            raise ParseError(f"unknown polarity {pol!r}", line) from None
        triplets.append(Triplet(aspect, opinion, polarity))
    try:
        return LabeledSentence(sentence, tuple(triplets))
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def serialize_aste_line(ls: LabeledSentence) -> str:
    """The ``<tokens>####<triplet list>`` line ``parse_aste_line`` reads back;
    ValueError if the text would not split back at its own separator."""
    text = " ".join(ls.sentence.tokens)
    if "####" in text or text.endswith("#"):
        bad = next((t for t in ls.sentence.tokens if "####" in t), ls.sentence.tokens[-1])
        raise ValueError(f"token {bad!r} would not split back at the '####' separator")
    entries = [
        (list(t.aspect.tokens()), list(t.opinion.tokens()), t.polarity.value)
        for t in ls.triplets
    ]
    return text + "####" + repr(entries)


def load_dataset(path) -> list[LabeledSentence]:
    """Read one record per line; blank lines skipped; first bad line aborts."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(parse_aste_line(line))
            except ParseError as exc:
                raise ParseError(exc.message, line.rstrip("\n"), line_no) from None
    return records


def save_dataset(path, records: Iterable[LabeledSentence]) -> None:
    """Serialize every record first, so a bad one leaves nothing written."""
    lines = [serialize_aste_line(ls) + "\n" for ls in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def vocabulary(records: Iterable[LabeledSentence]) -> list[str]:
    """Sorted unique tokens (sorted so downstream draws are order-stable)."""
    return sorted({tok for ls in records for tok in ls.sentence.tokens})


# -- synthetic two-domain corpus ------------------------------------------

# Function words shared by both domains; the domains differ only by their
# aspect/opinion lexicons, so the gap is purely lexical.  The pools are
# typed the way review text is scaffolded (determiner before the aspect,
# linker/intensifier before the opinion) so region structure can transfer
# across domains while the content words cannot.
DETERMINERS = ("the", "a", "this", "that")
LINKERS = ("is", "was", "looks", "feels")
INTENSIFIERS = ("very", "really", "quite", "so")
TRAILERS = ("here", "today", "overall", "though")
FUNCTION_WORDS = DETERMINERS + LINKERS + INTENSIFIERS + TRAILERS

# Opinion words take their polarities from POLARITY_CYCLE in turn; a sentence
# holds two triplets with probability TWO_TRIPLET_RATE and at most MAX_LEN
# tokens.
POLARITY_CYCLE = (
    Polarity.POS, Polarity.NEG, Polarity.POS,
    Polarity.POS, Polarity.NEU, Polarity.NEG,
)
TWO_TRIPLET_RATE = 0.3
MAX_LEN = 24


@dataclass(frozen=True)
class SynthConfig:
    num_source: int = 50
    num_dev: int = 20
    num_target: int = 50
    num_test: int = 30
    seed: int = 0
    num_aspects: int = 8
    num_opinions: int = 6

    def __post_init__(self):
        for name in ("num_source", "num_dev", "num_target", "num_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.num_aspects < 4 or self.num_opinions < 2:
            raise ValueError("num_aspects must be >= 4 and num_opinions >= 2, or the lexicons run out")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class DomainLexicon:
    aspects: tuple[str, ...]
    opinions: tuple[str, ...]
    polarity_of: dict = field(hash=False, compare=False, default_factory=dict)


def domain_lexicon(cfg: SynthConfig, domain: str) -> DomainLexicon:
    prefix = {"source": "s", "target": "t"}[domain]
    aspects = tuple(f"{prefix}noun{i}" for i in range(cfg.num_aspects))
    opinions = tuple(f"{prefix}adj{i}" for i in range(cfg.num_opinions))
    pol = {w: POLARITY_CYCLE[i % len(POLARITY_CYCLE)] for i, w in enumerate(opinions)}
    return DomainLexicon(aspects, opinions, pol)


@dataclass
class SynthCorpus:
    source_train: list[LabeledSentence]
    source_dev: list[LabeledSentence]
    target_unlabeled: list[LabeledSentence]
    target_test: list[LabeledSentence]


def _make_sentence(rng: np.random.Generator, lex: DomainLexicon) -> LabeledSentence:
    """One sentence per the unit grammar ``<ctx>* <aspect> <ctx>* <opinion>
    <ctx>*`` where the context slots draw from the typed shared pools:
    optional determiner, mandatory linker, optional intensifier and trailer."""
    n_triplets = 2 if rng.random() < TWO_TRIPLET_RATE else 1
    # Sample aspect/opinion words without replacement so triplets are distinct.
    asp_words = [lex.aspects[i] for i in rng.choice(len(lex.aspects), size=2 * n_triplets, replace=False)]
    op_words = [lex.opinions[i] for i in rng.choice(len(lex.opinions), size=n_triplets, replace=False)]
    tokens: list[str] = []
    triplets: list[Triplet] = []
    for u in range(n_triplets):
        n_lead = int(rng.integers(0, 3))  # positional jitter ahead of the unit
        use_det = rng.random() < 0.7
        asp_len = int(rng.integers(1, 3))
        use_intens = rng.random() < 0.4
        use_trailer = rng.random() < 0.3
        det = DETERMINERS[rng.integers(len(DETERMINERS))]
        linker = LINKERS[rng.integers(len(LINKERS))]
        intens = INTENSIFIERS[rng.integers(len(INTENSIFIERS))]
        trailer = TRAILERS[rng.integers(len(TRAILERS))]
        for _ in range(n_lead):
            tokens.append(TRAILERS[rng.integers(len(TRAILERS))])
        if use_det:
            tokens.append(det)
        a_start = len(tokens)
        tokens.extend(asp_words[2 * u : 2 * u + asp_len])
        a_end = len(tokens) - 1
        tokens.append(linker)
        if use_intens:
            tokens.append(intens)
        o_pos = len(tokens)
        opinion = op_words[u]
        tokens.append(opinion)
        if use_trailer:
            tokens.append(trailer)
        triplets.append(
            Triplet(Span(a_start, a_end), Span(o_pos, o_pos), lex.polarity_of[opinion])
        )
    if len(tokens) > MAX_LEN:
        raise ValueError(f"generated sentence exceeds MAX_LEN={MAX_LEN}")
    return LabeledSentence(Sentence(tuple(tokens)), tuple(triplets))


def synth_corpus(cfg: SynthConfig) -> SynthCorpus:
    """Generate the four splits; a pure function of the config."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    src = domain_lexicon(cfg, "source")
    tgt = domain_lexicon(cfg, "target")
    source_train = [_make_sentence(rng, src) for _ in range(cfg.num_source)]
    source_dev = [_make_sentence(rng, src) for _ in range(cfg.num_dev)]
    target_unlabeled = [
        LabeledSentence(_make_sentence(rng, tgt).sentence, ())
        for _ in range(cfg.num_target)
    ]
    target_test = [_make_sentence(rng, tgt) for _ in range(cfg.num_test)]
    return SynthCorpus(source_train, source_dev, target_unlabeled, target_test)


def write_corpus(corpus: SynthCorpus, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for f in fields(corpus):
        p = out / f"{f.name}.txt"
        save_dataset(p, getattr(corpus, f.name))
        paths[f.name] = p
    return paths
