"""Text preprocessing: surrogate name tags, tokenization, stop words, vectorization."""

from __future__ import annotations

import functools
import itertools
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from revclass.corpus import (
    N_CATEGORIES,
    CorpusFormatError,
    iter_json_lines,
    read_json,
    read_json_lines,
    read_text,
    write_json_atomic,
    write_text_atomic,
)

Segmenter = Callable[[str], list[str]]

ROLE_TAG = "role_{rank}"
ACTOR_TAG = "actor_{rank}"


class KnowledgeBaseError(ValueError):
    """Raised on a malformed role/actor knowledge base."""


@dataclass(frozen=True)
class PersonEntry:
    """A role or actor with its surface forms and importance rank (1 = most important)."""

    canonical_name: str
    kind: str  # "role" | "actor"
    rank: int
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("role", "actor"):
            raise KnowledgeBaseError(f"kind must be 'role' or 'actor', got {self.kind!r}")
        if isinstance(self.rank, bool) or not isinstance(self.rank, int):
            raise KnowledgeBaseError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 1:
            raise KnowledgeBaseError(f"{self.canonical_name!r}: rank must be >= 1")
        if not isinstance(self.aliases, (list, tuple)):
            raise KnowledgeBaseError(f"aliases must be a list of strings, got {self.aliases!r}")
        object.__setattr__(self, "canonical_name", _nfc_nonempty(self.canonical_name, "canonical_name"))
        object.__setattr__(self, "aliases", tuple(_nfc_nonempty(a, "alias") for a in self.aliases))

    @property
    def surfaces(self) -> tuple[str, ...]:
        return (self.canonical_name, *self.aliases)


def _nfc_nonempty(s: str, what: str) -> str:
    if not isinstance(s, str):
        raise KnowledgeBaseError(f"{what} must be a string, got {s!r}")
    s = unicodedata.normalize("NFC", s)
    if not s:
        raise KnowledgeBaseError(f"{what} must be non-empty")
    return s


@dataclass(frozen=True)
class KnowledgeBase:
    """Importance-ranked roles and actors of one series.

    Within each kind, ranks must be unique and contiguous from 1, so that
    a lower index always means a more important person.
    """

    series: str
    roles: tuple[PersonEntry, ...] = ()
    actors: tuple[PersonEntry, ...] = ()

    def __post_init__(self):
        for kind, entries in (("role", self.roles), ("actor", self.actors)):
            for e in entries:
                if e.kind != kind:
                    raise KnowledgeBaseError(f"{e.canonical_name!r}: kind {e.kind!r} in {kind} list")
            ranks = sorted(e.rank for e in entries)
            if ranks != list(range(1, len(entries) + 1)):
                raise KnowledgeBaseError(f"{kind} ranks must be unique and contiguous from 1, got {ranks}")


def load_knowledge_base(path) -> KnowledgeBase:
    """Load a knowledge-base JSON file: {"series", "roles": [...], "actors": [...]}.

    A malformed file, ranks that are not contiguous or a surface claimed by
    two entries raises :class:`KnowledgeBaseError` naming the file.
    """
    obj = read_json(path, KnowledgeBaseError)
    if not isinstance(obj.get("series"), str):
        raise KnowledgeBaseError(f"{path}: expected an object with a 'series' string")

    def entries(key: str, kind: str) -> tuple[PersonEntry, ...]:
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise KnowledgeBaseError(f"{path}: field {key!r} must be a list")
        out = []
        for i, item in enumerate(items):
            if not isinstance(item, dict) or "name" not in item or "rank" not in item:
                raise KnowledgeBaseError(f"{path}: field '{key}[{i}]' needs 'name' and 'rank'")
            try:
                out.append(PersonEntry(item["name"], kind, item["rank"], item.get("aliases", ())))
            except KnowledgeBaseError as exc:
                raise KnowledgeBaseError(f"{path}: field '{key}[{i}]': {exc}") from None
        return tuple(out)

    roles, actors = entries("roles", "role"), entries("actors", "actor")
    try:
        kb = KnowledgeBase(series=obj["series"], roles=roles, actors=actors)
        build_surrogate_map(kb)
    except KnowledgeBaseError as exc:
        raise KnowledgeBaseError(f"{path}: {exc}") from None
    return kb


def write_knowledge_base(kb: KnowledgeBase, path) -> None:
    """Write a knowledge base as :func:`load_knowledge_base` reads it."""
    doc = {"series": kb.series}
    for key, entries in (("roles", kb.roles), ("actors", kb.actors)):
        doc[key] = [{"name": e.canonical_name, "aliases": list(e.aliases), "rank": e.rank} for e in entries]
    write_json_atomic(path, doc)


@dataclass(frozen=True)
class SurrogateMap:
    """Mapping from every known surface string to its generic tag (role_i / actor_j)."""

    entries: dict[str, str]
    _pattern: Optional[re.Pattern] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.entries:
            # Longest alternative first so overlapping names resolve to the longest match.
            ordered = sorted(self.entries, key=len, reverse=True)
            pattern = re.compile("|".join(re.escape(s) for s in ordered))
            object.__setattr__(self, "_pattern", pattern)

    def __len__(self) -> int:
        return len(self.entries)


def build_surrogate_map(kb: KnowledgeBase) -> SurrogateMap:
    """Assign each role/actor surface string the tag carrying its rank.

    Roles and actors are numbered independently.  A surface string claimed
    by two different entries is ambiguous and raises.
    """
    entries: dict[str, str] = {}
    for group, template in ((kb.roles, ROLE_TAG), (kb.actors, ACTOR_TAG)):
        for person in group:
            tag = template.format(rank=person.rank)
            for surface in person.surfaces:
                existing = entries.get(surface)
                if existing is not None and existing != tag:
                    raise KnowledgeBaseError(
                        f"surface {surface!r} is ambiguous: maps to both {existing} and {tag}"
                    )
                entries[surface] = tag
    return SurrogateMap(entries=entries)


def substitute(text: str, surrogates: SurrogateMap) -> str:
    """Replace every known role/actor mention with its generic tag.

    Overlapping candidates resolve longest-match-first, left to right, in a
    single pass, so emitted tags are never re-scanned.
    """
    if not surrogates.entries:
        return text
    return surrogates._pattern.sub(lambda m: surrogates.entries[m.group(0)], text)


class WhitespaceSegmenter:
    """Trivial segmenter: split on whitespace (intended for tests and synthetic corpora)."""

    def __call__(self, text: str) -> list[str]:
        return text.split()


_ASCII_WORD = re.compile(r"[A-Za-z0-9_]+")


class DictionarySegmenter:
    """Greedy longest-match segmentation against a word list.

    ASCII alphanumeric/underscore runs are kept whole (this preserves
    surrogate tags like ``role_1`` and forum slang like ``LOL``); otherwise
    the longest dictionary word starting at the cursor wins, falling back to
    a single character.  Concatenating the output always reproduces the
    input exactly.
    """

    def __init__(self, words: Iterable[str]):
        self.words = frozenset(unicodedata.normalize("NFC", w) for w in words if w)
        self.max_len = max((len(w) for w in self.words), default=1)

    def __call__(self, text: str) -> list[str]:
        tokens: list[str] = []
        i, n = 0, len(text)
        while i < n:
            m = _ASCII_WORD.match(text, i)
            if m:
                tokens.append(m.group(0))
                i = m.end()
                continue
            for length in range(min(self.max_len, n - i), 1, -1):
                candidate = text[i : i + length]
                if candidate in self.words:
                    tokens.append(candidate)
                    i += length
                    break
            else:
                tokens.append(text[i])
                i += 1
        return tokens


def load_dictionary(path) -> DictionarySegmenter:
    """Build the default segmenter from a one-word-per-line UTF-8 file."""
    lines = read_text(path, CorpusFormatError).split("\n")
    return DictionarySegmenter(line.strip() for line in lines if line.strip())


def load_stopwords(path) -> frozenset[str]:
    """Load stop words, one per line; '#' comment lines and blanks ignored."""
    words: set[str] = set()
    for line in read_text(path, CorpusFormatError).split("\n"):
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(unicodedata.normalize("NFC", word))
    return frozenset(words)


def remove_stopwords(tokens: Sequence[str], stoplist: Iterable[str]) -> list[str]:
    """Drop stop-listed tokens, preserving order.

    Latin-script tokens (pure ASCII) match case-insensitively so forum slang
    like "LOL"/"lol" is caught either way; other scripts match exactly.
    """
    exact, lowered = _stop_sets(frozenset(stoplist))
    return [t for t in tokens if t not in exact and not (t.isascii() and t.lower() in lowered)]


@functools.lru_cache(maxsize=16)
def _stop_sets(stoplist: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
    """The exact and lower-cased ASCII stop sets, built once per stoplist."""
    return stoplist, frozenset(w.lower() for w in stoplist if w.isascii())


@dataclass(frozen=True)
class Vocabulary:
    """Ordered unique terms with a term -> position index, always derived from the terms."""

    terms: tuple[str, ...]
    index: dict[str, int] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.terms)})
        if len(self.index) != len(self.terms):
            raise ValueError("vocabulary terms must be unique")

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    @classmethod
    def from_documents(cls, docs: Iterable[Sequence[str]]) -> "Vocabulary":
        """Collect terms in first-occurrence order across documents."""
        return cls(terms=tuple(dict.fromkeys(itertools.chain.from_iterable(docs))))


class SparseRows(NamedTuple):
    """The nonzeros of a documents x terms matrix in row order, entry k being
    ``vals[k]`` at ``(rows[k], cols[k])``; a row's columns need not be sorted."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]


@dataclass(frozen=True)
class VectorizedCorpus:
    """Binary bag-of-words view of a labeled corpus.

    ``doc_terms[i]`` holds the distinct vocabulary positions present in
    document i and ``labels[i]`` its resolved category index.  Ranking and
    training read this matrix in CSR form, built once (document i's positions
    are ``indices[indptr[i]:indptr[i + 1]]``); scoring builds its own.
    """

    vocab: Vocabulary
    doc_terms: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    indptr: np.ndarray = field(init=False, repr=False, compare=False)
    indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.doc_terms) != len(self.labels):
            raise ValueError("doc_terms and labels must align")
        indptr = np.zeros(len(self.doc_terms) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, self.doc_terms), np.int64, len(self.doc_terms)), out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(self.doc_terms), np.int64, int(indptr[-1]))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.doc_terms)

    @property
    def rows(self) -> np.ndarray:
        """The document of every stored position, aligned with ``indices``."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    @functools.cached_property
    def label_array(self) -> np.ndarray:
        """``labels`` as an int64 array."""
        return np.asarray(self.labels, dtype=np.int64)

    @functools.cached_property
    def doc_freq(self) -> np.ndarray:
        """Per term: the number of documents that hold it."""
        return np.bincount(self.indices, minlength=len(self.vocab))

    @functools.cached_property
    def class_term_counts(self) -> np.ndarray:
        """``N_CATEGORIES`` x V counts of the documents labeled c that hold term
        t; a label outside the categories is counted in no row."""
        V = len(self.vocab)
        y = self.label_array[self.rows]
        known = (y >= 0) & (y < N_CATEGORIES)
        keys = y[known] * V + self.indices[known]
        return np.bincount(keys, minlength=N_CATEGORIES * V).reshape(N_CATEGORIES, V)

    @classmethod
    def from_tokens(
        cls,
        docs: Sequence[Sequence[str]],
        labels: Sequence[int],
        vocab: Optional[Vocabulary] = None,
    ) -> "VectorizedCorpus":
        if vocab is None:
            vocab = Vocabulary.from_documents(docs)
        index = vocab.index
        doc_terms = tuple(tuple(sorted({index[t] for t in doc if t in index})) for doc in docs)
        return cls(vocab=vocab, doc_terms=doc_terms, labels=tuple(int(y) for y in labels))

    def select(self, term_positions: Sequence[int]) -> SparseRows:
        """Documents x selected-terms binary matrix, the matrix members train
        on; column j is vocabulary position ``term_positions[j]``, and a row
        keeps its terms in vocabulary order."""
        column = np.full(len(self.vocab), -1, dtype=np.int64)
        column[np.asarray(term_positions, dtype=np.int64)] = np.arange(len(term_positions))
        cols = column[self.indices]
        at = np.flatnonzero(cols >= 0)
        return SparseRows(self.rows[at], cols[at], np.ones(len(at)), (len(self), len(term_positions)))

    def dense_matrix(self, term_positions: Sequence[int]) -> np.ndarray:
        """:meth:`select` as a dense float64 array."""
        X = self.select(term_positions)
        dense = np.zeros(X.shape)
        dense[X.rows, X.cols] = X.vals
        return dense


def preprocess_text(
    text: str,
    seg: Segmenter,
    stoplist: Iterable[str] = (),
    surrogates: Optional[SurrogateMap] = None,
) -> list[str]:
    """Full text pipeline: substitute (when a map is given), tokenize, remove stop words.

    Whitespace-only fallback tokens from the dictionary segmenter carry no
    signal and are dropped.
    """
    if surrogates is not None:
        text = substitute(text, surrogates)
    tokens = list(filter(str.strip, seg(text)))
    return remove_stopwords(tokens, stoplist) if stoplist else tokens


def token_lines(ids: Iterable[str], series: Iterable[str], docs: Iterable[Sequence[str]], labels) -> Iterator[str]:
    """The lines of a tokens file, one JSON object per review as
    :meth:`TokenizedCorpus.load` reads it; each review's line is encoded when
    it is drawn, so ``docs`` may be a generator that tokenizes as it goes."""
    return iter_json_lines(
        {"id": rid, "series": s, "label": label, "tokens": doc} for rid, s, doc, label in zip(ids, series, docs, labels)
    )


@dataclass(frozen=True)
class TokenizedCorpus:
    """Per-review token lists with provenance and resolved labels."""

    ids: tuple[str, ...]
    series: tuple[str, ...]
    docs: tuple[tuple[str, ...], ...]
    labels: tuple[Optional[int], ...]

    def __post_init__(self):
        n = len(self.ids)
        if not (len(self.series) == len(self.docs) == len(self.labels) == n):
            raise ValueError("ids, series, docs, and labels must align")

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, indices: Sequence[int]) -> "TokenizedCorpus":
        return TokenizedCorpus(
            ids=tuple(self.ids[i] for i in indices),
            series=tuple(self.series[i] for i in indices),
            docs=tuple(self.docs[i] for i in indices),
            labels=tuple(self.labels[i] for i in indices),
        )

    def series_indices(self, wanted: Iterable[str]) -> list[int]:
        names = set(wanted)
        return [i for i, s in enumerate(self.series) if s in names]

    def to_jsonl(self) -> str:
        return "".join(token_lines(self.ids, self.series, self.docs, self.labels))

    def save(self, path) -> None:
        write_text_atomic(path, token_lines(self.ids, self.series, self.docs, self.labels))

    @classmethod
    def load(cls, path) -> "TokenizedCorpus":
        """Read a file written by :meth:`save`; a malformed line raises
        :class:`CorpusFormatError` naming the file, the line and the field.

        Equal tokens share one ``str`` object across the whole file, so the
        corpus holds each distinct token once; only a token's first sighting
        has its type checked.
        """
        ids, series, docs, labels = [], [], [], []
        shared: dict[str, str] = {}
        for where, obj in read_json_lines(path, CorpusFormatError):
            for name in ("id", "series", "tokens"):
                if name not in obj:
                    raise CorpusFormatError(f"{where}: missing field {name!r}")
            for name in ("id", "series"):
                if type(obj[name]) is not str or not obj[name]:
                    raise CorpusFormatError(f"{where}: field {name!r} must be a non-empty string")
            label = obj.get("label")
            if label is not None and (type(label) is not int or label not in range(N_CATEGORIES)):
                raise CorpusFormatError(
                    f"{where}: field 'label' must be an integer in [0, {N_CATEGORIES - 1}] or null"
                )
            tokens, known = obj["tokens"], len(shared)
            try:
                doc = tuple(map(shared.setdefault, tokens, tokens)) if type(tokens) is list else None
            except TypeError:  # an unhashable token: a list or an object
                doc = None
            # The tokens first seen on this line are the last ``added`` entries of ``shared``.
            added = len(shared) - known
            if doc is None or added and not all(type(t) is str for t in itertools.islice(reversed(shared), added)):
                raise CorpusFormatError(f"{where}: field 'tokens' must be a list of strings")
            ids.append(obj["id"])
            series.append(obj["series"])
            docs.append(doc)
            labels.append(label)
        return cls(ids=tuple(ids), series=tuple(series), docs=tuple(docs), labels=tuple(labels))
