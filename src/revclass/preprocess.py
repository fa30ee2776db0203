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
    NON_EMPTY,
    CorpusFormatError,
    Field,
    check,
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
    """A role or actor with its NFC-normalized surface forms and importance rank (1 = most important)."""

    canonical_name: str
    kind: str  # "role" | "actor"
    rank: int
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "canonical_name", unicodedata.normalize("NFC", self.canonical_name))
        object.__setattr__(self, "aliases", tuple(unicodedata.normalize("NFC", a) for a in self.aliases))

    @property
    def surfaces(self) -> tuple[str, ...]:
        return (self.canonical_name, *self.aliases)


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


_PERSON = Field(dict, phrase="a JSON object", fields={
    "name": NON_EMPTY, "rank": Field(int, 1, phrase="an integer >= 1"),
    "aliases": Field(list, items=NON_EMPTY, phrase="a list of non-empty strings", optional=True),
})
_PEOPLE = Field(list, items=_PERSON, phrase="a list", optional=True)
_KNOWLEDGE_BASE = Field(dict, fields={"series": Field(str, phrase="a string"), "roles": _PEOPLE, "actors": _PEOPLE})


def load_knowledge_base(path) -> KnowledgeBase:
    """Load a knowledge-base JSON file: {"series", "roles": [...], "actors": [...]}.

    A malformed file, ranks that are not contiguous or a surface claimed by
    two entries raises :class:`KnowledgeBaseError` naming the file.
    """
    obj = check(read_json(path, KnowledgeBaseError), _KNOWLEDGE_BASE, path, KnowledgeBaseError)

    def entries(key: str, kind: str) -> tuple[PersonEntry, ...]:
        return tuple(PersonEntry(e["name"], kind, e["rank"], tuple(e.get("aliases", ()))) for e in obj.get(key, []))

    try:
        kb = KnowledgeBase(series=obj["series"], roles=entries("roles", "role"), actors=entries("actors", "actor"))
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


@dataclass(frozen=True, init=False, eq=False)
class VectorizedCorpus:
    """Binary bag-of-words view of a labeled corpus.

    The matrix is kept once, in CSR form: document i's distinct vocabulary
    positions are ``indices[indptr[i]:indptr[i + 1]]``, in ascending order,
    and ``labels[i]`` is its resolved category index.  Ranking and training
    read these arrays; scoring builds its own.
    """

    vocab: Vocabulary
    labels: tuple[int, ...]
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __init__(self, vocab: Vocabulary, doc_terms: Sequence[Sequence[int]], labels: tuple[int, ...]):
        if len(doc_terms) != len(labels):
            raise ValueError("doc_terms and labels must align")
        indptr = np.zeros(len(doc_terms) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, doc_terms), np.int64, len(doc_terms)), out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(doc_terms), np.int64, int(indptr[-1]))
        self.__dict__.update(vocab=vocab, labels=labels, indptr=indptr, indices=indices)  # frozen: no __setattr__

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def doc_terms(self) -> tuple[tuple[int, ...], ...]:
        """Each document's positions as a tuple, built from the CSR arrays on first read, for the oracles."""
        return tuple(tuple(self.indices[a:b].tolist()) for a, b in itertools.pairwise(self.indptr.tolist()))

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
        y = self.label_array
        known = (y >= 0) & (y < N_CATEGORIES)
        lengths = np.diff(self.indptr)
        keys = np.repeat(y[known] * V, lengths[known])
        keys += self.indices if known.all() else self.indices[np.repeat(known, lengths)]
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
        doc_terms = [sorted({index[t] for t in doc if t in index}) for doc in docs]
        return cls(vocab=vocab, doc_terms=doc_terms, labels=tuple(int(y) for y in labels))

    def select(self, term_positions: Sequence[int]) -> SparseRows:
        """Documents x selected-terms binary matrix, the matrix members train
        on; column j is vocabulary position ``term_positions[j]``, and a row
        keeps its terms in vocabulary order.  ``vals`` is a read-only view of
        one 1.0."""
        column = np.full(len(self.vocab), -1, dtype=np.int64)
        column[np.asarray(term_positions, dtype=np.int64)] = np.arange(len(term_positions))
        cols, rows = column[self.indices], self.rows
        if cols.min(initial=0) < 0:  # some stored term is not selected
            keep = cols >= 0
            cols, rows = cols[keep], rows[keep]
        return SparseRows(rows, cols, np.broadcast_to(1.0, cols.shape), (len(self), len(term_positions)))

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


# A tokens line's fields: TokenizedCorpus.load tests them in one pass, and words its errors by them.
_TOKENS_LINE = Field(dict, fields={
    "id": NON_EMPTY, "series": NON_EMPTY, "tokens": Field(list, items=Field(str), phrase="a list of strings"),
    "label": Field(int, 0, N_CATEGORIES - 1, f"an integer in [0, {N_CATEGORIES - 1}] or null",
                   nullable=True, optional=True),
})


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
            rid, name, label, tokens = obj.get("id"), obj.get("series"), obj.get("label"), obj.get("tokens")
            known = len(shared)
            try:
                doc = tuple(map(shared.setdefault, tokens, tokens)) if type(tokens) is list else None
            except TypeError:  # an unhashable token: a list or an object
                doc = None
            # The tokens first seen on this line are the last ``added`` entries of ``shared``.
            added = len(shared) - known
            if not (
                type(rid) is str and rid and type(name) is str and name
                and (label is None or type(label) is int and 0 <= label < N_CATEGORIES)
                and doc is not None
                and (not added or all(type(t) is str for t in itertools.islice(reversed(shared), added)))
            ):
                check(obj, _TOKENS_LINE, where, CorpusFormatError)
            ids.append(rid)
            series.append(name)
            docs.append(doc)
            labels.append(label)
        return cls(ids=tuple(ids), series=tuple(series), docs=tuple(docs), labels=tuple(labels))
