"""Feature selection: per-(word, class) contingency tables scored by chi-square or DRC."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from revclass.corpus import Category, write_json_atomic
from revclass.preprocess import VectorizedCorpus, Vocabulary

CHI2 = "chi2"
DRC = "drc"
METHODS = (CHI2, DRC)


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 counts of word presence vs document relevance.

    A: present & relevant, B: present & irrelevant,
    C: absent & relevant,  D: absent & irrelevant.
    """

    A: int
    B: int
    C: int
    D: int

    def __post_init__(self):
        if min(self.A, self.B, self.C, self.D) < 0:
            raise ValueError("contingency counts must be non-negative")

    @property
    def N(self) -> int:
        return self.A + self.B + self.C + self.D

    @property
    def has_zero_margin(self) -> bool:
        """True when the word or the class is constant across the corpus."""
        return 0 in (self.A + self.B, self.C + self.D, self.A + self.C, self.B + self.D)


def contingency(corpus: VectorizedCorpus, term: str, category: Category | int) -> ContingencyTable:
    """Exact presence/relevance counts for one term against one binary class task."""
    pos = corpus.vocab.index.get(term)
    if pos is None:
        raise KeyError(f"term {term!r} not in vocabulary")
    cat = int(category)
    A = B = C = D = 0
    for present, label in zip(corpus.doc_terms, corpus.labels):
        if pos in present:
            if label == cat:
                A += 1
            else:
                B += 1
        elif label == cat:
            C += 1
        else:
            D += 1
    return ContingencyTable(A=A, B=B, C=C, D=D)


def chi_square(t: ContingencyTable, mode: str = "squared") -> float:
    """Chi-square association score of a 2x2 table.

    ``mode="squared"`` (default) is the standard statistic
    N*(AD - CB)^2 / ((A+C)(B+D)(A+B)(C+D)).  ``mode="literal"`` leaves the
    numerator term unsquared, N*(AD - CB) / (...), which is sign-sensitive.
    Degenerate tables (a zero margin) score 0: a constant word or class
    carries no signal.
    """
    if mode not in ("squared", "literal"):
        raise ValueError(f"unknown chi-square mode {mode!r}")
    if t.has_zero_margin:
        return 0.0
    cross = float(t.A) * t.D - float(t.C) * t.B
    num = cross * cross if mode == "squared" else cross
    denom = float(t.A + t.C) * (t.B + t.D) * (t.A + t.B) * (t.C + t.D)
    return t.N * num / denom


def rcv(t: ContingencyTable) -> float:
    """Relevance Correlation Value: cosine between the word-occurrence and
    class-relevance indicator vectors, A / (sqrt(A+B) * sqrt(A+C)).

    0 when the word never occurs or no document is relevant.
    """
    if t.A + t.B == 0 or t.A + t.C == 0:
        return 0.0
    return t.A / (math.sqrt(t.A + t.B) * math.sqrt(t.A + t.C))


def drc(t: ContingencyTable) -> float:
    """Document Relevance Correlation: P(word present | relevant) * RCV.

    Equals A^2 / ((A+C)^{3/2} * sqrt(A+B)); 0 when no document is relevant.
    """
    if t.A + t.C == 0:
        return 0.0
    return (t.A / (t.A + t.C)) * rcv(t)


@dataclass(frozen=True, eq=False)
class FeatureRanking:
    """Terms of one binary class task ordered by descending score: their
    vocabulary ``positions`` and ``scores`` as arrays, named from ``vocab``.

    Ties are broken by ascending vocabulary index, so rankings are
    deterministic regardless of scoring order.
    """

    method: str
    category: Category
    vocab: Vocabulary = field(repr=False)
    positions: np.ndarray
    scores: np.ndarray

    @property
    def scored(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.terms(), self.scores.tolist()))

    def terms(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.terms.__getitem__, self.positions.tolist()))

    def to_dict(self) -> dict:
        return {
            "class": int(self.category),
            "method": self.method,
            "k": len(self.positions),
            "terms": [{"term": term, "score": score} for term, score in self.scored],
        }

    def save(self, path) -> None:
        write_json_atomic(path, self.to_dict())


def score_terms(corpus: VectorizedCorpus, category: Category | int, method: str) -> np.ndarray:
    """Score of every vocabulary term for one class task, in vocabulary order."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    cat = int(Category(category))
    A = corpus.class_term_counts[cat].astype(np.float64)
    B = corpus.doc_freq - A
    n_rel = corpus.labels.count(cat)
    n_irr = len(corpus) - n_rel
    C = n_rel - A
    D = n_irr - B
    N = float(len(corpus))
    if method == CHI2:
        cross = A * D - C * B
        denom = (A + C) * (B + D) * (A + B) * (C + D)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denom > 0, N * cross * cross / denom, 0.0)
    else:
        denom = np.sqrt(A + B) * (A + C) ** 1.5
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denom > 0, A * A / denom, 0.0)
    return scores


def rank_features(
    corpus: VectorizedCorpus,
    category: Category | int,
    method: str = CHI2,
    k: int | None = None,
) -> FeatureRanking:
    """Top-k terms for one binary class task by the chosen score.

    Each class gets its own independent ranking.  When k exceeds the
    vocabulary, the full ranking is returned with a warning.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    V = len(corpus.vocab)
    if V == 0:
        raise ValueError("vocabulary is empty")
    if k is None:
        k = V
    elif k > V:
        warnings.warn(f"k={k} exceeds vocabulary size {V}; returning the full ranking", stacklevel=2)
        k = V
    scores = score_terms(corpus, category, method)
    # Stable sort on negated scores keeps ascending vocabulary order within ties.
    order = np.argsort(-scores, kind="stable")[:k]
    return FeatureRanking(method, Category(int(category)), corpus.vocab, order, scores[order])
