"""Latent Dirichlet Allocation by collapsed Gibbs sampling.

Used to survey corpus content: exports per-topic word lists and per-document
topic weights (heat-map data).  Sampling is sequential and fully determined
by the seed and document order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from revclass.corpus import write_csv, write_json_atomic
from revclass.preprocess import Vocabulary

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is the optional `fast` extra
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap if not (args and callable(args[0])) else args[0]


@dataclass(frozen=True)
class LdaConfig:
    """Gibbs-sampling hyperparameters.

    alpha/beta default to the common symmetric priors 50/K and 0.01.
    """

    K: int = 8
    alpha: Optional[float] = None
    beta: float = 0.01
    iterations: int = 1000
    seed: int = 42

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.alpha is None:
            object.__setattr__(self, "alpha", 50.0 / self.K)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class LdaModel:
    """Fitted state: smoothed distributions plus raw count matrices."""

    config: LdaConfig
    vocab: Vocabulary
    doc_ids: tuple[str, ...]
    topic_word: np.ndarray  # K x V, rows sum to 1
    doc_topic: np.ndarray  # D x K, rows sum to 1
    assignments: tuple[np.ndarray, ...]  # per-document token topic ids
    topic_word_counts: np.ndarray  # K x V
    doc_topic_counts: np.ndarray  # D x K

    @property
    def n_topics(self) -> int:
        return self.config.K

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def to_dict(self) -> dict:
        return {
            "K": self.config.K,
            "alpha": self.config.alpha,
            "beta": self.config.beta,
            "seed": self.config.seed,
            "vocab": list(self.vocab.terms),
            "topic_word": self.topic_word.tolist(),
            "doc_topic": self.doc_topic.tolist(),
        }

    def save(self, path) -> None:
        write_json_atomic(path, self.to_dict())


@njit(cache=True)
def _gibbs_sweep(z, doc_of, word_of, n_dk, n_kw, n_k, alpha, beta, u, p):
    # One sweep over all tokens.  Shapes come from len() and counts are read
    # row by row, so the same source runs over int64 arrays (compiled by
    # numba) and over nested Python lists (plain interpreter) with identical
    # arithmetic.
    K = len(n_kw)
    vbeta = len(n_kw[0]) * beta
    for i in range(len(z)):
        d = doc_of[i]
        w = word_of[i]
        k = z[i]
        n_dk[d][k] -= 1
        n_kw[k][w] -= 1
        n_k[k] -= 1
        total = 0.0
        for t in range(K):
            p[t] = (n_kw[t][w] + beta) * (n_dk[d][t] + alpha) / (n_k[t] + vbeta)
            total += p[t]
        r = u[i] * total
        acc = 0.0
        new_k = K - 1
        for t in range(K):
            acc += p[t]
            if r < acc:
                new_k = t
                break
        z[i] = new_k
        n_dk[d][new_k] += 1
        n_kw[new_k][w] += 1
        n_k[new_k] += 1


def _table_sum(table) -> int:
    """Sum of a 2-D count table held as an array or as nested lists."""
    if isinstance(table, np.ndarray):
        return int(table.sum())
    return sum(map(sum, table))


def fit_lda(
    docs: Sequence[Sequence[str]],
    cfg: LdaConfig,
    doc_ids: Optional[Sequence[str]] = None,
    check_counts: bool = True,
) -> LdaModel:
    """Run collapsed Gibbs sampling from a seeded random initialization.

    Empty documents are excluded with a warning naming their ids.  For a
    fixed seed and document order the assignments are reproducible exactly.
    ``check_counts`` asserts count conservation after every sweep.
    """
    if doc_ids is None:
        doc_ids = [f"doc_{i}" for i in range(len(docs))]
    if len(doc_ids) != len(docs):
        raise ValueError("doc_ids must align with docs")
    if not docs:
        raise ValueError("corpus is empty")
    empties = [doc_ids[i] for i, d in enumerate(docs) if len(d) == 0]
    if empties:
        warnings.warn(f"excluding {len(empties)} empty document(s): {empties[:5]}", stacklevel=2)
        keep = [i for i, d in enumerate(docs) if len(d) > 0]
        docs = [docs[i] for i in keep]
        doc_ids = [doc_ids[i] for i in keep]
    if not docs:
        raise ValueError("corpus is empty after excluding empty documents")
    vocab = Vocabulary.from_documents(docs)

    K = cfg.K
    V = len(vocab)
    D = len(docs)
    lengths = [len(doc) for doc in docs]
    doc_of = np.repeat(np.arange(D, dtype=np.int64), lengths)
    n_tokens = len(doc_of)
    word_of = np.fromiter(map(vocab.index.__getitem__, chain.from_iterable(docs)), dtype=np.int64, count=n_tokens)

    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(0, K, n_tokens).astype(np.int64)
    n_dk = np.zeros((D, K), dtype=np.int64)
    n_kw = np.zeros((K, V), dtype=np.int64)
    n_k = np.zeros(K, dtype=np.int64)
    np.add.at(n_dk, (doc_of, z), 1)
    np.add.at(n_kw, (z, word_of), 1)
    np.add.at(n_k, z, 1)

    # numba compiles the kernel over the arrays.  The interpreter runs the
    # same source about ten times faster over lists than over numpy scalars,
    # so without numba the state is held as lists until the last sweep.
    if not _HAVE_NUMBA:
        z, doc_of, word_of, n_dk, n_kw, n_k = (
            a.tolist() for a in (z, doc_of, word_of, n_dk, n_kw, n_k)
        )
    p = np.zeros(K) if _HAVE_NUMBA else [0.0] * K
    for _ in range(cfg.iterations):
        u = rng.random(n_tokens)
        if not _HAVE_NUMBA:
            u = u.tolist()
        _gibbs_sweep(z, doc_of, word_of, n_dk, n_kw, n_k, cfg.alpha, cfg.beta, u, p)
        if check_counts and not (
            sum(n_k) == n_tokens and _table_sum(n_kw) == n_tokens and _table_sum(n_dk) == n_tokens
        ):
            raise AssertionError("count conservation violated during sampling")
    if not _HAVE_NUMBA:
        z, n_dk, n_kw, n_k = (np.array(a, dtype=np.int64) for a in (z, n_dk, n_kw, n_k))

    topic_word = (n_kw + cfg.beta) / (n_k[:, None] + V * cfg.beta)
    doc_len = n_dk.sum(axis=1, keepdims=True)
    doc_topic = (n_dk + cfg.alpha) / (doc_len + K * cfg.alpha)
    bounds = np.cumsum([0, *lengths])
    assignments = tuple(z[bounds[i] : bounds[i + 1]].copy() for i in range(D))
    return LdaModel(
        config=cfg,
        vocab=vocab,
        doc_ids=tuple(doc_ids),
        topic_word=topic_word,
        doc_topic=doc_topic,
        assignments=assignments,
        topic_word_counts=n_kw,
        doc_topic_counts=n_dk,
    )


def top_words(model: LdaModel, topic: int, n: int) -> list[tuple[str, float]]:
    """The n highest-probability words of one topic, descending, ties broken
    by ascending vocabulary index."""
    if not 0 <= topic < model.n_topics:
        raise IndexError(f"topic {topic} out of range [0, {model.n_topics})")
    if n > len(model.vocab):
        raise ValueError(f"n={n} exceeds vocabulary size {len(model.vocab)}")
    row = model.topic_word[topic]
    order = np.argsort(-row, kind="stable")[:n]
    return [(model.vocab.terms[i], float(row[i])) for i in order]


def export_heatmap(model: LdaModel, path) -> None:
    """Write per-document topic weights as CSV heat-map data.

    Rows follow corpus order; values are rounded to 6 decimals, so re-export
    of the same model is byte-identical.
    """
    header = ["doc_id", *(f"topic_{k}" for k in range(model.n_topics))]
    write_csv(path, header, [(doc_id, *row) for doc_id, row in zip(model.doc_ids, model.doc_topic.tolist())])
