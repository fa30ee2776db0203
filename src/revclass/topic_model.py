"""Latent Dirichlet Allocation by collapsed Gibbs sampling.

Used to survey corpus content: exports per-topic word lists and per-document
topic weights (heat-map data).  Sampling is sequential and fully determined
by the seed and document order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from revclass.corpus import POSITIVE, Field, check, integer, write_csv, write_json_atomic
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


# LdaConfig's fields, which lda's settings take too; a null alpha is 50/K.
LDA_FIELDS = {"K": integer(1), "alpha": replace(POSITIVE, nullable=True), "beta": POSITIVE, "iterations": integer(1)}


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
        check(vars(self), Field(dict, fields=LDA_FIELDS), "", ValueError)
        if self.alpha is None:
            object.__setattr__(self, "alpha", 50.0 / self.K)


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
    # The tests' reference for _sweep, which fit_lda runs.  One sweep over all
    # tokens.  Shapes come from len() and counts are read row by row, so the
    # same source runs over int64 arrays (compiled by numba) and over nested
    # Python lists (plain interpreter) with identical arithmetic.
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


@njit(cache=True)
def _sweep(n_dk, n_wk, n_k, a_dk, b_wk, f_k, a_of, b_of, f_of, p, z, doc_of, word_of, u):
    # One sweep over all tokens, reading each table row by row, so that numba
    # compiles it over arrays and the interpreter runs it over nested lists.
    K = len(n_k)
    topics = range(K)
    for i in range(len(z)):
        k = z[i]
        nd = n_dk[doc_of[i]]
        ad = a_dk[doc_of[i]]
        nw = n_wk[word_of[i]]
        bw = b_wk[word_of[i]]
        c = nd[k] - 1
        nd[k] = c
        ad[k] = a_of[c]
        c = nw[k] - 1
        nw[k] = c
        bw[k] = b_of[c]
        c = n_k[k] - 1
        n_k[k] = c
        f_k[k] = f_of[c]
        # p[t] holds the running total, the reference's partial sum acc.
        total = 0.0
        for t in topics:
            total += bw[t] * ad[t] / f_k[t]
            p[t] = total
        r = u[i] * total
        k = K - 1
        for t in topics:
            if r < p[t]:
                k = t
                break
        z[i] = k
        c = nd[k] + 1
        nd[k] = c
        ad[k] = a_of[c]
        c = nw[k] + 1
        nw[k] = c
        bw[k] = b_of[c]
        c = n_k[k] + 1
        n_k[k] = c
        f_k[k] = f_of[c]


class _ListGibbs:
    """Collapsed-Gibbs state for :func:`_sweep`, over nested lists or, with
    ``arrays``, over int64/float64 arrays.

    Topic-word counts are word-major (``n_wk[w][t]``), so a token reads one
    row of each table.  Beside each count is its factor in the sampling
    weight: ``a_dk[d][t] == n_dk[d][t] + alpha``, ``b_wk[w][t] ==
    n_wk[w][t] + beta`` and ``f_k[t] == n_k[t] + V*beta``.  A factor is
    looked up by its updated count in a table of prior sums (``a_of[c] == c
    + alpha``), never stepped by 1.0, whose rounding differs
    (``(4 + 0.1) - 1.0 != 3 + 0.1``).  So ``sweep`` computes the
    weights, partial sums and draws of :func:`_gibbs_sweep` exactly.
    """

    def __init__(self, n_dk, n_kw, n_k, alpha: float, beta: float, arrays: bool = False):
        # The largest value each count can reach: a document's length, a
        # word's frequency, the number of tokens.
        tops = (n_dk.sum(axis=1).max(), n_kw.sum(axis=0).max(), n_k.sum())
        priors = (alpha, beta, n_kw.shape[1] * beta)
        # Over lists a factor is its prior sum's own float, so replacing it frees none.
        dtype = np.float64 if arrays else object
        a_of, b_of, f_of = ((np.arange(top + 1) + prior).astype(dtype) for top, prior in zip(tops, priors))
        n_wk = n_kw.T
        tables = (n_dk, n_wk, n_k, a_of[n_dk], b_of[n_wk], f_of[n_k], a_of, b_of, f_of, np.zeros(len(n_k)))
        tables = [np.array(t, order="C") if arrays else t.tolist() for t in tables]
        self.n_dk, self.n_wk, self.n_k, self.a_dk, self.b_wk, self.f_k = tables[:6]
        # numba cannot pass lists of lists to compiled code, so lists run its Python source.
        # sweep(z, doc_of, word_of, u) runs one sweep over this state.
        self.sweep = partial(_sweep if arrays else getattr(_sweep, "py_func", _sweep), *tables)

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n_dk, n_kw, n_k)`` as int64 arrays, ``n_kw`` topic-major."""
        n_kw = np.ascontiguousarray(np.array(self.n_wk, dtype=np.int64).T)
        return np.array(self.n_dk, dtype=np.int64), n_kw, np.array(self.n_k, dtype=np.int64)


def _table_sum(table) -> int:
    """Sum of a 2-D count table held as an array or as nested lists."""
    if isinstance(table, np.ndarray):
        return int(table.sum())
    return sum(map(sum, table))


def _conserved(n_tokens: int, n_k, n_kw, n_dk) -> bool:
    """Whether each count table, as arrays or as lists, sums to ``n_tokens``."""
    return sum(n_k) == n_tokens and _table_sum(n_kw) == n_tokens and _table_sum(n_dk) == n_tokens


def fit_lda(
    docs: Sequence[Sequence[str]],
    cfg: LdaConfig,
    doc_ids: Optional[Sequence[str]] = None,
) -> LdaModel:
    """Run collapsed Gibbs sampling from a seeded random initialization.

    Empty documents are excluded with a warning naming their ids.  For a
    fixed seed and document order the assignments are reproducible exactly.
    Count conservation is checked after every sweep.
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

    # numba compiles _sweep over arrays; the interpreter runs it faster over lists.
    state = _ListGibbs(n_dk, n_kw, n_k, cfg.alpha, cfg.beta, arrays=_HAVE_NUMBA)
    tokens = np.asarray if _HAVE_NUMBA else np.ndarray.tolist
    z, doc_of, word_of = tokens(z), tokens(doc_of), tokens(word_of)
    for _ in range(cfg.iterations):
        state.sweep(z, doc_of, word_of, tokens(rng.random(n_tokens)))
        if not _conserved(n_tokens, state.n_k, state.n_wk, state.n_dk):
            raise AssertionError("count conservation violated during sampling")
    z = np.asarray(z, dtype=np.int64)
    n_dk, n_kw, n_k = state.counts()

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
    if not 0 <= n <= len(model.vocab):
        raise ValueError(f"n={n} is outside [0, vocabulary size {len(model.vocab)}]")
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
