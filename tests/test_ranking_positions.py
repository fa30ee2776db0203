"""Rankings hold vocabulary positions, and members train from them.

``FeatureRanking`` keeps the ranked positions and scores as arrays; its
``scored``, ``terms()`` and ``to_dict()`` must read exactly as when they were
built term by term.  ``train_member`` given a ranking and k must train the
model that NB, LR or the SVM fits on the ranking's first k positions.
"""

import json

import numpy as np
import pytest

from revclass.classify import (
    LR,
    NB,
    SVM,
    BinaryMember,
    Hyperparams,
    rank_classes,
    train_lr,
    train_member,
    train_nb,
    train_ovr,
    train_svm,
)
from revclass.corpus import Category
from revclass.feature_select import rank_features, score_terms
from revclass.preprocess import VectorizedCorpus, Vocabulary

HP = Hyperparams(lr_epochs=30, svm_epochs=5)


def _tied_corpus(seed, n_docs=48, n_patterns=10):
    """Terms in shuffled vocabulary order, in groups that share one presence
    pattern, so that every term of a group scores exactly the same; plus
    terms in no document, which all score 0.  Labels cover categories 0-3
    only, so categories 4-7 train stubs."""
    rng = np.random.default_rng(seed)
    patterns = rng.random((n_patterns, n_docs)) < 0.3
    groups = [[f"p{p}_{i}" for i in range(int(rng.integers(1, 5)))] for p in range(n_patterns)]
    terms = [t for group in groups for t in group] + [f"absent{i}" for i in range(4)]
    vocab = Vocabulary(tuple(terms[i] for i in rng.permutation(len(terms))))
    docs = [[t for p, group in enumerate(groups) if patterns[p, d] for t in group] for d in range(n_docs)]
    labels = rng.integers(0, 4, n_docs).tolist()
    return VectorizedCorpus.from_tokens(docs, labels, vocab)


def _reference_scored(vc, category, method, k):
    """(term, score) pairs as they were built term by term: descending score,
    ties in ascending vocabulary order, each score a Python float."""
    scores = score_terms(vc, category, method)
    order = sorted(range(len(vc.vocab)), key=lambda j: (-scores[j], j))[:k]
    return tuple((vc.vocab.terms[j], float(scores[j])) for j in order)


@pytest.fixture(scope="module", params=[3, 4])
def vc(request):
    return _tied_corpus(request.param)


def test_fixture_has_tied_scores_in_a_vocabulary_past_insertion_sort(vc):
    # numpy sorts up to 16 items by insertion sort, which is stable anyway.
    assert len(vc.vocab) > 16
    for method in ("chi2", "drc"):
        scores = score_terms(vc, Category.PLOT, method)
        assert len(set(scores.tolist())) < len(scores) - 4


def test_document_frequency_counts_the_documents_that_hold_each_term(vc):
    expected = [sum(j in doc for doc in vc.doc_terms) for j in range(len(vc.vocab))]
    assert vc.doc_freq.tolist() == expected
    assert vc.label_array.tolist() == list(vc.labels)


@pytest.mark.parametrize("method", ["chi2", "drc"])
@pytest.mark.parametrize("category", [Category.PLOT, Category.DIALOGUE, Category.ANALYSIS])
@pytest.mark.parametrize("k", [1, 7, 16, None])
def test_ranking_reads_as_when_built_term_by_term(vc, method, category, k):
    k = len(vc.vocab) if k is None else k
    ranking = rank_features(vc, category, method, k=k)
    expected = _reference_scored(vc, category, method, k)
    assert ranking.scored == expected
    assert all(type(term) is str and type(score) is float for term, score in ranking.scored)
    assert ranking.terms() == tuple(term for term, _ in expected)
    as_dict = {
        "class": int(category),
        "method": method,
        "k": k,
        "terms": [{"term": term, "score": score} for term, score in expected],
    }
    assert ranking.to_dict() == as_dict
    assert json.dumps(ranking.to_dict()) == json.dumps(as_dict)
    assert ranking.positions.tolist() == [vc.vocab.index[term] for term, _ in expected]


def test_ranking_positions_and_scores_are_arrays(vc):
    ranking = rank_features(vc, Category.ROLE, "chi2", k=5)
    assert ranking.positions.dtype.kind == "i" and ranking.positions.shape == (5,)
    assert ranking.scores.dtype == np.float64
    assert ranking.scores.tolist() == [score for _, score in ranking.scored]


def _assert_same_member(a, b):
    assert a.category == b.category and a.method == b.method and a.stub == b.stub
    assert a.terms == b.terms and all(type(term) is str for term in b.terms)
    if a.model is None:
        assert b.model is None
        return
    assert np.array_equal(a.model.weights, b.model.weights)
    assert a.model.bias == b.model.bias
    if a.method == NB:
        assert np.array_equal(a.model.cond_pos, b.model.cond_pos)
        assert np.array_equal(a.model.cond_neg, b.model.cond_neg)
        assert (a.model.log_prior_pos, a.model.log_prior_neg) == (b.model.log_prior_pos, b.model.log_prior_neg)
    elif a.method == LR:
        assert a.model.history == b.model.history and len(b.model.history) == HP.lr_epochs + 1


@pytest.mark.parametrize("method", [NB, LR, SVM])
@pytest.mark.parametrize("selector", ["chi2", "drc"])
def test_member_is_the_model_trained_on_the_ranking_s_first_k_positions(vc, method, selector):
    stubs = 0
    for ranking in rank_classes(vc, (5, 9, 40, 3, 5, 9, 40, 3), selector):
        rel = vc.label_array == int(ranking.category)
        for k in (1, 4, None):
            member = train_member(vc, ranking, method, HP, 7, k)
            assert member.ranking is ranking
            if member.stub is not None:
                stubs += 1
                _assert_same_member(BinaryMember(ranking.category, method, (), None, member.stub), member)
                continue
            X = vc.select(ranking.positions[:k])
            if method == NB:
                model = train_nb(X, np.where(rel, 1, -1), l=HP.l)
            elif method == LR:
                model = train_lr(X, rel.astype(np.float64), eta=HP.eta, lam=HP.lam, epochs=HP.lr_epochs)
            else:
                seed = 7 + int(ranking.category)
                model = train_svm(X, np.where(rel, 1.0, -1.0), C=HP.C, epochs=HP.svm_epochs, seed=seed)
                assert member.model.seed == seed
            _assert_same_member(BinaryMember(ranking.category, method, ranking.terms()[:k], model), member)
    assert stubs == 4 * 3  # categories 4-7 have no positives


@pytest.mark.parametrize("method", [NB, LR, SVM])
def test_train_ovr_members_equal_members_trained_from_terms(vc, method):
    model = train_ovr(vc, method=method, per_class_feature_sizes=(6,) * 8, hyperparams=HP, seed=11)
    for member in model.members:
        assert member.ranking.terms() == rank_features(vc, member.category, "chi2", k=6).terms()
        ranking = rank_features(vc, member.category, "chi2", k=6)
        _assert_same_member(train_member(vc, ranking, method, HP, 11), member)
