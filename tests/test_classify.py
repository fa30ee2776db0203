import json
import math
import re
import shutil
from fractions import Fraction

import numpy as np
import pytest

import revclass.classify as classify
from revclass.classify import (
    DEFAULT_BUDGETS,
    BinaryMember,
    Hyperparams,
    LrModel,
    ModelFormatError,
    OvrModel,
    STUB_NO_NEGATIVES,
    STUB_NO_POSITIVES,
    _sigmoid,
    load_ovr,
    lr_gradient,
    lr_prob,
    nb_log_odds,
    predict,
    rank_classes,
    save_ovr,
    score_documents,
    svm_decision,
    svm_objective,
    train_lr,
    train_member,
    train_nb,
    train_ovr,
    train_svm,
)
from revclass.corpus import Category
from revclass.evaluate import SyntheticSpec, derive_rotations, generate_synthetic, tokenize_corpus
from revclass.preprocess import SparseRows, VectorizedCorpus, Vocabulary


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------

NB_X = np.array([[1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
NB_Y = np.array([1, 1, -1, -1])


def _enumerate_log_odds(model, x):
    """Independent Bayes-rule computation from the fitted parameters."""
    log_pos = model.log_prior_pos
    log_neg = model.log_prior_neg
    for j, bit in enumerate(x):
        p_pos = model.cond_pos[j] if bit else 1.0 - model.cond_pos[j]
        p_neg = model.cond_neg[j] if bit else 1.0 - model.cond_neg[j]
        log_pos += math.log(p_pos)
        log_neg += math.log(p_neg)
    return log_pos - log_neg


class TestTrainNb:
    def test_hand_counted_conditionals(self):
        model = train_nb(NB_X, NB_Y, l=1.0)
        assert model.cond_pos[0] == pytest.approx(0.75)
        assert model.cond_neg[0] == pytest.approx(0.25)
        assert model.cond_pos[1] == pytest.approx(0.5)
        assert model.cond_neg[1] == pytest.approx(0.5)

    def test_unseen_term_smoothing(self):
        X = np.array([[1, 0], [1, 0], [0, 0], [0, 0]], dtype=float)
        model = train_nb(X, NB_Y, l=1.0)
        # feature 1 never occurs: both sides get (0 + l) / (2 + 2l)
        assert model.cond_pos[1] == pytest.approx(0.25)
        assert model.cond_neg[1] == pytest.approx(0.25)
        # and the algebraic fixed point with no samples on a side is l/(2l)
        assert (0 + 1.0) / (0 + 2 * 1.0) == 0.5

    def test_balanced_labels_zero_log_prior(self):
        model = train_nb(NB_X, NB_Y, l=1.0)
        assert model.log_prior_pos == model.log_prior_neg

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            train_nb(NB_X, np.ones(4), l=1.0)

    def test_smoothing_must_be_positive(self):
        with pytest.raises(ValueError):
            train_nb(NB_X, NB_Y, l=0.0)

    def test_conditionals_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        X = (rng.random((20, 6)) < 0.4).astype(float)
        y = np.where(rng.random(20) < 0.5, 1, -1)
        y[0], y[1] = 1, -1
        model = train_nb(X, y, l=0.5)
        for arr in (model.cond_pos, model.cond_neg):
            assert np.all(arr > 0) and np.all(arr < 1)


class TestNbLogOdds:
    def test_hand_example_sign_positive(self):
        model = train_nb(NB_X, NB_Y, l=1.0)
        assert nb_log_odds(model, np.array([1, 0])) > 0

    def test_symmetric_model_is_exactly_zero(self):
        X = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        y = np.array([1, 1, -1, -1])
        model = train_nb(X, y, l=1.0)  # cond identical on both sides, priors equal
        assert np.array_equal(model.cond_pos, model.cond_neg)
        for bits in ([0, 0], [1, 0], [0, 1], [1, 1]):
            assert nb_log_odds(model, np.array(bits)) == 0.0

    def test_matches_enumeration_oracle_on_all_16_vectors(self):
        rng = np.random.default_rng(1)
        X = (rng.random((12, 4)) < 0.5).astype(float)
        y = np.where(rng.random(12) < 0.6, 1, -1)
        y[0], y[1] = 1, -1
        model = train_nb(X, y, l=1.0)
        for bits in range(16):
            x = np.array([(bits >> j) & 1 for j in range(4)])
            assert nb_log_odds(model, x) == pytest.approx(
                _enumerate_log_odds(model, x), abs=1e-12
            )

    def test_dimension_mismatch(self):
        model = train_nb(NB_X, NB_Y, l=1.0)
        with pytest.raises(ValueError, match="features"):
            nb_log_odds(model, np.array([1, 0, 1]))


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------


def _oracle_lr_objective(w, w0, X, y, lam):
    z = X @ w + w0
    p = 1.0 / (1.0 + np.exp(-z))
    return float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)) - 0.5 * lam * (w @ w))


class TestTrainLr:
    def test_first_step_matches_closed_form_at_origin(self):
        rng = np.random.default_rng(2)
        X = (rng.random((10, 3)) < 0.5).astype(float)
        y = (rng.random(10) < 0.5).astype(float)
        eta = 0.05
        model = train_lr(X, y, eta=eta, lam=0.0, epochs=1)
        expected_w = eta * (X.T @ (y - 0.5))
        expected_b = eta * float((y - 0.5).sum())
        assert np.allclose(model.weights, expected_w, atol=1e-12)
        assert model.bias == pytest.approx(expected_b, abs=1e-12)

    def test_linearly_separable_reaches_full_accuracy(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_lr(X, y, eta=0.5, lam=0.0, epochs=500)
        preds = [lr_prob(model, x) >= 0.5 for x in X]
        assert preds == [False, False, True, True]

    def test_gradient_matches_central_differences(self):
        h = 1e-5
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            X = rng.normal(size=(30, 5))
            y = (rng.random(30) < 0.5).astype(float)
            lam = 0.1
            w = rng.normal(scale=0.5, size=5)
            w0 = float(rng.normal())
            grad_w, grad_b = lr_gradient(w, w0, X, y, lam)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd = (_oracle_lr_objective(w + e, w0, X, y, lam)
                      - _oracle_lr_objective(w - e, w0, X, y, lam)) / (2 * h)
                worst = max(worst, abs(grad_w[j] - fd) / max(abs(fd), 1.0))
            fd_b = (_oracle_lr_objective(w, w0 + h, X, y, lam)
                    - _oracle_lr_objective(w, w0 - h, X, y, lam)) / (2 * h)
            worst = max(worst, abs(grad_b - fd_b) / max(abs(fd_b), 1.0))
        assert worst <= 1e-5

    def test_objective_monotone_at_small_eta(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        y = (rng.random(30) < 0.5).astype(float)
        model = train_lr(X, y, eta=1e-3, lam=0.1, epochs=200)
        history = model.history
        assert len(history) == 201
        assert all(history[i + 1] >= history[i] for i in range(len(history) - 1))

    def test_diverging_eta_aborts_with_diagnostic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(scale=50.0, size=(40, 5))
        y = (rng.random(40) < 0.5).astype(float)
        # eta * lam > 2 makes the penalty step expansive, so weights blow up
        with pytest.raises(ArithmeticError, match="eta"):
            train_lr(X, y, eta=1e6, lam=0.1, epochs=200)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = (rng.random((15, 4)) < 0.5).astype(float)
        y = (rng.random(15) < 0.5).astype(float)
        m1 = train_lr(X, y, eta=0.1, lam=0.1, epochs=50)
        m2 = train_lr(X, y, eta=0.1, lam=0.1, epochs=50)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestLrProb:
    def test_zero_model_gives_half(self):
        model = train_lr(np.eye(2), np.array([1.0, 0.0]), epochs=1, eta=0.1)
        zeroed = type(model)(weights=np.zeros(2), bias=0.0, eta=0.1, lam=0.0, epochs=0)
        for x in (np.zeros(2), np.ones(2)):
            assert lr_prob(zeroed, x) == 0.5

    def test_saturation_is_clamped_open_interval(self):
        model = type(train_lr(np.eye(1), np.array([1.0]), epochs=1))(
            weights=np.zeros(1), bias=1e9, eta=0.1, lam=0.0, epochs=0
        )
        p = lr_prob(model, np.array([0.0]))
        assert 0.0 < p < 1.0
        model_neg = type(model)(weights=np.zeros(1), bias=-1e9, eta=0.1, lam=0.0, epochs=0)
        assert 0.0 < lr_prob(model_neg, np.array([0.0])) < 1.0

    def test_unit_weight_scalar_value(self):
        model = type(train_lr(np.eye(1), np.array([1.0]), epochs=1))(
            weights=np.ones(1), bias=0.0, eta=0.1, lam=0.0, epochs=0
        )
        assert lr_prob(model, np.array([1.0])) == pytest.approx(0.731059, abs=1e-6)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------


def _separable_set(rng, n=20, d=6, margin=0.5):
    w_star = rng.normal(size=d)
    w_star /= np.linalg.norm(w_star)
    X, y = [], []
    while len(X) < n:
        x = rng.normal(size=d)
        v = float(w_star @ x)
        if abs(v) >= margin:
            X.append(x)
            y.append(1.0 if v > 0 else -1.0)
    return np.array(X), np.array(y)


class TestTrainSvm:
    def test_two_point_fixture_recovers_hard_margin(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        model = train_svm(X, y, C=100.0, epochs=20000, seed=42)
        assert 0.9 <= abs(model.weights[0]) <= 1.1
        assert svm_decision(model, X[0]) >= 0
        assert svm_decision(model, X[1]) < 0

    def test_zero_model_objective_closed_form(self):
        X = np.ones((7, 3))
        y = np.array([1.0, -1.0] * 3 + [1.0])
        C = 2.5
        assert svm_objective(np.zeros(3), 0.0, X, y, C) == pytest.approx(C * 7)

    def test_separable_set_reaches_zero_error(self):
        X, y = _separable_set(np.random.default_rng(6))
        model = train_svm(X, y, C=100.0, epochs=500, seed=0)
        decisions = X @ model.weights + model.bias
        assert np.all((decisions >= 0) == (y > 0))

    def test_objective_beats_zero_model(self):
        X, y = _separable_set(np.random.default_rng(7))
        model = train_svm(X, y, C=10.0, epochs=500, seed=1)
        assert svm_objective(model.weights, model.bias, X, y, 10.0) <= svm_objective(
            np.zeros(X.shape[1]), 0.0, X, y, 10.0
        )

    def test_deterministic_for_fixed_seed(self):
        X, y = _separable_set(np.random.default_rng(8))
        m1 = train_svm(X, y, C=1.0, epochs=100, seed=3)
        m2 = train_svm(X, y, C=1.0, epochs=100, seed=3)
        assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias
        m3 = train_svm(X, y, C=1.0, epochs=100, seed=4)
        assert not np.array_equal(m1.weights, m3.weights)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            train_svm(np.ones((4, 2)), np.ones(4), C=1.0, epochs=10, seed=0)


class TestSvmDecision:
    def test_zero_model_ties_positive(self):
        X = np.array([[1.0], [-1.0]])
        model = train_svm(X, np.array([1.0, -1.0]), C=1.0, epochs=10, seed=0)
        zeroed = type(model)(weights=np.zeros(1), bias=0.0, C=1.0, epochs=0, seed=0)
        assert svm_decision(zeroed, np.array([5.0])) == 0.0  # >= 0 means positive

    def test_zero_input_returns_bias(self):
        model = type(train_svm(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), epochs=5))(
            weights=np.array([2.0]), bias=-0.75, C=1.0, epochs=0, seed=0
        )
        assert svm_decision(model, np.zeros(1)) == -0.75

    def test_two_point_model_at_midpoint(self):
        X = np.array([[1.0], [-1.0]])
        model = train_svm(X, np.array([1.0, -1.0]), C=100.0, epochs=20000, seed=42)
        assert svm_decision(model, np.array([0.5])) == pytest.approx(0.5, abs=0.1)


def _dense_svm_reference(X, y, C, epochs, seed):
    """The averaged SGD of train_svm as a dense O(d) loop, one scalar draw per
    step.  Its shrink-then-add rounding decides margins that are exactly 1."""
    n, d = X.shape
    lam = 1.0 / (C * n)
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    w0 = 0.0
    steps = epochs * n
    start = steps // 2
    w_avg = np.zeros(d)
    w0_avg = 0.0
    averaged = 0
    for t in range(1, steps + 1):
        i = int(rng.integers(0, n))
        eta = 1.0 / (lam * t)
        margin = y[i] * (w @ X[i] + w0)
        shrink = 1.0 - 1.0 / t
        w *= shrink
        w0 *= shrink
        if margin < 1.0:
            w += eta * y[i] * X[i]
            w0 += eta * y[i]
        if t > start:
            averaged += 1
            w_avg += (w - w_avg) / averaged
            w0_avg += (w0 - w0_avg) / averaged
    return np.append(w_avg, w0_avg)


def _exact_svm_reference(X, y, C, epochs, seed):
    """_dense_svm_reference in exact rational arithmetic."""
    n, d = X.shape
    X = [[Fraction(float(v)) for v in row] for row in X]
    y = [Fraction(float(v)) for v in y]
    rng = np.random.default_rng(seed)
    w = [Fraction(0)] * (d + 1)  # the bias is coordinate d, with x_d = 1
    steps = epochs * n
    start = steps // 2
    w_avg = [Fraction(0)] * (d + 1)
    for t in range(1, steps + 1):
        i = int(rng.integers(0, n))
        x = X[i] + [Fraction(1)]
        margin = y[i] * sum(wj * xj for wj, xj in zip(w, x))
        shrink = 1 - Fraction(1, t)
        w = [wj * shrink for wj in w]
        if margin < 1:
            eta = Fraction(C) * n / t
            w = [wj + eta * y[i] * xj for wj, xj in zip(w, x)]
        if t > start:
            averaged = t - start
            w_avg = [aj + (wj - aj) / averaged for aj, wj in zip(w_avg, w)]
    return np.array([float(a) for a in w_avg])


def _relative_gap(model, reference):
    got = np.append(model.weights, model.bias)
    return float(np.max(np.abs(got - reference)) / np.max(np.abs(reference)))


def _binary_fixture(seed):
    rng = np.random.default_rng(seed)
    X = (rng.random((12, 5)) < 0.4).astype(float)
    y = np.where(np.arange(12) % 3 == 0, 1.0, -1.0)
    return X, y


# (fixture seed, C, epochs): C * N is an integer for N = 12.
BINARY_CASES = [
    (0, 0.25, 3), (4, 1.0, 3), (7, 1.0, 3), (5, 2.0, 3), (1, 0.5, 6),
    (3, 1.0, 6), (2, 0.25, 10), (4, 0.5, 10), (1, 1.0, 10), (6, 1.0, 20),
]


@pytest.mark.parametrize("fixture_seed, C, epochs", BINARY_CASES)
def test_svm_matches_exact_transcription_on_binary_features(fixture_seed, C, epochs):
    X, y = _binary_fixture(fixture_seed)
    model = train_svm(X, y, C=C, epochs=epochs, seed=fixture_seed)
    assert _relative_gap(model, _exact_svm_reference(X, y, C, epochs, fixture_seed)) <= 1e-12


def test_binary_fixtures_hold_margin_ties_that_the_dense_loop_rounds():
    gaps = []
    for fixture_seed, C, epochs in BINARY_CASES:
        X, y = _binary_fixture(fixture_seed)
        exact = _exact_svm_reference(X, y, C, epochs, fixture_seed)
        dense = _dense_svm_reference(X, y, C, epochs, fixture_seed)
        gaps.append(float(np.max(np.abs(dense - exact)) / np.max(np.abs(exact))))
    assert max(gaps) > 1e-3, gaps


@pytest.mark.parametrize("density", [1.0, 0.03], ids=["dense", "sparse"])
@pytest.mark.parametrize("C, epochs", [(1.0, 3), (10.0, 2)])
def test_svm_matches_dense_reference_on_gaussian_features(density, C, epochs):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(200, 400)) * (rng.random((200, 400)) < density)
    y = np.where(rng.random(200) < 0.3, 1.0, -1.0)
    model = train_svm(X, y, C=C, epochs=epochs, seed=5)
    assert _relative_gap(model, _dense_svm_reference(X, y, C, epochs, 5)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 7, 200, 201, 4001])
def test_per_epoch_index_draws_equal_per_step_draws(n):
    per_step = np.random.default_rng(11)
    per_epoch = np.random.default_rng(11)
    for _ in range(3):
        assert per_epoch.integers(0, n, n).tolist() == [int(per_step.integers(0, n)) for _ in range(n)]


# ---------------------------------------------------------------------------
# One-vs-rest
# ---------------------------------------------------------------------------


def _synthetic_vc(rng, docs_per_cat=12, vocab_words=6):
    """Small 8-category corpus with disjoint planted vocabularies."""
    terms = []
    for c in range(8):
        terms += [f"c{c}w{i}" for i in range(vocab_words)]
    terms += [f"bg{i}" for i in range(10)]
    docs, labels = [], []
    for c in range(8):
        for _ in range(docs_per_cat):
            doc = [f"c{c}w{int(rng.integers(0, vocab_words))}" for _ in range(4)]
            doc += [f"bg{int(rng.integers(0, 10))}" for _ in range(3)]
            docs.append(doc)
            labels.append(c)
    return VectorizedCorpus.from_tokens(docs, labels, Vocabulary(tuple(terms)))


class TestTrainOvr:
    def test_default_budgets_vector(self):
        assert DEFAULT_BUDGETS == (1000, 1000, 4000, 4000, 1000, 4000, 1000, 4000)

    def test_member_vocab_is_min_of_budget_and_vocab(self):
        vc = _synthetic_vc(np.random.default_rng(9))
        model = train_ovr(vc, method="nb", per_class_feature_sizes=(5, 5, 5, 5, 30, 30, 30, 30))
        V = len(vc.vocab)
        for member in model.members:
            budget = model.budgets[int(member.category)]
            assert len(member.terms) == min(budget, V)

    def test_single_category_corpus_stubs(self):
        docs = [["a", "b"], ["b"], ["a"]]
        vc = VectorizedCorpus.from_tokens(docs, [0, 0, 0], Vocabulary(("a", "b")))
        model = train_ovr(vc, method="nb")
        assert model.members[0].stub == STUB_NO_NEGATIVES
        for cat in range(1, 8):
            assert model.members[cat].stub == STUB_NO_POSITIVES

    def test_every_method_trains(self):
        vc = _synthetic_vc(np.random.default_rng(10))
        for method in ("nb", "lr", "svm"):
            model = train_ovr(vc, method=method, hyperparams=Hyperparams(lr_epochs=20, svm_epochs=5))
            assert all(m.stub is None for m in model.members)

    def test_deterministic(self):
        vc = _synthetic_vc(np.random.default_rng(11))
        m1 = train_ovr(vc, method="svm", hyperparams=Hyperparams(svm_epochs=5), seed=13)
        m2 = train_ovr(vc, method="svm", hyperparams=Hyperparams(svm_epochs=5), seed=13)
        for a, b in zip(m1.members, m2.members):
            assert a.terms == b.terms
            assert np.array_equal(a.model.weights, b.model.weights)
            assert a.model.bias == b.model.bias


class TestTrainMember:
    @pytest.mark.parametrize("category", [Category.PLOT, Category.THUMB])
    def test_unknown_method_raises_naming_it(self, category):
        vc = VectorizedCorpus.from_tokens([["a"], ["b"]], [0, 1], Vocabulary(("a", "b")))
        ranking = rank_classes(vc, (2,) * 8, "chi2")[int(category)]  # PLOT trains, THUMB is a stub
        with pytest.raises(ValueError, match="unknown method 'forest'"):
            train_member(vc, ranking, "forest", Hyperparams(), 42)
        with pytest.raises(ValueError, match="unknown method 'forest'"):
            train_ovr(vc, method="forest")

    def test_every_member_keeps_its_ranking_stubs_included(self):
        docs = [["a", "b"], ["b"], ["a"]]
        vc = VectorizedCorpus.from_tokens(docs, [0, 1, 0], Vocabulary(("a", "b")))
        for ranking in rank_classes(vc, (2,) * 8, "chi2"):
            for k in (1, None):
                member = train_member(vc, ranking, "nb", Hyperparams(), 42, k)
                assert member.ranking is ranking and member.category is ranking.category
                assert member.stub == (None if ranking.category < 2 else STUB_NO_POSITIVES)
                assert member.terms == (ranking.terms()[:k] if member.model else ())


class TestPredict:
    def test_single_positive_member_wins(self):
        vc = _synthetic_vc(np.random.default_rng(12))
        model = train_ovr(vc, method="nb")
        tokens = [f"c3w{i}" for i in range(4)]
        assert predict(model, tokens) is Category.DIALOGUE

    def test_all_stub_tie_breaks_to_category_zero(self):
        docs = [["a"], ["a"], ["a"]]
        vc = VectorizedCorpus.from_tokens(docs, [2, 2, 2], Vocabulary(("a",)))
        model = train_ovr(vc, method="nb")
        # member 2 always-positive wins; drop it to an always-negative copy to
        # force the all-equal tie
        members = tuple(
            BinaryMember(m.category, m.method, (), None, stub=STUB_NO_POSITIVES)
            for m in model.members
        )
        tied = OvrModel(members=members, method="nb", selector="chi2", budgets=model.budgets, seed=0)
        assert predict(tied, ["a"]) is Category.PLOT

    def test_equal_finite_scores_tie_break(self):
        X = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        y = np.array([1, 1, -1, -1])
        symmetric = train_nb(X, y, l=1.0)
        members = tuple(
            BinaryMember(Category(c), "nb", ("a", "b"), symmetric) for c in range(8)
        )
        model = OvrModel(members=members, method="nb", selector="chi2", budgets=(2,) * 8, seed=0)
        assert predict(model, ["a"]) is Category.PLOT

    def test_invariant_under_member_permutation(self):
        vc = _synthetic_vc(np.random.default_rng(13))
        model = train_ovr(vc, method="nb")
        rng = np.random.default_rng(14)
        order = list(range(8))
        rng.shuffle(order)
        shuffled = OvrModel(
            members=tuple(model.members[i] for i in order),
            method=model.method,
            selector=model.selector,
            budgets=model.budgets,
            seed=model.seed,
        )
        for c in range(8):
            tokens = [f"c{c}w0", f"c{c}w1", "bg0"]
            assert predict(model, tokens) == predict(shuffled, tokens)

    def test_members_are_kept_in_category_order(self):
        vc = _synthetic_vc(np.random.default_rng(13))
        model = train_ovr(vc, method="nb")
        order = [3, 7, 0, 5, 1, 6, 2, 4]
        shuffled = OvrModel(
            members=[model.members[i] for i in order],
            method=model.method,
            selector=model.selector,
            budgets=model.budgets,
            seed=model.seed,
        )
        assert shuffled.members == model.members and isinstance(shuffled.members, tuple)
        for c in range(8):
            assert shuffled.members[c].category == c
        with pytest.raises(ValueError, match="one member per category"):
            OvrModel(model.members[:7] + model.members[:1], model.method, model.selector, model.budgets, model.seed)

    def test_planted_reviews_recovered(self):
        vc = _synthetic_vc(np.random.default_rng(15))
        model = train_ovr(vc, method="svm", hyperparams=Hyperparams(svm_epochs=20))
        hits = 0
        for c in range(8):
            tokens = [f"c{c}w{i}" for i in range(3)] + ["bg1"]
            hits += predict(model, tokens) == Category(c)
        assert hits >= 7


class TestSerialization:
    @pytest.mark.parametrize("method", ["nb", "lr", "svm"])
    def test_roundtrip_preserves_scores(self, method, tmp_path):
        vc = _synthetic_vc(np.random.default_rng(16))
        model = train_ovr(vc, method=method, hyperparams=Hyperparams(lr_epochs=20, svm_epochs=5))
        save_ovr(model, tmp_path / "model")
        loaded = load_ovr(tmp_path / "model")
        assert loaded.method == model.method
        assert loaded.budgets == model.budgets
        probe = ["c0w0", "c4w2", "bg3"]
        for a, b in zip(model.members, loaded.members):
            assert a.terms == b.terms
            assert score_documents([a], [probe])[0, 0] == pytest.approx(score_documents([b], [probe])[0, 0], rel=1e-12)

    def test_members_listed_out_of_order_load_in_category_order(self, tmp_path):
        vc = _synthetic_vc(np.random.default_rng(16))
        model = train_ovr(vc, method="nb")
        save_ovr(model, tmp_path)
        manifest = json.loads((tmp_path / "model_manifest.json").read_text(encoding="utf-8"))
        manifest["members"].reverse()
        (tmp_path / "model_manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        loaded = load_ovr(tmp_path)
        assert [int(m.category) for m in loaded.members] == list(range(8))
        assert [m.terms for m in loaded.members] == [m.terms for m in model.members]

    def test_stub_roundtrip(self, tmp_path):
        docs = [["a"], ["a"]]
        vc = VectorizedCorpus.from_tokens(docs, [0, 0], Vocabulary(("a",)))
        model = train_ovr(vc, method="nb")
        save_ovr(model, tmp_path / "model")
        loaded = load_ovr(tmp_path / "model")
        assert loaded.members[0].stub == STUB_NO_NEGATIVES
        assert loaded.members[5].stub == STUB_NO_POSITIVES


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """An LR and an SVM model directory written by save_ovr."""
    root = tmp_path_factory.mktemp("models")
    vc = _synthetic_vc(np.random.default_rng(16))
    for method in ("lr", "svm"):
        model = train_ovr(vc, method=method, hyperparams=Hyperparams(lr_epochs=20, svm_epochs=5))
        save_ovr(model, root / method)
    return root


@pytest.mark.parametrize("method", ["lr", "svm"])
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("parameters", "weights", "0.5"),
        ("parameters", "weights", None),
        ("parameters", "weights", [0.5]),
        ("parameters", "weights", True),
        ("parameters", "weights", float("inf")),
        ("parameters", "bias", "0.1"),
        ("parameters", "bias", None),
        ("parameters", "bias", False),
        ("parameters", "bias", float("nan")),
        ("parameters", "bias", [0.1]),
        ("hyperparameters", "epochs", 2.0),
        ("hyperparameters", "epochs", True),
    ],
)
def test_bad_weights_bias_or_epochs_raise_naming_file_and_field(saved_models, tmp_path, method, section, key, value):
    model_dir = tmp_path / "model"
    shutil.copytree(saved_models / method, model_dir)
    path = model_dir / "member_2.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if key == "weights":
        doc[section][key] = [value] * len(doc[section][key])
    else:
        doc[section][key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: field '{section}.{key}' "):
        load_ovr(model_dir)


class TestLrMemberScore:
    @staticmethod
    def _member(cat, bias):
        model = LrModel(weights=np.zeros(1), bias=bias, eta=0.1, lam=0.1, epochs=1)
        return BinaryMember(Category(cat), "lr", ("a",), model)

    def test_saturated_members_rank_by_decision_value(self):
        # sigma(40) and sigma(50) both round to exactly 1.0
        biases = {2: 40.0, 6: 50.0}
        members = tuple(self._member(c, biases.get(c, -5.0)) for c in range(8))
        model = OvrModel(members=members, method="lr", selector="chi2", budgets=(1,) * 8, seed=0)
        assert predict(model, ["a"]) is Category.THUMB

    def test_tiny_negative_decision_value_decides_negative(self):
        # sigma(-1e-17) rounds to exactly 0.5
        assert score_documents([self._member(0, -1e-17)], [("a",)])[0, 0] < 0.0


# ---------------------------------------------------------------------------
# Batch scoring against the per-document reference
# ---------------------------------------------------------------------------


def _reference_summands(member, tokens):
    """The per-document score as computed before the batch scorer, split into
    its bias and the weights of the present terms: the member's own term
    positions, sorted, and NB's form rebuilt from its conditional tables."""
    positions = {t: j for j, t in enumerate(member.terms)}
    active = sorted({positions[t] for t in tokens if t in positions})
    m = member.model
    if member.method == "nb":
        absent = np.log1p(-m.cond_pos) - np.log1p(-m.cond_neg)
        present = np.log(m.cond_pos) - np.log(m.cond_neg)
        return float(absent.sum()) + m.log_prior_pos - m.log_prior_neg, (present - absent)[active]
    return m.bias, m.weights[active]


def _reference_score(member, tokens):
    if member.stub:
        return -math.inf if member.stub == STUB_NO_POSITIVES else math.inf
    bias, weights = _reference_summands(member, tokens)
    return bias + float(weights.sum()) if len(weights) else bias


def _reference_predict(model, tokens):
    """The per-document one-vs-rest loop: highest score wins, ties go to the
    lowest category."""
    best_cat, best_score = None, -math.inf
    for member in model.members:
        score = _reference_score(member, tokens)
        if best_cat is None or score > best_score or (score == best_score and member.category < best_cat):
            best_cat, best_score = member.category, score
    return best_cat


def _probe_docs(rng, n=150):
    """Token documents with planted, background and unknown terms, repeated
    tokens and empty documents."""
    words = [f"c{c}w{i}" for c in range(8) for i in range(6)] + [f"bg{i}" for i in range(10)] + ["unknown", "zz"]
    docs = [[words[j] for j in rng.integers(0, len(words), rng.integers(0, 9))] for _ in range(n)]
    docs[:3] = [[], ["unknown"], ["c1w0", "c1w0", "bg2", "c1w0"]]
    return [tuple(doc) for doc in docs]


def _stub_models():
    """Models with members of both stub kinds: two categories only, and one only."""
    rng = np.random.default_rng(40)
    vc = _synthetic_vc(rng)
    models = []
    for keep in ({0, 1}, {3}):
        rows = [i for i, label in enumerate(vc.labels) if label in keep]
        sub = VectorizedCorpus(vc.vocab, tuple(vc.doc_terms[i] for i in rows), tuple(vc.labels[i] for i in rows))
        for method in ("nb", "lr", "svm"):
            models.append(train_ovr(sub, method=method, hyperparams=Hyperparams(lr_epochs=20, svm_epochs=3)))
    return models


class TestBatchScores:
    @pytest.mark.parametrize("method", ["nb", "lr", "svm"])
    def test_batch_scores_match_per_document_reference(self, method):
        vc = _synthetic_vc(np.random.default_rng(41))
        model = train_ovr(
            vc, method=method, per_class_feature_sizes=(5, 9, 20, 60, 3, 12, 40, 7),
            hyperparams=Hyperparams(lr_epochs=30, svm_epochs=5),
        )
        docs = _probe_docs(np.random.default_rng(42))
        scores = score_documents(model.members, docs)
        assert scores.shape == (len(docs), 8)
        for i, doc in enumerate(docs):
            for j, member in enumerate(model.members):
                bias, weights = _reference_summands(member, doc)
                want = bias + float(weights.sum()) if len(weights) else bias
                # Relative to the summands: the order of the additions changed.
                assert abs(scores[i, j] - want) <= 1e-12 * (abs(bias) + float(np.abs(weights).sum()))
                assert (scores[i, j] >= 0.0) == (want >= 0.0) == (score_documents([member], [doc])[0, 0] >= 0.0)
            assert predict(model, doc) is _reference_predict(model, doc)
        assert scores.argmax(axis=1).tolist() == [int(_reference_predict(model, doc)) for doc in docs]

    def test_stub_scores_are_infinite_and_argmax_matches_reference(self):
        docs = _probe_docs(np.random.default_rng(43), n=40)
        for model in _stub_models():
            assert {m.stub for m in model.members} - {None}
            scores = score_documents(model.members, docs)
            for c in range(8):
                member = model.members[c]
                if member.stub:
                    assert (scores[:, c] == _reference_score(member, ())).all()
                else:
                    want = [_reference_score(member, doc) for doc in docs]
                    assert np.allclose(scores[:, c], want, rtol=1e-12, atol=1e-12)
            assert scores.argmax(axis=1).tolist() == [int(_reference_predict(model, doc)) for doc in docs]

    def test_score_depends_only_on_the_set_of_tokens(self):
        vc = _synthetic_vc(np.random.default_rng(44))
        model = train_ovr(vc, method="nb")
        docs = _probe_docs(np.random.default_rng(45), n=30)
        batch = score_documents(model.members, docs)
        rng = np.random.default_rng(46)
        for i, doc in enumerate(docs):
            shuffled = list(doc) * 2
            rng.shuffle(shuffled)
            for member in model.members:
                # One document alone, reordered and repeated, scores bit-identically.
                assert score_documents([member], [shuffled])[0, 0] == batch[i, int(member.category)]

    def test_no_documents(self):
        vc = _synthetic_vc(np.random.default_rng(47))
        model = train_ovr(vc, method="svm", hyperparams=Hyperparams(svm_epochs=2))
        assert score_documents(model.members, []).shape == (0, 8)


# ---------------------------------------------------------------------------
# Training from sparse rows
# ---------------------------------------------------------------------------


def _dense_nb_reference(X, y, l):
    """train_nb's counts over a dense matrix, as they were computed before
    training read sparse rows."""
    X = np.asarray(X, dtype=np.float64)
    pos = np.asarray(y) > 0
    n_pos = int(pos.sum())
    n_neg = len(y) - n_pos
    cond_pos = (X[pos].sum(axis=0) + l) / (n_pos + 2 * l)
    cond_neg = (X[~pos].sum(axis=0) + l) / (n_neg + 2 * l)
    return cond_pos, cond_neg, math.log(n_pos / len(y)), math.log(n_neg / len(y))


def _dense_lr_reference(X, y, eta, lam, epochs):
    """train_lr's full-batch ascent with dense products X @ w and X.T @ r."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def objective(w, w0):
        z = X @ w + w0
        return float(-np.logaddexp(0.0, -np.where(y > 0, z, -z)).sum() - 0.5 * lam * (w @ w))

    w, w0 = np.zeros(X.shape[1]), 0.0
    history = [objective(w, w0)]
    for _ in range(epochs):
        residual = y - 1.0 / (1.0 + np.exp(-(X @ w + w0)))
        w, w0 = w + eta * (X.T @ residual - lam * w), w0 + eta * float(residual.sum())
        history.append(objective(w, w0))
    return w, w0, np.array(history)


def _training_fixture(kind, seed):
    """A 60 x 25 matrix with an empty row (0) and an all-zero column (3)."""
    rng = np.random.default_rng(seed)
    if kind == "binary":
        X = (rng.random((60, 25)) < 0.15).astype(float)
    else:
        X = rng.normal(size=(60, 25)) * (rng.random((60, 25)) < 0.3)
    X[0, :] = 0.0
    X[:, 3] = 0.0
    y = np.where(rng.random(60) < 0.35, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return X, y


def _shuffled_rows(X):
    """SparseRows of X with the columns inside each row in a scrambled order."""
    rows, cols = np.nonzero(X)
    order = np.lexsort((np.random.default_rng(0).random(len(rows)), rows))
    return SparseRows(rows[order], cols[order], X[rows[order], cols[order]], X.shape)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", ["binary", "gaussian"])
class TestSparseTrainingMatchesDenseReference:
    def test_nb_is_bit_identical(self, kind, seed):
        X, y = _training_fixture(kind, seed)
        want = _dense_nb_reference(X, y, 0.5)
        for given in (X, _shuffled_rows(X)):
            # Gaussian counts make no probabilities; only the counting is compared.
            with np.errstate(invalid="ignore", divide="ignore"):
                model = train_nb(given, y, l=0.5)
            assert np.array_equal(model.cond_pos, want[0]) and np.array_equal(model.cond_neg, want[1])
            assert (model.log_prior_pos, model.log_prior_neg) == want[2:]

    def test_lr_history_and_weights_within_1e_9(self, kind, seed):
        X, y = _training_fixture(kind, seed)
        y01 = (y > 0).astype(float)
        w, w0, history = _dense_lr_reference(X, y01, 0.05, 0.1, 60)
        for given in (X, _shuffled_rows(X)):
            model = train_lr(given, y01, eta=0.05, lam=0.1, epochs=60)
            assert np.max(np.abs(np.array(model.history) - history) / np.abs(history)) <= 1e-9
            assert np.max(np.abs(np.append(model.weights, model.bias) - np.append(w, w0))) <= 1e-9

    def test_lr_gradient_takes_both_forms(self, kind, seed):
        X, y = _training_fixture(kind, seed)
        w = np.random.default_rng(seed).normal(size=X.shape[1])
        dense = lr_gradient(w, 0.3, X, (y > 0).astype(float), 0.1)
        sparse = lr_gradient(w, 0.3, _shuffled_rows(X), (y > 0).astype(float), 0.1)
        assert np.allclose(dense[0], sparse[0], rtol=1e-12, atol=1e-12) and dense[1] == pytest.approx(sparse[1])


def test_svm_on_selected_rows_equals_svm_on_the_dense_matrix():
    vc = _synthetic_vc(np.random.default_rng(12))
    y = np.where(np.asarray(vc.labels) == 2, 1.0, -1.0)
    # Columns in reverse vocabulary order, so no row's columns are sorted.
    selected = list(range(len(vc.vocab)))[::-1]
    X = vc.select(selected)
    assert any(np.any(np.diff(X.cols[X.rows == i]) < 0) for i in range(len(vc)))
    for C, epochs in ((1.0, 5), (0.5, 3)):
        got = train_svm(X, y, C=C, epochs=epochs, seed=3)
        want = train_svm(vc.dense_matrix(selected), y, C=C, epochs=epochs, seed=3)
        assert np.array_equal(got.weights, want.weights) and got.bias == want.bias


@pytest.mark.parametrize("method", ["nb", "lr", "svm"])
def test_train_ovr_builds_no_dense_matrix(method, monkeypatch):
    vc = _synthetic_vc(np.random.default_rng(13))

    def refuse(self, term_positions):
        raise AssertionError("training built a dense matrix")

    monkeypatch.setattr(VectorizedCorpus, "dense_matrix", refuse)
    model = train_ovr(vc, method=method, hyperparams=Hyperparams(lr_epochs=20, svm_epochs=3))
    assert all(m.stub is None for m in model.members)


@pytest.mark.parametrize("train", [train_nb, train_svm])
@pytest.mark.parametrize("n_labels", [2, 4])
def test_labels_must_match_the_rows(train, n_labels):
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=f"X has 3 rows but y has {n_labels} labels"):
        train(X, np.array([1.0, -1.0, 1.0, -1.0][:n_labels]))


@pytest.mark.parametrize("n_labels", [1, 2, 4])
def test_lr_labels_must_match_the_rows(n_labels):
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=f"X has 3 rows but y has {n_labels} labels"):
        train_lr(X, np.array([1.0, 0.0, 1.0, 0.0][:n_labels]))


# ---------------------------------------------------------------------------
# Training steps against transcriptions of the loops they replaced
# ---------------------------------------------------------------------------


def _previous_sigmoid(z):
    """_sigmoid as it was: each branch over a boolean mask."""
    z = np.asarray(z, dtype=np.float64)
    flat = np.atleast_1d(z)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ez = np.exp(flat[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out.reshape(z.shape)


def _as_rows(X):
    if isinstance(X, SparseRows):
        return X
    rows, cols = np.nonzero(X)
    return SparseRows(rows, cols, X[rows, cols], X.shape)


def _previous_train_lr(X, y, eta, lam, epochs, seen_z=None):
    """train_lr as it was: per step, lr_gradient computes z = X @ w + w0, and
    the objective computes it again after the update, each under its own
    errstate.  Every z the objective computes is appended to ``seen_z``."""
    X = _as_rows(X)
    y = np.asarray(y, dtype=np.float64)

    def times(w):
        return np.bincount(X.rows, weights=X.vals * w[X.cols], minlength=X.shape[0])

    def objective(w, w0):
        with np.errstate(over="ignore", invalid="ignore"):
            z = times(w) + w0
            if seen_z is not None:
                seen_z.append(z)
            s = np.where(y > 0, z, -z)
            loglik = -np.logaddexp(0.0, -s).sum()
            return float(loglik - 0.5 * lam * (w @ w))

    def gradient(w, w0):
        with np.errstate(over="ignore", invalid="ignore"):
            residual = y - _previous_sigmoid(times(w) + w0)
            grad_w = np.bincount(X.cols, weights=X.vals * residual[X.rows], minlength=X.shape[1]) - lam * w
            return grad_w, float(residual.sum())

    w = np.zeros(X.shape[1])
    w0 = 0.0
    history = [objective(w, w0)]
    for step in range(epochs):
        grad_w, grad_w0 = gradient(w, w0)
        w = w + eta * grad_w
        w0 = w0 + eta * grad_w0
        value = objective(w, w0)
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite objective at step {step + 1} (eta={eta} too large for this data)")
        history.append(value)
    return w, w0, history


def _previous_train_svm(X, y, C, epochs, seed):
    """train_svm's averaged SGD as it was, one loop for every input, each
    step multiplying by the row's stored values."""
    X = _as_rows(X)
    n, d = X.shape
    ends = [0, *np.cumsum(np.bincount(X.rows, minlength=n)).tolist()]
    cols, vals = X.cols.tolist(), X.vals.tolist()
    rows = [(cols[a:b] + [d], vals[a:b] + [1.0]) for a, b in zip(ends, ends[1:])]
    labels = np.asarray(y, dtype=np.float64).tolist()
    gain = C * n
    rng = np.random.default_rng(seed)
    steps = epochs * n
    start = steps // 2
    harmonic = [0.0] * (steps - start + 1)
    for k in range(1, steps - start + 1):
        harmonic[k] = harmonic[k - 1] + 1.0 / (start + k)
    v = [0.0] * (d + 1)
    late = [0.0] * (d + 1)
    t = 0
    for _ in range(epochs):
        for i in rng.integers(0, n, n).tolist():
            t += 1
            cols, vals = rows[i]
            z = 0.0
            for j, x in zip(cols, vals):
                z += v[j] * x
            yi = labels[i]
            if t == 1 or yi * z < t - 1:
                g = gain * yi
                if t > start:
                    gh = g * harmonic[t - 1 - start]
                    for j, x in zip(cols, vals):
                        v[j] += g * x
                        late[j] += gh * x
                else:
                    for j, x in zip(cols, vals):
                        v[j] += g * x
    averaged = (np.array(v) * harmonic[-1] - np.array(late)) / (steps - start)
    return averaged[:d], float(averaged[d])


def _split_members():
    """The 8 member matrices and {0, 1} labels of the training split of a
    small synthetic corpus, as cross_series_experiment builds them."""
    spec = SyntheticSpec.from_dict({**SyntheticSpec.ablation_default().to_dict(), "reviews_per_series": 24})
    corpus, _kbs = generate_synthetic(spec)
    tokenized = tokenize_corpus(corpus)
    (a, b), _test = derive_rotations(list(corpus.series_index))[0]
    train = tokenized.subset(tokenized.series_indices((a, b)))
    vc = VectorizedCorpus.from_tokens(train.docs, train.labels)
    members = []
    for ranking in rank_classes(vc, (40, 40, 80, 80, 40, 80, 40, 80), "chi2"):
        X = vc.select([vc.vocab.index[t] for t in ranking.terms()])
        members.append((X, (np.asarray(vc.labels) == int(ranking.category)).astype(float)))
    return members


def _saturating_fixture():
    """Two empty rows and two rows of +-40 with balanced labels: the first
    step leaves w0 at exactly 0 and sends the other rows to z = +-1600, so
    the empty rows sit at z == 0 while the others saturate, until the
    penalty shrinks w back through |z| = 40."""
    X = np.array([[0.0], [0.0], [40.0], [-40.0]])
    return X, np.array([1.0, 0.0, 1.0, 0.0])


def _assert_lr_matches_previous(X, y, eta, lam, epochs):
    w, w0, history = _previous_train_lr(X, y, eta, lam, epochs)
    model = train_lr(X, y, eta=eta, lam=lam, epochs=epochs)
    assert model.weights.tobytes() == w.tobytes()
    assert model.bias == w0
    assert model.history == tuple(history)


class TestLrStepsMatchThePreviousLoop:
    def test_sigmoid_is_bit_identical(self):
        z = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                      40.5, -40.5, 745.2, -745.2, 800.0, -800.0, 3.3, -3.3])
        z = np.concatenate([z, np.random.default_rng(0).normal(scale=30.0, size=2000)])
        assert _sigmoid(z).tobytes() == _previous_sigmoid(z).tobytes()
        for scalar in (0.0, -0.0, 2.5, -700.0, float("nan")):
            got, want = _sigmoid(scalar), _previous_sigmoid(scalar)
            assert got.shape == want.shape == () and got.tobytes() == want.tobytes()

    def test_member_matrices_of_a_synthetic_split(self):
        members = _split_members()
        assert len(members) == 8
        for X, y in members:
            assert np.all(X.vals == 1.0)
            _assert_lr_matches_previous(X, y, 0.1, 0.1, 40)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dense_gaussian_fixture(self, seed):
        X, y = _training_fixture("gaussian", seed)
        _assert_lr_matches_previous(X, (y > 0).astype(float), 0.05, 0.1, 60)

    def test_zero_and_saturated_decision_values(self):
        X, y = _saturating_fixture()
        seen_z = []
        _previous_train_lr(X, y, 1.0, 0.1, 60, seen_z)
        later = np.concatenate(seen_z[2:])
        assert np.any(later == 0.0) and later.max() > 40.0 and later.min() < -40.0
        _assert_lr_matches_previous(X, y, 1.0, 0.1, 60)

    def test_divergence_names_the_same_step_and_eta(self):
        rng = np.random.default_rng(4)
        X = rng.normal(scale=50.0, size=(40, 5))
        y = (rng.random(40) < 0.5).astype(float)
        with pytest.raises(ArithmeticError) as previous:
            _previous_train_lr(X, y, 1e6, 0.1, 200)
        with pytest.raises(ArithmeticError) as current:
            train_lr(X, y, eta=1e6, lam=0.1, epochs=200)
        assert str(current.value) == str(previous.value)


def _assert_svm_matches_previous(X, y, C, epochs, seed):
    w, w0 = _previous_train_svm(X, y, C, epochs, seed)
    model = train_svm(X, y, C=C, epochs=epochs, seed=seed)
    assert model.weights.tobytes() == w.tobytes()
    assert model.bias == w0


class TestSvmStepsMatchThePreviousLoop:
    # C * N is an integer at C = 1, so margins are exact sums; at C = 0.37
    # they round.
    @pytest.mark.parametrize("C", [1.0, 0.37])
    def test_member_matrices_of_a_synthetic_split(self, C):
        for c, (X, y) in enumerate(_split_members()):
            _assert_svm_matches_previous(X, np.where(y > 0, 1.0, -1.0), C, 5, 42 + c)

    @pytest.mark.parametrize("fixture_seed, C, epochs", BINARY_CASES[:4])
    def test_dense_binary_arrays(self, fixture_seed, C, epochs):
        X, y = _binary_fixture(fixture_seed)
        _assert_svm_matches_previous(X, y, C, epochs, fixture_seed)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_binary_rows_with_an_empty_row(self, seed):
        X, y = _training_fixture("binary", seed)
        assert not X[0].any()
        _assert_svm_matches_previous(X, y, 1.0, 4, seed)
        _assert_svm_matches_previous(_shuffled_rows(X), y, 0.37, 3, seed)

    def test_one_value_of_two_takes_the_general_loop(self):
        X, y = _training_fixture("binary", 1)
        X[5, np.flatnonzero(X[5])[0]] = 2.0
        _assert_svm_matches_previous(X, y, 1.0, 4, 1)

    @pytest.mark.parametrize("C", [1.0, 0.37])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_gaussian_rows_with_an_empty_row(self, seed, C):
        X, y = _training_fixture("gaussian", seed)
        assert not X[0].any()
        _assert_svm_matches_previous(X, y, C, 4, seed)
        _assert_svm_matches_previous(_shuffled_rows(X), y, C, 3, seed)


def test_svm_entries_not_grouped_by_row_train_the_dense_model():
    rng = np.random.default_rng(8)
    X = (rng.random((30, 8)) < 0.4).astype(float)
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    rows, cols = np.nonzero(X)
    order = rng.permutation(rows.size)
    assert np.any(np.diff(rows[order]) < 0)
    permuted = train_svm(SparseRows(rows[order], cols[order], X[rows, cols][order], X.shape), y, C=1.0, epochs=5)
    dense = train_svm(X, y, C=1.0, epochs=5)
    assert permuted.weights.tobytes() == dense.weights.tobytes()
    assert permuted.bias == dense.bias


def _planted_rows(n, d, density, flip, seed):
    """Random 0/1 rows labelled by a planted linear rule, with a share
    ``flip`` of the labels flipped."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < density).astype(float)
    score = X @ rng.normal(size=d)
    y = np.where(score > np.median(score), 1.0, -1.0)
    flipped = rng.random(n) < flip
    y[flipped] = -y[flipped]
    return X, y


def _margin_builds(monkeypatch, X, y, C, epochs, seed):
    """How often train_svm builds the per-row margins: every ``_times`` call
    after the first, which counts the margins each row's update touches."""
    calls = []
    times = classify._times

    def spy(*args):
        calls.append(args)
        return times(*args)

    monkeypatch.setattr(classify, "_times", spy)
    train_svm(X, y, C=C, epochs=epochs, seed=seed)
    monkeypatch.undo()
    return len(calls) - 1


class TestSvmMarginsMatchThePreviousLoop:
    """The 0/1 path against the loop it replaced, on inputs that run epochs on
    per-row margins and on inputs that may not."""

    def test_a_row_with_no_selected_term(self, monkeypatch):
        X, y = _planted_rows(200, 400, 0.03, 0.0, 1)
        X[[0, 7]] = 0.0
        _assert_svm_matches_previous(X, y, 1.0, 20, 3)
        assert _margin_builds(monkeypatch, X, y, 1.0, 20, 3) > 0

    def test_a_column_in_every_row(self, monkeypatch):
        # Its posting list holds every row, so each update changes every margin.
        builds = 0
        for c, (X, y) in enumerate(_split_members()):
            dense = np.zeros((X.shape[0], X.shape[1] + 1))
            dense[X.rows, X.cols] = 1.0
            dense[:, -1] = 1.0
            y = np.where(y > 0, 1.0, -1.0)
            _assert_svm_matches_previous(dense, y, 1.0, 20, 42 + c)
            builds += _margin_builds(monkeypatch, dense, y, 1.0, 20, 42 + c)
        assert builds > 0

    def test_duplicate_rows(self, monkeypatch):
        X, y = _planted_rows(200, 400, 0.03, 0.0, 3)
        X[100:], y[100:] = X[:100], y[:100]
        _assert_svm_matches_previous(X, y, 1.0, 20, 5)
        assert _margin_builds(monkeypatch, X, y, 1.0, 20, 5) > 0

    def test_a_value_other_than_one_never_runs_on_margins(self, monkeypatch):
        X, y = _planted_rows(200, 400, 0.03, 0.0, 1)
        X[5, np.flatnonzero(X[5])[0]] = 2.0
        _assert_svm_matches_previous(X, y, 1.0, 20, 3)
        assert _margin_builds(monkeypatch, X, y, 1.0, 20, 3) == 0

    def test_a_non_integer_gain_never_runs_on_margins(self, monkeypatch):
        X, y = _planted_rows(210, 400, 0.03, 0.0, 4)
        assert not (0.37 * 210).is_integer()
        _assert_svm_matches_previous(X, y, 0.37, 20, 6)
        assert _margin_builds(monkeypatch, X, y, 0.37, 20, 6) == 0

    def test_a_gain_past_the_exact_range_never_runs_on_margins(self, monkeypatch):
        X, y = _planted_rows(200, 400, 0.03, 0.0, 5)
        assert 20 * 200 * 1e12 * 200 * 2 >= 2**53
        _assert_svm_matches_previous(X, y, 1e12, 20, 7)
        assert _margin_builds(monkeypatch, X, y, 1e12, 20, 7) == 0

    def test_noisy_labels_move_epochs_between_the_loops(self, monkeypatch):
        # Some epochs leave the margins for the direct loop part way and
        # later epochs come back to them.
        X, y = _planted_rows(200, 400, 0.03, 0.1, 3)
        _assert_svm_matches_previous(X, y, 1.0, 30, 7)
        assert _margin_builds(monkeypatch, X, y, 1.0, 30, 7) > 1

    def test_a_4000_row_member(self, monkeypatch):
        spec = SyntheticSpec.from_dict({**SyntheticSpec.ablation_default().to_dict(), "reviews_per_series": 2000})
        corpus, _kbs = generate_synthetic(spec)
        tokenized = tokenize_corpus(corpus)
        (a, b), _test = derive_rotations(list(corpus.series_index))[0]
        train = tokenized.subset(tokenized.series_indices((a, b)))
        vc = VectorizedCorpus.from_tokens(train.docs, train.labels)
        ranking = rank_classes(vc, DEFAULT_BUDGETS, "chi2")[2]
        X = vc.select([vc.vocab.index[t] for t in ranking.terms()])
        y = np.where(np.asarray(vc.labels) == 2, 1.0, -1.0)
        assert X.shape[0] == 4000
        _assert_svm_matches_previous(X, y, 1.0, 3, 44)
        assert _margin_builds(monkeypatch, X, y, 1.0, 3, 44) > 0


@pytest.mark.parametrize("method", ["lr", "svm"])
def test_a_bool_among_numeric_weights_raises_naming_file_and_field(saved_models, tmp_path, method):
    model_dir = tmp_path / "model"
    shutil.copytree(saved_models / method, model_dir)
    path = model_dir / "member_2.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["parameters"]["weights"][0] = True
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: field 'parameters.weights' "):
        load_ovr(model_dir)


@pytest.mark.parametrize(
    "key, value",
    [
        ("selector", 7),
        ("selector", "mi"),
        ("budgets", 5),
        ("budgets", ["a"] * 8),
        ("budgets", [40] * 7),
        ("budgets", [40] * 9),
        ("budgets", [40] * 7 + [0]),
        ("budgets", [40] * 7 + [True]),
        ("budgets", [40] * 7 + [40.0]),
        ("seed", "x"),
        ("seed", -1),
        ("seed", True),
        ("seed", 42.0),
        ("seed", None),
        ("method", "knn"),
    ],
)
def test_bad_manifest_selector_budgets_or_seed_raise_naming_file_and_field(saved_models, tmp_path, key, value):
    model_dir = tmp_path / "model"
    shutil.copytree(saved_models / "lr", model_dir)
    path = model_dir / "model_manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["selector"] == "chi2" and doc["budgets"] == list(DEFAULT_BUDGETS) and doc["seed"] == 42
    doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: field '{key}' must be "):
        load_ovr(model_dir)


@pytest.mark.parametrize(
    "members",
    [5, None, [0] * 8, "member_0.json", {f"member_{c}.json": c for c in range(8)}],
    ids=["int", "null", "ints", "string", "object"],
)
def test_manifest_members_not_a_list_of_names_raise_naming_file_and_field(saved_models, tmp_path, members):
    model_dir = tmp_path / "model"
    shutil.copytree(saved_models / "svm", model_dir)
    path = model_dir / "model_manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["members"] = members
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: field 'members' must be "):
        load_ovr(model_dir)


@pytest.mark.parametrize(
    "name",
    ["absolute", "../x/member_0.json", "sub/member_0.json", "", ".", ".."],
)
def test_manifest_members_outside_the_model_directory_raise_naming_file_and_field(saved_models, tmp_path, name):
    model_dir = tmp_path / "model"
    shutil.copytree(saved_models / "svm", model_dir)
    # Each name would reach a readable copy of member 0 but for the check.
    shutil.copytree(saved_models / "svm", tmp_path / "x")
    shutil.copytree(saved_models / "svm", model_dir / "sub")
    if name == "absolute":
        name = str(tmp_path / "x" / "member_0.json")
    path = model_dir / "model_manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["members"][0] = name
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: field 'members' must be "):
        load_ovr(model_dir)


@pytest.mark.parametrize("category", [True, 1.0])
def test_a_member_category_not_an_int_raises_naming_file_and_field(saved_models, tmp_path, category):
    model_dir = tmp_path / "model"
    shutil.copytree(saved_models / "svm", model_dir)
    path = model_dir / "member_1.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["category"] == 1
    doc["category"] = category
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: field 'category' must be "):
        load_ovr(model_dir)


def test_manifest_selector_budgets_and_seed_load_as_saved(saved_models):
    loaded = load_ovr(saved_models / "svm")
    assert (loaded.selector, loaded.budgets, loaded.seed) == ("chi2", DEFAULT_BUDGETS, 42)


# ---------------------------------------------------------------------------
# LR row sums, the SVM's single draw and score_documents' term lookup
# ---------------------------------------------------------------------------


def _times_calls(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and how often it called ``classify._times``:
    train_lr's row sums call it once per z on the bincount branch only."""
    calls = []
    times = classify._times

    def spy(*a):
        calls.append(a)
        return times(*a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_times", spy)
        return fn(*args, **kwargs), len(calls)


def _cancelling_rows(n, seed, ones, interleave):
    """n rows of 9 to 16 stored values whose products with the returned
    weights are exactly 1e16, 1, -1e16, 1, 1, ... in stored order, over
    columns in a random order that no two rows share; ``interleave`` mixes
    the rows' entries, keeping each row's own order.  The weights' entry d,
    past the d columns, is 0.0.  Added in stored order a row of L values sums
    to L - 3; numpy's pairwise sum of the same 9 or more values does not."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(9, 17, n).tolist()
    d = sum(lengths) + 5
    columns = rng.permutation(d).tolist()
    pattern = np.array([1e16, 1.0, -1e16] + [1.0] * 13)
    w = np.append(2.0 ** rng.integers(-3, 4, d), 0.0)  # so that pattern / w * w == pattern
    per_row = []
    for length in lengths:
        cols = np.array(columns[:length])
        del columns[:length]
        if ones:
            w[cols] = pattern[:length]
        per_row.append((cols.tolist(), (np.ones(length) if ones else pattern[:length] / w[cols]).tolist()))
    order = np.repeat(np.arange(n), lengths)
    if interleave:
        order = rng.permutation(order)
    rows, cols, vals, taken = [], [], [], [0] * n
    for i in order.tolist():
        rows.append(i)
        cols.append(per_row[i][0][taken[i]])
        vals.append(per_row[i][1][taken[i]])
        taken[i] += 1
    return SparseRows(np.array(rows), np.array(cols), np.array(vals), (n, d)), w


class TestLrRowSums:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 200, 5000])
    @pytest.mark.parametrize("ones", [True, False])
    @pytest.mark.parametrize("interleave", [False, True])
    def test_both_branches_add_each_row_in_stored_order(self, monkeypatch, n, ones, interleave):
        X, w = _cancelling_rows(n, n, ones, interleave)
        want = np.bincount(X.rows, weights=X.vals * w[X.cols], minlength=n)
        assert np.all(X.vals == 1.0) == ones
        assert want.tolist() == (np.bincount(X.rows, minlength=n) - 3.0).tolist()
        # A pairwise sum of a row differs, so the fixture tells the orders apart.
        first = X.vals[X.rows == 0] * w[X.cols[X.rows == 0]]
        assert np.add.reduce(first) != want[0]
        for max_fill in (0.0, 2.0, np.inf):
            monkeypatch.setattr(classify, "_MAX_FILL", max_fill)
            got = classify._row_sums(X, ones)(w)
            assert got.shape == (n,) and np.array_equal(got, want)
            # Only the sign of a zero sum may differ from bincount's.
            assert np.array_equal(np.signbit(got[got != 0]), np.signbit(want[want != 0]))

    def test_table_is_used_up_to_twice_the_nonzeros(self, monkeypatch):
        X, w = _cancelling_rows(40, 1, True, False)
        k = int(np.bincount(X.rows).max())
        fill = k * 40 / X.cols.size
        assert classify._MAX_FILL == 2.0
        for max_fill, bincount_calls in ((fill, 0), (np.nextafter(fill, 0.0), 1)):
            monkeypatch.setattr(classify, "_MAX_FILL", max_fill)
            summer = classify._row_sums(X, True)
            assert _times_calls(summer, w)[1] == bincount_calls
        # One row of n values makes axis 0 the inner one: bincount sums it.
        monkeypatch.setattr(classify, "_MAX_FILL", np.inf)
        X, w = _cancelling_rows(1, 1, True, False)
        summer = classify._row_sums(X, True)
        assert _times_calls(summer, w)[1] == 1

    def test_empty_rows(self):
        rng = np.random.default_rng(3)
        X = np.zeros((60, 25))
        for i in range(60):
            X[i, rng.choice(25, rng.integers(3, 6), replace=False)] = 1.0
        X[[0, 5, 6, 30]] = 0.0
        y = (rng.random(60) < 0.4).astype(float)
        assert _times_calls(_assert_lr_matches_previous, X, y, 0.1, 0.1, 40)[1] == 0
        # No stored value at all: the table has no slot.
        assert _times_calls(_assert_lr_matches_previous, np.zeros((6, 4)), y[:6], 0.1, 0.1, 5)[1] == 0

    @pytest.mark.parametrize("values", ["binary", "gaussian"])
    def test_one_full_row_beside_one_column_rows_takes_bincount(self, values):
        rng = np.random.default_rng(7)
        X = np.zeros((50, 30))
        X[np.arange(1, 50), rng.integers(0, 30, 49)] = 1.0
        X[0] = 1.0
        if values == "gaussian":
            X *= rng.normal(size=X.shape)
        y = (rng.random(50) < 0.4).astype(float)
        calls = _times_calls(_assert_lr_matches_previous, X, y, 0.1, 0.1, 30)[1]
        assert calls == 31

    @pytest.mark.parametrize("seed", [3, 4])
    def test_gaussian_values(self, seed):
        X, y = _training_fixture("gaussian", seed)
        assert not np.isin(X, (0.0, 1.0)).all()
        y = (y > 0).astype(float)
        assert _times_calls(_assert_lr_matches_previous, X, y, 0.05, 0.1, 60)[1] == 0
        _assert_lr_matches_previous(_shuffled_rows(X), y, 0.05, 0.1, 60)

    @pytest.mark.parametrize("values", ["binary", "gaussian"])
    def test_divergence_message(self, values):
        rng = np.random.default_rng(5)
        X = (rng.random((40, 12)) < 0.5) * (rng.normal(scale=50.0, size=(40, 12)) if values == "gaussian" else 1.0)
        y = (rng.random(40) < 0.5).astype(float)
        lengths = (X != 0).sum(axis=1)
        assert lengths.max() * 40 <= 2 * lengths.sum()  # the table sums the rows
        with pytest.raises(ArithmeticError) as previous:
            _previous_train_lr(X, y, 1e6, 0.1, 200)
        with pytest.raises(ArithmeticError) as current:
            train_lr(X, y, eta=1e6, lam=0.1, epochs=200)
        assert str(current.value) == str(previous.value)


class TestSvmSingleDraw:
    @pytest.mark.parametrize("n", [37, 201])
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("values", ["binary", "gaussian"])
    def test_odd_row_counts(self, n, epochs, values):
        X, y = _planted_rows(n, 60, 0.1, 0.05, n + epochs)
        if values == "gaussian":
            X = X * np.random.default_rng(n).normal(size=X.shape)
        for C, seed in ((1.0, 3), (0.37, 11)):
            _assert_svm_matches_previous(X, y, C, epochs, seed)

    @staticmethod
    def _draw_sizes(monkeypatch):
        """The size of each rng.integers call train_svm makes from now on."""
        sizes = []
        real = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng = real(seed)

            def integers(self, low, high, size):
                sizes.append(size)
                return self.rng.integers(low, high, size)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        return sizes

    @pytest.mark.parametrize("values", ["binary", "gaussian"])
    @pytest.mark.parametrize("block, calls", [(3 * 60 + 2, [(3, 60), (3, 60), (1, 60)]), (7, [(1, 60)] * 7)])
    def test_draws_in_blocks_of_epochs_train_the_same_model(self, monkeypatch, values, block, calls):
        X, y = _training_fixture(values, 6)
        whole = train_svm(X, y, C=0.37, epochs=7, seed=9)
        sizes = self._draw_sizes(monkeypatch)
        monkeypatch.setattr(classify, "_DRAW_BLOCK", block)
        blocked = train_svm(X, y, C=0.37, epochs=7, seed=9)
        assert sizes == calls
        assert blocked.weights.tobytes() == whole.weights.tobytes()
        assert (blocked.bias, blocked.C, blocked.epochs, blocked.seed) == (whole.bias, whole.C, whole.epochs, whole.seed)

    def test_fifty_epochs_of_200_rows_are_one_call(self, monkeypatch):
        X, y = _planted_rows(200, 30, 0.1, 0.05, 4)
        sizes = self._draw_sizes(monkeypatch)
        train_svm(X, y, epochs=50)
        assert sizes == [(50, 200)]

    @pytest.mark.parametrize("n", [2, 3, 200, 201, 2**32 + 1])
    @pytest.mark.parametrize("epochs", [1, 2, 3, 50])
    def test_one_draw_equals_one_draw_per_epoch(self, n, epochs):
        # Past 2**32 numpy takes its 64-bit path; there each draw holds 257
        # of the indices instead of n.
        size = min(n, 257)
        for seed in range(5):
            one, per_epoch = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = one.integers(0, n, epochs * size)
            assert draws.dtype == np.int64
            want = np.concatenate([per_epoch.integers(0, n, size) for _ in range(epochs)])
            assert np.array_equal(draws, want)
            assert one.random() == per_epoch.random()


def test_score_documents_matches_a_term_by_term_lookup():
    vc = _synthetic_vc(np.random.default_rng(44))
    model = train_ovr(vc, method="lr", per_class_feature_sizes=(5, 9, 20, 60, 3, 12, 40, 7),
                      hyperparams=Hyperparams(lr_epochs=10))
    docs = _probe_docs(np.random.default_rng(45), n=12)
    vocab = Vocabulary(tuple(sorted({t for doc in docs for t in doc})))
    matrix = VectorizedCorpus.from_tokens(docs, [-1] * len(docs), vocab)
    scores = score_documents(model.members, docs)
    missing = 0
    for j, member in enumerate(model.members):
        pos = np.array([vocab.index.get(t, -1) for t in member.terms], dtype=np.int64)
        missing += int((pos < 0).sum())
        want = member.model.bias + classify._times(matrix.select(pos[pos >= 0]), member.model.weights[pos >= 0])
        assert np.array_equal(scores[:, j], want)
    assert missing > 0


class TestNonFiniteMember:
    """train_member refuses a model whose bias or weights are not all finite,
    naming the method, the category and the hyperparameters."""

    # "a" is in every positive row of category 0.
    _DOCS = [["a"], ["a", "b"], ["b"], ["c"]]

    def _ranking(self, vc):
        return rank_classes(vc, (3,) * 8, "chi2")[0]

    def test_nb_with_a_term_in_every_positive_row_and_tiny_smoothing(self):
        vc = VectorizedCorpus.from_tokens(self._DOCS, [0, 0, 1, 1])
        ranking = self._ranking(vc)
        a = vc.vocab.index["a"]
        # train_nb keeps such a model; a review holding "a" would score nan
        with np.errstate(divide="ignore"):
            model = train_nb(vc.select(np.array([a])), np.array([1, 1, -1, -1]), l=1e-20)
        assert model.cond_pos[0] == 1.0 and model.bias == -math.inf and model.weights[0] == math.inf
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match=r"^nb member for category 0 has non-finite weights at \{'l': 1e-20\}$"):
            train_member(vc, ranking, "nb", Hyperparams(l=1e-20), 42)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite weights"):
            train_ovr(vc, method="nb", per_class_feature_sizes=(3,) * 8, hyperparams=Hyperparams(l=1e-20))
        assert train_member(vc, ranking, "nb", Hyperparams(l=1e-3), 42).model is not None

    @pytest.mark.parametrize(
        "method, hp, named",
        [
            ("nb", Hyperparams(l=1e308), "{'l': 1e+308}"),
            ("svm", Hyperparams(C=1e308, svm_epochs=3), "{'C': 1e+308, 'epochs': 3, 'seed': 7}"),
        ],
    )
    def test_huge_hyperparameter_raises_naming_it(self, method, hp, named):
        vc = VectorizedCorpus.from_tokens(self._DOCS, [0, 0, 1, 1])
        with np.errstate(all="ignore"), pytest.raises(ValueError) as exc:
            train_member(vc, self._ranking(vc), method, hp, 7)
        assert str(exc.value) == f"{method} member for category 0 has non-finite weights at {named}"
