import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from revclass.corpus import Category
from revclass.feature_select import (
    ContingencyTable,
    chi_square,
    contingency,
    drc,
    rank_features,
    rcv,
    score_terms,
)
from revclass.preprocess import VectorizedCorpus, Vocabulary


def _corpus(docs, labels, vocab_terms):
    return VectorizedCorpus.from_tokens(docs, labels, Vocabulary(tuple(vocab_terms)))


def _recount(docs, labels, term, cat):
    """Independent brute-force recount by scanning the documents."""
    A = B = C = D = 0
    for doc, label in zip(docs, labels):
        present = term in doc
        relevant = label == cat
        if present and relevant:
            A += 1
        elif present:
            B += 1
        elif relevant:
            C += 1
        else:
            D += 1
    return A, B, C, D


class TestContingency:
    def test_four_doc_hand_count(self):
        docs = [["w"], ["w"], ["x"], ["x"]]
        labels = [0, 0, 1, 1]
        t = contingency(_corpus(docs, labels, ["w", "x"]), "w", Category.PLOT)
        assert (t.A, t.B, t.C, t.D, t.N) == (2, 0, 0, 2, 4)

    def test_absent_term(self):
        docs = [["x"], ["x"], ["x"]]
        labels = [0, 0, 1]
        t = contingency(_corpus(docs, labels, ["w", "x"]), "w", Category.PLOT)
        assert t.A == 0 and t.B == 0 and t.C + t.D == t.N == 3

    def test_ten_doc_fixture_matches_recount(self):
        # fixture built so that for "w" vs class 0: A=3, B=2, C=1, D=4
        docs = (
            [["w", "z"]] * 3 + [["z"]] * 1  # relevant
            + [["w"]] * 2 + [["z"]] * 4  # irrelevant
        )
        labels = [0] * 4 + [1] * 6
        vc = _corpus(docs, labels, ["w", "z"])
        t = contingency(vc, "w", Category.PLOT)
        assert (t.A, t.B, t.C, t.D) == (3, 2, 1, 4)
        assert (t.A, t.B, t.C, t.D) == _recount(docs, labels, "w", 0)
        assert t.N == 10

    def test_unknown_term(self):
        vc = _corpus([["w"]], [0], ["w"])
        with pytest.raises(KeyError):
            contingency(vc, "nope", Category.PLOT)


class TestChiSquare:
    def test_independence_is_zero(self):
        assert chi_square(ContingencyTable(10, 10, 10, 10)) == 0.0

    def test_perfect_association_equals_n(self):
        assert chi_square(ContingencyTable(50, 0, 0, 50)) == pytest.approx(100.0)

    def test_derived_value_and_scipy_oracle(self):
        t = ContingencyTable(30, 20, 10, 40)
        expected = 100 * (1200 - 200) ** 2 / (50 * 50 * 40 * 60)
        assert chi_square(t) == pytest.approx(16.6667, abs=1e-4)
        assert chi_square(t) == pytest.approx(expected, abs=1e-9)
        oracle = chi2_contingency([[30, 20], [10, 40]], correction=False).statistic
        assert chi_square(t) == pytest.approx(oracle, rel=1e-12)

    def test_literal_mode_keeps_sign(self):
        t = ContingencyTable(30, 20, 10, 40)
        assert chi_square(t, mode="literal") == pytest.approx(100 * 1000 / 6_000_000)
        flipped = ContingencyTable(20, 30, 40, 10)
        assert chi_square(flipped, mode="literal") < 0
        assert chi_square(flipped, mode="squared") > 0

    def test_zero_margin_scores_zero(self):
        t = ContingencyTable(0, 0, 5, 5)  # word never occurs
        assert t.has_zero_margin
        assert chi_square(t) == 0.0

    def test_relabel_symmetry_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b, c, d = (int(v) for v in rng.integers(1, 50, 4))
            assert chi_square(ContingencyTable(a, b, c, d)) == pytest.approx(
                chi_square(ContingencyTable(b, a, d, c)), rel=1e-12
            )

    def test_zero_iff_ad_equals_cb(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c, d = (int(v) for v in rng.integers(1, 30, 4))
            score = chi_square(ContingencyTable(a, b, c, d))
            if a * d == c * b:
                assert score == 0.0
            else:
                assert score > 0.0


class TestRcv:
    def test_perfect_overlap_is_one(self):
        assert rcv(ContingencyTable(7, 0, 0, 3)) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert rcv(ContingencyTable(0, 5, 5, 5)) == 0.0

    def test_derived_value_with_dot_product_oracle(self):
        A, B, C, D = 4, 12, 1, 7
        t = ContingencyTable(A, B, C, D)
        assert rcv(t) == pytest.approx(4 / (math.sqrt(16) * math.sqrt(5)), abs=1e-12)
        assert rcv(t) == pytest.approx(0.44721, abs=1e-5)
        # explicit indicator vectors
        occ = np.array([1] * A + [1] * B + [0] * C + [0] * D)
        rel = np.array([1] * A + [0] * B + [1] * C + [0] * D)
        oracle = occ @ rel / (np.linalg.norm(occ) * np.linalg.norm(rel))
        assert rcv(t) == pytest.approx(float(oracle), rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b, c, d = (int(v) for v in rng.integers(0, 20, 4))
            value = rcv(ContingencyTable(a, b, c, d))
            assert 0.0 <= value <= 1.0
            if value == 1.0:
                assert a > 0 and b == 0 and c == 0

    def test_zero_denominator(self):
        assert rcv(ContingencyTable(0, 0, 5, 5)) == 0.0
        assert rcv(ContingencyTable(0, 5, 0, 5)) == 0.0


class TestDrc:
    def test_composes_the_two_oracles(self):
        t = ContingencyTable(4, 12, 1, 7)
        assert drc(t) == pytest.approx((4 / 5) * rcv(t), rel=1e-12)
        assert drc(t) == pytest.approx(0.35777, abs=1e-5)

    def test_no_occurrences(self):
        assert drc(ContingencyTable(0, 4, 6, 2)) == 0.0

    def test_no_relevant_docs(self):
        assert drc(ContingencyTable(0, 4, 0, 6)) == 0.0

    def test_never_exceeds_rcv(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b, c, d = (int(v) for v in rng.integers(0, 20, 4))
            t = ContingencyTable(a, b, c, d)
            assert drc(t) <= rcv(t) + 1e-15
            if c == 0:
                assert drc(t) == pytest.approx(rcv(t), rel=1e-12)

    def test_rank_equivalent_to_a2_over_sqrt_ab(self):
        # for a fixed class, A+C is constant, so DRC ordering equals A^2/sqrt(A+B)
        rng = np.random.default_rng(4)
        n_rel = 25
        for _ in range(100):
            n_words = 40
            A = rng.integers(0, n_rel + 1, n_words)
            B = rng.integers(0, 30, n_words)
            full = np.array(
                [drc(ContingencyTable(int(a), int(b), int(n_rel - a), 10)) for a, b in zip(A, B)]
            )
            simplified = np.array(
                [a * a / math.sqrt(a + b) if a + b > 0 else 0.0 for a, b in zip(A, B)]
            )
            assert np.array_equal(
                np.argsort(-full, kind="stable"), np.argsort(-simplified, kind="stable")
            )


class TestRankFeatures:
    def _random_corpus(self, rng, n_docs=30, n_words=20):
        terms = [f"t{i}" for i in range(n_words)]
        docs = []
        labels = []
        for i in range(n_docs):
            doc = [terms[j] for j in range(n_words) if rng.random() < 0.3]
            docs.append(doc or [terms[0]])
            labels.append(int(rng.integers(0, 3)))
        return _corpus(docs, labels, terms)

    def test_full_ranking_is_permutation(self):
        vc = self._random_corpus(np.random.default_rng(5))
        ranking = rank_features(vc, Category.PLOT, "chi2", k=len(vc.vocab))
        assert sorted(ranking.terms()) == sorted(vc.vocab.terms)

    def test_planted_word_ranks_first_under_both_methods(self):
        # planted word occurs in every relevant doc and no irrelevant one
        docs = [["plant", "x"]] * 5 + [["plant"]] * 5 + [["x", "y"]] * 5 + [["y"]] * 5
        labels = [0] * 10 + [1] * 10
        vc = _corpus(docs, labels, ["plant", "x", "y"])
        for method in ("chi2", "drc"):
            ranking = rank_features(vc, Category.PLOT, method, k=3)
            assert ranking.terms()[0] == "plant"

    def test_matches_exhaustive_scalar_oracle(self):
        # oracle path: per-term scalar contingency + score, sorted in python
        rng = np.random.default_rng(6)
        vc = self._random_corpus(rng)
        for method, fn in (("chi2", chi_square), ("drc", drc)):
            expected_scores = [fn(contingency(vc, t, Category.PLOT)) for t in vc.vocab.terms]
            order = sorted(range(len(vc.vocab)), key=lambda j: (-expected_scores[j], j))
            expected = [vc.vocab.terms[j] for j in order]
            ranking = rank_features(vc, Category.PLOT, method, k=len(vc.vocab))
            assert list(ranking.terms()) == expected
            for (term, score), j in zip(ranking.scored, order):
                assert score == pytest.approx(expected_scores[j], rel=1e-12, abs=1e-15)

    def test_k_beyond_vocab_warns_and_returns_full(self):
        vc = self._random_corpus(np.random.default_rng(7))
        with pytest.warns(UserWarning, match="exceeds"):
            ranking = rank_features(vc, Category.PLOT, "chi2", k=1000)
        assert len(ranking.scored) == len(vc.vocab)

    def test_scores_non_increasing(self):
        vc = self._random_corpus(np.random.default_rng(8))
        ranking = rank_features(vc, Category.ROLE, "drc", k=len(vc.vocab))
        scores = [s for _, s in ranking.scored]
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))

    def test_duplication_invariance(self):
        vc = self._random_corpus(np.random.default_rng(9))
        doubled = VectorizedCorpus(
            vocab=vc.vocab, doc_terms=vc.doc_terms * 2, labels=vc.labels * 2
        )
        single = score_terms(vc, Category.PLOT, "chi2")
        double = score_terms(doubled, Category.PLOT, "chi2")
        assert np.allclose(double, 2 * single)
        r1 = rank_features(vc, Category.PLOT, "chi2", k=len(vc.vocab))
        r2 = rank_features(doubled, Category.PLOT, "chi2", k=len(vc.vocab))
        assert r1.terms() == r2.terms()

    def test_ranking_dump_roundtrip(self, tmp_path):
        vc = self._random_corpus(np.random.default_rng(10))
        ranking = rank_features(vc, Category.ACTOR, "chi2", k=5)
        path = tmp_path / "ranking.json"
        ranking.save(path)
        import json

        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["class"] == 1 and obj["method"] == "chi2" and obj["k"] == 5
        assert [t["term"] for t in obj["terms"]] == list(ranking.terms())


class TestClassTermCounts:
    def test_counts_equal_contingency_for_every_class_and_term(self):
        rng = np.random.default_rng(21)
        terms = [f"w{i}" for i in range(15)]
        docs = [[terms[j] for j in rng.integers(0, 15, rng.integers(0, 6))] for _ in range(60)]
        docs[:4] = [[], [], ["w0", "w0", "w3"], []]  # empty documents, a repeated token
        labels = [int(v) for v in rng.integers(0, 8, 60)]
        labels[1] = labels[7] = 9  # relevant to no class
        vc = _corpus(docs, labels, terms)
        table = vc.class_term_counts
        assert table.shape == (8, len(terms))
        for cat in Category:
            tables = [contingency(vc, term, cat) for term in terms]
            assert table[int(cat)].tolist() == [t.A for t in tables]
            assert score_terms(vc, cat, "chi2") == pytest.approx([chi_square(t) for t in tables], rel=1e-12, abs=0)
            assert score_terms(vc, cat, "drc") == pytest.approx([drc(t) for t in tables], rel=1e-12, abs=0)
