import dataclasses
import json
import os
import random
import re
import sys

import numpy as np
import pytest

from revclass.classify import BinaryMember, Hyperparams, OvrModel, STUB_NO_POSITIVES, predict, train_member, train_ovr
from revclass.corpus import Category, Corpus, N_CATEGORIES, Review
from revclass.evaluate import (
    _MENTION_SIGNATURES,
    ExperimentConfig,
    SURROGATE_OFF,
    SURROGATE_ON,
    SyntheticSpec,
    _draws,
    _series_kb,
    accuracy,
    binary_accuracy,
    cross_series_experiment,
    derive_rotations,
    feature_size_sweep,
    generate_synthetic,
    ovr_accuracies,
    rotation_label,
    tokenize_corpus,
    write_generalization_csv,
    write_sweep_csv,
)
from revclass.feature_select import rank_features
from revclass.preprocess import TokenizedCorpus, VectorizedCorpus

FAST_HP = Hyperparams(lr_epochs=30, svm_epochs=10)


def _small_spec(**overrides):
    base = dict(
        reviews_per_series=48,
        tokens_per_review=10,
        noise_vocab=tuple(f"n{i}" for i in range(60)),
        seed=21,
    )
    base.update(overrides)
    return dataclasses.replace(SyntheticSpec(), **base)


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_fully_mismatched(self):
        assert accuracy([0, 0], [1, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


class TestBinaryAccuracy:
    def _corpus(self, labels):
        n = len(labels)
        return TokenizedCorpus(
            ids=tuple(f"r{i}" for i in range(n)),
            series=("s",) * n,
            docs=(("w",),) * n,
            labels=tuple(labels),
        )

    def test_stub_on_all_negative_test_set(self):
        stub = BinaryMember(Category.PLOT, "nb", (), None, stub=STUB_NO_POSITIVES)
        assert binary_accuracy(stub, self._corpus([3, 4, 5]), Category.PLOT) == 1.0

    def test_stub_on_all_positive_test_set(self):
        stub = BinaryMember(Category.PLOT, "nb", (), None, stub=STUB_NO_POSITIVES)
        assert binary_accuracy(stub, self._corpus([0, 0]), Category.PLOT) == 0.0

    def test_empty_test_set(self):
        stub = BinaryMember(Category.PLOT, "nb", (), None, stub=STUB_NO_POSITIVES)
        with pytest.raises(ValueError, match="empty"):
            binary_accuracy(stub, self._corpus([]), Category.PLOT)

    def test_trained_member_on_planted_corpus(self):
        corpus, _ = generate_synthetic(
            _small_spec(mention_rate=(0.0,) * 8, planted_fraction=0.5, reviews_per_series=96)
        )
        tokenized = tokenize_corpus(corpus)
        train = tokenized.subset(tokenized.series_indices(("alpha", "beta")))
        test = tokenized.subset(tokenized.series_indices(("gamma",)))
        vc = VectorizedCorpus.from_tokens(train.docs, train.labels)
        model = train_ovr(vc, method="nb")
        for cat in (Category.PLOT, Category.ROLE):
            assert binary_accuracy(model.members[cat], test, cat) >= 0.9


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = _small_spec()
        c1, kb1 = generate_synthetic(spec)
        c2, kb2 = generate_synthetic(spec)
        assert [r.text for r in c1.reviews] == [r.text for r in c2.reviews]
        assert [r.id for r in c1.reviews] == [r.id for r in c2.reviews]
        assert kb1 == kb2

    def test_mention_rate_zero_leaves_no_names(self):
        corpus, kbs = generate_synthetic(_small_spec(mention_rate=(0.0,) * 8))
        surfaces = {
            surface
            for kb in kbs.values()
            for entry in (*kb.roles, *kb.actors)
            for surface in entry.surfaces
        }
        for review in corpus.reviews:
            assert not surfaces & set(review.text.split())

    def test_series_sizes(self):
        spec = _small_spec(reviews_per_series=200)
        corpus, _ = generate_synthetic(spec)
        assert len(corpus) == 600
        assert {s: len(ix) for s, ix in corpus.series_index.items()} == {
            "alpha": 200,
            "beta": 200,
            "gamma": 200,
        }

    def test_annotations_unanimous_and_labels_resolved(self):
        corpus, _ = generate_synthetic(_small_spec())
        for review, label in zip(corpus.reviews, corpus.labels):
            assert len(set(review.annotations)) == 1
            assert int(label) == review.annotations[0]

    def test_overlapping_planted_vocab_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SyntheticSpec(planted_vocab=(("dup",),) * 8)

    def test_name_mentions_follow_series_inventory(self):
        corpus, kbs = generate_synthetic(_small_spec(mention_rate=(1.0,) * 5 + (0.0,) * 3))
        for review in corpus.reviews:
            own = {
                surface
                for entry in (*kbs[review.series].roles, *kbs[review.series].actors)
                for surface in entry.surfaces
            }
            foreign = {
                surface
                for series, kb in kbs.items()
                if series != review.series
                for entry in (*kb.roles, *kb.actors)
                for surface in entry.surfaces
            }
            tokens = set(review.text.split())
            assert not tokens & foreign
            if int(corpus.labels[corpus.reviews.index(review)]) < 5:
                assert tokens & own


class TestSyntheticSpecDict:
    @pytest.mark.parametrize(
        "spec", [SyntheticSpec.ablation_default(), SyntheticSpec.sweep_default(), _small_spec(series=("x", "y", "z"))]
    )
    def test_to_dict_is_plain_json_and_from_dict_inverts_it(self, spec):
        d = spec.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(SyntheticSpec)]
        assert json.loads(json.dumps(d)) == d  # lists all the way down, no tuples
        assert all(isinstance(g, list) for g in d["planted_vocab"]) and isinstance(d["series"], list)
        assert SyntheticSpec.from_dict(json.loads(json.dumps(d))) == spec
        assert SyntheticSpec.from_dict({**d, "seed": 99}) == dataclasses.replace(spec, seed=99)

    def test_from_dict_keeps_defaults_and_rejects_unknown_fields(self):
        assert SyntheticSpec.from_dict({"seed": 3}) == SyntheticSpec(seed=3)
        with pytest.raises(TypeError):
            SyntheticSpec.from_dict({"sed": 3})


class TestRotations:
    def test_derive_three(self):
        rotations = derive_rotations(["b", "a", "c"])
        assert rotations == ((("b", "c"), "a"), (("a", "c"), "b"), (("a", "b"), "c"))

    def test_derive_requires_exactly_three(self):
        with pytest.raises(ValueError, match="3 series"):
            derive_rotations(["a", "b"])

    def test_labels(self):
        assert rotation_label((("a", "b"), "c")) == "a&b-c"

    def test_config_rejects_overlapping_rotation(self):
        with pytest.raises(ValueError, match="disjoint"):
            ExperimentConfig(rotation=(("a", "a"), "b"))

    def test_config_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            ExperimentConfig(feature_sizes=(100, 50))


class TestFeatureSizeSweep:
    def test_grid_complete_and_csv(self, tmp_path):
        corpus, _ = generate_synthetic(_small_spec(mention_rate=(0.0,) * 8))
        config = ExperimentConfig(
            feature_sizes=(5, 20, 50), hyperparams=FAST_HP, per_series_cap=None
        )
        out = tmp_path / "sweep.csv"
        table = feature_size_sweep(corpus, config, out_csv=out)
        assert len(table.sweep) == 24
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category,size,train_acc,test_acc"
        assert len(lines) == 25

    def test_oversized_budget_clamped_with_warning(self, tmp_path):
        corpus, _ = generate_synthetic(_small_spec(mention_rate=(0.0,) * 8))
        config = ExperimentConfig(feature_sizes=(5, 100000), hyperparams=FAST_HP)
        with pytest.warns(UserWarning, match="exceeds"):
            table = feature_size_sweep(corpus, config)
        big_cells = [cell for (cat, size), cell in table.sweep.items() if size == 100000]
        assert len(big_cells) == 8
        assert all(cell.actual_size < 100000 for cell in big_cells)

    def test_train_side_unchanged_when_test_texts_scrambled(self):
        # feature statistics must come from the training split only
        corpus, _ = generate_synthetic(_small_spec(mention_rate=(0.0,) * 8))
        config = ExperimentConfig(
            feature_sizes=(10, 30), sweep_method="nb", hyperparams=FAST_HP
        )
        table = feature_size_sweep(corpus, config)
        rotation = derive_rotations(list(corpus.series_index))[0]
        test_series = rotation[1]
        scrambled_reviews = []
        rng = np.random.default_rng(0)
        for review in corpus.reviews:
            if review.series == test_series:
                words = review.text.split()
                rng.shuffle(words)
                scrambled_reviews.append(dataclasses.replace(review, text=" ".join(words[::-1])))
            else:
                scrambled_reviews.append(review)
        scrambled = dataclasses.replace(corpus, reviews=tuple(scrambled_reviews))
        table2 = feature_size_sweep(scrambled, config)
        for key, cell in table.sweep.items():
            assert table2.sweep[key].train_acc == cell.train_acc
            assert table2.sweep[key].actual_size == cell.actual_size
        # and the selected vocabularies themselves are untouched
        from revclass.feature_select import rank_features

        for corp in (corpus, scrambled):
            tokenized = tokenize_corpus(corp)
            train = tokenized.subset(tokenized.series_indices(rotation[0]))
            vc = VectorizedCorpus.from_tokens(train.docs, train.labels)
            ranking = rank_features(vc, Category.PLOT, "chi2", k=10)
            if corp is corpus:
                baseline = ranking.terms()
            else:
                assert ranking.terms() == baseline

    @pytest.mark.parametrize("method", ["nb", "svm"])
    def test_scores_every_member_at_once_with_the_per_member_accuracies(self, method, monkeypatch):
        corpus, _ = generate_synthetic(_small_spec(mention_rate=(0.0,) * 8))
        config = ExperimentConfig(feature_sizes=(5, 20), sweep_method=method, hyperparams=FAST_HP)
        calls = []
        from_tokens = VectorizedCorpus.from_tokens.__func__

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return from_tokens(cls, *args, **kwargs)

        monkeypatch.setattr(VectorizedCorpus, "from_tokens", classmethod(counted))
        table = feature_size_sweep(corpus, config)
        assert len(calls) == 3  # the training split, then each split once for scoring
        monkeypatch.undo()
        # Reference: one member at a time, each scored by binary_accuracy.
        tokenized = tokenize_corpus(corpus)
        rotation = derive_rotations(list(corpus.series_index))[0]
        train = tokenized.subset(tokenized.series_indices(rotation[0]))
        test = tokenized.subset(tokenized.series_indices((rotation[1],)))
        vc = VectorizedCorpus.from_tokens(train.docs, train.labels)
        for cat in Category:
            ranking = rank_features(vc, cat, method=config.selector, k=20)
            for size in config.feature_sizes:
                member = train_member(vc, ranking, method, FAST_HP, config.seed, size)
                cell = table.sweep[(int(cat), size)]
                assert cell.actual_size == size
                assert cell.train_acc == binary_accuracy(member, train, cat)
                assert cell.test_acc == binary_accuracy(member, test, cat)


class TestMembersKeepTheirRankings:
    """Both experiments build members from their classes' rankings, which the
    members keep."""

    @staticmethod
    def _scored_members(monkeypatch):
        from revclass import evaluate

        scored = []

        def spy(members, test):
            scored.append(list(members))
            return readouts(members, test)

        readouts = evaluate._readouts
        monkeypatch.setattr(evaluate, "_readouts", spy)
        return scored

    def test_sweep_members_keep_the_ranking_they_were_cut_from(self, monkeypatch):
        scored = self._scored_members(monkeypatch)
        config = ExperimentConfig(feature_sizes=(5, 20), sweep_method="nb", hyperparams=FAST_HP)
        feature_size_sweep(generate_synthetic(_small_spec())[0], config)
        members = scored[0]
        assert len(scored) == 2 and scored[1] == members and len(members) == 2 * N_CATEGORIES
        for i, member in enumerate(members):
            size = config.feature_sizes[i // N_CATEGORIES]
            assert member.category == i % N_CATEGORIES and member.ranking.category == member.category
            assert len(member.ranking.positions) == 20 and member.terms == member.ranking.terms()[:size]

    def test_cross_series_members_keep_their_rankings(self, monkeypatch):
        scored = self._scored_members(monkeypatch)
        corpus, kbs = generate_synthetic(_small_spec())
        config = ExperimentConfig(methods=("nb", "lr"), per_class_budgets=(30,) * N_CATEGORIES, hyperparams=FAST_HP)
        cross_series_experiment(corpus, kbs, config)
        assert len(scored) == 3 * 2  # rotations x surrogate modes
        for members in scored:
            assert [m.method for m in members] == ["nb"] * N_CATEGORIES + ["lr"] * N_CATEGORIES
            for i, member in enumerate(members):
                assert member.ranking is members[i % N_CATEGORIES].ranking
                assert member.ranking.category == member.category == i % N_CATEGORIES
                assert member.terms == member.ranking.terms()


class TestCrossSeries:
    def test_shape_and_range(self, tmp_path):
        corpus, kbs = generate_synthetic(_small_spec())
        config = ExperimentConfig(methods=("nb",), hyperparams=FAST_HP)
        out = tmp_path / "cross.csv"
        table = cross_series_experiment(corpus, kbs, config, out_csv=out)
        assert len(table.generalization) == 8 * 3 * 2
        assert all(0.0 <= v <= 1.0 for v in table.generalization.values())
        assert len(table.multiclass) == 6
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category,rotation,surrogate,accuracy"
        assert len(lines) == 49

    def test_zero_mention_rate_modes_identical(self):
        corpus, kbs = generate_synthetic(_small_spec(mention_rate=(0.0,) * 8))
        config = ExperimentConfig(methods=("nb",), hyperparams=FAST_HP)
        table = cross_series_experiment(corpus, kbs, config)
        for (cat, rotation, mode), value in table.generalization.items():
            if mode == SURROGATE_ON:
                assert value == table.generalization[(cat, rotation, SURROGATE_OFF)]

    def test_missing_kb_is_error(self):
        corpus, kbs = generate_synthetic(_small_spec())
        del kbs["gamma"]
        with pytest.raises(ValueError, match="gamma"):
            cross_series_experiment(corpus, kbs, ExperimentConfig(methods=("nb",)))

    def test_needs_three_series(self):
        corpus, kbs = generate_synthetic(_small_spec(series=("alpha", "beta")))
        with pytest.raises(ValueError, match="3 series"):
            cross_series_experiment(corpus, kbs, ExperimentConfig(methods=("nb",)))

    def test_name_heavy_categories_gain_from_surrogates(self):
        corpus, kbs = generate_synthetic(_small_spec(reviews_per_series=120))
        config = ExperimentConfig(methods=("nb",), hyperparams=FAST_HP)
        table = cross_series_experiment(corpus, kbs, config)
        rotations = {r for (_, r, _) in table.generalization}
        gains = []
        for cat in range(5):
            on = np.mean([table.generalization[(cat, r, SURROGATE_ON)] for r in rotations])
            off = np.mean([table.generalization[(cat, r, SURROGATE_OFF)] for r in rotations])
            gains.append(on - off)
        assert min(gains) > 0.0


class TestCrossSeriesSharesEachSplit:
    """Each split is ranked and vectorized once, whatever the number of methods."""

    @pytest.mark.parametrize("methods", [("nb",), ("nb", "lr", "svm")])
    def test_ranks_eight_times_and_vectorizes_twice_per_split(self, methods, monkeypatch):
        from revclass import classify, feature_select

        corpus, kbs = generate_synthetic(_small_spec())
        ranked, vectorized = [], []
        from_tokens = VectorizedCorpus.from_tokens.__func__

        def counting_rank(corpus, category, *args, **kwargs):
            ranked.append(int(category))
            return feature_select.rank_features(corpus, category, *args, **kwargs)

        def counting_from_tokens(cls, *args, **kwargs):
            vectorized.append(1)
            return from_tokens(cls, *args, **kwargs)

        monkeypatch.setattr(classify, "rank_features", counting_rank)
        monkeypatch.setattr(VectorizedCorpus, "from_tokens", classmethod(counting_from_tokens))
        cross_series_experiment(corpus, kbs, ExperimentConfig(methods=methods, hyperparams=FAST_HP))
        splits = 3 * 2  # rotations x surrogate modes
        assert sorted(ranked) == sorted(list(range(8)) * splits)
        assert len(vectorized) == 2 * splits  # the training split, then the test split for scoring

    @pytest.mark.parametrize(
        "selector, budgets", [("chi2", (1000, 1000, 4000, 4000, 1000, 4000, 1000, 4000)), ("drc", (20,) * 8)]
    )
    def test_table_equals_train_ovr_then_ovr_accuracies_per_method(self, selector, budgets):
        from revclass.corpus import Corpus

        corpus, kbs = generate_synthetic(_small_spec(reviews_per_series=64))
        # Category 7 is left out of two series: training on those two gives a stub.
        keep = [i for i, r in enumerate(corpus.reviews) if not (r.series != "gamma" and corpus.labels[i] == 7)]
        corpus = Corpus(tuple(corpus.reviews[i] for i in keep), tuple(corpus.labels[i] for i in keep))
        methods = ("nb", "lr", "svm")
        config = ExperimentConfig(methods=methods, selector=selector, per_class_budgets=budgets, hyperparams=FAST_HP)
        table = cross_series_experiment(corpus, kbs, config)

        # Reference: one train_ovr and one ovr_accuracies per method.
        generalization, multiclass, stubs = {}, {}, 0
        for mode in (SURROGATE_OFF, SURROGATE_ON):
            tokenized = tokenize_corpus(corpus, kbs=kbs, surrogate_mode=mode)
            for rotation in derive_rotations(list(corpus.series_index)):
                label = rotation_label(rotation)
                train = tokenized.subset(tokenized.series_indices(rotation[0]))
                test = tokenized.subset(tokenized.series_indices((rotation[1],)))
                vc = VectorizedCorpus.from_tokens(train.docs, train.labels)
                per_cat = np.zeros((len(methods), 8))
                multi = np.zeros(len(methods))
                for mi, method in enumerate(methods):
                    ovr = train_ovr(
                        vc,
                        method=method,
                        per_class_feature_sizes=budgets,
                        selector=selector,
                        hyperparams=FAST_HP,
                        seed=config.seed,
                    )
                    stubs += sum(1 for m in ovr.members if m.stub)
                    per_cat[mi], multi[mi] = ovr_accuracies(ovr, test)
                for cat in range(8):
                    generalization[(cat, label, mode)] = float(per_cat[:, cat].mean())
                multiclass[(label, mode)] = float(multi.mean())
        assert stubs == 2 * len(methods)  # one training pair, both modes
        assert table.generalization == generalization
        assert table.multiclass == multiclass


class TestPerSeriesCap:
    def test_cap_keeps_first_n_in_file_order(self):
        corpus, _ = generate_synthetic(_small_spec(mention_rate=(0.0,) * 8))
        from revclass.evaluate import _apply_series_cap

        capped = _apply_series_cap(corpus, 10)
        assert {s: len(ix) for s, ix in capped.series_index.items()} == {
            "alpha": 10,
            "beta": 10,
            "gamma": 10,
        }
        # first ten of each series, original order
        for series in ("alpha", "beta", "gamma"):
            expected = [r.id for r in corpus.reviews if r.series == series][:10]
            got = [r.id for r in capped.reviews if r.series == series]
            assert got == expected

    def test_none_disables_and_default_is_5000(self):
        corpus, _ = generate_synthetic(_small_spec())
        from revclass.evaluate import _apply_series_cap

        assert _apply_series_cap(corpus, None) is corpus
        assert ExperimentConfig().per_series_cap == 5000

    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("experiment", [feature_size_sweep, cross_series_experiment], ids=["sweep", "cross-series"])
    def test_cap_below_1_is_named_before_the_experiment_runs(self, experiment, cap):
        corpus, kbs = generate_synthetic(_small_spec(reviews_per_series=24))
        with pytest.raises(ValueError, match=rf"^per_series_cap must be >= 1 or None, got {cap}$"):
            experiment(corpus, kbs=kbs, config=ExperimentConfig(methods=("nb",), per_series_cap=cap))


class TestSplitChecks:
    """Both experiments check the tokenized corpus and each split before
    training anything."""

    @pytest.mark.parametrize("experiment", [feature_size_sweep, cross_series_experiment], ids=["sweep", "cross-series"])
    def test_an_unlabelled_review_is_an_error(self, experiment):
        corpus, kbs = generate_synthetic(_small_spec(reviews_per_series=24))
        unlabelled = Corpus(corpus.reviews, corpus.labels[:-1] + (None,))
        with pytest.raises(ValueError, match=r"^experiment corpora must be fully labeled \(run the agreement filter\)$"):
            experiment(unlabelled, kbs=kbs, config=ExperimentConfig(methods=("nb",)))

    def test_surrogates_on_without_knowledge_bases_is_an_error(self):
        corpus, _ = generate_synthetic(_small_spec(reviews_per_series=24))
        with pytest.raises(ValueError, match=r"^surrogate mode 'on' requires knowledge bases$"):
            feature_size_sweep(corpus, ExperimentConfig(surrogate_mode=SURROGATE_ON))

    @pytest.mark.parametrize("experiment", [feature_size_sweep, cross_series_experiment], ids=["sweep", "cross-series"])
    def test_a_rotation_onto_a_series_without_reviews_is_an_error(self, experiment):
        corpus, kbs = generate_synthetic(_small_spec(reviews_per_series=24))
        rot = (("alpha", "beta"), "delta")
        config = ExperimentConfig(methods=("nb",), sweep_method="nb", rotation=rot, rotations=(rot,))
        with pytest.raises(ValueError, match=r"^rotation alpha&beta-delta produced an empty split$"):
            experiment(corpus, kbs=kbs, config=config)


class TestCsvWriters:
    def test_sweep_rows_sorted(self, tmp_path):
        from revclass.evaluate import ResultTable, SweepCell

        table = ResultTable()
        table.sweep[(1, 20)] = SweepCell(20, 0.5, 0.25)
        table.sweep[(0, 10)] = SweepCell(10, 1.0, 0.75)
        path = tmp_path / "s.csv"
        write_sweep_csv(table, path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "category,size,train_acc,test_acc",
            "0,10,1.000000,0.750000",
            "1,20,0.500000,0.250000",
        ]

    def test_generalization_rows_sorted(self, tmp_path):
        from revclass.evaluate import ResultTable

        table = ResultTable()
        table.generalization[(0, "a&b-c", "on")] = 0.5
        table.generalization[(0, "a&b-c", "off")] = 0.25
        path = tmp_path / "g.csv"
        write_generalization_csv(table, path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "category,rotation,surrogate,accuracy",
            "0,a&b-c,off,0.250000",
            "0,a&b-c,on,0.500000",
        ]


class TestOvrAccuracies:
    @pytest.mark.parametrize("method", ["nb", "lr", "svm"])
    def test_equal_to_per_member_and_per_review_evaluation(self, method):
        corpus, _ = generate_synthetic(_small_spec(reviews_per_series=64))
        tokenized = tokenize_corpus(corpus)
        train = tokenized.subset(tokenized.series_indices(("alpha", "beta")))
        test = tokenized.subset(tokenized.series_indices(("gamma",)))
        # Categories 6 and 7 are absent from training, so their members are stubs.
        keep = [i for i, label in enumerate(train.labels) if label < 6]
        vc = VectorizedCorpus.from_tokens([train.docs[i] for i in keep], [train.labels[i] for i in keep])
        model = train_ovr(vc, method=method, per_class_feature_sizes=(30,) * 8, hyperparams=FAST_HP)
        per_category, multi = ovr_accuracies(model, test)
        assert per_category == [binary_accuracy(model.members[c], test, c) for c in range(8)]
        assert multi == accuracy([predict(model, doc) for doc in test.docs], test.labels)

    def test_ties_go_to_the_lowest_category(self):
        members = tuple(BinaryMember(Category(c), "nb", (), None, stub=STUB_NO_POSITIVES) for c in range(8))
        model = OvrModel(members=members, method="nb", selector="chi2", budgets=(1,) * 8, seed=0)
        test = TokenizedCorpus(ids=("a", "b", "c", "d"), series=("s",) * 4, docs=(("w",),) * 4, labels=(0, 0, 3, 7))
        per_category, multi = ovr_accuracies(model, test)
        assert per_category == [0.5, 1.0, 1.0, 0.75, 1.0, 1.0, 1.0, 0.75]
        assert multi == 0.5  # every review goes to category 0

    def test_empty_test_set(self):
        corpus, _ = generate_synthetic(_small_spec())
        tokenized = tokenize_corpus(corpus)
        model = train_ovr(VectorizedCorpus.from_tokens(tokenized.docs, tokenized.labels), method="nb")
        with pytest.raises(ValueError, match="empty"):
            ovr_accuracies(model, tokenized.subset([]))


class TestTokenizeCorpus:
    def test_stop_sets_are_built_once_per_stoplist(self):
        from revclass.preprocess import _stop_sets, remove_stopwords

        corpus, _ = generate_synthetic(_small_spec())
        stoplist = ["n1", "N2", "cat0_w3"]
        _stop_sets.cache_clear()
        tokenized = tokenize_corpus(corpus, stoplist=stoplist)
        assert _stop_sets.cache_info().misses == 1
        assert tokenized.docs == tuple(tuple(remove_stopwords(r.text.split(), stoplist)) for r in corpus.reviews)
        assert not {"n1", "n2", "cat0_w3"} & {t for doc in tokenized.docs for t in doc}


class TestSyntheticSpecChecks:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("series", "abc", "field 'series' must be list of str"),
            ("series", ["a", 2, "c"], "field 'series' must be list of str"),
            ("planted_vocab", [["a"]] * 7 + [[1]], "field 'planted_vocab' must be list of list of str"),
            ("mention_rate", [0.5] * 7 + ["x"], "field 'mention_rate' must be list of float"),
            ("tokens_per_review", "x", "field 'tokens_per_review' must be int"),
            ("tokens_per_review", 12.0, "field 'tokens_per_review' must be int"),
            ("seed", True, "field 'seed' must be int"),
            ("planted_fraction", None, "field 'planted_fraction' must be float"),
            ("reviews_per_series", -5, "field 'reviews_per_series' must be >= 1"),
            ("reviews_per_series", 0, "field 'reviews_per_series' must be >= 1"),
            ("tokens_per_review", 0, "field 'tokens_per_review' must be >= 1"),
            ("roles_per_series", -1, "field 'roles_per_series' must be >= 0"),
            ("mentions_per_hit", -1, "field 'mentions_per_hit' must be >= 0"),
            ("seed", -1, "field 'seed' must be >= 0"),
        ],
    )
    def test_field_of_the_wrong_type_or_range_is_named(self, field, value, message):
        with pytest.raises(ValueError) as info:
            SyntheticSpec.from_dict({field: value})
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "field", ["reviews_per_series", "tokens_per_review", "roles_per_series", "actors_per_series", "mentions_per_hit"]
    )
    @pytest.mark.parametrize("value", [sys.maxsize + 1, 10**30])
    def test_count_no_list_can_hold_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^field '{field}' must be <= {sys.maxsize}, got {value}$"):
            SyntheticSpec.from_dict({field: value})

    def test_more_reviews_than_a_list_can_hold_is_named(self):
        with pytest.raises(ValueError, match="^field 'reviews_per_series' times the series count must be <= "):
            SyntheticSpec(reviews_per_series=sys.maxsize // 3 + 1)
        # The bounds alone allocate nothing: these are accepted, not generated.
        assert SyntheticSpec(reviews_per_series=sys.maxsize // 3).reviews_per_series == sys.maxsize // 3
        assert SyntheticSpec(series=("a",), reviews_per_series=sys.maxsize, seed=10**30).seed == 10**30

    def test_presets_zero_counts_and_int_for_float_are_accepted(self):
        assert SyntheticSpec.ablation_default() == SyntheticSpec()
        assert SyntheticSpec.sweep_default().seed == 11
        spec = SyntheticSpec.from_dict({"planted_fraction": 1, "mention_rate": [0] * 8, "seed": 0})
        assert spec.planted_fraction == 1 and spec.seed == 0
        no_names = SyntheticSpec.from_dict({"roles_per_series": 0, "actors_per_series": 0, "mention_rate": [0.0] * 8})
        corpus, kbs = generate_synthetic(dataclasses.replace(no_names, reviews_per_series=8))
        assert len(corpus) == 24 and all(not kb.roles for kb in kbs.values())


class TestSyntheticSpecGeneratable:
    """A spec the generator cannot turn into a valid corpus is rejected, naming the field."""

    @pytest.mark.parametrize("field", ["roles_per_series", "actors_per_series"])
    def test_mentions_outside_the_signatures_need_a_person_of_each_kind(self, field):
        rates = (0.0,) * 5 + (0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match=f"field '{field}' must be >= 1"):
            SyntheticSpec.from_dict({"mention_rate": list(rates), field: 0})

    def test_unused_vocabularies_may_be_empty(self):
        specs = [
            SyntheticSpec.from_dict({"planted_fraction": 1.0, "noise_vocab": []}),
            SyntheticSpec.from_dict({"planted_vocab": [[f"w{c}"] for c in range(7)] + [[]], "reviews_per_series": 7}),
            SyntheticSpec.from_dict({"mention_rate": [0.0] * 5 + [0.5] * 3, "roles_per_series": 0, "mentions_per_hit": 0}),
        ]
        for spec in specs:
            corpus, _ = generate_synthetic(dataclasses.replace(spec, reviews_per_series=7))
            assert len(corpus) == 21
            assert len({r.id for r in corpus.reviews}) == 21


class TestSeriesNamesAreFileNames:
    """synth writes each series' knowledge base to kb/<series>.json."""

    def test_the_platform_separators_are_rejected(self, monkeypatch):
        monkeypatch.setattr(os, "sep", "\\")
        monkeypatch.setattr(os, "altsep", ":")
        for name in ("a\\b", "a:b"):
            with pytest.raises(ValueError, match=re.escape(f"field 'series' name {name!r}")):
                SyntheticSpec.from_dict({"series": [name, "c", "d"]})

    def test_dots_inside_a_name_are_kept(self):
        names = ["s.1", "s..2", "s3."]
        corpus, kbs = generate_synthetic(SyntheticSpec.from_dict({"series": names, "reviews_per_series": 8}))
        assert set(kbs) == set(names) and len(corpus) == 24


class TestDrawsReplayNumpy:
    """_draws(seed) gives the values of np.random.default_rng(seed), draw for draw."""

    BOUNDS = (1, 2, 3, 12, 300, 2**31 + 1, 2**32)

    @pytest.mark.parametrize("seed", [0, 1, 5, 33, 2**40 + 7])
    def test_interleaved_draws_equal_numpy(self, seed):
        rng = np.random.default_rng(seed)
        below, shuffle, uniform = _draws(seed)
        ops = random.Random(seed)
        for _ in range(10_000):
            op = ops.randrange(3)
            if op == 0:
                n = ops.choice(self.BOUNDS)
                assert below(n) == int(rng.integers(0, n))
            elif op == 1:
                mine = list(range(ops.randrange(41)))
                theirs = mine.copy()
                shuffle(mine)
                rng.shuffle(theirs)
                assert mine == theirs
            else:
                assert uniform() == rng.random()
        # Both are still in step after tens of thousands of outputs, dozens of chunks.
        assert below(300) == int(rng.integers(0, 300))

    def test_chunk_ends_fall_between_and_within_draws(self):
        # random() takes one output, so 5000 of them cross four chunk ends;
        # a held 32-bit half then carries over the next chunk end.
        rng = np.random.default_rng(3)
        below, shuffle, uniform = _draws(3)
        for _ in range(5000):
            assert uniform() == rng.random()
        assert below(300) == int(rng.integers(0, 300))
        for _ in range(1024 - 5000 % 1024 - 1):
            assert uniform() == rng.random()
        assert [below(12) for _ in range(4)] == rng.integers(0, 12, 4).tolist()

    def test_a_sized_draw_equals_one_draw_per_value(self):
        rng = np.random.default_rng(9)
        below, _, _ = _draws(9)
        for n in (1, 7, 300, 2**31 + 1):
            assert [below(n) for _ in range(50)] == rng.integers(0, n, 50).tolist()

    @pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
    def test_a_bound_outside_32_bits_raises(self, n):
        below, _, _ = _draws(1)
        with pytest.raises(ValueError, match="n must lie in"):
            below(n)


def _previous_generate_synthetic(spec):
    """generate_synthetic's body as it drew from np.random.default_rng."""
    rng = np.random.default_rng(spec.seed)
    kbs = {s: _series_kb(s, spec.roles_per_series, spec.actors_per_series) for s in spec.series}
    names = {
        s: {
            "role": {e.rank: e.canonical_name for e in kb.roles},
            "actor": {e.rank: e.canonical_name for e in kb.actors},
        }
        for s, kb in kbs.items()
    }
    reviews, labels = [], []
    for series in spec.series:
        cats = [i % N_CATEGORIES for i in range(spec.reviews_per_series)]
        rng.shuffle(cats)
        for r_idx, cat in enumerate(cats):
            planted = spec.planted_vocab[cat]
            n_planted = spec.planted_per_review
            n_noise = max(0, spec.tokens_per_review - n_planted)
            tokens = [planted[j] for j in rng.integers(0, len(planted), n_planted)]
            tokens += [spec.noise_vocab[j] for j in rng.integers(0, len(spec.noise_vocab), n_noise)]
            rng.shuffle(tokens)
            if rng.random() < spec.mention_rate[cat]:
                for _ in range(spec.mentions_per_hit):
                    sig = _MENTION_SIGNATURES.get(cat)
                    if sig is None:
                        kind = ("role", "actor")[rng.integers(0, 2)]
                        limit = spec.roles_per_series if kind == "role" else spec.actors_per_series
                        rank = int(rng.integers(1, limit + 1))
                    else:
                        kind, ranks = sig
                        rank = int(ranks[rng.integers(0, len(ranks))])
                    tokens.insert(int(rng.integers(0, len(tokens) + 1)), names[series][kind][rank])
            reviews.append(Review(id=f"{series}-{r_idx:04d}", series=series, text=" ".join(tokens), annotations=(cat, cat)))
            labels.append(Category(cat))
    return Corpus(reviews=tuple(reviews), labels=tuple(labels)), kbs


class TestGeneratorMatchesThePreviousBody:
    SPECS = {
        "ablation": SyntheticSpec.ablation_default(),
        "sweep": SyntheticSpec.sweep_default(),
        "edge": SyntheticSpec.from_dict(
            {
                "reviews_per_series": 40,
                "tokens_per_review": 9,
                "planted_vocab": [["solo"]] + [[f"c{c}_{i}" for i in range(c + 2)] for c in range(1, 8)],
                "noise_vocab": [f"n{i}" for i in range(50)],
                "roles_per_series": 7,
                "actors_per_series": 9,
                "mention_rate": [0.5] * 8,
                "mentions_per_hit": 4,
                "seed": 3,
            }
        ),
        "every_review_no_mentions": SyntheticSpec.from_dict({"mention_rate": [1.0] * 8, "mentions_per_hit": 0}),
        "one_person_of_each_kind": SyntheticSpec.from_dict(
            {"mention_rate": [0.0] * 5 + [1.0] * 3, "roles_per_series": 1, "actors_per_series": 1, "seed": 8}
        ),
        "no_noise": SyntheticSpec.from_dict({"planted_fraction": 1.0, "noise_vocab": [], "reviews_per_series": 30}),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_same_corpus_and_knowledge_bases(self, name):
        spec = self.SPECS[name]
        assert generate_synthetic(spec) == _previous_generate_synthetic(spec)

    def test_a_review_of_empty_words_still_raises(self):
        spec = SyntheticSpec.from_dict(
            {"planted_vocab": [[""]] + [[f"w{c}"] for c in range(1, 8)], "tokens_per_review": 1, "mention_rate": [0.0] * 8}
        )
        with pytest.raises(ValueError, match="text must be non-empty"):
            generate_synthetic(spec)


def _previous_apply_series_cap(corpus, cap):
    """The series cap as it was: reviews counted per series in one loop over the corpus."""
    if cap is None:
        return corpus
    taken: dict[str, int] = {}
    keep = []
    for i, review in enumerate(corpus.reviews):
        count = taken.get(review.series, 0)
        if count < cap:
            taken[review.series] = count + 1
            keep.append(i)
    if len(keep) == len(corpus.reviews):
        return corpus
    return Corpus(reviews=tuple(corpus.reviews[i] for i in keep), labels=tuple(corpus.labels[i] for i in keep))


class TestSeriesCapOverTheSeriesIndex:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_reviews_labels_and_identity_as_the_counting_loop(self, seed):
        from revclass.evaluate import _apply_series_cap

        rng = random.Random(seed)
        series = [rng.choice(["甲", "b", "c", "d"]) for _ in range(rng.randint(1, 40))]
        reviews = tuple(Review(id=f"r{i}", series=s, text="t", annotations=(i % 8, i % 8)) for i, s in enumerate(series))
        labels = tuple(rng.choice([None, *Category]) for _ in series)
        longest = max(series.count(s) for s in series)
        for cap in range(1, longest + 2):
            corpus = Corpus(reviews=reviews, labels=labels)
            want = _previous_apply_series_cap(corpus, cap)
            got = _apply_series_cap(corpus, cap)
            assert got.reviews == want.reviews and got.labels == want.labels
            assert (got is corpus) == (want is corpus) == (cap >= longest)

    def test_index_read_before_the_reviews_are_replaced_is_not_kept(self):
        from revclass.evaluate import _apply_series_cap

        rs = tuple(Review(id=f"r{i}", series=s, text="t", annotations=(0, 0)) for i, s in enumerate("aab"))
        c = Corpus(reviews=rs)
        assert c.series_index == {"a": (0, 1), "b": (2,)}
        capped = _apply_series_cap(dataclasses.replace(c, reviews=rs[::-1]), 1)
        assert [r.id for r in capped.reviews] == ["r2", "r1"]
