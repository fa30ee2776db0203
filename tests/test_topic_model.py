from functools import partial

import numpy as np
import pytest

from revclass.topic_model import LdaConfig, export_heatmap, fit_lda, top_words


def _two_topic_corpus(rng, n_docs=60, tokens=20, vocab_half=10):
    words_a = [f"a{i}" for i in range(vocab_half)]
    words_b = [f"b{i}" for i in range(vocab_half)]
    docs = []
    for d in range(n_docs):
        pool = words_a if d % 2 == 0 else words_b
        docs.append([pool[int(rng.integers(0, vocab_half))] for _ in range(tokens)])
    return docs


class TestLdaConfig:
    def test_alpha_defaults_to_50_over_k(self):
        assert LdaConfig(K=8).alpha == pytest.approx(50.0 / 8)
        assert LdaConfig(K=2, alpha=0.3).alpha == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            LdaConfig(K=0)
        with pytest.raises(ValueError):
            LdaConfig(K=2, beta=0.0)
        with pytest.raises(ValueError):
            LdaConfig(K=2, iterations=0)


class TestFitLda:
    def test_single_topic_degenerates_to_word_frequencies(self):
        docs = [["x", "y", "x"], ["y", "z"]]
        cfg = LdaConfig(K=1, iterations=3, seed=0, beta=0.01)
        model = fit_lda(docs, cfg)
        assert np.allclose(model.doc_topic, 1.0)
        V, total = 3, 5
        counts = {"x": 2, "y": 2, "z": 1}
        expected = [(counts[t] + 0.01) / (total + V * 0.01) for t in model.vocab.terms]
        assert np.allclose(model.topic_word[0], expected)

    def test_fixed_seed_reproduces_assignments(self):
        docs = _two_topic_corpus(np.random.default_rng(0))
        cfg = LdaConfig(K=2, iterations=30, seed=5)
        m1 = fit_lda(docs, cfg)
        m2 = fit_lda(docs, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(m1.assignments, m2.assignments))
        assert np.array_equal(m1.topic_word, m2.topic_word)

    def test_different_seed_changes_assignments(self):
        docs = _two_topic_corpus(np.random.default_rng(1))
        m1 = fit_lda(docs, LdaConfig(K=2, iterations=10, seed=5))
        m2 = fit_lda(docs, LdaConfig(K=2, iterations=10, seed=6))
        assert any(not np.array_equal(a, b) for a, b in zip(m1.assignments, m2.assignments))

    def test_two_topic_recovery(self):
        rng = np.random.default_rng(2)
        docs = _two_topic_corpus(rng, n_docs=80, tokens=25)
        model = fit_lda(docs, LdaConfig(K=2, alpha=0.5, beta=0.01, iterations=300, seed=3))
        gen = np.zeros((2, len(model.vocab)))
        for j, term in enumerate(model.vocab.terms):
            gen[0 if term.startswith("a") else 1, j] = 0.1
        sims = np.zeros((2, 2))
        for k in range(2):
            for g in range(2):
                u, v = model.topic_word[k], gen[g]
                sims[k, g] = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        assert sims.max(axis=1).min() >= 0.8

    def test_rows_normalized_and_positive(self):
        docs = _two_topic_corpus(np.random.default_rng(3))
        model = fit_lda(docs, LdaConfig(K=3, iterations=20, seed=1))
        assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(model.doc_topic.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(model.topic_word > 0)
        assert np.all(model.doc_topic > 0)

    def test_count_conservation(self):
        docs = _two_topic_corpus(np.random.default_rng(4))
        total = sum(len(d) for d in docs)
        model = fit_lda(docs, LdaConfig(K=4, iterations=25, seed=2))
        assert model.topic_word_counts.sum() == total
        assert model.doc_topic_counts.sum() == total
        lengths = [len(a) for a in model.assignments]
        assert lengths == [len(d) for d in docs]

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            fit_lda([], LdaConfig(K=2, iterations=1))

    def test_empty_document_excluded_with_warning_naming_id(self):
        docs = [["x", "y"], [], ["y", "z"]]
        with pytest.warns(UserWarning, match="doc_1"):
            model = fit_lda(docs, LdaConfig(K=2, iterations=5, seed=0))
        assert model.doc_ids == ("doc_0", "doc_2")
        assert model.doc_topic.shape == (2, 2)

    def test_all_documents_empty_is_error(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="empty"):
                fit_lda([[], []], LdaConfig(K=2, iterations=1))

    def test_document_permutation_preserves_token_count_multiset(self):
        rng = np.random.default_rng(5)
        docs = [[f"w{int(rng.integers(0, 6))}" for _ in range(int(rng.integers(2, 9)))] for _ in range(12)]
        cfg = LdaConfig(K=2, iterations=10, seed=7)
        model = fit_lda(docs, cfg)
        perm = list(range(12))
        rng.shuffle(perm)
        permuted = fit_lda([docs[i] for i in perm], cfg)
        assert sorted(len(a) for a in model.assignments) == sorted(
            len(a) for a in permuted.assignments
        )


def _sweep_fixture():
    rng = np.random.default_rng(11)
    D, K, V, n = 10, 3, 8, 120
    doc_of = rng.integers(0, D, n).astype(np.int64)
    word_of = rng.integers(0, V, n).astype(np.int64)
    z0 = rng.integers(0, K, n).astype(np.int64)

    def state():
        z = z0.copy()
        n_dk = np.zeros((D, K), np.int64)
        n_kw = np.zeros((K, V), np.int64)
        n_k = np.zeros(K, np.int64)
        np.add.at(n_dk, (doc_of, z), 1)
        np.add.at(n_kw, (z, word_of), 1)
        np.add.at(n_k, z, 1)
        return z, doc_of.copy(), word_of.copy(), n_dk, n_kw, n_k

    return state, K, n


class TestJitFallbackEquivalence:
    def test_python_sweep_matches_jitted_sweep(self):
        # the kernel's Python source must consume the same uniforms and
        # produce the same assignments as its compiled form
        pytest.importorskip("numba")
        from revclass.topic_model import _gibbs_sweep

        state, K, n = _sweep_fixture()
        z_jit, doc_of, word_of, dk_j, kw_j, k_j = state()
        z_py, _, _, dk_p, kw_p, k_p = state()
        for sweep_idx in range(5):
            u = np.random.default_rng(100 + sweep_idx).random(n)
            _gibbs_sweep(z_jit, doc_of, word_of, dk_j, kw_j, k_j, 0.7, 0.01, u, np.zeros(K))
            _gibbs_sweep.py_func(z_py, doc_of, word_of, dk_p, kw_p, k_p, 0.7, 0.01, u, np.zeros(K))
        assert np.array_equal(z_jit, z_py)
        assert np.array_equal(kw_j, kw_p)
        assert np.array_equal(dk_j, dk_p)

    def test_list_sweep_matches_array_sweep(self):
        # _gibbs_sweep's Python source is the reference kernel, which
        # TestListKernel runs over nested lists (fit_lda runs _sweep); over
        # lists it must give the same assignments and counts as over arrays
        from revclass.topic_model import _gibbs_sweep

        sweep = getattr(_gibbs_sweep, "py_func", _gibbs_sweep)
        state, K, n = _sweep_fixture()
        arrays = state()
        lists = [a.tolist() for a in state()]
        for sweep_idx in range(5):
            u = np.random.default_rng(100 + sweep_idx).random(n)
            sweep(*arrays, 0.7, 0.01, u, np.zeros(K))
            sweep(*lists, 0.7, 0.01, u.tolist(), [0.0] * K)
        z, _, _, n_dk, n_kw, n_k = arrays
        z_l, _, _, n_dk_l, n_kw_l, n_k_l = lists
        assert z.tolist() == z_l
        assert n_kw.tolist() == n_kw_l
        assert n_dk.tolist() == n_dk_l
        assert n_k.tolist() == n_k_l
        assert not np.array_equal(z, state()[0])  # the sweeps moved tokens


class TestTopWords:
    def test_full_row_sorted(self):
        docs = [["x", "x", "y"], ["z", "x"]]
        model = fit_lda(docs, LdaConfig(K=1, iterations=2, seed=0))
        pairs = top_words(model, 0, n=3)
        probs = [p for _, p in pairs]
        assert probs == sorted(probs, reverse=True)
        assert {w for w, _ in pairs} == {"x", "y", "z"}

    def test_dominant_word_is_argmax(self):
        docs = [["x", "x", "x", "y"]]
        model = fit_lda(docs, LdaConfig(K=1, iterations=2, seed=0))
        assert top_words(model, 0, n=1)[0][0] == "x"

    def test_tie_breaks_by_vocabulary_index(self):
        docs = [["x", "y"], ["y", "x"]]
        model = fit_lda(docs, LdaConfig(K=1, iterations=2, seed=0))
        pairs = top_words(model, 0, n=2)
        assert pairs[0][1] == pairs[1][1]
        assert [w for w, _ in pairs] == ["x", "y"]  # vocabulary order on ties

    def test_topic_out_of_range(self):
        model = fit_lda([["x"]], LdaConfig(K=1, iterations=1, seed=0))
        with pytest.raises(IndexError):
            top_words(model, 1, n=1)

    def test_n_beyond_vocab(self):
        model = fit_lda([["x"]], LdaConfig(K=1, iterations=1, seed=0))
        with pytest.raises(ValueError):
            top_words(model, 0, n=2)

    def test_negative_n_is_error(self):
        model = fit_lda([["x", "y", "z"]], LdaConfig(K=1, iterations=1, seed=0))
        with pytest.raises(ValueError, match="n=-1"):
            top_words(model, 0, n=-1)
        assert top_words(model, 0, n=0) == []


class TestExportHeatmap:
    def _model(self):
        docs = [["x", "y", "x"], ["y", "z"]]
        return fit_lda(docs, LdaConfig(K=2, iterations=5, seed=1))

    def test_shape(self, tmp_path):
        path = tmp_path / "heat.csv"
        export_heatmap(self._model(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0] == "doc_id,topic_0,topic_1"

    def test_rows_sum_to_one_after_rounding(self, tmp_path):
        path = tmp_path / "heat.csv"
        export_heatmap(self._model(), path)
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert sum(values) == pytest.approx(1.0, abs=1e-5)

    def test_reexport_byte_identical(self, tmp_path):
        model = self._model()
        p1, p2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        export_heatmap(model, p1)
        export_heatmap(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestModelDump:
    def test_json_dump_fields(self, tmp_path):
        docs = [["x", "y"], ["y", "z"]]
        cfg = LdaConfig(K=2, alpha=1.5, beta=0.05, iterations=5, seed=9)
        model = fit_lda(docs, cfg)
        path = tmp_path / "model.json"
        model.save(path)
        import json

        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["K"] == 2 and obj["alpha"] == 1.5 and obj["beta"] == 0.05 and obj["seed"] == 9
        assert obj["vocab"] == list(model.vocab.terms)
        assert len(obj["topic_word"]) == 2 and len(obj["doc_topic"]) == 2


def _power_of_two_corpus(V=12):
    """Documents of 128, 64, 256 and 64 tokens (512 in all) in which every
    other token is word 0, so with one topic each count sits at a power of
    two and a sweep steps it to one below and back."""
    doc_of = np.repeat(np.arange(4), (128, 64, 256, 64))
    word_of = np.random.default_rng(21).integers(1, V, len(doc_of))
    word_of[::2] = 0
    return doc_of, word_of, V


def _counts(doc_of, word_of, z, D, K, V):
    n_dk = np.zeros((D, K), np.int64)
    n_kw = np.zeros((K, V), np.int64)
    n_k = np.zeros(K, np.int64)
    np.add.at(n_dk, (doc_of, z), 1)
    np.add.at(n_kw, (z, word_of), 1)
    np.add.at(n_k, z, 1)
    return n_dk, n_kw, n_k


def _flat_counts(state):
    return [*state.n_k, *(c for row in state.n_dk for c in row), *(c for row in state.n_wk for c in row)]


class TestListKernel:
    """The interpreter's word-major kernel against the reference _gibbs_sweep
    (its Python source, over topic-major lists), sweep by sweep."""

    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("alpha", [50 / 7, 0.1])
    @pytest.mark.parametrize("K", [1, 2, 13])
    def test_each_sweep_matches_the_reference(self, K, alpha, beta):
        from revclass import topic_model

        reference = getattr(topic_model._gibbs_sweep, "py_func", topic_model._gibbs_sweep)
        doc_of, word_of, V = _power_of_two_corpus()
        z0 = np.random.default_rng(K).integers(0, K, len(doc_of))
        n_dk, n_kw, n_k = _counts(doc_of, word_of, z0, 4, K, V)
        state = topic_model._ListGibbs(n_dk, n_kw, n_k, alpha, beta)
        z_ref, dk_ref, kw_ref, k_ref = z0.tolist(), n_dk.tolist(), n_kw.tolist(), n_k.tolist()
        z, docs, words = z0.tolist(), doc_of.tolist(), word_of.tolist()
        crossed = False
        for sweep_idx in range(6):
            u = np.random.default_rng(100 + sweep_idx).random(len(z)).tolist()
            before = _flat_counts(state)
            reference(z_ref, docs, words, dk_ref, kw_ref, k_ref, alpha, beta, u, [0.0] * K)
            state.sweep(z, docs, words, u)
            assert z == z_ref
            assert state.n_dk == dk_ref
            assert state.n_wk == [list(column) for column in zip(*kw_ref)]
            assert state.n_k == k_ref
            # each factor is exactly its count plus its prior, as the reference adds them
            assert state.a_dk == [[c + alpha for c in row] for row in state.n_dk]
            assert state.b_wk == [[c + beta for c in row] for row in state.n_wk]
            assert state.f_k == [c + V * beta for c in state.n_k]
            crossed |= any(a.bit_length() != b.bit_length() >= 4 for a, b in zip(before, _flat_counts(state)))
        if K == 1:
            assert state.n_k == [512] and [row[0] for row in state.n_dk] == [128, 64, 256, 64]
            assert state.n_wk[0] == [256]
        else:
            assert crossed and z != z0.tolist()
        dk, kw, k = state.counts()
        assert dk.dtype == kw.dtype == k.dtype == np.int64
        assert dk.tolist() == dk_ref and kw.tolist() == kw_ref and k.tolist() == k_ref
        assert kw.flags.c_contiguous

    @pytest.mark.parametrize(
        "K, alpha, beta, seed", [(1, None, 0.01, 0), (2, 50 / 7, 0.1, 1), (8, None, 0.3, 2), (13, 0.1, 0.01, 3)]
    )
    def test_fit_lda_same_over_lists_and_arrays(self, monkeypatch, K, alpha, beta, seed):
        from revclass import topic_model

        docs = _two_topic_corpus(np.random.default_rng(seed), n_docs=40, tokens=30)
        docs[3] = []  # an excluded document leaves the later ones' ids in place
        cfg = LdaConfig(K=K, alpha=alpha, beta=beta, iterations=5, seed=seed)
        models = []
        for numba in (False, True):
            monkeypatch.setattr(topic_model, "_HAVE_NUMBA", numba)
            with pytest.warns(UserWarning, match="doc_3"):
                models.append(fit_lda(docs, cfg))
        over_lists, over_arrays = models
        assert over_lists.doc_ids == over_arrays.doc_ids
        for a, b in zip(over_lists.assignments, over_arrays.assignments, strict=True):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
        for name in ("topic_word_counts", "doc_topic_counts", "topic_word", "doc_topic"):
            a, b = getattr(over_lists, name), getattr(over_arrays, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


class TestOneSweep:
    """fit_lda runs _sweep under both values of _HAVE_NUMBA; _gibbs_sweep is
    only the tests' reference."""

    @pytest.mark.parametrize("K, seed", [(1, 0), (3, 4), (8, 2)])
    def test_fit_lda_never_calls_the_reference(self, monkeypatch, K, seed):
        from revclass import topic_model

        def refuse(*args):
            raise AssertionError("fit_lda called _gibbs_sweep")

        monkeypatch.setattr(topic_model, "_gibbs_sweep", refuse)
        docs = _two_topic_corpus(np.random.default_rng(seed), n_docs=20, tokens=15)
        cfg = LdaConfig(K=K, iterations=4, seed=seed)
        models = []
        for numba in (False, True):
            monkeypatch.setattr(topic_model, "_HAVE_NUMBA", numba)
            models.append(fit_lda(docs, cfg))
        over_lists, over_arrays = models
        for a, b in zip(over_lists.assignments, over_arrays.assignments, strict=True):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
        for name in ("topic_word_counts", "doc_topic_counts", "topic_word", "doc_topic"):
            a, b = getattr(over_lists, name), getattr(over_arrays, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name

    @pytest.mark.parametrize("K", [1, 2, 13])
    def test_compiled_sweep_matches_the_reference(self, K):
        pytest.importorskip("numba")
        from revclass import topic_model

        doc_of, word_of, V = _power_of_two_corpus()
        z0 = np.random.default_rng(K).integers(0, K, len(doc_of))
        n_dk, n_kw, n_k = _counts(doc_of, word_of, z0, 4, K, V)
        state = topic_model._ListGibbs(n_dk, n_kw, n_k, 0.1, 0.01, arrays=True)
        assert state.sweep.func is topic_model._sweep
        z, docs, words = z0.copy(), doc_of.copy(), word_of.copy()
        z_ref, dk_ref, kw_ref, k_ref = z0.copy(), n_dk.copy(), n_kw.copy(), n_k.copy()
        for sweep_idx in range(6):
            u = np.random.default_rng(100 + sweep_idx).random(len(z))
            topic_model._gibbs_sweep.py_func(z_ref, docs, words, dk_ref, kw_ref, k_ref, 0.1, 0.01, u, np.zeros(K))
            state.sweep(z, docs, words, u)
            dk, kw, k = state.counts()
            assert z.tolist() == z_ref.tolist()
            assert dk.tolist() == dk_ref.tolist() and kw.tolist() == kw_ref.tolist() and k.tolist() == k_ref.tolist()
        assert K == 1 or z.tolist() != z0.tolist()  # the sweeps moved tokens

    @pytest.mark.parametrize("K", [1, 2, 13])
    def test_interpreted_sweep_over_arrays_matches_the_reference(self, K):
        from revclass import topic_model

        alpha, beta = 0.1, 0.01
        doc_of, word_of, V = _power_of_two_corpus()
        z0 = np.random.default_rng(K).integers(0, K, len(doc_of))
        n_dk, n_kw, n_k = _counts(doc_of, word_of, z0, 4, K, V)
        state = topic_model._ListGibbs(n_dk, n_kw, n_k, alpha, beta, arrays=True)
        assert state.sweep.func is topic_model._sweep
        for table in state.sweep.args:
            assert table.dtype in (np.int64, np.float64) and table.flags.c_contiguous
        # _sweep's Python source over the state's arrays, as fit_lda runs it without numba
        sweep = partial(getattr(topic_model._sweep, "py_func", topic_model._sweep), *state.sweep.args)
        z, docs, words = z0.copy(), doc_of.copy(), word_of.copy()
        z_ref, dk_ref, kw_ref, k_ref = z0.copy(), n_dk.copy(), n_kw.copy(), n_k.copy()
        reference = getattr(topic_model._gibbs_sweep, "py_func", topic_model._gibbs_sweep)
        for sweep_idx in range(6):
            u = np.random.default_rng(100 + sweep_idx).random(len(z))
            reference(z_ref, docs, words, dk_ref, kw_ref, k_ref, alpha, beta, u, np.zeros(K))
            sweep(z, docs, words, u)
            dk, kw, k = state.counts()
            assert z.tolist() == z_ref.tolist()
            assert dk.tolist() == dk_ref.tolist() and kw.tolist() == kw_ref.tolist() and k.tolist() == k_ref.tolist()
            # each factor is exactly its count plus its prior, as the reference adds them
            assert state.a_dk.tolist() == (state.n_dk + alpha).tolist()
            assert state.b_wk.tolist() == (state.n_wk + beta).tolist()
            assert state.f_k.tolist() == (state.n_k + V * beta).tolist()
        assert K == 1 or z.tolist() != z0.tolist()  # the sweeps moved tokens

    def test_fit_lda_compiled_matches_the_interpreter(self, monkeypatch):
        pytest.importorskip("numba")
        from revclass import topic_model

        docs = _two_topic_corpus(np.random.default_rng(6), n_docs=40, tokens=30)
        cfg = LdaConfig(K=5, iterations=20, seed=3)
        compiled = fit_lda(docs, cfg)
        monkeypatch.setattr(topic_model, "_HAVE_NUMBA", False)
        interpreted = fit_lda(docs, cfg)
        for a, b in zip(compiled.assignments, interpreted.assignments, strict=True):
            assert np.array_equal(a, b)
        for name in ("topic_word_counts", "doc_topic_counts", "topic_word", "doc_topic"):
            assert np.array_equal(getattr(compiled, name), getattr(interpreted, name)), name


class TestNonFinitePriors:
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^field '{field}' must be a finite number > 0$"):
            LdaConfig(K=2, **{field: value})


class TestCountConservation:
    @pytest.mark.parametrize("numba", [False, True])
    def test_a_sweep_that_drops_a_token_raises(self, monkeypatch, numba):
        from revclass import topic_model

        real = getattr(topic_model._sweep, "py_func", topic_model._sweep)
        sweeps = []

        def dropping(n_dk, n_wk, n_k, *rest):
            real(n_dk, n_wk, n_k, *rest)
            sweeps.append(None)
            if len(sweeps) == 2:
                n_k[0] -= 1  # one token gone from the topic totals

        monkeypatch.setattr(topic_model, "_sweep", dropping)
        monkeypatch.setattr(topic_model, "_HAVE_NUMBA", numba)
        docs = _two_topic_corpus(np.random.default_rng(1), n_docs=10, tokens=8)
        with pytest.raises(AssertionError, match=r"^count conservation violated during sampling$"):
            fit_lda(docs, LdaConfig(K=3, iterations=5, seed=1))
        assert len(sweeps) == 2  # raised right after the sweep that dropped it
