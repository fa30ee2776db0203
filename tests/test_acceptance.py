"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line, with tolerances and runtime budgets pinned in the asserts."""

import contextlib
import dataclasses
import json
import math
import os
import time

import numpy as np
from scipy.stats import chi2_contingency

from revclass.classify import (
    lr_gradient,
    svm_decision,
    svm_objective,
    train_lr,
    train_nb,
    train_svm,
    nb_log_odds,
)
from revclass.cli import main as cli_main
from revclass.evaluate import (
    ExperimentConfig,
    SURROGATE_OFF,
    SURROGATE_ON,
    SyntheticSpec,
    cross_series_experiment,
    feature_size_sweep,
    generate_synthetic,
)
from revclass.feature_select import ContingencyTable, chi_square, drc
from revclass.preprocess import build_surrogate_map, remove_stopwords, substitute
from revclass.topic_model import LdaConfig, fit_lda


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_chi_square_oracle_equivalence():
    with criterion(1, "chi-square oracle equivalence"):
        rng = np.random.default_rng(101)
        tables = rng.integers(1, 1_000_001, size=(1000, 4))
        start = time.perf_counter()
        worst = 0.0
        for a, b, c, d in tables:
            mine = chi_square(ContingencyTable(int(a), int(b), int(c), int(d)))
            oracle = float(chi2_contingency([[a, b], [c, d]], correction=False).statistic)
            if oracle == 0.0:
                assert mine == 0.0
            else:
                worst = max(worst, abs(mine - oracle) / oracle)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst relative error {worst}"
        # independence tables (AD = CB) must return exactly zero
        for _ in range(100):
            a, b, m = (int(v) for v in rng.integers(1, 1000, 3))
            assert chi_square(ContingencyTable(a, b, a * m, b * m)) == 0.0
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s"


def test_criterion_2_drc_rank_equivalence():
    with criterion(2, "DRC rank equivalence"):
        rng = np.random.default_rng(102)
        n_rel = 20  # fixed A + C across each word set
        start = time.perf_counter()
        for _ in range(500):
            n_words = int(rng.integers(10, 60))
            A = rng.integers(0, n_rel + 1, n_words)
            B = rng.integers(0, 15, n_words)  # small range forces score ties
            full = np.array(
                [drc(ContingencyTable(int(a), int(b), n_rel - int(a), 5)) for a, b in zip(A, B)]
            )
            simplified = np.array(
                [a * a / math.sqrt(a + b) if a + b > 0 else 0.0 for a, b in zip(A, B)]
            )
            assert np.array_equal(
                np.argsort(-full, kind="stable"), np.argsort(-simplified, kind="stable")
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s"


def test_criterion_3_nb_exactness():
    with criterion(3, "NB exactness"):
        # Smoothed hand count: positives {w1}, {w1,w2}; negatives {w2}, {}
        X = np.array([[1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        y = np.array([1, 1, -1, -1])
        hand = train_nb(X, y, l=1.0)
        assert hand.cond_pos[0] == 0.75
        assert hand.cond_neg[0] == 0.25

        rng = np.random.default_rng(103)
        X4 = (rng.random((14, 4)) < 0.45).astype(float)
        y4 = np.where(rng.random(14) < 0.5, 1, -1)
        y4[:2] = (1, -1)
        model = train_nb(X4, y4, l=1.0)
        for bits in range(16):
            x = np.array([(bits >> j) & 1 for j in range(4)])
            expected = model.log_prior_pos - model.log_prior_neg
            for j in range(4):
                p_pos = model.cond_pos[j] if x[j] else 1 - model.cond_pos[j]
                p_neg = model.cond_neg[j] if x[j] else 1 - model.cond_neg[j]
                expected += math.log(p_pos) - math.log(p_neg)
            assert abs(nb_log_odds(model, x) - expected) <= 1e-12


def test_criterion_4_lr_gradient_check():
    with criterion(4, "LR gradient check"):
        h = 1e-5
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(104 + trial)
            X = rng.normal(size=(30, 5))
            y = (rng.random(30) < 0.5).astype(float)
            lam = 0.1
            w = rng.normal(scale=0.5, size=5)
            w0 = float(rng.normal())

            def objective(wv, bv):
                z = X @ wv + bv
                p = 1.0 / (1.0 + np.exp(-z))
                return float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)) - 0.5 * lam * (wv @ wv))

            grad_w, grad_b = lr_gradient(w, w0, X, y, lam)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd = (objective(w + e, w0) - objective(w - e, w0)) / (2 * h)
                worst = max(worst, abs(grad_w[j] - fd) / max(abs(fd), 1.0))
            fd_b = (objective(w, w0 + h) - objective(w, w0 - h)) / (2 * h)
            worst = max(worst, abs(grad_b - fd_b) / max(abs(fd_b), 1.0))
        assert worst <= 1e-5, f"worst relative error {worst}"

        rng = np.random.default_rng(104)
        X = rng.normal(size=(30, 5))
        y = (rng.random(30) < 0.5).astype(float)
        model = train_lr(X, y, eta=1e-3, lam=0.1, epochs=200)
        assert all(
            model.history[i + 1] >= model.history[i] for i in range(len(model.history) - 1)
        ), "objective not monotone"


def test_criterion_5_svm_optimization():
    with criterion(5, "SVM optimization"):
        start = time.perf_counter()
        X2 = np.array([[1.0], [-1.0]])
        y2 = np.array([1.0, -1.0])
        model = train_svm(X2, y2, C=100.0, epochs=20000, seed=42)
        assert 0.9 <= abs(model.weights[0]) <= 1.1, f"|w| = {abs(model.weights[0])}"
        assert svm_decision(model, X2[0]) >= 0 and svm_decision(model, X2[1]) < 0

        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            w_star = rng.normal(size=10)
            w_star /= np.linalg.norm(w_star)
            X, y = [], []
            while len(X) < 40:
                x = rng.normal(size=10)
                v = float(w_star @ x)
                if abs(v) >= 0.5:
                    X.append(x)
                    y.append(1.0 if v > 0 else -1.0)
            X, y = np.array(X), np.array(y)
            C = 10.0
            fitted = train_svm(X, y, C=C, epochs=500, seed=trial)
            decisions = X @ fitted.weights + fitted.bias
            assert np.all((decisions >= 0) == (y > 0)), f"trial {trial}: training error > 0"
            assert svm_objective(fitted.weights, fitted.bias, X, y, C) <= svm_objective(
                np.zeros(10), 0.0, X, y, C
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s"


def test_criterion_6_lda_recovery():
    with criterion(6, "LDA topic recovery"):
        rng = np.random.default_rng(106)
        half = 50
        words = [[f"a{i}" for i in range(half)], [f"b{i}" for i in range(half)]]
        docs = []
        for d in range(200):
            pool = words[d % 2]
            docs.append([pool[int(rng.integers(0, half))] for _ in range(50)])
        total_tokens = 200 * 50

        start = time.perf_counter()
        model = fit_lda(docs, LdaConfig(K=2, iterations=1000, seed=9))
        elapsed = time.perf_counter() - start

        assert model.topic_word_counts.sum() == total_tokens
        assert model.doc_topic_counts.sum() == total_tokens

        V = len(model.vocab)
        gen = np.zeros((2, V))
        for j, term in enumerate(model.vocab.terms):
            gen[0 if term.startswith("a") else 1, j] = 1.0 / half
        sims = np.zeros((2, 2))
        for k in range(2):
            for g in range(2):
                u, v = model.topic_word[k], gen[g]
                sims[k, g] = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        # greedy matching: best pair first, then the remaining pair
        k0, g0 = np.unravel_index(np.argmax(sims), sims.shape)
        matched = [sims[k0, g0], sims[1 - k0, 1 - g0]]
        assert min(matched) >= 0.8, f"matched cosines {matched}"
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s"


def test_criterion_7_surrogate_ablation():
    with criterion(7, "surrogate ablation"):
        start = time.perf_counter()
        spec = SyntheticSpec.ablation_default()
        assert spec.reviews_per_series == 200
        assert all(rate > 0.5 for rate in spec.mention_rate[:5])
        corpus, kbs = generate_synthetic(spec)
        config = ExperimentConfig(methods=("nb", "lr", "svm"))
        table = cross_series_experiment(corpus, kbs, config)
        rotations = sorted({r for (_, r, _) in table.generalization})
        assert len(rotations) == 3
        for cat in range(5):
            on = float(np.mean([table.generalization[(cat, r, SURROGATE_ON)] for r in rotations]))
            off = float(np.mean([table.generalization[(cat, r, SURROGATE_OFF)] for r in rotations]))
            assert on >= off + 0.02, f"category {cat}: on={on:.4f} off={off:.4f}"

        spec0 = dataclasses.replace(spec, mention_rate=(0.0,) * 8)
        corpus0, kbs0 = generate_synthetic(spec0)
        table0 = cross_series_experiment(corpus0, kbs0, config)
        for (cat, rotation, mode), value in table0.generalization.items():
            if mode == SURROGATE_ON:
                assert value == table0.generalization[(cat, rotation, SURROGATE_OFF)]
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s"


def test_criterion_8_feature_size_sweep(tmp_path):
    with criterion(8, "feature-size sweep design"):
        corpus, _ = generate_synthetic(SyntheticSpec.sweep_default())
        sizes = (250, 500, 1000, 2000, 4000)
        config = ExperimentConfig(feature_sizes=sizes)
        out = tmp_path / "sweep.csv"
        table = feature_size_sweep(corpus, config, out_csv=out)

        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category,size,train_acc,test_acc"
        assert len(lines) == 1 + 8 * 5, "incomplete grid"
        seen = {(int(line.split(",")[0]), i % 5) for i, line in enumerate(lines[1:])}
        assert len(seen) == 40

        for cat in range(8):
            small = table.sweep[(cat, 250)].test_acc
            large = table.sweep[(cat, 4000)].test_acc
            assert abs(small - large) <= 0.02, f"category {cat}: {small:.4f} vs {large:.4f}"


def _compare_output_dirs(d1, d2):
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        p1, p2 = os.path.join(d1, name), os.path.join(d2, name)
        if os.path.isdir(p1):
            _compare_output_dirs(p1, p2)
        elif name == "run_manifest.json":
            with open(p1, encoding="utf-8") as fh:
                m1 = json.load(fh)
            with open(p2, encoding="utf-8") as fh:
                m2 = json.load(fh)
            m1.pop("created_at")
            m2.pop("created_at")
            assert m1 == m2
        else:
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read(), f"{name} differs between reruns"


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "pipeline determinism"):
        spec = {
            "reviews_per_series": 36,
            "tokens_per_review": 10,
            "noise_vocab": [f"n{i}" for i in range(50)],
            "seed": 17,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        def run_all(root):
            root = str(root)
            steps = [
                ["synth", "--spec", str(spec_path), "--out-dir", f"{root}/synth"],
                ["ingest", "--corpus", f"{root}/synth/corpus.jsonl", "--out-dir", f"{root}/ingest"],
                [
                    "preprocess",
                    "--corpus", f"{root}/ingest/corpus.filtered.jsonl",
                    "--kb-dir", f"{root}/synth/kb",
                    "--surrogates", "on",
                    "--out-dir", f"{root}/preprocess",
                ],
                [
                    "lda",
                    "--tokens", f"{root}/preprocess/tokens.jsonl",
                    "--topics", "4",
                    "--iterations", "30",
                    "--out-dir", f"{root}/lda",
                ],
                [
                    "train",
                    "--tokens", f"{root}/preprocess/tokens.jsonl",
                    "--method", "svm",
                    "--sizes", "40",
                    "--svm-epochs", "5",
                    "--out-dir", f"{root}/train",
                ],
                [
                    "evaluate",
                    "--model", f"{root}/train/model",
                    "--tokens", f"{root}/preprocess/tokens.jsonl",
                    "--out-dir", f"{root}/evaluate",
                ],
                [
                    "sweep",
                    "--corpus", f"{root}/ingest/corpus.filtered.jsonl",
                    "--sizes", "10,30",
                    "--method", "nb",
                    "--out-dir", f"{root}/sweep",
                ],
                [
                    "cross-series",
                    "--corpus", f"{root}/ingest/corpus.filtered.jsonl",
                    "--kb-dir", f"{root}/synth/kb",
                    "--methods", "nb",
                    "--budgets", "40",
                    "--out-dir", f"{root}/cross-series",
                ],
            ]
            for step in steps:
                assert cli_main(step + ["--quiet"]) == 0, f"command failed: {step[0]}"

        run_all(tmp_path / "run1")
        run_all(tmp_path / "run2")
        for command in (
            "synth", "ingest", "preprocess", "lda", "train", "evaluate", "sweep", "cross-series",
        ):
            # manifests key inputs by path; rerun under a fresh root to prove
            # only content matters, comparing per-file bytes
            d1 = tmp_path / "run1" / command
            d2 = tmp_path / "run2" / command
            names = sorted(os.listdir(d1))
            assert names == sorted(os.listdir(d2))
            for name in names:
                p1, p2 = d1 / name, d2 / name
                if p1.is_dir():
                    _compare_output_dirs(p1, p2)
                    continue
                if name == "run_manifest.json":
                    m1 = json.loads(p1.read_text(encoding="utf-8"))
                    m2 = json.loads(p2.read_text(encoding="utf-8"))
                    for m in (m1, m2):
                        m.pop("created_at")
                        m["inputs"] = sorted(m["inputs"].values())
                    assert m1 == m2, f"{command}: manifest differs beyond timestamp"
                    continue
                assert p1.read_bytes() == p2.read_bytes(), f"{command}/{name} differs"


def test_criterion_10_preprocessing_contracts():
    with criterion(10, "preprocessing contracts"):
        spec = dataclasses.replace(
            SyntheticSpec.ablation_default(),
            reviews_per_series=334,  # 1002 reviews of fuzz
            mention_rate=(1.0, 1.0, 0.9, 0.8, 1.0, 0.5, 0.3, 0.6),
            seed=1010,
        )
        corpus, kbs = generate_synthetic(spec)
        assert len(corpus) >= 1000
        maps = {series: build_surrogate_map(kb) for series, kb in kbs.items()}
        surfaces = {series: set(m.entries) for series, m in maps.items()}
        for review in corpus.reviews:
            out = substitute(review.text, maps[review.series])
            for surface in surfaces[review.series]:
                assert surface not in out, f"{surface!r} survived substitution"
            assert substitute(out, maps[review.series]) == out, "substitution not idempotent"

        stoplist = {"BBS", "BT", "NB", "BS", "CU", "LOL", "4242", "SF", "YY", "noise_0", "cat0_w1"}
        rng = np.random.default_rng(77)
        pool = list(stoplist) + [w.lower() for w in stoplist] + ["剧情", "演员", "好看", "role_1"]
        for _ in range(500):
            tokens = [pool[int(rng.integers(0, len(pool)))] for _ in range(int(rng.integers(0, 20)))]
            cleaned = remove_stopwords(tokens, stoplist)
            assert not set(cleaned) & stoplist
            assert not {t.lower() for t in cleaned if t.isascii()} & {
                s.lower() for s in stoplist if s.isascii()
            }
