"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and
runs one closed-loop pass in ``run_pass``: the pass calls revclass, times
only the program's calls, then checks the outputs.  A failed output check
counts as a failed operation.  A pass is made of steps of a second or less
(one experiment call, one CLI command).  Each step is timed on its own, and
a fixed reference loop is timed before the first step and after each one,
so that a step's time can be set against how fast the machine ran at that
moment.  ``tiny=True`` builds a small instance of the same workload, used
to warm up every code path before timing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from revclass import cli, evaluate
from revclass.corpus import N_CATEGORIES
from revclass.evaluate import SURROGATE_OFF, SURROGATE_ON, ExperimentConfig, ResultTable, SyntheticSpec

clock = time.perf_counter

# Sizes.  The ablation runs the paper preset at half of its 200 reviews per
# series: at a quarter, the held-out accuracy varies too much from seed to
# seed.  The round trip is scaled so that corpus I/O, tokenisation and
# scoring dominate; the LDA pass is a fixed number of Gibbs sweeps.
ABLATION_REVIEWS_PER_SERIES = 100
ROUNDTRIP_REVIEWS_PER_SERIES = 4_000
LDA_TOPICS = 8
LDA_ITERATIONS = 2
TINY_REVIEWS_PER_SERIES = 24


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the kinds of work a pass does: small
    numpy vector operations, dict updates, and a scalar loop over a list.
    Timed beside every step, it measures how fast the machine runs at that
    moment."""
    start = clock()
    w, x = np.zeros(256), np.arange(256.0) / 256.0
    for _ in range(800):
        w *= 0.999
        w += 1e-3 * x
        float(w @ x)
    table: dict[int, int] = {}
    for i in range(8000):
        table[i % 97] = table.get(i % 97, 0) + i
    counts, total = [0] * 64, 0.0
    for i in range(12000):
        k = (i * 7919) % 64
        counts[k] += 1
        total += counts[k] * 0.5
    return clock() - start


class Stopwatch:
    """Times the steps of one pass.  The reference loop runs before the
    first step and after each one; ``reference[step]`` is the mean of the
    two reference times around the step."""

    def __init__(self):
        self.steps: dict[str, float] = {}
        self.reference: dict[str, float] = {}
        self.first_reference = self._last = reference_loop()

    def time(self, step: str, fn, *args):
        start = clock()
        try:
            return fn(*args)
        finally:
            self.steps[step] = clock() - start
            after = reference_loop()
            self.reference[step] = (self._last + after) / 2
            self._last = after


@dataclass
class PassResult:
    """One pass: program seconds of each step, operations attempted, one
    error string per failed operation, integer counts that must repeat
    across passes, the workload's result values, and the reference-loop
    seconds beside each step."""

    steps: dict[str, float]
    attempted: int
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    reference: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.steps.values())


def _with_seed(spec: SyntheticSpec, seed: int, **overrides) -> SyntheticSpec:
    return SyntheticSpec.from_dict({**spec.to_dict(), "seed": seed, **overrides})


def _in_unit(value) -> bool:
    return isinstance(value, float) and 0.0 <= value <= 1.0


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# ablation: the cross-series surrogate ablation
# ---------------------------------------------------------------------------


def check_ablation(table) -> list[str]:
    errors = []
    rotations = {rot for _cat, rot, _mode in table.generalization}
    expected = {
        (cat, rot, mode)
        for cat in range(N_CATEGORIES)
        for rot in rotations
        for mode in (SURROGATE_OFF, SURROGATE_ON)
    }
    if len(rotations) != 3 or set(table.generalization) != expected:
        errors.append(f"generalization grid incomplete: {len(table.generalization)} of 48 cells")
    if len(table.multiclass) != 6:
        errors.append(f"multiclass grid incomplete: {len(table.multiclass)} of 6 cells")
    for key, value in (*table.generalization.items(), *table.multiclass.items()):
        if not _in_unit(value):
            errors.append(f"accuracy {key} = {value!r} outside [0, 1]")
            break
    return errors


class Ablation:
    name = "ablation"

    def setup(self, seed: int, workdir: str, tiny: bool = False) -> None:
        per_series = TINY_REVIEWS_PER_SERIES if tiny else ABLATION_REVIEWS_PER_SERIES
        spec = _with_seed(SyntheticSpec.ablation_default(), seed, reviews_per_series=per_series)
        self.corpus, self.kbs = evaluate.generate_synthetic(spec)
        self.config = ExperimentConfig()
        self.rotations = evaluate.derive_rotations(list(self.corpus.series_index))

    def run_pass(self, workdir: str) -> PassResult:
        # One experiment call per rotation and classifier.  The experiment
        # averages each accuracy over the classifiers; so does this, so the
        # table is the one a single call over everything fills.
        parts, watch = {}, Stopwatch()
        for rot in self.rotations:
            for method in self.config.methods:
                step = f"{evaluate.rotation_label(rot)}/{method}"
                config = replace(self.config, rotations=(rot,), methods=(method,))
                try:
                    parts[step] = watch.time(step, evaluate.cross_series_experiment, self.corpus, self.kbs, config)
                except Exception as exc:  # noqa: BLE001 - a raising pass is a failed operation
                    return PassResult(watch.steps, 1, [f"cross_series_experiment raised {exc!r}"],
                                      reference=watch.reference)
        table = ResultTable()
        for rot in self.rotations:
            label = evaluate.rotation_label(rot)
            mine = [parts[f"{label}/{method}"] for method in self.config.methods]
            for key in mine[0].generalization:
                table.generalization[key] = float(np.mean([p.generalization[key] for p in mine]))
            for key in mine[0].multiclass:
                table.multiclass[key] = float(np.mean([p.multiclass[key] for p in mine]))
        errors = check_ablation(table)
        values = {}
        if not errors:
            on = [v for (_rot, mode), v in table.multiclass.items() if mode == SURROGATE_ON]
            gains = [
                table.generalization[(cat, rot, SURROGATE_ON)] - table.generalization[(cat, rot, SURROGATE_OFF)]
                for (cat, rot, mode) in table.generalization
                if mode == SURROGATE_ON and cat < 5
            ]
            values = {"multiclass_acc": float(np.mean(on)), "surrogate_gain": float(np.mean(gains))}
            values["quality"] = values["multiclass_acc"]
        return PassResult(watch.steps, 1, errors, values=values, reference=watch.reference)


# ---------------------------------------------------------------------------
# roundtrip: CLI ingest -> preprocess -> train (NB) -> evaluate
# ---------------------------------------------------------------------------


def check_manifest(out_dir: str) -> tuple[list[str], int, int]:
    """Verify that every input digest in ``run_manifest.json`` matches its
    file; return (errors, input bytes, output bytes)."""
    path = os.path.join(out_dir, cli.MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        read = written = 0
        for name, digest in manifest["inputs"].items():
            if _sha256(name) != digest:
                return [f"{path}: digest of {name} does not match"], 0, 0
            read += os.path.getsize(name)
        for rel in manifest["outputs"]:
            written += os.path.getsize(os.path.join(out_dir, rel))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: {exc!r}"], 0, 0
    return [], read, written


def check_evaluation(path: str) -> tuple[list[str], dict[str, float]]:
    """``evaluation.csv`` must hold the 8 category rows plus ``multiclass``,
    each accuracy in [0, 1]."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        keys = [r[0] for r in rows[1:]]
        values = {r[0]: float(r[1]) for r in rows[1:]}
    except (OSError, IndexError, ValueError) as exc:
        return [f"{path}: {exc!r}"], {}
    expected = [str(c) for c in range(N_CATEGORIES)] + ["multiclass"]
    if rows[0] != ["category", "accuracy"] or keys != expected:
        return [f"{path}: expected rows {expected}, got {keys}"], {}
    if not all(_in_unit(v) for v in values.values()):
        return [f"{path}: accuracy outside [0, 1]"], {}
    return [], values


def _split_by_series(corpus_path: str, test_series: str, train_path: str, test_path: str) -> int:
    n_test = 0
    with open(corpus_path, encoding="utf-8") as src, open(train_path, "w", encoding="utf-8") as tr, open(
        test_path, "w", encoding="utf-8"
    ) as te:
        for line in src:
            if json.loads(line)["series"] == test_series:
                te.write(line)
                n_test += 1
            else:
                tr.write(line)
    return n_test


class Roundtrip:
    name = "roundtrip"

    def setup(self, seed: int, workdir: str, tiny: bool = False) -> None:
        per_series = TINY_REVIEWS_PER_SERIES if tiny else ROUNDTRIP_REVIEWS_PER_SERIES
        spec = _with_seed(SyntheticSpec.ablation_default(), seed, reviews_per_series=per_series)
        self.inputs = os.path.join(workdir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        spec_path = os.path.join(self.inputs, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh)
        synth_dir = os.path.join(self.inputs, "synth")
        if cli.main(["synth", "--spec", spec_path, "--out-dir", synth_dir, "--quiet"]) != 0:
            raise RuntimeError("revclass synth failed")
        self.kb_dir = os.path.join(synth_dir, "kb")
        self.raw_train = os.path.join(self.inputs, "train.jsonl")
        self.raw_test = os.path.join(self.inputs, "test.jsonl")
        held_out = sorted(spec.series)[-1]
        self.n_test = _split_by_series(os.path.join(synth_dir, "corpus.jsonl"), held_out, self.raw_train, self.raw_test)

    def commands(self, out: str) -> list[tuple[str, list[str]]]:
        d = lambda name: os.path.join(out, name)  # noqa: E731
        return [
            ("ingest_train", ["ingest", "--corpus", self.raw_train, "--out-dir", d("ingest_train")]),
            ("ingest_test", ["ingest", "--corpus", self.raw_test, "--out-dir", d("ingest_test")]),
            (
                "preprocess_train",
                ["preprocess", "--corpus", os.path.join(d("ingest_train"), "corpus.filtered.jsonl"),
                 "--kb-dir", self.kb_dir, "--surrogates", "on", "--out-dir", d("tokens_train")],
            ),
            (
                "preprocess_test",
                ["preprocess", "--corpus", os.path.join(d("ingest_test"), "corpus.filtered.jsonl"),
                 "--kb-dir", self.kb_dir, "--surrogates", "on", "--out-dir", d("tokens_test")],
            ),
            ("train", ["train", "--tokens", os.path.join(d("tokens_train"), "tokens.jsonl"), "--method", "nb",
                       "--out-dir", d("train")]),
            ("evaluate", ["evaluate", "--model", os.path.join(d("train"), "model"),
                          "--tokens", os.path.join(d("tokens_test"), "tokens.jsonl"), "--out-dir", d("evaluate")]),
        ]

    def run_pass(self, workdir: str) -> PassResult:
        out = os.path.join(workdir, "pass")
        shutil.rmtree(out, ignore_errors=True)
        steps = self.commands(out)
        codes, watch = {}, Stopwatch()
        for step, argv in steps:
            try:
                codes[step] = watch.time(step, cli.main, [*argv, "--quiet"])
            except Exception as exc:  # noqa: BLE001
                codes[step] = repr(exc)
        result = PassResult(watch.steps, len(steps), reference=watch.reference)
        read = written = 0
        for step, argv in steps:
            if codes[step] != 0:
                result.errors.append(f"{step}: exit {codes[step]}")
                continue
            errors, r, w = check_manifest(argv[argv.index("--out-dir") + 1])
            result.errors += [f"{step}: {e}" for e in errors]
            read, written = read + r, written + w
        if codes["evaluate"] == 0:
            errors, acc = check_evaluation(os.path.join(out, "evaluate", "evaluation.csv"))
            result.errors += [f"evaluate: {e}" for e in errors]
            if not errors:
                result.values["multiclass_acc"] = acc["multiclass"]
                result.values["quality"] = acc["multiclass"]
                result.values["classify_reviews_per_s"] = self.n_test / watch.steps["evaluate"]
        result.counts = {"cli.bytes_read": read, "cli.bytes_written": written}
        return result


# ---------------------------------------------------------------------------
# lda: collapsed Gibbs LDA through the CLI
# ---------------------------------------------------------------------------


def check_lda(model_path: str, heatmap_path: str, docs: dict[str, tuple[str, ...]]) -> tuple[list[str], float]:
    """Rows of topic_word and doc_topic must sum to 1 and the mean per-token
    log-likelihood log sum_k theta_dk phi_kw must be finite; returns
    (errors, mean log-likelihood per token)."""
    try:
        with open(model_path, encoding="utf-8") as fh:
            model = json.load(fh)
        phi = np.asarray(model["topic_word"], dtype=np.float64)
        theta = np.asarray(model["doc_topic"], dtype=np.float64)
        with open(heatmap_path, encoding="utf-8", newline="") as fh:
            doc_ids = [row[0] for row in list(csv.reader(fh))[1:]]
        index = {w: i for i, w in enumerate(model["vocab"])}
        if phi.shape != (model["K"], len(index)) or theta.shape != (len(doc_ids), model["K"]):
            return [f"{model_path}: shapes {phi.shape} and {theta.shape} do not match"], float("nan")
        if not (np.allclose(phi.sum(axis=1), 1.0, atol=1e-9) and np.allclose(theta.sum(axis=1), 1.0, atol=1e-9)):
            return [f"{model_path}: a topic_word or doc_topic row does not sum to 1"], float("nan")
        total, n = 0.0, 0
        for row, doc_id in enumerate(doc_ids):
            words = [index[w] for w in docs[doc_id]]
            total += float(np.log(theta[row] @ phi[:, words]).sum())
            n += len(words)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{model_path}: {exc!r}"], float("nan")
    loglik = total / n if n else float("nan")
    if not math.isfinite(loglik):
        return [f"{model_path}: log-likelihood {loglik} is not finite"], loglik
    return [], loglik


class Lda:
    name = "lda"

    def setup(self, seed: int, workdir: str, tiny: bool = False) -> None:
        extra = {"reviews_per_series": TINY_REVIEWS_PER_SERIES} if tiny else {}
        corpus, kbs = evaluate.generate_synthetic(_with_seed(SyntheticSpec.ablation_default(), seed, **extra))
        tokenized = evaluate.tokenize_corpus(corpus, kbs=kbs, surrogate_mode=SURROGATE_ON)
        self.inputs = os.path.join(workdir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        self.tokens = os.path.join(self.inputs, "tokens.jsonl")
        tokenized.save(self.tokens)
        self.docs = dict(zip(tokenized.ids, tokenized.docs))
        self.iterations = 1 if tiny else LDA_ITERATIONS

    def run_pass(self, workdir: str) -> PassResult:
        out = os.path.join(workdir, "pass")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["lda", "--tokens", self.tokens, "--topics", str(LDA_TOPICS), "--iterations", str(self.iterations),
                "--out-dir", out, "--quiet"]
        watch = Stopwatch()
        try:
            code = watch.time("lda", cli.main, argv)
        except Exception as exc:  # noqa: BLE001
            code = repr(exc)
        result = PassResult(watch.steps, 1, reference=watch.reference)
        if code != 0:
            result.errors.append(f"lda: exit {code}")
            return result
        errors, loglik = check_lda(os.path.join(out, "lda_model.json"), os.path.join(out, "heatmap.csv"), self.docs)
        result.errors += errors
        if not errors:
            result.values["lda_loglik_per_token"] = loglik
            result.values["quality"] = math.exp(loglik)
        return result


WORKLOADS = {w.name: w for w in (Ablation, Roundtrip, Lda)}
