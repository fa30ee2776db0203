"""Span recording around revclass's public functions, from outside the package.

A ``Tracer`` keeps every span in memory as ``(name, start_ns, end_ns,
parent, pass_id)`` and adds per-pass counts recorded at the same call
boundaries.  ``instrument`` replaces each target function with a recording
wrapper wherever it is bound inside ``revclass`` (the defining module
attribute, every ``from ... import`` binding, or the class attribute for a
method) and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

SURROGATE_PREFIXES = ("role_", "actor_")


class Tracer:
    """In-memory span store with a call stack, a current pass id and per-pass counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.pass_id = "setup"
        self._stack: list[int] = []

    def add(self, name: str, amount: int) -> None:
        self.counts[self.pass_id][name] += amount

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def recorded(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.pass_id)
            if counter is not None:
                # Counting gets a sibling span of its own, so the caller's
                # self time does not include it.
                cid = len(spans)
                spans.append(None)
                start = clock()
                counter(self, args, kwargs, result)
                spans[cid] = ("trace.count", start, clock(), parent, self.pass_id)
            return result

        recorded.__wrapped__ = fn
        return recorded


def self_times(spans) -> list[float]:
    """Self seconds of each span: its duration minus the durations of its
    direct children.  ``parent`` indexes into the same list, or is -1."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return [v / 1e9 for v in own]


def seconds_by_pass(spans) -> tuple[dict, dict]:
    """Per pass id and span name: (self seconds, inclusive seconds)."""
    own: dict = defaultdict(lambda: defaultdict(float))
    incl: dict = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_times(spans)):
        own[s[4]][s[0]] += t
        incl[s[4]][s[0]] += (s[2] - s[1]) / 1e9
    return own, incl


# ---------------------------------------------------------------------------
# Counters recorded at the wrapped boundaries
# ---------------------------------------------------------------------------


def _count_load_corpus(tr, args, kwargs, corpus):
    tr.add("corpus.reviews", len(corpus))


def _count_preprocess_text(tr, args, kwargs, tokens):
    tr.add("preprocess.tokens", len(tokens))
    tr.add("preprocess.surrogate_tags", sum(1 for t in tokens if t.startswith(SURROGATE_PREFIXES)))


def _count_vectorized(tr, args, kwargs, vc):
    tr.add("preprocess.vocab_size", len(vc.vocab))
    tr.add("preprocess.nnz", sum(map(len, vc.doc_terms)))


def _count_dense_matrix(tr, args, kwargs, X):
    tr.add("preprocess.dense_bytes", X.shape[0] * X.shape[1] * 8)
    tr.add("preprocess.dense_cells", X.size)
    tr.add("preprocess.dense_nonzeros", int((X != 0).sum()))


def _count_rank(tr, args, kwargs, ranking):
    tr.add("feature_select.rank_calls", 1)


def _count_nb(tr, args, kwargs, model):
    tr.add("classify.member_fits", 1)


def _count_lr(tr, args, kwargs, model):
    # Full-batch gradient ascent: one step per epoch over all N rows.
    tr.add("classify.member_fits", 1)
    tr.add("classify.lr_steps", model.epochs)


def _count_svm(tr, args, kwargs, model):
    # Stochastic subgradient descent: epochs * N single-row steps.
    X = args[0] if args else kwargs["X"]
    tr.add("classify.member_fits", 1)
    tr.add("classify.svm_steps", model.epochs * X.shape[0])


def _count_predict(tr, args, kwargs, category):
    model = args[0] if args else kwargs["m"]
    tr.add("classify.predict_calls", 1)
    tr.add("evaluate.member_scores", len(model.members))


def _count_binary_accuracy(tr, args, kwargs, acc):
    test = args[1] if len(args) > 1 else kwargs["test"]
    tr.add("evaluate.member_scores", len(test))


def _count_fit_lda(tr, args, kwargs, model):
    tokens = sum(len(a) for a in model.assignments)
    tr.add("topic_model.token_samples", tokens * model.config.iterations)


# (span name, module, attribute or Class.method, counter)
TARGETS = (
    ("corpus.load_corpus", "revclass.corpus", "load_corpus", _count_load_corpus),
    ("corpus.agreement_filter", "revclass.corpus", "agreement_filter", None),
    ("preprocess.preprocess_text", "revclass.preprocess", "preprocess_text", _count_preprocess_text),
    ("preprocess.from_documents", "revclass.preprocess", "Vocabulary.from_documents", None),
    ("preprocess.from_tokens", "revclass.preprocess", "VectorizedCorpus.from_tokens", _count_vectorized),
    ("preprocess.dense_matrix", "revclass.preprocess", "VectorizedCorpus.dense_matrix", _count_dense_matrix),
    ("preprocess.tokens_load", "revclass.preprocess", "TokenizedCorpus.load", None),
    ("preprocess.tokens_dump", "revclass.preprocess", "TokenizedCorpus.to_jsonl", None),
    ("feature_select.rank_features", "revclass.feature_select", "rank_features", _count_rank),
    ("classify.train_nb", "revclass.classify", "train_nb", _count_nb),
    ("classify.train_lr", "revclass.classify", "train_lr", _count_lr),
    ("classify.train_svm", "revclass.classify", "train_svm", _count_svm),
    ("classify.train_ovr", "revclass.classify", "train_ovr", None),
    ("classify.predict", "revclass.classify", "predict", _count_predict),
    ("classify.save_ovr", "revclass.classify", "save_ovr", None),
    ("classify.load_ovr", "revclass.classify", "load_ovr", None),
    ("topic_model.fit_lda", "revclass.topic_model", "fit_lda", _count_fit_lda),
    ("evaluate.generate_synthetic", "revclass.evaluate", "generate_synthetic", None),
    ("evaluate.tokenize_corpus", "revclass.evaluate", "tokenize_corpus", None),
    ("evaluate.binary_accuracy", "revclass.evaluate", "binary_accuracy", _count_binary_accuracy),
    ("evaluate.cross_series_experiment", "revclass.evaluate", "cross_series_experiment", None),
    ("evaluate.feature_size_sweep", "revclass.evaluate", "feature_size_sweep", None),
    ("cli.ingest", "revclass.cli", "cmd_ingest", None),
    ("cli.preprocess", "revclass.cli", "cmd_preprocess", None),
    ("cli.train", "revclass.cli", "cmd_train", None),
    ("cli.evaluate", "revclass.cli", "cmd_evaluate", None),
    ("cli.lda", "revclass.cli", "cmd_lda", None),
)

CLI_COMMANDS = ("ingest", "preprocess", "train", "evaluate", "lda")
LAYERS = ("corpus", "preprocess", "feature_select", "classify", "topic_model", "evaluate", "cli")


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "revclass" or name.startswith("revclass.")]


def _sites():
    """(span name, counter, owner, attribute, current value) for every
    binding of every target: each module attribute inside ``revclass`` that
    holds the function, or the class attribute of a method."""
    modules = _package_modules()
    for name, module_name, path, counter in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            yield name, counter, cls, attr, cls.__dict__[attr]
            continue
        original = getattr(module, path)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    yield name, counter, mod, attr, value


def bindings() -> list:
    """Every (owner, attribute, current value) that ``instrument`` patches."""
    return [(owner, attr, value) for _name, _counter, owner, attr, value in _sites()]


def restored(before: list) -> bool:
    """True when every binding listed by an earlier ``bindings()`` call holds
    the same object again."""
    after = bindings()
    return len(after) == len(before) and all(
        a[0] is b[0] and a[1] == b[1] and a[2] is b[2] for a, b in zip(after, before)
    )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every binding of every target with a span-recording wrapper;
    restore the originals on exit, even when the body raises."""
    patched = []
    wrappers = {}
    try:
        for name, counter, owner, attr, value in list(_sites()):
            if id(value) not in wrappers:
                if isinstance(value, classmethod):
                    wrappers[id(value)] = classmethod(tracer.wrap(name, value.__func__, counter))
                else:
                    wrappers[id(value)] = tracer.wrap(name, value, counter)
            patched.append((owner, attr, value))
            setattr(owner, attr, wrappers[id(value)])
        yield tracer
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Every per-layer metric with its unit, in report order.  Seconds named
# ``<layer>.<function>_s`` are self time; ``cli.<command>_s`` is inclusive.
# A metric of a layer a workload does not run reads 0.
PER_LAYER = {
    "classify.train_svm_s": "s",
    "classify.svm_steps": "count",
    "classify.svm_us_per_step": "us",
    "classify.train_lr_s": "s",
    "classify.lr_steps": "count",
    "classify.train_nb_s": "s",
    "classify.member_fits": "count",
    "classify.train_ovr_self_s": "s",
    "preprocess.dense_matrix_s": "s",
    "preprocess.dense_bytes": "bytes",
    "preprocess.dense_fill": "ratio",
    "feature_select.rank_s": "s",
    "feature_select.rank_calls": "count",
    "feature_select.rank_calls_per_fit": "ratio",
    "classify.predict_s": "s",
    "classify.predict_us_per_review": "us",
    "evaluate.binary_accuracy_s": "s",
    "evaluate.member_scores": "count",
    "preprocess.tokenize_s": "s",
    "preprocess.tokens": "count",
    "preprocess.surrogate_tags": "count",
    "preprocess.vectorize_s": "s",
    "preprocess.vocab_size": "count",
    "preprocess.nnz": "count",
    "preprocess.tokens_io_s": "s",
    "corpus.load_s": "s",
    "corpus.filter_s": "s",
    "corpus.reviews": "count",
    "classify.save_s": "s",
    "classify.load_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "topic_model.fit_lda_s": "s",
    "topic_model.token_samples": "count",
    "topic_model.ns_per_token_sample": "ns",
    "evaluate.synth_s": "s",
    "evaluate.experiment_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.traced_pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(own: dict, incl: dict, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one pass that come from its spans and counts:
    ``own`` and ``incl`` map span names to self and inclusive seconds."""
    s = lambda name: own.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    m = {
        "classify.train_svm_s": s("classify.train_svm"),
        "classify.svm_steps": c("classify.svm_steps"),
        "classify.svm_us_per_step": _ratio(s("classify.train_svm"), c("classify.svm_steps"), 1e6),
        "classify.train_lr_s": s("classify.train_lr"),
        "classify.lr_steps": c("classify.lr_steps"),
        "classify.train_nb_s": s("classify.train_nb"),
        "classify.member_fits": c("classify.member_fits"),
        "classify.train_ovr_self_s": s("classify.train_ovr"),
        "preprocess.dense_matrix_s": s("preprocess.dense_matrix"),
        "preprocess.dense_bytes": c("preprocess.dense_bytes"),
        "preprocess.dense_fill": _ratio(c("preprocess.dense_nonzeros"), c("preprocess.dense_cells")),
        "feature_select.rank_s": s("feature_select.rank_features"),
        "feature_select.rank_calls": c("feature_select.rank_calls"),
        "feature_select.rank_calls_per_fit": _ratio(c("feature_select.rank_calls"), c("classify.member_fits")),
        "classify.predict_s": s("classify.predict"),
        "classify.predict_us_per_review": _ratio(s("classify.predict"), c("classify.predict_calls"), 1e6),
        "evaluate.binary_accuracy_s": s("evaluate.binary_accuracy"),
        "evaluate.member_scores": c("evaluate.member_scores"),
        "preprocess.tokenize_s": s("preprocess.preprocess_text"),
        "preprocess.tokens": c("preprocess.tokens"),
        "preprocess.surrogate_tags": c("preprocess.surrogate_tags"),
        "preprocess.vectorize_s": s("preprocess.from_tokens") + s("preprocess.from_documents"),
        "preprocess.vocab_size": c("preprocess.vocab_size"),
        "preprocess.nnz": c("preprocess.nnz"),
        "preprocess.tokens_io_s": s("preprocess.tokens_load") + s("preprocess.tokens_dump"),
        "corpus.load_s": s("corpus.load_corpus"),
        "corpus.filter_s": s("corpus.agreement_filter"),
        "corpus.reviews": c("corpus.reviews"),
        "classify.save_s": s("classify.save_ovr"),
        "classify.load_s": s("classify.load_ovr"),
        "cli.bytes_read": c("cli.bytes_read"),
        "cli.bytes_written": c("cli.bytes_written"),
        "topic_model.fit_lda_s": s("topic_model.fit_lda"),
        "topic_model.token_samples": c("topic_model.token_samples"),
        "topic_model.ns_per_token_sample": _ratio(s("topic_model.fit_lda"), c("topic_model.token_samples"), 1e9),
        "evaluate.experiment_self_s": s("evaluate.cross_series_experiment") + s("evaluate.feature_size_sweep"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = incl.get(f"cli.{cmd}", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    return m
