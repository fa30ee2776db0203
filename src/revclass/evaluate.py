"""Desk-scale experiment harness: accuracy metrics, a seeded synthetic-corpus
generator with planted category vocabularies and rank-aligned name mentions,
the feature-size sweep, and the cross-series surrogate ablation."""

from __future__ import annotations

import os
import reprlib
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from revclass.classify import (
    CLASSIFIERS,
    DEFAULT_BUDGETS,
    SVM,
    BinaryMember,
    Hyperparams,
    OvrModel,
    rank_classes,
    score_documents,
    train_member,
    train_svm,  # unused here; perfbench's tracing self-test reads this binding
)
from revclass.corpus import _CATEGORIES, Category, Corpus, N_CATEGORIES, Review, write_csv
from revclass.feature_select import CHI2, METHODS
from revclass.preprocess import (
    KnowledgeBase,
    PersonEntry,
    Segmenter,
    SurrogateMap,
    TokenizedCorpus,
    VectorizedCorpus,
    WhitespaceSegmenter,
    build_surrogate_map,
    preprocess_text,
)

Rotation = tuple[tuple[str, str], str]  # (train pair, held-out test series)

SURROGATE_ON = "on"
SURROGATE_OFF = "off"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def accuracy(predictions: Sequence[int], gold: Sequence[int]) -> float:
    """Fraction of exact matches between two equal-length label lists."""
    if len(predictions) != len(gold):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(gold)}")
    if len(predictions) == 0:
        raise ValueError("empty input")
    return _hit_rate(np.asarray(predictions, dtype=np.int64), np.asarray(gold, dtype=np.int64))


def _hit_rate(got: np.ndarray, want: np.ndarray) -> float:
    return int(np.count_nonzero(got == want)) / len(want)


def binary_accuracy(member: BinaryMember, test: TokenizedCorpus, category: Category | int) -> float:
    """Accuracy of one member's positive/negative decisions against
    (label == category) on a labeled test corpus."""
    if len(test) == 0:
        raise ValueError("empty test set")
    scores = score_documents([member], test.docs)[:, 0]
    return _hit_rate(scores >= 0.0, np.asarray(test.labels) == int(category))


def ovr_accuracies(model: OvrModel, test: TokenizedCorpus) -> tuple[list[float], float]:
    """Per-category binary accuracies and the multiclass accuracy of a model
    on a labeled test corpus, read from one documents x categories score matrix."""
    if len(test) == 0:
        raise ValueError("empty test set")
    return _readouts(model.members, test)[0]


def _readouts(members: Sequence[BinaryMember], test: TokenizedCorpus) -> list[tuple[list[float], float]]:
    """Per run of eight members, one per category in category order, all
    scored on ``test`` in one pass: the accuracies of the decisions score >= 0
    per category, and of each review's first maximum (ties to the lowest)."""
    gold = np.asarray(test.labels)
    readouts = []
    for block in np.hsplit(score_documents(members, test.docs), len(members) // N_CATEGORIES):
        per_category = [_hit_rate(block[:, c] >= 0.0, gold == c) for c in range(N_CATEGORIES)]
        readouts.append((per_category, accuracy(block.argmax(axis=1), gold)))
    return readouts


# ---------------------------------------------------------------------------
# Synthetic corpus generator (the ground-truth oracle for acceptance runs)
# ---------------------------------------------------------------------------

# Which (kind, ranks) a category's name mentions draw from.  The first five
# categories each get a distinct signature, so with surrogate tags the rank
# pattern is a cross-series-stable signal; the last three have none.
_MENTION_SIGNATURES: dict[int, tuple[str, tuple[int, ...]]] = {
    0: ("role", (1, 2)),
    1: ("actor", (1, 2)),
    2: ("role", (3, 4)),
    3: ("actor", (3, 4)),
    4: ("role", (5, 6)),
}
_MAX_SIGNATURE_RANK = max(r for _, ranks in _MENTION_SIGNATURES.values() for r in ranks)


def _default_planted() -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(f"cat{c}_w{i}" for i in range(12)) for c in range(N_CATEGORIES))


def _default_noise() -> tuple[str, ...]:
    return tuple(f"noise_{i}" for i in range(300))


def _has_type_of(value, like) -> bool:
    """Whether ``value`` has the type of ``like``: tuples element by element
    against ``like``'s first, ints not bools, and a float taking an int too."""
    if isinstance(like, tuple):
        return isinstance(value, tuple) and all(_has_type_of(v, like[0]) for v in value)
    if type(like) is float:
        return type(value) in (int, float)
    return type(value) is type(like)


def _type_name(like) -> str:
    return f"list of {_type_name(like[0])}" if isinstance(like, tuple) else type(like).__name__


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


def _as_tuples(value):
    return tuple(_as_tuples(v) for v in value) if isinstance(value, list) else value


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic review corpus.

    Each review draws ``planted_fraction`` of its tokens from its category's
    planted vocabulary (pairwise disjoint across categories) and the rest
    from the shared noise vocabulary.  In categories with a positive mention
    rate, a review additionally mentions series-specific role/actor names
    whose ranks follow the category's signature, aligned across series so
    surrogate tags unify the signal.  Annotations are unanimous.
    """

    series: tuple[str, ...] = ("alpha", "beta", "gamma")
    reviews_per_series: int = 200
    tokens_per_review: int = 12
    planted_vocab: tuple[tuple[str, ...], ...] = field(default_factory=_default_planted)
    noise_vocab: tuple[str, ...] = field(default_factory=_default_noise)
    roles_per_series: int = 6
    actors_per_series: int = 6
    mention_rate: tuple[float, ...] = (0.9, 0.9, 0.9, 0.9, 0.9, 0.0, 0.0, 0.0)
    mentions_per_hit: int = 3
    planted_fraction: float = 0.2
    seed: int = 7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            like = f.default_factory() if f.default is MISSING else f.default
            if not _has_type_of(value, like):
                raise ValueError(f"field {f.name!r} must be {_type_name(like)}, got {reprlib.repr(value)}")
            least = 1 if f.name in ("reviews_per_series", "tokens_per_review") else 0
            # No list holds more than sys.maxsize items; the seed is not a count.
            most = value if f.name == "seed" else sys.maxsize
            if type(like) is int and not least <= value <= most:
                bound = f">= {least}" if value < least else f"<= {most}"
                raise ValueError(f"field {f.name!r} must be {bound}, got {value}")
        if len(self.series) * self.reviews_per_series > sys.maxsize:
            raise ValueError(f"field 'reviews_per_series' times the series count must be <= {sys.maxsize}")
        if len(self.planted_vocab) != N_CATEGORIES:
            raise ValueError(f"planted_vocab must have {N_CATEGORIES} groups")
        if len(self.mention_rate) != N_CATEGORIES:
            raise ValueError(f"mention_rate must have {N_CATEGORIES} entries")
        if any(not 0.0 <= r <= 1.0 for r in self.mention_rate):
            raise ValueError("mention rates must lie in [0, 1]")
        seen: set[str] = set()
        for group in self.planted_vocab:
            for word in group:
                if word in seen:
                    raise ValueError(f"planted vocabularies overlap on {word!r}")
                seen.add(word)
        if not 0.0 <= self.planted_fraction <= 1.0:
            raise ValueError("planted_fraction must lie in [0, 1]")
        if not self.series:
            raise ValueError("field 'series' must name at least one series")
        for i, name in enumerate(self.series):
            if not name:
                raise ValueError("field 'series' has a blank name")
            if name in self.series[:i]:
                raise ValueError(f"field 'series' names {name!r} twice")
            # synth writes kb/<name>.json, which --kb-dir reads as kb/*.json.
            if name.startswith(".") or any(sep in name for sep in ("/", os.sep, os.altsep) if sep):
                raise ValueError(f"field 'series' name {name!r} must not start with '.' or hold a path separator")
        # Every review draws at least one planted token, and the categories
        # cycle, so category c is drawn when reviews_per_series > c.
        for c, group in enumerate(self.planted_vocab[: self.reviews_per_series]):
            if not group:
                raise ValueError(f"field 'planted_vocab' has an empty group {c}")
        if self.planted_per_review < self.tokens_per_review and not self.noise_vocab:
            raise ValueError("field 'noise_vocab' must be non-empty when reviews draw noise tokens")
        # Name mentions draw ranks up to the largest signature rank in the
        # signature categories, and any rank in the others.
        if self.mentions_per_hit and any(self.mention_rate):
            least = _MAX_SIGNATURE_RANK if any(self.mention_rate[c] for c in _MENTION_SIGNATURES) else 1
            for name in ("roles_per_series", "actors_per_series"):
                if getattr(self, name) < least:
                    raise ValueError(f"field {name!r} must be >= {least} for name mentions, got {getattr(self, name)}")

    @property
    def planted_per_review(self) -> int:
        """Planted tokens in each review; its other tokens are noise."""
        return max(1, round(self.tokens_per_review * self.planted_fraction))

    def to_dict(self) -> dict:
        """The fields in declaration order, tuples as JSON lists."""
        return {f.name: _as_lists(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj: dict) -> "SyntheticSpec":
        """Inverse of :meth:`to_dict`; omitted fields take their defaults."""
        return cls(**{key: _as_tuples(value) for key, value in obj.items()})

    @classmethod
    def ablation_default(cls) -> "SyntheticSpec":
        """Spec tuned for the cross-series surrogate ablation: weak planted
        signal, heavy rank-patterned name mentions in the first five categories."""
        return cls()

    @classmethod
    def sweep_default(cls) -> "SyntheticSpec":
        """Spec for the feature-size sweep: 50 informative words in a large
        noise vocabulary, no name mentions."""
        counts = (6, 6, 6, 6, 6, 6, 7, 7)  # 50 informative words total
        return cls(
            planted_vocab=tuple(
                tuple(f"cat{c}_w{i}" for i in range(counts[c])) for c in range(N_CATEGORIES)
            ),
            noise_vocab=tuple(f"noise_{i}" for i in range(8000)),
            tokens_per_review=30,
            planted_fraction=0.5,
            mention_rate=(0.0,) * N_CATEGORIES,
            seed=11,
        )


def _series_kb(series: str, roles: int, actors: int) -> KnowledgeBase:
    return KnowledgeBase(
        series=series,
        roles=tuple(
            PersonEntry(canonical_name=f"{series}_hero{r}", kind="role", rank=r)
            for r in range(1, roles + 1)
        ),
        actors=tuple(
            PersonEntry(canonical_name=f"{series}_star{r}", kind="actor", rank=r)
            for r in range(1, actors + 1)
        ),
    )


def _draws(seed: int):
    """``below(n)``, ``shuffle(x)`` and ``random()``: the values of
    ``np.random.default_rng(seed)``'s ``integers(0, n)``, ``shuffle(list)`` and
    ``random()``, replayed from PCG64's raw outputs as numpy draws them.  A
    32-bit draw takes a fresh output's low half, then its high half, even
    after ``random()`` has taken fresh outputs between the two; ``below(n)``
    applies Lemire's method to them and draws nothing when n == 1.
    """
    bits = np.random.PCG64(seed)
    raw = chain.from_iterable(iter(lambda: bits.random_raw(1024).tolist(), None))

    def halves():
        for x in raw:
            yield x & 0xFFFFFFFF
            yield x >> 32

    u32 = halves().__next__

    def below(n: int) -> int:
        if not 0 < n <= 1 << 32:
            raise ValueError(f"below({n}): n must lie in [1, 2**32]")
        while n > 1:
            m = u32() * n
            if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= ((1 << 32) - n) % n:
                return m >> 32
        return 0

    def shuffle(x: list) -> None:
        for i in range(len(x) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = u32() & mask
            while j > i:
                j = u32() & mask
            x[i], x[j] = x[j], x[i]

    def random() -> float:
        return (next(raw) >> 11) * 2.0**-53

    return below, shuffle, random


def generate_synthetic(spec: SyntheticSpec) -> tuple[Corpus, dict[str, KnowledgeBase]]:
    """Deterministically generate a labeled corpus and per-series knowledge
    bases, from the draws of ``np.random.default_rng(spec.seed)`` (:func:`_draws`)."""
    below, shuffle, random = _draws(spec.seed)
    kbs = {s: _series_kb(s, spec.roles_per_series, spec.actors_per_series) for s in spec.series}
    names = {
        s: {
            "role": {e.rank: e.canonical_name for e in kb.roles},
            "actor": {e.rank: e.canonical_name for e in kb.actors},
        }
        for s, kb in kbs.items()
    }
    n_planted = spec.planted_per_review
    n_noise = max(0, spec.tokens_per_review - n_planted)
    noise = spec.noise_vocab

    reviews: list[Review] = []
    labels: list[Category] = []
    for series in spec.series:
        cats = [i % N_CATEGORIES for i in range(spec.reviews_per_series)]
        shuffle(cats)
        for r_idx, cat in enumerate(cats):
            planted = spec.planted_vocab[cat]
            tokens = [planted[below(len(planted))] for _ in range(n_planted)]
            tokens += [noise[below(len(noise))] for _ in range(n_noise)]
            shuffle(tokens)
            if random() < spec.mention_rate[cat]:
                sig = _MENTION_SIGNATURES.get(cat)
                for _ in range(spec.mentions_per_hit):
                    if sig is None:
                        kind = ("role", "actor")[below(2)]
                        limit = spec.roles_per_series if kind == "role" else spec.actors_per_series
                        rank = 1 + below(limit)
                    else:
                        kind, ranks = sig
                        rank = ranks[below(len(ranks))]
                    tokens.insert(below(len(tokens) + 1), names[series][kind][rank])
            reviews.append(Review(id=f"{series}-{r_idx:04d}", series=series, text=" ".join(tokens), annotations=(cat, cat)))
            labels.append(_CATEGORIES[cat])
    return Corpus(reviews=tuple(reviews), labels=tuple(labels)), kbs


# ---------------------------------------------------------------------------
# Experiment configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the sweep and cross-series experiments."""

    methods: tuple[str, ...] = CLASSIFIERS
    selector: str = CHI2
    feature_sizes: tuple[int, ...] = (250, 500, 1000, 2000, 4000)
    rotation: Optional[Rotation] = None  # sweep split; derived for 3-series corpora
    rotations: Optional[tuple[Rotation, ...]] = None  # cross-series; derived when None
    surrogate_mode: str = SURROGATE_OFF  # sweep-only; cross-series always runs both
    sweep_method: str = SVM
    per_class_budgets: tuple[int, ...] = DEFAULT_BUDGETS
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    stopwords: frozenset[str] = frozenset()
    per_series_cap: Optional[int] = 5000  # first-N-in-file-order cap per series
    seed: int = 42

    def __post_init__(self):
        if not self.methods:
            raise ValueError("methods must name at least one classifier")
        for m in self.methods:
            if m not in CLASSIFIERS:
                raise ValueError(f"unknown classifier method {m!r}")
        if self.selector not in METHODS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.sweep_method not in CLASSIFIERS:
            raise ValueError(f"unknown sweep method {self.sweep_method!r}")
        sizes = self.feature_sizes
        if any(s < 1 for s in sizes) or list(sizes) != sorted(set(sizes)):
            raise ValueError("feature sizes must be positive and strictly ascending")
        if self.surrogate_mode not in (SURROGATE_ON, SURROGATE_OFF):
            raise ValueError("surrogate_mode must be 'on' or 'off'")
        if self.per_series_cap is not None and self.per_series_cap < 1:
            raise ValueError(f"per_series_cap must be >= 1 or None, got {self.per_series_cap}")
        explicit = ((self.rotation,) if self.rotation else ()) + (self.rotations or ())
        for rot in explicit:
            (a, b), t = rot
            if len({a, b, t}) != 3:
                raise ValueError(f"rotation series must be disjoint: {rot}")


def rotation_label(rot: Rotation) -> str:
    (a, b), t = rot
    return f"{a}&{b}-{t}"


def derive_rotations(series: Sequence[str]) -> tuple[Rotation, ...]:
    """The three train-two/test-one rotations of a 3-series corpus."""
    names = sorted(series)
    if len(names) != 3:
        raise ValueError(f"rotations can only be derived for exactly 3 series, found {len(names)}; pass explicit rotations")
    return tuple((tuple(s for s in names if s != held_out), held_out) for held_out in names)


@dataclass(frozen=True)
class SweepCell:
    actual_size: int
    train_acc: float
    test_acc: float


@dataclass
class ResultTable:
    """Keyed experiment cells; every accuracy lies in [0, 1].

    ``sweep`` is keyed by (category index, requested feature size);
    ``generalization`` by (category index, rotation label, surrogate mode);
    ``multiclass`` by (rotation label, surrogate mode).
    """

    sweep: dict[tuple[int, int], SweepCell] = field(default_factory=dict)
    generalization: dict[tuple[int, str, str], float] = field(default_factory=dict)
    multiclass: dict[tuple[str, str], float] = field(default_factory=dict)

    def validate(self) -> None:
        for cell in self.sweep.values():
            if not (0.0 <= cell.train_acc <= 1.0 and 0.0 <= cell.test_acc <= 1.0):
                raise ValueError("sweep accuracy outside [0, 1]")
        for value in (*self.generalization.values(), *self.multiclass.values()):
            if not 0.0 <= value <= 1.0:
                raise ValueError("accuracy outside [0, 1]")


def write_sweep_csv(table: ResultTable, path) -> None:
    rows = [(cat, cell.actual_size, cell.train_acc, cell.test_acc) for (cat, _), cell in sorted(table.sweep.items())]
    write_csv(path, ("category", "size", "train_acc", "test_acc"), rows)


def write_generalization_csv(table: ResultTable, path) -> None:
    rows = [(*key, value) for key, value in sorted(table.generalization.items())]
    write_csv(path, ("category", "rotation", "surrogate", "accuracy"), rows)


# ---------------------------------------------------------------------------
# Pipeline plumbing shared by the experiments
# ---------------------------------------------------------------------------


def _apply_series_cap(corpus: Corpus, cap: Optional[int]) -> Corpus:
    if cap is None:
        return corpus
    keep = sorted(i for rows in corpus.series_index.values() for i in rows[:cap])
    if len(keep) == len(corpus.reviews):
        return corpus
    return Corpus(reviews=tuple(corpus.reviews[i] for i in keep), labels=tuple(corpus.labels[i] for i in keep))


def tokenize_reviews(
    corpus: Corpus,
    seg: Optional[Segmenter] = None,
    stoplist: Sequence[str] | frozenset[str] = frozenset(),
    kbs: Optional[dict[str, KnowledgeBase]] = None,
    surrogate_mode: str = SURROGATE_OFF,
) -> Iterator[list[str]]:
    """Each review's tokens in corpus order, from the text pipeline, each
    review tokenized only when it is drawn.

    With surrogates on, each review is substituted with its own series' map;
    a missing knowledge base is an error, raised by this call itself.
    """
    seg = seg or WhitespaceSegmenter()
    stoplist = frozenset(stoplist)  # one object, so its stop sets are built once
    maps: dict[str, SurrogateMap] = {}
    if surrogate_mode == SURROGATE_ON:
        if kbs is None:
            raise ValueError("surrogate mode 'on' requires knowledge bases")
        missing = [s for s in corpus.series_index if s not in kbs]
        if missing:
            raise ValueError(f"missing knowledge base for series: {sorted(missing)}")
        maps = {s: build_surrogate_map(kbs[s]) for s in corpus.series_index}
    return (preprocess_text(r.text, seg, stoplist, maps.get(r.series)) for r in corpus.reviews)


def tokenize_corpus(
    corpus: Corpus,
    seg: Optional[Segmenter] = None,
    stoplist: Sequence[str] | frozenset[str] = frozenset(),
    kbs: Optional[dict[str, KnowledgeBase]] = None,
    surrogate_mode: str = SURROGATE_OFF,
) -> TokenizedCorpus:
    """Run the text pipeline (:func:`tokenize_reviews`) over a labeled corpus.
    Unlike :meth:`TokenizedCorpus.load` it does not merge equal tokens into
    one ``str``: that would cost the experiments more time than it saves."""
    return TokenizedCorpus(
        ids=tuple(r.id for r in corpus.reviews),
        series=tuple(r.series for r in corpus.reviews),
        docs=tuple(map(tuple, tokenize_reviews(corpus, seg, stoplist, kbs, surrogate_mode))),
        labels=tuple(None if lab is None else int(lab) for lab in corpus.labels),
    )


def _splits(corpus, config, kbs, seg, modes, rotations):
    """Per surrogate mode, the corpus tokenized once (every review must have
    a label); per rotation, ``(mode, rotation, train, test, vc_train)`` with
    the training split vectorized."""
    for mode in modes:
        tokenized = tokenize_corpus(corpus, seg, config.stopwords, kbs, mode)
        if any(lab is None for lab in tokenized.labels):
            raise ValueError("experiment corpora must be fully labeled (run the agreement filter)")
        for rot in rotations:
            (a, b), t = rot
            train = tokenized.subset(tokenized.series_indices((a, b)))
            test = tokenized.subset(tokenized.series_indices((t,)))
            if len(train) == 0 or len(test) == 0:
                raise ValueError(f"rotation {rotation_label(rot)} produced an empty split")
            missing = sorted({a, b}.difference(train.series))
            if missing:
                raise ValueError(f"rotation {rotation_label(rot)} trains on series without reviews: {missing}")
            yield mode, rot, train, test, VectorizedCorpus.from_tokens(train.docs, train.labels)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def feature_size_sweep(
    corpus: Corpus,
    config: ExperimentConfig,
    kbs: Optional[dict[str, KnowledgeBase]] = None,
    seg: Optional[Segmenter] = None,
    out_csv=None,
) -> ResultTable:
    """Train every category's member at each feature size and record
    train/test accuracy; optionally emit the grid as CSV.  The classes are
    ranked once, at the largest size, and all members are scored together,
    so each split is vectorized once."""
    corpus = _apply_series_cap(corpus, config.per_series_cap)
    rotation = config.rotation or derive_rotations(list(corpus.series_index))[0]
    [(_, _, train, test, vc_train)] = _splits(corpus, config, kbs, seg, (config.surrogate_mode,), (rotation,))
    V = len(vc_train.vocab)
    sizes = config.feature_sizes
    rankings = rank_classes(vc_train, (max(sizes),) * N_CATEGORIES, config.selector)

    members = []  # eight per size, in category order
    for size in sizes:
        if size > V:
            warnings.warn(f"feature size {size} exceeds vocabulary size {V}; using full vocabulary", stacklevel=2)
        members += [
            train_member(vc_train, r, config.sweep_method, config.hyperparams, config.seed, size) for r in rankings
        ]
    table = ResultTable()
    for size, (train_acc, _), (test_acc, _) in zip(sizes, _readouts(members, train), _readouts(members, test)):
        for cat in range(N_CATEGORIES):
            table.sweep[(cat, size)] = SweepCell(min(size, V), train_acc[cat], test_acc[cat])
    table.validate()
    if out_csv is not None:
        write_sweep_csv(table, out_csv)
    return table


def cross_series_experiment(
    corpus: Corpus,
    kbs: dict[str, KnowledgeBase],
    config: ExperimentConfig,
    seg: Optional[Segmenter] = None,
    out_csv=None,
) -> ResultTable:
    """Train on two series and test on the held-out third, for every rotation
    and both surrogate modes; per-category accuracies are averaged over the
    configured classifier methods.  Each split is ranked and vectorized once
    for all methods, and all their members are scored together."""
    corpus = _apply_series_cap(corpus, config.per_series_cap)
    if len(corpus.series_index) < 3:
        raise ValueError("cross-series experiment needs at least 3 series")
    rotations = config.rotations or derive_rotations(list(corpus.series_index))
    table = ResultTable()
    for mode, rot, _, test, vc_train in _splits(corpus, config, kbs, seg, (SURROGATE_OFF, SURROGATE_ON), rotations):
        label = rotation_label(rot)
        rankings = rank_classes(vc_train, config.per_class_budgets, config.selector)
        members = [
            train_member(vc_train, r, method, config.hyperparams, config.seed)
            for method in config.methods
            for r in rankings
        ]
        per_cat, multi = zip(*_readouts(members, test))
        for cat in Category:
            table.generalization[(int(cat), label, mode)] = float(np.mean([p[cat] for p in per_cat]))
        table.multiclass[(label, mode)] = float(np.mean(multi))
    table.validate()
    if out_csv is not None:
        write_generalization_csv(table, out_csv)
    return table
