"""Desk-scale experiment harness: accuracy metrics, a seeded synthetic-corpus
generator with planted category vocabularies and rank-aligned name mentions,
the feature-size sweep, and the cross-series surrogate ablation."""

from __future__ import annotations

import reprlib
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from revclass.classify import (
    CLASSIFIERS,
    DEFAULT_BUDGETS,
    SVM,
    BinaryMember,
    Hyperparams,
    OvrModel,
    score_documents,
    train_member,
    train_ovr,
    train_svm,  # unused here; perfbench's tracing self-test reads this binding
)
from revclass.corpus import Category, Corpus, N_CATEGORIES, Review, write_text_atomic
from revclass.feature_select import CHI2, METHODS, rank_features
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
    scores = model.scores(test.docs)
    gold = np.asarray(test.labels)
    per_category = [_hit_rate(scores[:, c] >= 0.0, gold == c) for c in range(N_CATEGORIES)]
    return per_category, accuracy(scores.argmax(axis=1), gold)


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
            if type(like) is int and value < least:
                raise ValueError(f"field {f.name!r} must be >= {least}, got {value}")
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


def generate_synthetic(spec: SyntheticSpec) -> tuple[Corpus, dict[str, KnowledgeBase]]:
    """Deterministically generate a labeled corpus and per-series knowledge bases."""
    needed = [r for sig in _MENTION_SIGNATURES.values() for r in sig[1]]
    max_rank = max(needed)
    if any(spec.mention_rate[c] > 0 for c in _MENTION_SIGNATURES):
        if spec.roles_per_series < max_rank or spec.actors_per_series < max_rank:
            raise ValueError(f"need at least {max_rank} roles and actors per series for name mentions")
    rng = np.random.default_rng(spec.seed)
    kbs = {s: _series_kb(s, spec.roles_per_series, spec.actors_per_series) for s in spec.series}
    names = {
        s: {
            "role": {e.rank: e.canonical_name for e in kb.roles},
            "actor": {e.rank: e.canonical_name for e in kb.actors},
        }
        for s, kb in kbs.items()
    }

    reviews: list[Review] = []
    labels: list[Category] = []
    for series in spec.series:
        cats = [i % N_CATEGORIES for i in range(spec.reviews_per_series)]
        rng.shuffle(cats)
        for r_idx, cat in enumerate(cats):
            planted = spec.planted_vocab[cat]
            n_planted = max(1, round(spec.tokens_per_review * spec.planted_fraction))
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
            reviews.append(
                Review(
                    id=f"{series}-{r_idx:04d}",
                    series=series,
                    text=" ".join(tokens),
                    annotations=(cat, cat),
                )
            )
            labels.append(Category(cat))
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
        explicit = ((self.rotation,) if self.rotation else ()) + (self.rotations or ())
        for rot in explicit:
            _check_rotation(rot)


def _check_rotation(rot: Rotation) -> None:
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
        raise ValueError(
            f"rotations can only be derived for exactly 3 series, found {len(names)}; "
            "pass explicit rotations"
        )
    out = []
    for held_out in names:
        pair = tuple(s for s in names if s != held_out)
        out.append(((pair[0], pair[1]), held_out))
    return tuple(out)


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
    lines = ["category,size,train_acc,test_acc"]
    for (cat, _requested), cell in sorted(table.sweep.items()):
        lines.append(f"{cat},{cell.actual_size},{cell.train_acc:.6f},{cell.test_acc:.6f}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_generalization_csv(table: ResultTable, path) -> None:
    lines = ["category,rotation,surrogate,accuracy"]
    for (cat, rotation, mode), value in sorted(table.generalization.items()):
        lines.append(f"{cat},{rotation},{mode},{value:.6f}")
    write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Pipeline plumbing shared by the experiments
# ---------------------------------------------------------------------------


def _apply_series_cap(corpus: Corpus, cap: Optional[int]) -> Corpus:
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
    return Corpus(
        reviews=tuple(corpus.reviews[i] for i in keep),
        labels=tuple(corpus.labels[i] for i in keep),
    )


def tokenize_corpus(
    corpus: Corpus,
    seg: Optional[Segmenter] = None,
    stoplist: Sequence[str] | frozenset[str] = frozenset(),
    kbs: Optional[dict[str, KnowledgeBase]] = None,
    surrogate_mode: str = SURROGATE_OFF,
) -> TokenizedCorpus:
    """Run the text pipeline over a labeled corpus.

    With surrogates on, each review is substituted with its own series' map;
    a missing knowledge base is an error.
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
    return TokenizedCorpus(
        ids=tuple(r.id for r in corpus.reviews),
        series=tuple(r.series for r in corpus.reviews),
        docs=tuple(tuple(preprocess_text(r.text, seg, stoplist, maps.get(r.series))) for r in corpus.reviews),
        labels=tuple(None if lab is None else int(lab) for lab in corpus.labels),
    )


def _require_labels(tokenized: TokenizedCorpus) -> None:
    if any(lab is None for lab in tokenized.labels):
        raise ValueError("experiment corpora must be fully labeled (run the agreement filter)")


def _split_tokenized(
    tokenized: TokenizedCorpus, rot: Rotation
) -> tuple[TokenizedCorpus, TokenizedCorpus]:
    (a, b), t = rot
    train = tokenized.subset(tokenized.series_indices((a, b)))
    test = tokenized.subset(tokenized.series_indices((t,)))
    if len(train) == 0 or len(test) == 0:
        raise ValueError(f"rotation {rotation_label(rot)} produced an empty split")
    return train, test


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
    train/test accuracy; optionally emit the grid as CSV.  All members are
    scored together, so each split is vectorized once."""
    corpus = _apply_series_cap(corpus, config.per_series_cap)
    rotation = config.rotation or derive_rotations(list(corpus.series_index))[0]
    _check_rotation(rotation)
    tokenized = tokenize_corpus(corpus, seg, config.stopwords, kbs, config.surrogate_mode)
    _require_labels(tokenized)
    train, test = _split_tokenized(tokenized, rotation)
    vc_train = VectorizedCorpus.from_tokens(train.docs, train.labels)
    V = len(vc_train.vocab)
    max_size = min(max(config.feature_sizes), V)
    hp = config.hyperparams

    members = {}  # (category, requested size) -> member
    for cat in Category:
        full_terms = rank_features(vc_train, cat, method=config.selector, k=max_size).terms()
        for size in config.feature_sizes:
            if size > V:
                warnings.warn(
                    f"feature size {size} exceeds vocabulary size {V}; using full vocabulary",
                    stacklevel=2,
                )
            terms = full_terms[: min(size, V)]
            members[(int(cat), size)] = train_member(vc_train, cat, terms, config.sweep_method, hp, config.seed)
    train_scores = score_documents(list(members.values()), train.docs)
    test_scores = score_documents(list(members.values()), test.docs)
    table = ResultTable()
    for j, (cat, size) in enumerate(members):
        table.sweep[(cat, size)] = SweepCell(
            actual_size=min(size, V),
            train_acc=_hit_rate(train_scores[:, j] >= 0.0, np.asarray(train.labels) == cat),
            test_acc=_hit_rate(test_scores[:, j] >= 0.0, np.asarray(test.labels) == cat),
        )
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
    configured classifier methods."""
    corpus = _apply_series_cap(corpus, config.per_series_cap)
    if len(corpus.series_index) < 3:
        raise ValueError("cross-series experiment needs at least 3 series")
    rotations = config.rotations or derive_rotations(list(corpus.series_index))
    table = ResultTable()
    for mode in (SURROGATE_OFF, SURROGATE_ON):
        tokenized = tokenize_corpus(corpus, seg, config.stopwords, kbs, mode)
        _require_labels(tokenized)
        for rot in rotations:
            label = rotation_label(rot)
            train, test = _split_tokenized(tokenized, rot)
            vc_train = VectorizedCorpus.from_tokens(train.docs, train.labels)
            per_cat = np.zeros((len(config.methods), N_CATEGORIES))
            multi = np.zeros(len(config.methods))
            for mi, method in enumerate(config.methods):
                ovr = train_ovr(
                    vc_train,
                    method=method,
                    per_class_feature_sizes=config.per_class_budgets,
                    selector=config.selector,
                    hyperparams=config.hyperparams,
                    seed=config.seed,
                )
                per_cat[mi], multi[mi] = ovr_accuracies(ovr, test)
            for cat in Category:
                table.generalization[(int(cat), label, mode)] = float(per_cat[:, int(cat)].mean())
            table.multiclass[(label, mode)] = float(multi.mean())
    table.validate()
    if out_csv is not None:
        write_generalization_csv(table, out_csv)
    return table
