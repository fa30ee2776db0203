"""Binary review classifiers (Bernoulli NB, logistic regression, linear SVM)
and their one-vs-rest composition into an 8-way predictor."""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from revclass.corpus import NUMBER, POSITIVE, SEED, Category, Field, N_CATEGORIES, check, integer, one_of, read_json
from revclass.corpus import write_json_atomic
from revclass.feature_select import CHI2, METHODS, FeatureRanking, rank_features
from revclass.preprocess import SparseRows, VectorizedCorpus, Vocabulary

NB = "nb"
LR = "lr"
SVM = "svm"
CLASSIFIERS = (NB, LR, SVM)

# Per-class feature budgets in category index order: 1000 where accuracy
# saturates early (plot, actor/actress, analysis, thumb-up-or-down), 4000
# for the remaining four.
DEFAULT_BUDGETS = (1000, 1000, 4000, 4000, 1000, 4000, 1000, 4000)


def _sigmoid(z: np.ndarray | float) -> np.ndarray:
    """1 / (1 + e) for z >= 0 and e / (1 + e) elsewhere, with e = exp(-|z|)
    (a NaN keeps its sign), so exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _training_set(X: np.ndarray | SparseRows, y) -> tuple[SparseRows, np.ndarray, bool]:
    """Every trainer's input: X as :class:`SparseRows`, its entries grouped by
    row by a stable sort (a dense X's nonzeros in row-major order), y as one
    float label per row, and whether every stored value of X is 1.0."""
    if not isinstance(X, SparseRows):
        X = np.asarray(X, dtype=np.float64)
        rows, cols = np.nonzero(X)
        X = SparseRows(rows, cols, X[rows, cols], X.shape)
    elif (X.rows[1:] < X.rows[:-1]).any():
        order = np.argsort(X.rows, kind="stable")
        X = SparseRows(X.rows[order], X.cols[order], X.vals[order], X.shape)
    y = np.asarray(y, dtype=np.float64)
    if len(y) != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)} labels")
    return X, y, bool(np.all(X.vals == 1.0))


def _times(X: SparseRows, w: np.ndarray, ones: bool = False) -> np.ndarray:
    """The matrix-vector product X @ w; ``ones`` says that every stored value
    is 1.0, so the multiplies by them, which are exact, are skipped."""
    return np.bincount(X.rows, weights=w[X.cols] if ones else X.vals * w[X.cols], minlength=X.shape[0])


def _decision_value(m: NbModel | LrModel | SvmModel, x: np.ndarray) -> float:
    """bias + weights.x for one dense feature vector; every model is this
    linear form (see :func:`score_documents`)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != m.weights.shape:
        raise ValueError(f"expected {len(m.weights)} features, got shape {x.shape}")
    return float(m.weights @ x + m.bias)


# Hyperparams' fields, which the trainers' arguments and the CLI's hyperparameter settings take too.
HYPER_FIELDS = {
    "l": POSITIVE, "eta": POSITIVE, "lam": Field(float, 0, phrase="a finite number >= 0"),
    "lr_epochs": integer(1), "C": POSITIVE, "svm_epochs": integer(1),
}


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs shared by all eight members; every field overridable."""

    l: float = 1.0  # NB smoothing
    eta: float = 0.1  # LR learning rate
    lam: float = 0.1  # LR Gaussian-prior precision
    lr_epochs: int = 200
    C: float = 1.0  # SVM cost
    svm_epochs: int = 50  # SVM runs svm_epochs * N steps

    def __post_init__(self):
        check(vars(self), Field(dict, fields=HYPER_FIELDS), "", ValueError)


# ---------------------------------------------------------------------------
# Naive Bayes (Bernoulli event model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NbModel:
    """Smoothed Bernoulli Naive Bayes parameters for one binary task."""

    log_prior_pos: float
    log_prior_neg: float
    cond_pos: np.ndarray  # p(x_j = 1 | positive)
    cond_neg: np.ndarray  # p(x_j = 1 | negative)
    smoothing: float
    # The log-odds as a linear form over present terms, like LR's and the
    # SVM's: the log prior odds plus the all-absent baseline as bias, and
    # per term the present-minus-absent log-odds as weight.
    bias: float = field(init=False, repr=False, compare=False, default=0.0)
    weights: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # A conditional of 0 or 1 gives infinities and NaNs here, which
        # train_member rejects, so numpy need not warn of them.
        with np.errstate(divide="ignore", invalid="ignore"):
            absent = np.log1p(-self.cond_pos) - np.log1p(-self.cond_neg)
            present = np.log(self.cond_pos) - np.log(self.cond_neg)
        object.__setattr__(self, "bias", float(absent.sum()) + self.log_prior_pos - self.log_prior_neg)
        object.__setattr__(self, "weights", present - absent)


def train_nb(X: np.ndarray | SparseRows, y: np.ndarray, l: float = Hyperparams.l) -> NbModel:
    """Fit smoothed Bernoulli NB from binary vectors X (dense or
    :class:`SparseRows`) and labels y in {-1, +1}.

    Conditional estimates follow (count(x_j=1, side) + l) / (count(side) + 2l);
    priors are empirical label frequencies.  0/1 values are counted as
    integers, exact in float64 below 2**53.
    """
    check(l, HYPER_FIELDS["l"], "l", ValueError)
    X, y, ones = _training_set(X, y)
    pos = y > 0
    n_pos = int(pos.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training set must contain both labels")
    on_pos = pos[X.rows]
    d = X.shape[1]
    if ones:
        count_pos = np.bincount(X.cols[on_pos], minlength=d)
        count_neg = np.bincount(X.cols, minlength=d) - count_pos
    else:
        count_pos = np.bincount(X.cols[on_pos], weights=X.vals[on_pos], minlength=d)
        count_neg = np.bincount(X.cols[~on_pos], weights=X.vals[~on_pos], minlength=d)
    cond_pos = (count_pos + l) / (n_pos + 2 * l)
    cond_neg = (count_neg + l) / (n_neg + 2 * l)
    n = n_pos + n_neg
    return NbModel(
        log_prior_pos=math.log(n_pos / n),
        log_prior_neg=math.log(n_neg / n),
        cond_pos=cond_pos,
        cond_neg=cond_neg,
        smoothing=l,
    )


def nb_log_odds(m: NbModel, x: np.ndarray) -> float:
    """Full Bernoulli log-odds of the positive side for one binary vector.

    Both present terms (p(x=1|.)) and absent terms (p(x=0|.)) contribute;
    predict positive iff the result is >= 0.
    """
    return _decision_value(m, x)


# ---------------------------------------------------------------------------
# Logistic regression (MAP with Gaussian prior, full-batch gradient ascent)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LrModel:
    """Logistic-regression weights plus the training trajectory."""

    weights: np.ndarray
    bias: float
    eta: float
    lam: float
    epochs: int
    history: tuple[float, ...] = ()  # penalized log-likelihood per step, index 0 = init


def lr_gradient(
    w: np.ndarray, w0: float, X: np.ndarray | SparseRows, y: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Gradient of the penalized log-likelihood: (d/dw, d/dw0)."""
    X, y, _ = _training_set(X, y)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = y - _sigmoid(_times(X, w) + w0)
        grad_w = np.bincount(X.cols, weights=X.vals * residual[X.rows], minlength=X.shape[1]) - lam * w
        return grad_w, float(residual.sum())


# The row-slot table of _row_sums pays while it holds at most this many times
# the nonzeros.  With numpy 2.4 on a 2-core Xeon VM and rows of even length,
# summing it took 10 against bincount's 15 us at 2 400 nonzeros and 105
# against 245 us at 48 000, and the two crossed near a fill of 2 at both.
_MAX_FILL = 2.0


def _row_sums(X: SparseRows, ones: bool):
    """A function of weights w, whose entry d past X's d columns is 0.0, that
    returns X @ w[:d], each row's products added in stored order as in
    :func:`_times`; ``ones`` as there.

    It sums a row-slot table, built once: slot[s, i] is row i's s-th column,
    or the pad column d past the row's end.  numpy adds along the table's
    non-contiguous axis 0 in index order, so each row's sum is bincount's up
    to the sign of a zero sum.  With rows of very uneven length the table is
    mostly pad (see _MAX_FILL), and with one row axis 0 would be the inner
    one, which numpy sums pairwise; both take :func:`_times`.
    """
    n, d = X.shape
    lengths = np.bincount(X.rows, minlength=n)
    k = int(lengths.max(initial=0))
    if n < 2 or k * n > _MAX_FILL * X.cols.size:
        return lambda w: _times(X, w, ones)
    order = np.argsort(X.rows, kind="stable")
    rows = X.rows[order]
    entry = np.full((k, n), X.cols.size)
    entry[np.arange(rows.size) - (np.cumsum(lengths) - lengths)[rows], rows] = order
    slot = np.append(X.cols, d)[entry]
    if ones:
        return lambda w: np.add.reduce(w.take(slot), axis=0)
    vals = np.append(X.vals, 0.0)[entry]
    return lambda w: np.add.reduce(vals * w.take(slot), axis=0)


def train_lr(
    X: np.ndarray | SparseRows,
    y: np.ndarray,
    eta: float = Hyperparams.eta,
    lam: float = Hyperparams.lam,
    epochs: int = Hyperparams.lr_epochs,
) -> LrModel:
    """Full-batch gradient ascent on the penalized log-likelihood.

    Objective: sum_k [y log sigma(z) + (1-y) log(1-sigma(z))] - lam/2 ||w||^2
    with z = w.x + w0 and the bias unpenalized.  y takes values in {0, 1};
    weights start at zero, so training is deterministic.  Aborts when the
    objective turns non-finite (learning rate too large).  Each step's z
    gives both its objective and the next step's gradient; z comes from
    :func:`_row_sums`.
    """
    check(eta, HYPER_FIELDS["eta"], "eta", ValueError)
    check(lam, HYPER_FIELDS["lam"], "lam", ValueError)
    check(epochs, HYPER_FIELDS["lr_epochs"], "epochs", ValueError)
    X, y, ones = _training_set(X, y)
    n, d = X.shape
    # sum of log sigma(s) = -log(1 + e^-s) with s = +z for y=1 and -z for
    # y=0, computed stably as -logaddexp(0, neg_flip * z).
    neg_flip = np.where(y > 0, -1.0, 1.0)
    times = _row_sums(X, ones)
    padded = np.zeros(d + 1)  # w and the row sums' pad column, kept 0.0
    w = padded[:d]
    w0 = 0.0
    # Overflow here just means the iterate diverged; the non-finite
    # objective it leads to turns into an abort.
    with np.errstate(over="ignore", invalid="ignore"):
        z = times(padded) + w0
        history = [float(-np.add.reduce(np.logaddexp(0.0, neg_flip * z)) - 0.5 * lam * (w @ w))]
        for step in range(epochs):
            residual = y - _sigmoid(z)
            r = residual[X.rows] if ones else X.vals * residual[X.rows]
            grad_w = np.bincount(X.cols, weights=r, minlength=d) - lam * w
            grad_w *= eta
            w += grad_w
            w0 = w0 + eta * float(np.add.reduce(residual))
            z = times(padded) + w0
            objective = float(-np.add.reduce(np.logaddexp(0.0, neg_flip * z)) - 0.5 * lam * (w @ w))
            if not math.isfinite(objective):
                raise ArithmeticError(
                    f"non-finite objective at step {step + 1} (eta={eta} too large for this data)"
                )
            history.append(objective)
    return LrModel(weights=w.copy(), bias=w0, eta=eta, lam=lam, epochs=epochs, history=tuple(history))


def lr_prob(m: LrModel, x: np.ndarray) -> float:
    """sigma(w.x + w0), clamped inside (0, 1); predict positive iff >= 0.5."""
    p = float(_sigmoid(_decision_value(m, x)))
    return min(max(p, 1e-15), 1.0 - 1e-15)


# ---------------------------------------------------------------------------
# Linear SVM (seeded stochastic subgradient descent on the primal)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SvmModel:
    """Soft-margin linear SVM weights (averaged SGD iterate)."""

    weights: np.ndarray
    bias: float
    C: float
    epochs: int
    seed: int


def svm_objective(w: np.ndarray, w0: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Primal objective 1/2 ||w||^2 + C * sum max(0, 1 - y * (w.x + w0))."""
    margins = y * (X @ w + w0)
    return float(0.5 * (w @ w) + C * np.maximum(0.0, 1.0 - margins).sum())


# Rows train_svm draws in one call, unless one epoch has more.
_DRAW_BLOCK = 2**16


def train_svm(
    X: np.ndarray | SparseRows,
    y: np.ndarray,
    C: float = Hyperparams.C,
    epochs: int = Hyperparams.svm_epochs,
    seed: int = 42,
) -> SvmModel:
    """Minimize the primal soft-margin objective by seeded stochastic
    subgradient descent, returning the averaged iterate.

    Steps follow eta_t = 1 / (lambda_eff * t) with lambda_eff = 1 / (C * N),
    under which the per-sample stochastic objective is the primal scaled by
    a positive constant.  The bias rides along as an augmented coordinate
    (sharing the contraction), which keeps the iteration strongly convex.
    Runs epochs * N steps, sampling one row per step.  Each
    ``rng.integers`` call draws the rows of whole epochs, at most
    max(N, ``_DRAW_BLOCK``) of them: numpy's bounded draws discard no
    generated bits when a call ends, so the calls yield the indices of one
    ``rng.integers(0, N, N)`` draw per epoch, as a test checks.

    Under this schedule the contraction w <- (1 - 1/t) w turns v_t = t * w_t
    into a plain sum, v_t = v_{t-1} + [margin < 1] * C * N * y_i * x_i, so
    only v is stored and the margin test y_i * (v.x_i + v_0) < t - 1 needs no
    division.  The suffix average is kept lazily: with H(t) the sum of 1/s
    over averaged steps s <= t, sum_t v_t / t = v_T * H(T) - sum over changes
    of delta * H(t - 1), so a change adds one term to the second sum of its
    coordinate only.

    A step costs O(nonzeros of its row), one multiply by each stored value.
    With 0/1 values and exact margins, epochs in which updates are rare keep
    each row's margin instead, so a step reads one number and only an update
    pays (:func:`_svm_sums`).  The model is bit-identical either way.
    """
    check(C, HYPER_FIELDS["C"], "C", ValueError)
    check(epochs, HYPER_FIELDS["svm_epochs"], "epochs", ValueError)
    check(seed, SEED, "seed", ValueError)  # as a member file's seed, which train_member writes as seed + category
    X, y, ones = _training_set(X, y)
    n, d = X.shape
    if not ((y > 0).any() and (y < 0).any()):
        raise ValueError("training set must contain both labels")
    gain = C * n
    steps = epochs * n
    rng, per_call = np.random.default_rng(seed), max(1, _DRAW_BLOCK // n)  # epochs per call
    calls = (rng.integers(0, n, (min(per_call, epochs - e), n)) for e in range(0, epochs, per_call))
    draws = (epoch.tolist() for block in calls for epoch in block)  # each epoch's rows
    # Suffix averaging: the early iterates under the 1/(lam*t) schedule are
    # far from the optimum, so only the second half enters the average.
    start = steps // 2
    # harmonic[k] = H(start + k), the sum of 1/s for s in (start, start + k];
    # add.accumulate adds in order, as a running sum would.
    harmonic = np.zeros(steps - start + 1)
    np.cumsum(1.0 / np.arange(start + 1, steps + 1), out=harmonic[1:])
    v, late = _svm_sums(X, y, ones, gain, draws, epochs, start, harmonic)
    averaged = (np.array(v) * harmonic[-1] - np.array(late)) / (steps - start)
    return SvmModel(weights=averaged[:d], bias=float(averaged[d]), C=C, epochs=epochs, seed=seed)


def _row_lists(rows: np.ndarray, cols: np.ndarray, n: int) -> list[list[int]]:
    """``cols`` split into n lists by ``rows``, which must be sorted."""
    ends = [0, *np.cumsum(np.bincount(rows, minlength=n)).tolist()]
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip(ends, ends[1:])]


def _svm_sums(X: SparseRows, y, ones, gain, draws, epochs, start, harmonic) -> tuple[list, list]:
    """:func:`train_svm`'s v and late sums, with the bias as coordinate d, from
    X grouped by row and ``ones`` as :func:`_training_set` returns them.

    A step tests z = (the row's sum of v * x) + v_d, and an update adds
    g * x to v over the row's columns, with g = C * N * y_i, and g to the
    bias.  The direct loop does this at every step, multiplying by each
    stored value x; a 0/1 row reads one list of 1.0s that every row shares,
    and its multiplies by 1.0 are exact.

    When every stored value is 1.0, every g is an integer and
    steps * max|g| * (longest row + 1) < 2**53, every v and every partial sum
    of a margin is an exact integer, so a margin is the same number in any
    order of summation.  Epochs may then run on per-row margins: s[q] holds
    row q's sum of v, a step reads s[i] alone, and an update also adds g to
    s[q] for every row q in the posting list (column -> rows) of each of its
    columns.

    That pays while updates are rare, as they become near the optimum, and
    not while they are common: early on, or under noisy labels.  So each
    epoch counts the margins its updates touch, or would touch, against the
    values the direct loop reads in an epoch (nonzeros + N).  The first
    epoch runs direct; a later one runs on margins when the one before it
    touched fewer, and finishes direct once it has touched as many.  The
    bound takes each nonzero as stored once, as in a matrix.  The sums are
    bit for bit the same either way.
    """
    n, d = X.shape
    rows = _row_lists(X.rows, X.cols, n)
    longest = max(map(len, rows))
    vals = [[1.0] * longest] * n if ones else _row_lists(X.rows, X.vals, n)
    labels = y.tolist()
    gains = gain * y
    exact = ones and bool(np.all(np.trunc(gains) == gains)) and (
        epochs * n * float(np.abs(gains).max()) * (longest + 1) < 2**53
    )
    reads = X.cols.size + n if exact else 0
    postings = None  # per column: the rows that hold it, built on first use
    # The margins an update of row i changes: its columns' document frequencies.
    touches = _times(X, np.bincount(X.cols, minlength=d), True).astype(np.int64).tolist()
    v = [0.0] * d
    late = [0.0] * d  # per coordinate: sum of delta * H(t - 1) over changes
    b = late_b = 0.0  # the bias coordinate's v and late
    s = None  # per row: the sum of v over its columns, while it is kept
    work = reads  # so that the first epoch runs direct
    for epoch, drawn in enumerate(draws):
        # t counts the steps before this one; the first step always updates.
        todo = enumerate(drawn, epoch * n)
        on_margins = work < reads
        work = 0
        if on_margins:
            if postings is None:
                # The keys are unique, so any sort keeps each column's rows in order.
                order = np.argsort(X.cols * n + X.rows)
                postings = _row_lists(X.cols[order], X.rows[order], d)
            if s is None:
                s = _times(X, np.array(v), True).tolist()
            for t, i in todo:
                yi = labels[i]
                if yi * (s[i] + b) < t:  # t > 0: the first epoch runs direct
                    g = gain * yi
                    b += g
                    # Adding 0.0 leaves a late sum as it is.
                    gh = g * float(harmonic[t - start]) if t >= start else 0.0
                    late_b += gh
                    for j in rows[i]:
                        v[j] += g
                        late[j] += gh
                        for q in postings[j]:
                            s[q] += g
                    work += touches[i]
                    if work >= reads:
                        break
        # The direct loop takes the epoch's steps that the margins left: all,
        # some or none.
        for t, i in todo:
            cols, xs = rows[i], vals[i]
            z = 0.0
            for j, x in zip(cols, xs):  # zip stops at the row's end
                z += v[j] * x
            yi = labels[i]
            if yi * (z + b) < t or not t:
                g = gain * yi
                b += g
                s = None
                work += touches[i]
                if t >= start:
                    gh = g * float(harmonic[t - start])
                    late_b += gh
                    for j, x in zip(cols, xs):
                        v[j] += g * x
                        late[j] += gh * x
                else:
                    for j, x in zip(cols, xs):
                        v[j] += g * x
    return v + [b], late + [late_b]


def svm_decision(m: SvmModel, x: np.ndarray) -> float:
    """Decision value w.x + w0; positive class iff >= 0."""
    return _decision_value(m, x)


# ---------------------------------------------------------------------------
# One-vs-rest composition
# ---------------------------------------------------------------------------

STUB_NO_POSITIVES = "no_positives"
STUB_NO_NEGATIVES = "no_negatives"


@dataclass(frozen=True)
class BinaryMember:
    """One one-vs-rest member: its class, selected vocabulary, and model.

    Degenerate training data (a class with no positives, or one covering
    the whole corpus) yields a flagged constant-decision stub.  ``ranking`` is
    the class's ranking, which :func:`train_member` sets, stubs included; it
    is not serialized, so it is ``None`` after :func:`load_ovr`.
    """

    category: Category
    method: str
    terms: tuple[str, ...]
    model: Optional[NbModel | LrModel | SvmModel]
    stub: Optional[str] = None
    ranking: Optional[FeatureRanking] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class OvrModel:
    """Eight binary members, one per category: ``members[c]`` is category c's."""

    members: tuple[BinaryMember, ...]
    method: str
    selector: str
    budgets: tuple[int, ...]
    seed: int
    files: tuple[str, ...] = field(default=(), repr=False, compare=False)  # the files load_ovr read it from

    def __post_init__(self):
        members = tuple(sorted(self.members, key=lambda m: int(m.category)))
        cats = [int(m.category) for m in members]
        if cats != list(range(N_CATEGORIES)):
            raise ValueError(f"expected one member per category, got categories {cats}")
        object.__setattr__(self, "members", members)


def score_documents(members: Sequence[BinaryMember], docs: Sequence[Sequence[str]]) -> np.ndarray:
    """Scores of token documents under members, shape ``(len(docs), len(members))``.

    Every member is one linear form, bias plus the weights of its terms
    present: NB's log-odds, LR's and the SVM's z = w.x + w0 (LR's sigma(z)
    saturates to exact ties), or a stub's -inf/+inf.  The documents are
    vectorized once, over the members' terms in sorted order (so a score
    depends only on a document's set of tokens), and each member is one
    sparse product with the member's columns of that matrix.
    """
    vocab = Vocabulary(tuple(sorted({t for member in members for t in member.terms})))
    # The labels are placeholders: scoring reads only the presence matrix.
    vc = VectorizedCorpus.from_tokens(docs, [-1] * len(docs), vocab)
    scores = np.empty((len(docs), len(members)))
    for j, member in enumerate(members):
        if member.stub:
            scores[:, j] = -math.inf if member.stub == STUB_NO_POSITIVES else math.inf
            continue
        pos = np.fromiter(map(vocab.index.__getitem__, member.terms), np.int64, len(member.terms))
        scores[:, j] = member.model.bias + _times(vc.select(pos), member.model.weights, True)
    return scores


def train_member(
    corpus: VectorizedCorpus,
    ranking: FeatureRanking,
    method: str,
    hp: Hyperparams,
    seed: int,
    k: int | None = None,
) -> BinaryMember:
    """Train the one-vs-rest member for ``ranking``'s class on its first k
    ranked terms (all of them when k is None); the member keeps ``ranking``.

    Relevance is (label == category).  A class with no positives, or one
    covering the whole corpus, yields a flagged constant stub with an empty
    vocabulary.  The SVM samples with ``seed + category``.  A trained model
    whose bias or weights are not all finite, or an LR fit whose objective
    turns non-finite, raises ValueError naming the method, the category and
    the hyperparameters.
    """
    if method not in CLASSIFIERS:
        raise ValueError(f"unknown method {method!r}; expected one of {CLASSIFIERS}")
    cat = ranking.category
    rel = corpus.label_array == int(cat)
    if not rel.any() or rel.all():
        stub = STUB_NO_NEGATIVES if rel.any() else STUB_NO_POSITIVES
        return BinaryMember(cat, method, (), None, stub=stub, ranking=ranking)
    positions = ranking.positions[:k]
    X = corpus.select(positions)
    if method == NB:
        model = train_nb(X, np.where(rel, 1, -1), l=hp.l)
    elif method == LR:
        try:
            model = train_lr(X, rel.astype(np.float64), eta=hp.eta, lam=hp.lam, epochs=hp.lr_epochs)
        except ArithmeticError:
            at = {"eta": hp.eta, "lam": hp.lam, "epochs": hp.lr_epochs}
            raise ValueError(f"{method} member for category {int(cat)} has a non-finite objective at {at}") from None
    else:
        model = train_svm(X, np.where(rel, 1.0, -1.0), C=hp.C, epochs=hp.svm_epochs, seed=seed + int(cat))
    terms = tuple(map(corpus.vocab.terms.__getitem__, positions.tolist()))
    member = BinaryMember(cat, method, terms, model, ranking=ranking)
    if not (math.isfinite(model.bias) and np.isfinite(model.weights).all()):
        raise ValueError(f"{method} member for category {int(cat)} has non-finite weights at {_member_sections(member)[1]}")
    return member


def train_members(corpus: VectorizedCorpus, rankings: Sequence[FeatureRanking], methods: Sequence[str], hp: Hyperparams,
                  seed: int, sizes: Sequence[int | None] = (None,)) -> list[BinaryMember]:
    """:func:`train_member` per ranking, in runs of one member per ranking: a run per method, and within a
    method per feature size (None trains on the whole ranking).  A size past the vocabulary warns first."""
    V = len(corpus.vocab)
    for size in [s for s in sizes if s is not None and s > V]:
        warnings.warn(f"feature size {size} exceeds vocabulary size {V}; using full vocabulary", stacklevel=2)
    return [train_member(corpus, r, method, hp, seed, size) for method in methods for size in sizes for r in rankings]


def rank_classes(corpus: VectorizedCorpus, budgets: Sequence[int], selector: str) -> list[FeatureRanking]:
    """Every class's feature ranking in category order, each at its budget
    clamped to the vocabulary size."""
    if len(budgets) != N_CATEGORIES:
        raise ValueError(f"need {N_CATEGORIES} per-class feature sizes, got {len(budgets)}")
    V = len(corpus.vocab)
    return [rank_features(corpus, cat, method=selector, k=min(budgets[int(cat)], V)) for cat in Category]


def train_ovr(
    corpus: VectorizedCorpus,
    method: str = SVM,
    per_class_feature_sizes: Sequence[int] | None = None,
    selector: str = CHI2,
    hyperparams: Hyperparams | None = None,
    seed: int = 42,
) -> OvrModel:
    """Train the eight one-vs-rest members, each on its own selected features.

    Relevance for member c is (label == c); the classes are ranked by
    :func:`rank_classes`, and the members are trained by :func:`train_members`
    from their classes' rankings, which they keep.  A degenerate class trains a
    flagged constant stub instead of a model, but is still ranked.
    """
    budgets = DEFAULT_BUDGETS if per_class_feature_sizes is None else tuple(per_class_feature_sizes)
    members = train_members(corpus, rank_classes(corpus, budgets, selector), (method,), hyperparams or Hyperparams(), seed)
    return OvrModel(members=members, method=method, selector=selector, budgets=budgets, seed=seed)


def predict(m: OvrModel, tokens: Iterable[str]) -> Category:
    """Single-label assignment: every member scores the review on its own
    vocabulary projection; highest score wins, ties go to the lowest
    category index (invariant under member order)."""
    return Category(int(score_documents(m.members, [tuple(tokens)])[0].argmax()))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_VECTOR = Field(list, items=NUMBER, phrase="a list of finite numbers")
# NB's conditionals: the floats strictly between 0 and 1.
_OPEN_UNIT = Field(float, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
_PROBABILITIES = Field(list, items=_OPEN_UNIT, phrase="a list of probabilities strictly between 0 and 1")
# Per method: the model type and every field of a member file's "parameters"
# and "hyperparameters" objects, named as the model's constructor arguments
# (NB also writes its smoothing as hyperparameter "l", which is checked, not
# read); a list parameter holds one value per vocabulary term, and a
# hyperparameter takes what its trainer takes.
_MEMBER_FIELDS = {
    NB: (NbModel, {"log_prior_pos": NUMBER, "log_prior_neg": NUMBER, "cond_pos": _PROBABILITIES,
                   "cond_neg": _PROBABILITIES, "smoothing": HYPER_FIELDS["l"]}, {"l": HYPER_FIELDS["l"]}),
    LR: (LrModel, {"weights": _VECTOR, "bias": NUMBER},
         {"eta": HYPER_FIELDS["eta"], "lam": HYPER_FIELDS["lam"], "epochs": HYPER_FIELDS["lr_epochs"]}),
    SVM: (SvmModel, {"weights": _VECTOR, "bias": NUMBER},
          {"C": HYPER_FIELDS["C"], "epochs": HYPER_FIELDS["svm_epochs"], "seed": SEED}),
}
# The "format_version" save_ovr writes; a manifest without one is version 1.
MODEL_FORMAT_VERSION = 1


def _member_sections(member: BinaryMember) -> tuple[dict, dict]:
    """A member file's "parameters" and "hyperparameters" objects."""
    if member.stub:
        return {"stub": member.stub}, {}
    _, params, hypers = _MEMBER_FIELDS[member.method]
    m = member.model
    return ({key: [float(v) for v in getattr(m, key)] if f.type is list else getattr(m, key) for key, f in params.items()},
            {key: getattr(m, "smoothing" if key == "l" else key) for key in hypers})


def save_ovr(m: OvrModel, out_dir) -> list[str]:
    """Write one JSON file per member plus a manifest; returns written paths."""
    paths = []
    for member in m.members:
        parameters, hyperparameters = _member_sections(member)
        doc = {
            "method": member.method,
            "category": int(member.category),
            "category_name": member.category.display_name,
            "vocabulary": list(member.terms),
            "parameters": parameters,
            "hyperparameters": hyperparameters,
            "seed": m.seed,
        }
        path = os.path.join(out_dir, f"member_{int(member.category)}.json")
        write_json_atomic(path, doc)
        paths.append(path)
    manifest = {
        "format_version": MODEL_FORMAT_VERSION,
        "members": [os.path.basename(p) for p in paths],
        "method": m.method,
        "selector": m.selector,
        "budgets": list(m.budgets),
        "seed": m.seed,
    }
    manifest_path = os.path.join(out_dir, "model_manifest.json")
    write_json_atomic(manifest_path, manifest)
    paths.append(manifest_path)
    return paths


class ModelFormatError(ValueError):
    """Raised when a model directory holds a file unlike the ones
    :func:`save_ovr` writes; the message names the file and the field."""


_MANIFEST = Field(dict, fields={
    "format_version": Field(int, MODEL_FORMAT_VERSION, MODEL_FORMAT_VERSION, str(MODEL_FORMAT_VERSION), optional=True),
    "method": one_of(CLASSIFIERS),
    "selector": one_of(METHODS),
    "budgets": Field(list, N_CATEGORIES, N_CATEGORIES, f"a list of {N_CATEGORIES} positive integers", Field(int, 1)),
    "seed": SEED,
    "members": Field(list, items=Field(str), phrase="a list of file names in the model directory",
                     test=lambda names: all(n not in ("", ".", "..") and os.path.basename(n) == n for n in names)),
}, closed=True)
_STUBS = (STUB_NO_POSITIVES, STUB_NO_NEGATIVES)
_MEMBER = Field(dict, fields={
    "method": Field(str, phrase="a string"),
    "category": integer(0, N_CATEGORIES - 1),
    "category_name": one_of(tuple(cat.display_name for cat in Category)),
    "vocabulary": Field(list, phrase="a list of distinct strings", items=Field(str), test=lambda v: len({*v}) == len(v)),
    "parameters": Field(dict, phrase="a JSON object", fields={"stub": replace(one_of(_STUBS), optional=True)}),
    "hyperparameters": Field(dict, phrase="a JSON object"),
    "seed": SEED,
}, closed=True)


def _sections(parameters: dict, hyperparameters: dict) -> Field:
    """A member file whose "parameters" and "hyperparameters" hold these fields and no others."""
    return Field(dict, fields={"parameters": Field(dict, fields=parameters, closed=True),
                               "hyperparameters": Field(dict, fields=hyperparameters, closed=True)})


def load_ovr(model_dir) -> OvrModel:
    """Reload an OvrModel written by :func:`save_ovr`.

    Every file is checked on load against its declared fields; each member's
    method and seed must be the manifest's and its category name its
    category's, every parameter vector needs one value per vocabulary term,
    and the manifest must list one member file per category.  A failed check
    raises :class:`ModelFormatError` naming the file and the field.
    """
    manifest_path = os.path.join(model_dir, "model_manifest.json")
    manifest = check(read_json(manifest_path, ModelFormatError), _MANIFEST, manifest_path, ModelFormatError)
    method = manifest["method"]
    model_type, params, hypers = _MEMBER_FIELDS[method]
    trained, stubbed = _sections(params, hypers), _sections(_MEMBER.fields["parameters"].fields, {})
    members = []
    files = {}  # category -> member file that holds it
    for name in manifest["members"]:
        path = os.path.join(model_dir, name)
        if not os.path.isfile(path):
            raise ModelFormatError(f"{manifest_path}: field 'members' names {name!r}, which is not a file")
        doc = check(read_json(path, ModelFormatError), _MEMBER, path, ModelFormatError)
        for key in ("method", "seed"):
            if doc[key] != manifest[key]:
                theirs = f"{doc[key]!r}, but the manifest's is {manifest[key]!r}"
                raise ModelFormatError(f"{path}: field {key!r} is {theirs}")
        cat = Category(doc["category"])
        if doc["category_name"] != cat.display_name:
            named = f"{doc['category_name']!r}, but category {int(cat)} is {cat.display_name!r}"
            raise ModelFormatError(f"{path}: field 'category_name' is {named}")
        if cat in files:
            raise ModelFormatError(
                f"{manifest_path}: field 'members' lists category {int(cat)} twice ({files[cat]} and {name})"
            )
        files[cat] = name
        terms = tuple(doc["vocabulary"])
        stub = doc["parameters"].get("stub")
        check(doc, stubbed if stub else trained, path, ModelFormatError)
        if stub:
            members.append(BinaryMember(cat, method, terms, None, stub=stub))
            continue
        fields = {key: doc["hyperparameters"][key] for key in hypers if key in model_type.__dataclass_fields__}
        for key, f in params.items():
            fields[key] = doc["parameters"][key]
            if f.type is list:
                if len(fields[key]) != len(terms):
                    per_term = f"must hold one value per vocabulary term ({len(terms)})"
                    raise ModelFormatError(f"{path}: field 'parameters.{key}' {per_term}")
                fields[key] = np.array(fields[key], dtype=np.float64)
        members.append(BinaryMember(cat, method, terms, model_type(**fields)))
    if len(members) != N_CATEGORIES:
        raise ModelFormatError(
            f"{manifest_path}: field 'members' must list {N_CATEGORIES} member files, got {len(members)}"
        )
    return OvrModel(
        members=tuple(members),
        method=method,
        selector=manifest["selector"],
        budgets=tuple(manifest["budgets"]),
        seed=manifest["seed"],
        files=(manifest_path, *(os.path.join(model_dir, name) for name in manifest["members"])),
    )
