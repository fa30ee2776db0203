"""Command-line entry point wiring the pipeline into reproducible runs.

Every command writes its outputs atomically plus a run manifest capturing
the effective configuration, input digests, and seeds; reruns with identical
inputs and seeds are byte-identical (manifest timestamp aside).
"""

from __future__ import annotations

import argparse
import datetime
import glob
import hashlib
import json
import os
import sys

from revclass import __version__
from revclass.classify import (
    CLASSIFIERS,
    DEFAULT_BUDGETS,
    Hyperparams,
    ModelFormatError,
    SVM,
    load_ovr,
    save_ovr,
    train_ovr,
)
from revclass.corpus import (
    Corpus,
    CorpusFormatError,
    N_CATEGORIES,
    agreement_filter,
    load_corpus,
    write_json_atomic,
    write_text_atomic,
)
from revclass.evaluate import (
    ExperimentConfig,
    SURROGATE_OFF,
    SURROGATE_ON,
    SyntheticSpec,
    cross_series_experiment,
    feature_size_sweep,
    generate_synthetic,
    ovr_accuracies,
    tokenize_corpus,
)
from revclass.feature_select import CHI2, METHODS
from revclass.preprocess import (
    KnowledgeBase,
    KnowledgeBaseError,
    TokenizedCorpus,
    VectorizedCorpus,
    load_dictionary,
    load_knowledge_base,
    load_stopwords,
    WhitespaceSegmenter,
)
from revclass.topic_model import LdaConfig, export_heatmap, fit_lda, top_words

MANIFEST_NAME = "run_manifest.json"


class CliError(Exception):
    """Usage or input-validation failure (exit code 2)."""


# ---------------------------------------------------------------------------
# Small IO helpers
# ---------------------------------------------------------------------------


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise CliError(f"config file {path}: expected a JSON object")
    return obj


def _resolve_config(args, defaults: dict) -> dict:
    """Merge flag values over config-file values over defaults; a config-file
    key the command does not know is an error, not a silent default."""
    file_config = _load_config_file(getattr(args, "config", None))
    unknown = sorted(set(file_config) - set(defaults))
    if unknown:
        raise CliError(f"config file {args.config}: unknown key(s) {', '.join(map(repr, unknown))}")
    effective = {**defaults, **file_config}
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    return effective


def _write_manifest(args, out_dir, command: str, config: dict, inputs: list, outputs: list) -> None:
    manifest = {
        "command": command,
        "config": config,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [os.path.relpath(p, out_dir) for p in outputs],
        "seed": config.get("seed"),
        "tool_version": __version__,
    }
    write_json_atomic(os.path.join(out_dir, MANIFEST_NAME), manifest)
    _say(args, f"wrote {os.path.join(out_dir, MANIFEST_NAME)}")


def _review_record(review, label=None) -> dict:
    record = {
        "id": review.id,
        "series": review.series,
        "text": review.text,
        "annotations": list(review.annotations),
    }
    if review.episode is not None:
        record["episode"] = review.episode
    if label is not None:
        record["label"] = int(label)
    return record


def _write_corpus(corpus: Corpus, path) -> None:
    lines = [json.dumps(_review_record(r), ensure_ascii=False, sort_keys=True) for r in corpus.reviews]
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def _load_filtered(path) -> Corpus:
    corpus = load_corpus(path)
    filtered, _ = agreement_filter(corpus)
    return filtered


def _load_kb_dir(path) -> tuple[dict[str, KnowledgeBase], list[str]]:
    if path is None:
        return {}, []
    files = sorted(glob.glob(os.path.join(path, "*.json")))
    if not files:
        raise CliError(f"no knowledge-base files (*.json) found in {path}")
    kbs: dict[str, KnowledgeBase] = {}
    for f in files:
        kb = load_knowledge_base(f)
        if kb.series in kbs:
            raise CliError(f"duplicate knowledge base for series {kb.series!r} ({f})")
        kbs[kb.series] = kb
    return kbs, files


def _build_segmenter(dict_path):
    return load_dictionary(dict_path) if dict_path else WhitespaceSegmenter()


def _parse_sizes(raw, n: int | None = None) -> tuple[int, ...]:
    if isinstance(raw, (list, tuple)):
        sizes = tuple(int(v) for v in raw)
    else:
        try:
            sizes = tuple(int(part) for part in str(raw).split(",") if part.strip())
        except ValueError:
            raise CliError(f"invalid size list {raw!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise CliError(f"sizes must be positive integers, got {raw!r}")
    if n is not None:
        if len(sizes) == 1:
            sizes = sizes * n
        if len(sizes) != n:
            raise CliError(f"expected 1 or {n} sizes, got {len(sizes)}")
    return sizes


def _parse_rotation(raw: str):
    try:
        train_part, test = raw.split(":")
        a, b = train_part.split(",")
    except ValueError:
        raise CliError(f"invalid rotation {raw!r}; expected 'trainA,trainB:test'") from None
    return ((a.strip(), b.strip()), test.strip())


def _parse_rotations(raw):
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        return tuple(_parse_rotation(r) if isinstance(r, str) else ((r[0][0], r[0][1]), r[1]) for r in raw)
    return tuple(_parse_rotation(part) for part in str(raw).split(";") if part.strip())


def _require_labeled(tokenized: TokenizedCorpus, source: str) -> None:
    missing = sum(1 for lab in tokenized.labels if lab is None)
    if missing:
        raise CliError(f"{source}: {missing} review(s) lack labels; run 'revclass ingest' first")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> None:
    config = _resolve_config(args, {"seed": 42})
    out_dir = args.out_dir
    corpus = load_corpus(args.corpus)
    filtered, drops = agreement_filter(corpus)
    corpus_out = os.path.join(out_dir, "corpus.filtered.jsonl")
    _write_corpus(filtered, corpus_out)
    report = {
        "input_reviews": len(corpus),
        "kept": len(filtered),
        "dropped": drops,
        "per_series_kept": {s: len(ix) for s, ix in filtered.series_index.items()},
    }
    report_out = os.path.join(out_dir, "ingest_report.json")
    write_json_atomic(report_out, report)
    _say(args, f"kept {len(filtered)}/{len(corpus)} reviews (drops: {drops})")
    _write_manifest(args, out_dir, "ingest", config, [args.corpus], [corpus_out, report_out])


def cmd_preprocess(args) -> None:
    config = _resolve_config(args, {"surrogates": SURROGATE_OFF, "seed": 42})
    mode = config["surrogates"]
    if mode not in (SURROGATE_ON, SURROGATE_OFF):
        raise CliError(f"--surrogates must be 'on' or 'off', got {mode!r}")
    out_dir = args.out_dir
    corpus, kbs, stoplist, seg, inputs = _load_text_inputs(args)
    if mode == SURROGATE_ON and not kbs:
        raise CliError("surrogates on requires --kb-dir")
    try:
        tokenized = tokenize_corpus(corpus, seg, stoplist, kbs, mode)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    tokens_out = os.path.join(out_dir, "tokens.jsonl")
    tokenized.save(tokens_out)
    _say(args, f"tokenized {len(tokenized)} reviews (surrogates {mode})")
    _write_manifest(args, out_dir, "preprocess", config, inputs, [tokens_out])


def cmd_lda(args) -> None:
    config = _resolve_config(
        args,
        {"topics": 8, "alpha": None, "beta": 0.01, "iterations": 1000, "top_words": 15, "seed": 42},
    )
    out_dir = args.out_dir
    if config["top_words"] < 1:
        raise CliError(f"--top-words must be >= 1, got {config['top_words']}")
    tokenized = TokenizedCorpus.load(args.tokens)
    try:
        cfg = LdaConfig(
            K=config["topics"],
            alpha=config["alpha"],
            beta=config["beta"],
            iterations=config["iterations"],
            seed=config["seed"],
        )
        model = fit_lda(list(tokenized.docs), cfg, doc_ids=list(tokenized.ids))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    model_out = os.path.join(out_dir, "lda_model.json")
    model.save(model_out)
    heatmap_out = os.path.join(out_dir, "heatmap.csv")
    export_heatmap(model, heatmap_out)
    n_top = min(config["top_words"], len(model.vocab))
    listing = []
    for k in range(cfg.K):
        pairs = top_words(model, k, n_top)
        listing.append(f"topic_{k}\t" + " ".join(f"{w}:{p:.6f}" for w, p in pairs))
    words_out = os.path.join(out_dir, "top_words.txt")
    write_text_atomic(words_out, "\n".join(listing) + "\n")
    # config echo with the derived alpha, for reproducibility
    config["alpha"] = cfg.alpha
    _say(args, f"fitted {cfg.K}-topic model on {model.n_docs} documents")
    _write_manifest(args, out_dir, "lda", config, [args.tokens], [model_out, heatmap_out, words_out])


# Config key -> Hyperparams field.  Each key is also a flag (--nb-smoothing
# for nb_smoothing) typed as the field's default.
_HYPER_FIELDS = {
    "nb_smoothing": "l",
    "lr_eta": "eta",
    "lr_lambda": "lam",
    "lr_epochs": "lr_epochs",
    "svm_c": "C",
    "svm_epochs": "svm_epochs",
}
_HYPER_DEFAULTS = {key: getattr(Hyperparams(), name) for key, name in _HYPER_FIELDS.items()}


def _hyperparams_from_config(config: dict) -> Hyperparams:
    return Hyperparams(**{name: config[key] for key, name in _HYPER_FIELDS.items()})


def cmd_train(args) -> None:
    config = _resolve_config(
        args,
        {
            "method": SVM,
            "selector": CHI2,
            "sizes": ",".join(str(s) for s in DEFAULT_BUDGETS),
            "seed": 42,
            **_HYPER_DEFAULTS,
        },
    )
    out_dir = args.out_dir
    budgets = _parse_sizes(config["sizes"], n=N_CATEGORIES)
    tokenized = TokenizedCorpus.load(args.tokens)
    _require_labeled(tokenized, args.tokens)
    vc = VectorizedCorpus.from_tokens(tokenized.docs, tokenized.labels)
    if not len(vc.vocab):
        raise CliError(f"the vocabulary built from {args.tokens} is empty (every review has no tokens)")
    try:
        model = train_ovr(
            vc,
            method=config["method"],
            per_class_feature_sizes=budgets,
            selector=config["selector"],
            hyperparams=_hyperparams_from_config(config),
            seed=config["seed"],
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    outputs = save_ovr(model, os.path.join(out_dir, "model"))
    for member in model.members:
        path = os.path.join(out_dir, "rankings", f"class_{int(member.category)}.json")
        member.ranking.save(path)
        outputs.append(path)
    stubs = [int(m.category) for m in model.members if m.stub]
    if stubs:
        _say(args, f"warning: degenerate categories trained as stubs: {stubs}")
    _say(args, f"trained 8 {config['method']} members over {len(vc.vocab)}-term vocabulary")
    _write_manifest(args, out_dir, "train", config, [args.tokens], outputs)


def cmd_evaluate(args) -> None:
    config = _resolve_config(args, {"seed": 42})
    out_dir = args.out_dir
    model = load_ovr(args.model)
    tokenized = TokenizedCorpus.load(args.tokens)
    _require_labeled(tokenized, args.tokens)
    per_category, multi = ovr_accuracies(model, tokenized)
    lines = ["category,accuracy", *(f"{c},{acc:.6f}" for c, acc in enumerate(per_category)), f"multiclass,{multi:.6f}"]
    eval_out = os.path.join(out_dir, "evaluation.csv")
    write_text_atomic(eval_out, "\n".join(lines) + "\n")
    model_inputs = sorted(glob.glob(os.path.join(args.model, "*.json")))
    _say(args, f"multiclass accuracy {multi:.4f} on {len(tokenized)} reviews")
    _write_manifest(args, out_dir, "evaluate", config, [args.tokens, *model_inputs], [eval_out])


def _experiment_config(config: dict, stoplist, rotation=None, rotations=None) -> ExperimentConfig:
    return ExperimentConfig(
        methods=tuple(config["methods"].split(",")) if isinstance(config["methods"], str) else tuple(config["methods"]),
        selector=config["selector"],
        feature_sizes=_parse_sizes(config["sizes"]),
        rotation=rotation,
        rotations=rotations,
        surrogate_mode=config["surrogates"],
        sweep_method=config["method"],
        per_class_budgets=_parse_sizes(config["budgets"], n=N_CATEGORIES),
        hyperparams=_hyperparams_from_config(config),
        stopwords=stoplist,
        per_series_cap=config["per_series_cap"],
        seed=config["seed"],
    )


_EXPERIMENT_DEFAULTS = {
    "methods": "nb,lr,svm",
    "method": SVM,
    "selector": CHI2,
    "sizes": "250,500,1000,2000,4000",
    "budgets": ",".join(str(s) for s in DEFAULT_BUDGETS),
    "surrogates": SURROGATE_OFF,
    "per_series_cap": 5000,
    "seed": 42,
    **_HYPER_DEFAULTS,
}


def _load_text_inputs(args):
    """The filtered corpus, knowledge bases, stoplist and segmenter that the
    text pipeline reads, and the input files they came from."""
    corpus = _load_filtered(args.corpus)
    kbs, kb_files = _load_kb_dir(args.kb_dir)
    stoplist = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    inputs = [args.corpus, *kb_files, *(path for path in (args.stopwords, args.dict) if path)]
    return corpus, (kbs or None), stoplist, _build_segmenter(args.dict), inputs


def cmd_sweep(args) -> None:
    config = _resolve_config(args, dict(_EXPERIMENT_DEFAULTS))
    out_dir = args.out_dir
    corpus, kbs, stoplist, seg, inputs = _load_text_inputs(args)
    rotation = _parse_rotation(args.rotation) if args.rotation else None
    exp = _experiment_config(config, stoplist, rotation=rotation)
    sweep_out = os.path.join(out_dir, "sweep.csv")
    try:
        feature_size_sweep(corpus, exp, kbs=kbs, seg=seg, out_csv=sweep_out)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _say(args, f"swept {len(exp.feature_sizes)} feature sizes x 8 categories")
    _write_manifest(args, out_dir, "sweep", config, inputs, [sweep_out])


def cmd_cross_series(args) -> None:
    config = _resolve_config(args, dict(_EXPERIMENT_DEFAULTS))
    out_dir = args.out_dir
    corpus, kbs, stoplist, seg, inputs = _load_text_inputs(args)
    if not kbs:
        raise CliError("cross-series requires --kb-dir (the surrogate-on arm needs knowledge bases)")
    rotations = _parse_rotations(args.rotations)
    exp = _experiment_config(config, stoplist, rotations=rotations)
    table_out = os.path.join(out_dir, "crossseries.csv")
    try:
        table = cross_series_experiment(corpus, kbs, exp, seg=seg, out_csv=table_out)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    multi_lines = ["rotation,surrogate,accuracy"]
    for (rotation, mode), value in sorted(table.multiclass.items()):
        multi_lines.append(f"{rotation},{mode},{value:.6f}")
    multi_out = os.path.join(out_dir, "crossseries_multiclass.csv")
    write_text_atomic(multi_out, "\n".join(multi_lines) + "\n")
    _say(args, f"cross-series table: {len(table.generalization)} cells")
    _write_manifest(args, out_dir, "cross-series", config, inputs, [table_out, multi_out])


def cmd_synth(args) -> None:
    config = _resolve_config(args, {"preset": "ablation", "seed": None})
    out_dir = args.out_dir
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            try:
                spec = SyntheticSpec.from_dict(json.load(fh))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise CliError(f"invalid synthetic spec {args.spec}: {exc}") from None
    elif config["preset"] == "sweep":
        spec = SyntheticSpec.sweep_default()
    elif config["preset"] == "ablation":
        spec = SyntheticSpec.ablation_default()
    else:
        raise CliError(f"unknown preset {config['preset']!r}; expected 'ablation' or 'sweep'")
    if config["seed"] is not None:
        spec = SyntheticSpec.from_dict({**spec.to_dict(), "seed": config["seed"]})
    corpus, kbs = generate_synthetic(spec)
    corpus_out = os.path.join(out_dir, "corpus.jsonl")
    _write_corpus(corpus, corpus_out)
    outputs = [corpus_out]
    kb_dir = os.path.join(out_dir, "kb")
    for series in sorted(kbs):
        kb = kbs[series]
        doc = {
            "series": kb.series,
            "roles": [
                {"name": e.canonical_name, "aliases": list(e.aliases), "rank": e.rank} for e in kb.roles
            ],
            "actors": [
                {"name": e.canonical_name, "aliases": list(e.aliases), "rank": e.rank} for e in kb.actors
            ],
        }
        path = os.path.join(kb_dir, f"{series}.json")
        write_json_atomic(path, doc)
        outputs.append(path)
    spec_out = os.path.join(out_dir, "synth_spec.json")
    write_json_atomic(spec_out, spec.to_dict())
    outputs.append(spec_out)
    config["seed"] = spec.seed
    inputs = [args.spec] if args.spec else []
    _say(args, f"generated {len(corpus)} reviews across {len(kbs)} series")
    _write_manifest(args, out_dir, "synth", config, inputs, outputs)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 42)")
    parser.add_argument("--config", default=None, help="JSON config file; flags take precedence")
    parser.add_argument("--out-dir", required=True, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revclass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"revclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus and apply the annotator-agreement filter")
    p.add_argument("--corpus", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="substitute surrogate tags, tokenize, remove stop words")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kb-dir", default=None, help="directory of per-series knowledge-base JSON files")
    p.add_argument("--stopwords", default=None)
    p.add_argument("--dict", default=None, help="dictionary file for the longest-match segmenter")
    p.add_argument("--surrogates", choices=(SURROGATE_ON, SURROGATE_OFF), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("lda", help="fit a collapsed-Gibbs topic model and export heat-map data")
    p.add_argument("--tokens", required=True)
    p.add_argument("--topics", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--top-words", type=int, default=None, dest="top_words")
    _add_common(p)
    p.set_defaults(func=cmd_lda)

    p = sub.add_parser("train", help="train the eight one-vs-rest members")
    p.add_argument("--tokens", required=True)
    p.add_argument("--method", choices=CLASSIFIERS, default=None)
    p.add_argument("--selector", choices=METHODS, default=None)
    p.add_argument("--sizes", default=None, help="per-class feature budgets (1 or 8 comma-separated)")
    _add_hyper_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a labeled tokenized corpus")
    p.add_argument("--model", required=True, help="model directory written by 'train'")
    p.add_argument("--tokens", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="accuracy vs feature size grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kb-dir", default=None)
    p.add_argument("--stopwords", default=None)
    p.add_argument("--dict", default=None)
    p.add_argument("--surrogates", choices=(SURROGATE_ON, SURROGATE_OFF), default=None)
    p.add_argument("--sizes", default=None, help="comma-separated feature sizes")
    p.add_argument("--method", choices=CLASSIFIERS, default=None, help="sweep classifier")
    p.add_argument("--selector", choices=METHODS, default=None)
    p.add_argument("--rotation", default=None, help="train pair and test series, 'a,b:c'")
    p.add_argument("--per-series-cap", type=int, default=None, dest="per_series_cap")
    _add_hyper_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cross-series", help="train-two/test-one rotations, surrogates on vs off")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kb-dir", required=True)
    p.add_argument("--stopwords", default=None)
    p.add_argument("--dict", default=None)
    p.add_argument("--methods", default=None, help="comma-separated classifiers to average over")
    p.add_argument("--selector", choices=METHODS, default=None)
    p.add_argument("--budgets", default=None, help="per-class feature budgets (1 or 8 values)")
    p.add_argument("--rotations", default=None, help="semicolon-separated rotations 'a,b:c;...'")
    p.add_argument("--per-series-cap", type=int, default=None, dest="per_series_cap")
    _add_hyper_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_cross_series)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus with knowledge bases")
    p.add_argument("--spec", default=None, help="synthetic-spec JSON file")
    p.add_argument("--preset", choices=("ablation", "sweep"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    for key, default in _HYPER_DEFAULTS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=type(default), default=None, dest=key)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CliError, CorpusFormatError, KnowledgeBaseError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
