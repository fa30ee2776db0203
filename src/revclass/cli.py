"""Command-line entry point wiring the pipeline into reproducible runs.

Every command writes its outputs atomically plus a run manifest capturing
the effective configuration, input digests, and seeds; reruns with identical
inputs and seeds are byte-identical (manifest timestamp aside).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import glob
import hashlib
import inspect
import itertools
import os
import sys

from revclass import __version__
from revclass.classify import DEFAULT_BUDGETS, HYPER_FIELDS, Hyperparams, SVM, load_ovr, save_ovr, train_ovr
from revclass.corpus import INT64_MAX, MAX_TABLE_CELLS, N_CATEGORIES, Field, agreement_filter, check, fits, integer, one_of
from revclass.corpus import NON_EMPTY, load_corpus, read_json, write_corpus, write_csv, write_json_atomic, write_text_atomic
from revclass.evaluate import EXPERIMENT_FIELDS, ExperimentConfig, SURROGATE_ON, SyntheticSpec, cross_series_experiment
from revclass.evaluate import feature_size_sweep, generate_synthetic, ovr_accuracies, plan_splits, tokenize_reviews
from revclass.preprocess import KnowledgeBase, TokenizedCorpus, VectorizedCorpus, WhitespaceSegmenter, load_dictionary
from revclass.preprocess import load_knowledge_base, load_stopwords, token_lines, write_knowledge_base
from revclass.topic_model import LDA_FIELDS, LdaConfig, export_heatmap, fit_lda, top_words

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


def _check_cells(cells: int, flag: str, table: str) -> None:
    phrase = f"at most {MAX_TABLE_CELLS} cells, not {cells}"
    check(cells, Field(int, most=MAX_TABLE_CELLS, phrase=phrase), f"{flag}: {table}", CliError)


def _claim_out_dir(args) -> None:
    """One run per directory: an ``--out-dir`` whose run manifest names
    another command is refused before any input is read.  A rerun of the same
    command overwrites its own outputs, and other files refuse no directory."""
    path = os.path.join(args.out_dir, MANIFEST_NAME)
    if os.path.exists(path):
        manifest = check(read_json(path, CliError), Field(dict, fields={"command": NON_EMPTY}), path, CliError)
        if manifest["command"] != args.command:
            run = f"its {MANIFEST_NAME} is of command {manifest['command']!r}"
            raise CliError(f"--out-dir {args.out_dir}: {run}, so command {args.command!r} needs another directory")


def _resolve_config(args) -> dict:
    """The command's settings (see :func:`_setting`): a flag's value over the
    config file's over the default.  The config file is checked as one closed
    object of the command's settings, naming the file and the key, and a flag
    by its setting's field, naming the flag, before the command reads any input."""
    file_config = read_json(args.config, CliError) if args.config else {}
    settings = Field(dict, fields={key: field for key, (_, field) in args.settings.items()}, closed=True)
    check(file_config, settings, args.config, CliError)
    config = {}
    for key, (default, field) in args.settings.items():
        flag = getattr(args, key)
        if flag is not None:
            check(flag, field, "--" + key.replace("_", "-"), CliError)
        config[key] = file_config.get(key, default) if flag is None else flag
    return config


def _write_manifest(args, config: dict, inputs: list, outputs: list) -> None:
    path = os.path.join(args.out_dir, MANIFEST_NAME)
    manifest = {
        "command": args.command,
        "config": config,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [os.path.relpath(p, args.out_dir) for p in outputs],
        "seed": config["seed"],
        "tool_version": __version__,
    }
    write_json_atomic(path, manifest)
    _say(args, f"wrote {path}")


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


def _sizes(raw, n: int = 0) -> tuple[int, ...]:
    """The integers that a size-list value, a list or a comma-separated
    string, lists, one of them repeated ``n`` times; () when it lists
    anything else."""
    try:
        text = ",".join(map(str, raw)) if isinstance(raw, list) else raw
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        return ()
    return sizes * n if n and len(sizes) == 1 else sizes


_class_sizes = functools.partial(_sizes, n=N_CATEGORIES)


def _methods(raw) -> tuple:
    """The classifiers that a list or a comma-separated string names."""
    return tuple(raw.split(",") if isinstance(raw, str) else raw)


def _parse_rotation(raw: str):
    """'a,b:c' as ((a, b), c): three names, none of them empty."""
    parts = raw.split(":")
    names = [name.strip() for name in (*parts[0].split(","), *parts[1:])]
    if len(parts) != 2 or len(names) != 3 or not all(names):
        raise CliError(f"invalid rotation {raw!r}; expected 'trainA,trainB:test'")
    return (tuple(names[:2]), names[2])


def _require_labeled(tokenized: TokenizedCorpus, source: str) -> None:
    missing = sum(1 for lab in tokenized.labels if lab is None)
    if missing:
        raise CliError(f"{source}: {missing} review(s) lack labels; run 'revclass ingest' first")


# ---------------------------------------------------------------------------
# Subcommands: cmd_<name>(args, config) writes the command's outputs and
# returns (input files, output files, summary line) for main to record.
# ---------------------------------------------------------------------------


def cmd_ingest(args, config):
    corpus = load_corpus(args.corpus)
    filtered, drops = agreement_filter(corpus)
    corpus_out = os.path.join(args.out_dir, "corpus.filtered.jsonl")
    write_corpus(filtered, corpus_out)
    report = {
        "input_reviews": len(corpus),
        "kept": len(filtered),
        "dropped": drops,
        "per_series_kept": {s: len(ix) for s, ix in filtered.series_index.items()},
    }
    report_out = os.path.join(args.out_dir, "ingest_report.json")
    write_json_atomic(report_out, report)
    return [args.corpus], [corpus_out, report_out], f"kept {len(filtered)}/{len(corpus)} reviews (drops: {drops})"


def cmd_preprocess(args, config):
    mode = config["surrogates"]
    corpus, kbs, stoplist, seg, inputs = _load_text_inputs(args, config)
    docs = tokenize_reviews(corpus, seg, stoplist, kbs, mode)
    tokens_out = os.path.join(args.out_dir, "tokens.jsonl")
    # Each review's line is written as it is tokenized; json writes a Category label as its int.
    ids, series = [r.id for r in corpus.reviews], [r.series for r in corpus.reviews]
    write_text_atomic(tokens_out, token_lines(ids, series, docs, corpus.labels))
    return inputs, [tokens_out], f"tokenized {len(corpus)} reviews (surrogates {mode})"


def cmd_lda(args, config):
    out_dir = args.out_dir
    tokenized = TokenizedCorpus.load(args.tokens)
    D, V = sum(map(bool, tokenized.docs)), len(set(itertools.chain.from_iterable(tokenized.docs)))  # as fit_lda counts
    _check_cells(config["topics"] * (D + V), "--topics", f"the Gibbs counts over {D} documents and {V} terms")
    cfg = LdaConfig(
        K=config["topics"],
        alpha=config["alpha"],
        beta=config["beta"],
        iterations=config["iterations"],
        seed=config["seed"],
    )
    model = fit_lda(list(tokenized.docs), cfg, doc_ids=list(tokenized.ids))
    model_out = os.path.join(out_dir, "lda_model.json")
    model.save(model_out)
    heatmap_out = os.path.join(out_dir, "heatmap.csv")
    export_heatmap(model, heatmap_out)
    n_top = min(config["top_words"], len(model.vocab))
    listing = [f"topic_{k}\t" + " ".join(f"{w}:{p:.6f}" for w, p in top_words(model, k, n_top)) for k in range(cfg.K)]
    words_out = os.path.join(out_dir, "top_words.txt")
    write_text_atomic(words_out, "\n".join(listing) + "\n")
    # config echo with the derived alpha, for reproducibility
    config["alpha"] = cfg.alpha
    return [args.tokens], [model_out, heatmap_out, words_out], f"fitted {cfg.K}-topic model on {model.n_docs} documents"


# Setting -> the Hyperparams field it sets (--nb-smoothing sets l).
_HYPER_SETTINGS = {
    "nb_smoothing": "l",
    "lr_eta": "eta",
    "lr_lambda": "lam",
    "lr_epochs": "lr_epochs",
    "svm_c": "C",
    "svm_epochs": "svm_epochs",
}


def _hyperparams_from_config(config: dict) -> Hyperparams:
    return Hyperparams(**{name: config[key] for key, name in _HYPER_SETTINGS.items()})


def cmd_train(args, config):
    budgets = _class_sizes(config["sizes"])
    tokenized = TokenizedCorpus.load(args.tokens)
    _require_labeled(tokenized, args.tokens)
    vc = VectorizedCorpus.from_tokens(tokenized.docs, tokenized.labels)
    if not len(vc.vocab):
        raise CliError(f"the vocabulary built from {args.tokens} is empty (every review has no tokens)")
    if config["method"] == SVM:
        _check_cells(config["svm_epochs"] * len(vc) // 2, "--svm-epochs", f"the SVM's harmonic sums over {len(vc)} reviews")
    model = train_ovr(
        vc,
        method=config["method"],
        per_class_feature_sizes=budgets,
        selector=config["selector"],
        hyperparams=_hyperparams_from_config(config),
        seed=config["seed"],
    )
    outputs = save_ovr(model, os.path.join(args.out_dir, "model"))
    for member in model.members:
        path = os.path.join(args.out_dir, "rankings", f"class_{int(member.category)}.json")
        member.ranking.save(path)
        outputs.append(path)
    stubs = [int(m.category) for m in model.members if m.stub]
    if stubs:
        _say(args, f"warning: degenerate categories trained as stubs: {stubs}")
    return [args.tokens], outputs, f"trained 8 {config['method']} members over {len(vc.vocab)}-term vocabulary"


def cmd_evaluate(args, config):
    model = load_ovr(args.model)
    tokenized = TokenizedCorpus.load(args.tokens)
    if not len(tokenized):
        raise CliError(f"{args.tokens}: no reviews to evaluate")
    _require_labeled(tokenized, args.tokens)
    per_category, multi = ovr_accuracies(model, tokenized)
    eval_out = os.path.join(args.out_dir, "evaluation.csv")
    write_csv(eval_out, ("category", "accuracy"), [*enumerate(per_category), ("multiclass", multi)])
    return [args.tokens, *model.files], [eval_out], f"multiclass accuracy {multi:.4f} on {len(tokenized)} reviews"


def _load_text_inputs(args, config: dict):
    """The filtered corpus, knowledge bases, stoplist and segmenter that the
    text pipeline reads, and the input files they came from; surrogates on
    without --kb-dir fails before any of them is read."""
    if config.get("surrogates") == SURROGATE_ON and args.kb_dir is None:
        raise CliError("surrogates on requires --kb-dir")
    corpus, _ = agreement_filter(load_corpus(args.corpus))
    kbs, kb_files = _load_kb_dir(args.kb_dir)
    stoplist = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    seg = load_dictionary(args.dict) if args.dict else WhitespaceSegmenter()
    inputs = [args.corpus, *kb_files, *(path for path in (args.stopwords, args.dict) if path)]
    return corpus, (kbs or None), stoplist, seg, inputs


def _experiment(args, config: dict, **fields):
    """The ExperimentConfig of sweep and cross-series, from their shared
    settings and a command's own ``fields`` and checked before any input is
    read, holding the stop list; then :func:`_load_text_inputs`' other returns."""
    exp = ExperimentConfig(selector=config["selector"], hyperparams=_hyperparams_from_config(config),
                           per_series_cap=config["per_series_cap"], seed=config["seed"], **fields)
    corpus, kbs, stoplist, seg, inputs = _load_text_inputs(args, config)
    return dataclasses.replace(exp, stopwords=stoplist), corpus, kbs, seg, inputs


def _check_svm_epochs(config: dict, corpus, rotations) -> None:
    """Bound --svm-epochs as train does, before any training, by the largest training split of :func:`plan_splits`."""
    n = max(sum(len(corpus.series_index.get(s, ())) for s in pair) for pair, _ in rotations)
    _check_cells(config["svm_epochs"] * n // 2, "--svm-epochs", f"the SVM's harmonic sums over {n} reviews")


def cmd_sweep(args, config):
    exp, corpus, kbs, seg, inputs = _experiment(
        args, config, feature_sizes=_sizes(config["sizes"]), sweep_method=config["method"],
        surrogate_mode=config["surrogates"], rotation=_parse_rotation(args.rotation) if args.rotation else None)
    sweep_out = os.path.join(args.out_dir, "sweep.csv")
    if exp.sweep_method == SVM:
        _check_svm_epochs(config, *plan_splits(corpus, exp, sweep=True))
    feature_size_sweep(corpus, exp, kbs=kbs, seg=seg, out_csv=sweep_out)
    return inputs, [sweep_out], f"swept {len(exp.feature_sizes)} feature sizes x 8 categories"


def cmd_cross_series(args, config):
    out_dir = args.out_dir
    exp, corpus, kbs, seg, inputs = _experiment(
        args, config, methods=_methods(config["methods"]), per_class_budgets=_class_sizes(config["budgets"]),
        rotations=tuple(_parse_rotation(part) for part in (args.rotations or "").split(";") if part.strip()))
    table_out = os.path.join(out_dir, "crossseries.csv")
    if SVM in exp.methods:
        _check_svm_epochs(config, *plan_splits(corpus, exp))
    table = cross_series_experiment(corpus, kbs, exp, seg=seg, out_csv=table_out)
    multi_out = os.path.join(out_dir, "crossseries_multiclass.csv")
    write_csv(multi_out, ("rotation", "surrogate", "accuracy"), [(*k, v) for k, v in sorted(table.multiclass.items())])
    return inputs, [table_out, multi_out], f"cross-series table: {len(table.generalization)} cells"


def cmd_synth(args, config):
    out_dir = args.out_dir
    try:
        spec = SyntheticSpec.from_dict(read_json(args.spec, CliError)) if args.spec else _PRESETS[config["preset"]]()
        if config["seed"] is not None:
            spec = SyntheticSpec.from_dict({**spec.to_dict(), "seed": config["seed"]})
        corpus, kbs = generate_synthetic(spec)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{args.spec or config['preset']}: {exc}") from None
    corpus_out = os.path.join(out_dir, "corpus.jsonl")
    write_corpus(corpus, corpus_out)
    outputs = [corpus_out]
    kb_dir = os.path.join(out_dir, "kb")
    for series in sorted(kbs):
        path = os.path.join(kb_dir, f"{series}.json")
        write_knowledge_base(kbs[series], path)
        outputs.append(path)
    spec_out = os.path.join(out_dir, "synth_spec.json")
    write_json_atomic(spec_out, spec.to_dict())
    outputs.append(spec_out)
    config["seed"] = spec.seed
    return [args.spec] if args.spec else [], outputs, f"generated {len(corpus)} reviews across {len(kbs)} series"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _command(sub, name: str, summary: str, seed=42) -> argparse.ArgumentParser:
    """Subcommand ``name``, with the flags every command has; :func:`main`
    runs it through the module attribute ``cmd_<name>``."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(settings={})
    _setting(parser, "seed", seed, integer(0), help="RNG seed (default 42; synth: the spec's)")
    parser.add_argument("--config", default=None, help="JSON config file; flags take precedence")
    parser.add_argument("--out-dir", required=True, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    return parser


def _setting(parser: argparse.ArgumentParser, key: str, default, field: Field, **flag) -> None:
    """Declare setting ``key`` of a command as its flag ``--key`` (underscores
    as dashes), the one place the setting, its default and its values are
    defined: ``field`` declares the values that :func:`_resolve_config` takes
    (null only where the default is None), and types the flag."""
    field = dataclasses.replace(field, nullable=default is None, optional=True)
    kind = field.type if field.type in (int, float) else None
    choices = field.choices or None
    parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None, type=kind, choices=choices, **flag)
    parser.get_default("settings")[key] = (default, field)


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    for key, name in _HYPER_SETTINGS.items():
        _setting(parser, key, getattr(Hyperparams(), name), HYPER_FIELDS[name])


def _add_experiment_settings(parser: argparse.ArgumentParser) -> None:
    """The settings that :func:`_experiment` reads for both experiments."""
    _setting(parser, "selector", ExperimentConfig.selector, EXPERIMENT_FIELDS["selector"])
    _setting(parser, "per_series_cap", ExperimentConfig.per_series_cap, EXPERIMENT_FIELDS["per_series_cap"])
    _add_hyper_flags(parser)


def _listed(field: Field, parse) -> Field:
    """A setting given as a list or a comma-separated string, which ``parse``
    turns into a value that ``field`` declares."""
    phrase = f"{field.phrase}, listed or comma-separated"
    return Field((str, list), phrase=phrase, test=lambda raw: fits(parse(raw), field))


def _add_text_inputs(parser: argparse.ArgumentParser, kb_required: bool = False) -> None:
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--kb-dir", required=kb_required, help="directory of per-series knowledge-base JSON files")
    parser.add_argument("--stopwords", default=None)
    parser.add_argument("--dict", default=None, help="dictionary file for the longest-match segmenter")


_BUDGETS = ",".join(str(s) for s in DEFAULT_BUDGETS)
_CLASS_SIZES = _listed(
    Field(tuple, N_CATEGORIES, N_CATEGORIES, f"1 or {N_CATEGORIES} integers in [1, {INT64_MAX}]", integer(1)),
    _class_sizes,
)
_TRAIN_OVR = inspect.signature(train_ovr).parameters  # train's defaults
_PRESETS = {"ablation": SyntheticSpec.ablation_default, "sweep": SyntheticSpec.sweep_default}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revclass", description=__doc__)
    parser.add_argument("--version", action="version", version=f"revclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "ingest", "validate a corpus and apply the annotator-agreement filter")
    p.add_argument("--corpus", required=True)

    p = _command(sub, "preprocess", "substitute surrogate tags, tokenize, remove stop words")
    _add_text_inputs(p)
    _setting(p, "surrogates", ExperimentConfig.surrogate_mode, EXPERIMENT_FIELDS["surrogate_mode"])

    p = _command(sub, "lda", "fit a collapsed-Gibbs topic model and export heat-map data")
    p.add_argument("--tokens", required=True)
    _setting(p, "topics", LdaConfig.K, LDA_FIELDS["K"])
    _setting(p, "alpha", LdaConfig.alpha, LDA_FIELDS["alpha"], help="document-topic prior (default 50/topics)")
    _setting(p, "beta", LdaConfig.beta, LDA_FIELDS["beta"])
    _setting(p, "iterations", LdaConfig.iterations, LDA_FIELDS["iterations"])
    _setting(p, "top_words", 15, integer(1))

    p = _command(sub, "train", "train the eight one-vs-rest members")
    p.add_argument("--tokens", required=True)
    _setting(p, "method", _TRAIN_OVR["method"].default, EXPERIMENT_FIELDS["sweep_method"])
    _setting(p, "selector", _TRAIN_OVR["selector"].default, EXPERIMENT_FIELDS["selector"])
    _setting(p, "sizes", _BUDGETS, _CLASS_SIZES, help="per-class feature budgets (1 or 8 comma-separated)")
    _add_hyper_flags(p)

    p = _command(sub, "evaluate", "score a trained model on a labeled tokenized corpus")
    p.add_argument("--model", required=True, help="model directory written by 'train'")
    p.add_argument("--tokens", required=True)

    p = _command(sub, "sweep", "accuracy vs feature size grid")
    _add_text_inputs(p)
    _setting(p, "surrogates", ExperimentConfig.surrogate_mode, EXPERIMENT_FIELDS["surrogate_mode"])
    sizes = _listed(EXPERIMENT_FIELDS["feature_sizes"], _sizes)
    _setting(p, "sizes", ",".join(map(str, ExperimentConfig.feature_sizes)), sizes, help="comma-separated feature sizes")
    _setting(p, "method", ExperimentConfig.sweep_method, EXPERIMENT_FIELDS["sweep_method"], help="sweep classifier")
    p.add_argument("--rotation", default=None, help="train pair and test series, 'a,b:c'")
    _add_experiment_settings(p)

    p = _command(sub, "cross-series", "train-two/test-one rotations, surrogates on vs off")
    _add_text_inputs(p, kb_required=True)
    methods = _listed(EXPERIMENT_FIELDS["methods"], _methods)
    _setting(p, "methods", ",".join(ExperimentConfig.methods), methods, help="comma-separated classifiers to average over")
    _setting(p, "budgets", _BUDGETS, _CLASS_SIZES, help="per-class feature budgets (1 or 8 values)")
    p.add_argument("--rotations", default=None, help="semicolon-separated rotations 'a,b:c;...'")
    _add_experiment_settings(p)

    p = _command(sub, "synth", "generate a seeded synthetic corpus with knowledge bases", seed=None)
    p.add_argument("--spec", default=None, help="synthetic-spec JSON file")
    _setting(p, "preset", "ablation", one_of(tuple(_PRESETS)))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: building it takes longer than parsing."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command: resolve its settings, run it, print its summary, write
    its run manifest.  A CliError, a ValueError (every input-format error is
    one) or an OSError exits 2, any other failure 1, printing the exception's
    message, or its type's name when it has none."""
    args = _parser().parse_args(argv)
    # The command is looked up when it runs, so a patched cmd_<name> is the one called.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _claim_out_dir(args)
        config = _resolve_config(args)
        inputs, outputs, summary = command(args, config)
        _say(args, summary)
        _write_manifest(args, config, inputs, outputs)
    except Exception as exc:  # noqa: BLE001 - every failure exits 2 or 1
        usage = isinstance(exc, (CliError, ValueError, OSError))
        print(f"{'error' if usage else 'runtime error'}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if usage else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
