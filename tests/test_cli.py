import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from revclass import classify, cli, feature_select
from revclass.cli import main
from revclass.corpus import Category, agreement_filter, load_corpus
from revclass.evaluate import tokenize_corpus
from revclass.preprocess import TokenizedCorpus, VectorizedCorpus, load_knowledge_base
from conftest import review_record, write_jsonl


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small generated corpus + knowledge bases shared by the module."""
    out = tmp_path_factory.mktemp("synth")
    spec = {
        "reviews_per_series": 48,
        "tokens_per_review": 10,
        "noise_vocab": [f"n{i}" for i in range(60)],
        "seed": 33,
    }
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert run(["synth", "--spec", spec_path, "--out-dir", out, "--quiet"]) == 0
    return out


def _read_manifest(out_dir):
    with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "corpus.jsonl").exists()
        assert (synth_dir / "kb" / "alpha.json").exists()
        assert (synth_dir / "synth_spec.json").exists()
        manifest = _read_manifest(synth_dir)
        assert manifest["command"] == "synth"
        assert manifest["tool_version"]

    def test_preset_sweep(self, tmp_path):
        assert run(["synth", "--preset", "sweep", "--out-dir", tmp_path, "--quiet"]) == 0
        spec = json.loads((tmp_path / "synth_spec.json").read_text(encoding="utf-8"))
        assert spec["mention_rate"] == [0.0] * 8


class TestIngest:
    def test_valid_corpus(self, synth_dir, tmp_path):
        code = run(["ingest", "--corpus", synth_dir / "corpus.jsonl", "--out-dir", tmp_path, "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "ingest_report.json").read_text(encoding="utf-8"))
        assert report["kept"] == report["input_reviews"] == 144
        assert (tmp_path / "corpus.filtered.jsonl").exists()

    def test_malformed_line_exits_2_citing_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        record = review_record("r0")
        del record["text"]
        write_jsonl(bad, [review_record("ok")])
        with open(bad, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        code = run(["ingest", "--corpus", bad, "--out-dir", tmp_path / "out", "--quiet"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_drop_report_matches_hand_count(self, tmp_path, ten_review_fixture):
        path = write_jsonl(tmp_path / "ten.jsonl", ten_review_fixture)
        code = run(["ingest", "--corpus", path, "--out-dir", tmp_path / "out", "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "ingest_report.json").read_text(encoding="utf-8"))
        assert report["kept"] == 6
        assert report["dropped"] == {"too_few_annotations": 1, "disagreement": 3}

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["ingest", "--corpus", tmp_path / "nope.jsonl", "--out-dir", tmp_path, "--quiet"]) == 2


@pytest.fixture(scope="module")
def pipeline(synth_dir, tmp_path_factory):
    """Filtered corpus -> tokens (surrogates on) -> trained model."""
    root = tmp_path_factory.mktemp("pipeline")
    ingest = root / "ingest"
    assert run(["ingest", "--corpus", synth_dir / "corpus.jsonl", "--out-dir", ingest, "--quiet"]) == 0
    tokens = root / "tokens"
    assert (
        run(
            [
                "preprocess",
                "--corpus", ingest / "corpus.filtered.jsonl",
                "--kb-dir", synth_dir / "kb",
                "--surrogates", "on",
                "--out-dir", tokens,
                "--quiet",
            ]
        )
        == 0
    )
    model = root / "train"
    assert (
        run(
            [
                "train",
                "--tokens", tokens / "tokens.jsonl",
                "--method", "nb",
                "--sizes", "50",
                "--out-dir", model,
                "--quiet",
            ]
        )
        == 0
    )
    return {"root": root, "ingest": ingest, "tokens": tokens, "train": model, "synth": synth_dir}


class TestPreprocess:
    def test_surrogates_on_removes_names(self, pipeline):
        data = (pipeline["tokens"] / "tokens.jsonl").read_text(encoding="utf-8")
        assert "_hero" not in data and "_star" not in data
        assert "role_1" in data or "actor_1" in data

    def test_surrogates_off_keeps_names(self, pipeline, tmp_path):
        out = tmp_path / "off"
        code = run(
            [
                "preprocess",
                "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                "--surrogates", "off",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        assert "_hero" in (out / "tokens.jsonl").read_text(encoding="utf-8")

    def test_surrogates_on_without_kb_exits_2(self, pipeline, tmp_path):
        code = run(
            [
                "preprocess",
                "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                "--surrogates", "on",
                "--out-dir", tmp_path / "x",
                "--quiet",
            ]
        )
        assert code == 2

    def test_stopwords_applied(self, pipeline, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("# noise\nn0\nn1\n", encoding="utf-8")
        out = tmp_path / "sw"
        code = run(
            [
                "preprocess",
                "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                "--stopwords", stop,
                "--surrogates", "off",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        for line in (out / "tokens.jsonl").read_text(encoding="utf-8").splitlines():
            assert not {"n0", "n1"} & set(json.loads(line)["tokens"])

    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_streamed_tokens_file_is_tokenize_corpus_to_jsonl(self, pipeline, tmp_path, mode):
        corpus_path = pipeline["ingest"] / "corpus.filtered.jsonl"
        kb_dir = pipeline["synth"] / "kb"
        out = tmp_path / "tokens"
        argv = ["preprocess", "--corpus", corpus_path, "--kb-dir", kb_dir, "--surrogates", mode, "--out-dir", out]
        assert run([*argv, "--quiet"]) == 0
        corpus, _ = agreement_filter(load_corpus(corpus_path))
        kbs = {kb.series: kb for kb in map(load_knowledge_base, sorted(kb_dir.glob("*.json")))}
        expected = tokenize_corpus(corpus, kbs=kbs, surrogate_mode=mode).to_jsonl()
        assert (out / "tokens.jsonl").read_text(encoding="utf-8") == expected

    def test_missing_knowledge_base_exits_2_before_writing(self, pipeline, tmp_path, capsys):
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        shutil.copy(pipeline["synth"] / "kb" / "alpha.json", kb_dir)
        out = tmp_path / "tokens"
        argv = ["preprocess", "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl", "--kb-dir", kb_dir,
                "--surrogates", "on", "--out-dir", out, "--quiet"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: missing knowledge base for series: ['beta', 'gamma']\n"
        assert not out.exists()


class TestCjkRoundTrip:
    def test_dictionary_segmenter_and_cjk_kb_through_files(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(
            corpus,
            [
                review_record("r0", series="花千骨", text="白子画的台词真好", annotations=[3, 3]),
                review_record("r1", series="花千骨", text="小骨和白子画都好看", annotations=[2, 2]),
            ],
        )
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        (kb_dir / "huaqiangu.json").write_text(
            json.dumps(
                {
                    "series": "花千骨",
                    "roles": [
                        {"name": "白子画", "aliases": [], "rank": 1},
                        {"name": "花千骨", "aliases": ["小骨"], "rank": 2},
                    ],
                    "actors": [],
                },
                ensure_ascii=False,
            ),
            encoding="utf-8",
        )
        dictionary = tmp_path / "dict.txt"
        dictionary.write_text("台词\n好看\n真好\n", encoding="utf-8")
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("的\n和\n都\n", encoding="utf-8")

        out = tmp_path / "out"
        code = run(
            [
                "preprocess",
                "--corpus", corpus,
                "--kb-dir", kb_dir,
                "--dict", dictionary,
                "--stopwords", stopwords,
                "--surrogates", "on",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        lines = (out / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
        tokens = [json.loads(line)["tokens"] for line in lines]
        assert tokens[0] == ["role_1", "台词", "真好"]
        assert tokens[1] == ["role_2", "role_1", "好看"]


class TestLda:
    def test_outputs(self, pipeline, tmp_path):
        out = tmp_path / "lda"
        code = run(
            [
                "lda",
                "--tokens", pipeline["tokens"] / "tokens.jsonl",
                "--topics", "4",
                "--iterations", "20",
                "--seed", "5",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        model = json.loads((out / "lda_model.json").read_text(encoding="utf-8"))
        assert model["K"] == 4 and model["seed"] == 5
        heat = (out / "heatmap.csv").read_text(encoding="utf-8").splitlines()
        assert heat[0] == "doc_id,topic_0,topic_1,topic_2,topic_3"
        assert len(heat) == 145
        assert len((out / "top_words.txt").read_text(encoding="utf-8").splitlines()) == 4


class TestTrain:
    def test_model_files_written(self, pipeline):
        model_dir = pipeline["train"] / "model"
        names = sorted(os.listdir(model_dir))
        assert names == [f"member_{i}.json" for i in range(8)] + ["model_manifest.json"]
        member = json.loads((model_dir / "member_0.json").read_text(encoding="utf-8"))
        assert member["method"] == "nb" and member["category"] == 0
        assert len(member["vocabulary"]) <= 50

    def test_rankings_written(self, pipeline):
        rankings = pipeline["train"] / "rankings"
        assert sorted(os.listdir(rankings)) == [f"class_{i}.json" for i in range(8)]

    def test_unknown_method_usage_error(self, pipeline, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "train",
                    "--tokens", pipeline["tokens"] / "tokens.jsonl",
                    "--method", "forest",
                    "--out-dir", tmp_path,
                ]
            )
        assert exc.value.code == 2


class TestEvaluate:
    def test_csv_shape(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        code = run(
            [
                "evaluate",
                "--model", pipeline["train"] / "model",
                "--tokens", pipeline["tokens"] / "tokens.jsonl",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        lines = (out / "evaluation.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category,accuracy"
        assert len(lines) == 10
        assert lines[-1].startswith("multiclass,")


class TestSweepAndCrossSeries:
    def test_sweep_csv(self, pipeline, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            [
                "sweep",
                "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                "--sizes", "10,30",
                "--method", "nb",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category,size,train_acc,test_acc"
        assert len(lines) == 17

    def test_cross_series_csv(self, pipeline, tmp_path):
        out = tmp_path / "cross"
        code = run(
            [
                "cross-series",
                "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                "--kb-dir", pipeline["synth"] / "kb",
                "--methods", "nb",
                "--budgets", "50",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        lines = (out / "crossseries.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "category,rotation,surrogate,accuracy"
        assert len(lines) == 49
        multi = (out / "crossseries_multiclass.csv").read_text(encoding="utf-8").splitlines()
        assert multi[0] == "rotation,surrogate,accuracy"
        assert len(multi) == 7

    def test_invalid_rotation_exits_2(self, pipeline, tmp_path):
        code = run(
            [
                "sweep",
                "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                "--rotation", "alpha-beta-gamma",
                "--out-dir", tmp_path,
                "--quiet",
            ]
        )
        assert code == 2


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"topics": 3, "iterations": 10}), encoding="utf-8")
        out = tmp_path / "lda"
        code = run(
            [
                "lda",
                "--tokens", pipeline["tokens"] / "tokens.jsonl",
                "--config", config,
                "--topics", "2",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        manifest = _read_manifest(out)
        assert manifest["config"]["topics"] == 2  # flag wins
        assert manifest["config"]["iterations"] == 10  # config file beats default


class TestDeterminismAndManifest:
    def _compare_dirs(self, d1, d2):
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        for name in names:
            p1, p2 = os.path.join(d1, name), os.path.join(d2, name)
            if os.path.isdir(p1):
                self._compare_dirs(p1, p2)
            elif name == "run_manifest.json":
                m1 = json.loads(open(p1, encoding="utf-8").read())
                m2 = json.loads(open(p2, encoding="utf-8").read())
                m1.pop("created_at")
                m2.pop("created_at")
                # inputs are keyed by absolute paths, which differ across runs
                assert sorted(m1.pop("inputs").values()) == sorted(m2.pop("inputs").values())
                assert m1 == m2
            else:
                assert open(p1, "rb").read() == open(p2, "rb").read(), name

    def test_preprocess_rerun_byte_identical(self, pipeline, tmp_path):
        outs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            code = run(
                [
                    "preprocess",
                    "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                    "--kb-dir", pipeline["synth"] / "kb",
                    "--surrogates", "on",
                    "--out-dir", out,
                    "--quiet",
                ]
            )
            assert code == 0
            outs.append(out)
        self._compare_dirs(*outs)

    def test_train_rerun_byte_identical(self, pipeline, tmp_path):
        outs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            code = run(
                [
                    "train",
                    "--tokens", pipeline["tokens"] / "tokens.jsonl",
                    "--method", "svm",
                    "--sizes", "30",
                    "--svm-epochs", "5",
                    "--seed", "7",
                    "--out-dir", out,
                    "--quiet",
                ]
            )
            assert code == 0
            outs.append(out)
        self._compare_dirs(*outs)

    def test_manifest_records_digests_and_seed(self, pipeline):
        manifest = _read_manifest(pipeline["train"])
        assert manifest["seed"] == 42
        assert all(len(v) == 64 for v in manifest["inputs"].values())
        assert manifest["command"] == "train"


class TestConsoleScript:
    def test_version_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "revclass", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "revclass" in proc.stdout


class TestOneRankingPerClass:
    def test_train_ranks_each_class_once(self, pipeline, tmp_path, monkeypatch):
        ranked = []

        def counting(corpus, category, *args, **kwargs):
            ranked.append(int(category))
            return feature_select.rank_features(corpus, category, *args, **kwargs)

        monkeypatch.setattr(classify, "rank_features", counting)
        # a binding the CLI might hold of its own is counted too
        monkeypatch.setattr(cli, "rank_features", counting, raising=False)
        code = run(
            [
                "train",
                "--tokens", pipeline["tokens"] / "tokens.jsonl",
                "--method", "nb",
                "--sizes", "30",
                "--out-dir", tmp_path,
                "--quiet",
            ]
        )
        assert code == 0
        assert sorted(ranked) == list(range(8))

    def test_rankings_are_feature_ranking_save_output_stubs_included(self, pipeline, tmp_path):
        lines = (pipeline["tokens"] / "tokens.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        tokens = tmp_path / "two_labels.jsonl"
        tokens.write_text("".join(l for l in lines if json.loads(l)["label"] in (0, 1)), encoding="utf-8")
        out = tmp_path / "train"
        code = run(
            [
                "train",
                "--tokens", tokens,
                "--method", "nb",
                "--selector", "drc",
                "--sizes", "20",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 0
        members = [json.loads((out / "model" / f"member_{c}.json").read_text(encoding="utf-8")) for c in range(8)]
        stubs = [c for c in range(8) if "stub" in members[c]["parameters"]]
        assert stubs == [2, 3, 4, 5, 6, 7]
        tokenized = TokenizedCorpus.load(tokens)
        vc = VectorizedCorpus.from_tokens(tokenized.docs, tokenized.labels)
        for cat in Category:
            expected = tmp_path / f"expected_{int(cat)}.json"
            feature_select.rank_features(vc, cat, method="drc", k=min(20, len(vc.vocab))).save(expected)
            assert (out / "rankings" / f"class_{int(cat)}.json").read_bytes() == expected.read_bytes()


def _truncate(path):
    path.write_text(path.read_text(encoding="utf-8")[:200], encoding="utf-8")


def _edit(change):
    def apply(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        change(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")

    return apply


class TestBoundaryValidation:
    def test_unknown_config_key_exits_2_naming_file_and_key(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "nb", "sizs": "40"}), encoding="utf-8")
        out = tmp_path / "train"
        code = run(["train", "--tokens", pipeline["tokens"] / "tokens.jsonl", "--config", config, "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err and "'sizs'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            (_truncate, "invalid JSON"),
            (_edit(lambda d: d["parameters"].update(cond_pos=d["parameters"]["cond_pos"][:-5])), "'parameters.cond_pos'"),
            (_edit(lambda d: d["parameters"].pop("cond_neg")), "'parameters.cond_neg'"),
            (_edit(lambda d: d.update(method="svm")), "'method'"),
            (_edit(lambda d: d["parameters"]["cond_pos"].__setitem__(0, "0.5")), "'parameters.cond_pos'"),
            (_edit(lambda d: d["parameters"]["cond_pos"].__setitem__(0, None)), "'parameters.cond_pos'"),
            (_edit(lambda d: d["parameters"]["cond_pos"].__setitem__(0, [0.5])), "'parameters.cond_pos'"),
            (_edit(lambda d: d["parameters"]["cond_pos"].__setitem__(0, 2.0)), "'parameters.cond_pos'"),
            (_edit(lambda d: d["parameters"]["cond_pos"].__setitem__(0, 0.0)), "'parameters.cond_pos'"),
            (_edit(lambda d: d["parameters"]["cond_neg"].__setitem__(0, -0.5)), "'parameters.cond_neg'"),
            (_edit(lambda d: d["parameters"]["cond_neg"].__setitem__(0, float("nan"))), "'parameters.cond_neg'"),
            (_edit(lambda d: d["parameters"].update(log_prior_pos="-0.7")), "'parameters.log_prior_pos'"),
            (_edit(lambda d: d["parameters"].update(log_prior_neg=float("-inf"))), "'parameters.log_prior_neg'"),
            (_edit(lambda d: d["parameters"].update(smoothing=True)), "'parameters.smoothing'"),
            (_edit(lambda d: d["parameters"]["cond_pos"].__setitem__(0, True)), "'parameters.cond_pos'"),
            (_edit(lambda d: d["vocabulary"].__setitem__(0, 7)), "'vocabulary'"),
            (_edit(lambda d: d["vocabulary"].__setitem__(0, d["vocabulary"][1])), "'vocabulary'"),
            (_edit(lambda d: d.update(vocabulary="".join(d["vocabulary"]))), "'vocabulary'"),
            (_edit(lambda d: d.update(parameters=5)), "field 'parameters' must be a JSON object"),
            (_edit(lambda d: d.update(hyperparameters=[])), "field 'hyperparameters' must be a JSON object"),
            (_edit(lambda d: d["parameters"].update(stub="maybe")), "field 'parameters.stub' has unknown value 'maybe'"),
        ],
        ids=[
            "truncated", "short_cond_pos", "missing_field", "other_method",
            "string_cond_pos", "null_cond_pos", "nested_cond_pos", "cond_pos_above_1", "cond_pos_0", "negative_cond_neg",
            "nan_cond_neg", "string_log_prior", "infinite_log_prior", "bool_smoothing", "bool_cond_pos", "int_term", "repeated_term",
            "string_vocabulary", "number_parameters", "list_hyperparameters", "unknown_stub",
        ],
    )
    def test_bad_model_exits_2_naming_file_and_field(self, pipeline, tmp_path, capsys, corrupt, field):
        model = tmp_path / "model"
        shutil.copytree(pipeline["train"] / "model", model)
        corrupt(model / "member_3.json")
        out = tmp_path / "eval"
        code = run(["evaluate", "--model", model, "--tokens", pipeline["tokens"] / "tokens.jsonl", "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model / "member_3.json") in err and field in err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["train", "lda", "evaluate"])
    @pytest.mark.parametrize(
        "line, field",
        [
            ("not json", "invalid JSON"),
            ('{"id": "r0", "series": "s", "label": 0, "tokens": "plot twist"}', "'tokens'"),
        ],
        ids=["invalid_json", "string_tokens"],
    )
    def test_bad_tokens_file_exits_2_naming_file_line_and_field(self, pipeline, tmp_path, capsys, command, line, field):
        tokens = tmp_path / "tokens.jsonl"
        good = (pipeline["tokens"] / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
        tokens.write_text("\n".join(good[:2] + [line] + good[2:]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        extra = ["--model", pipeline["train"] / "model"] if command == "evaluate" else []
        code = run([command, "--tokens", tokens, *extra, "--out-dir", out, "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{tokens}: line 3:" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d["members"].__setitem__(1, "member_0.json"), "lists category 0 twice"),
            (lambda d: d["members"].pop(), "must list 8 member files, got 7"),
            (lambda d: d["members"].__setitem__(2, "nope.json"), "field 'members' names 'nope.json', which is not a file"),
        ],
        ids=["duplicate", "missing", "missing_file"],
    )
    def test_bad_manifest_members_exit_2_naming_manifest(self, pipeline, tmp_path, capsys, change, message):
        model = tmp_path / "model"
        shutil.copytree(pipeline["train"] / "model", model)
        _edit(change)(model / "model_manifest.json")
        out = tmp_path / "eval"
        code = run(["evaluate", "--model", model, "--tokens", pipeline["tokens"] / "tokens.jsonl", "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model / "model_manifest.json") in err and message in err
        assert not out.exists()

    def test_manifest_member_that_is_a_directory_exits_2_naming_manifest(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(pipeline["train"] / "model", model)
        (model / "sub").mkdir()
        _edit(lambda d: d["members"].__setitem__(2, "sub"))(model / "model_manifest.json")
        out = tmp_path / "eval"
        code = run(["evaluate", "--model", model, "--tokens", pipeline["tokens"] / "tokens.jsonl", "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {model / 'model_manifest.json'}: field 'members' names 'sub', which is not a file\n"
        assert not out.exists()

    def test_empty_vocabulary_exits_2_naming_tokens_file(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.jsonl"
        TokenizedCorpus(
            ids=tuple(f"r{i}" for i in range(6)),
            series=("s",) * 6,
            docs=((),) * 6,
            labels=tuple(range(6)),
        ).save(tokens)
        out = tmp_path / "train"
        code = run(["train", "--tokens", tokens, "--out-dir", out, "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"the vocabulary built from {tokens} is empty" in err
        assert not out.exists()

    @pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank_lines"])
    def test_evaluate_on_an_empty_tokens_file_exits_2_naming_it(self, pipeline, tmp_path, capsys, content):
        tokens = tmp_path / "tokens.jsonl"
        tokens.write_text(content, encoding="utf-8")
        out = tmp_path / "eval"
        code = run(["evaluate", "--model", pipeline["train"] / "model", "--tokens", tokens, "--out-dir", out])
        assert code == 2
        assert capsys.readouterr().err == f"error: {tokens}: no reviews to evaluate\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda kb: kb["roles"][0].update(aliases="ab"), "'roles[0]': aliases must be a list of strings"),
            (lambda kb: kb["actors"][1].update(rank="one"), "'actors[1]': rank must be an integer"),
            (lambda kb: kb["roles"][2].update(name=7), "'roles[2]': canonical_name must be a string"),
            (lambda kb: kb.update(roles={"name": "alpha_hero1", "rank": 1}), "field 'roles' must be a list"),
            (lambda kb: kb.update(actors="alpha_star1"), "field 'actors' must be a list"),
            (None, "invalid JSON"),
            (lambda kb: kb.pop("series"), "expected an object with a 'series' string"),
            (lambda kb: kb["roles"][0].pop("rank"), "field 'roles[0]' needs 'name' and 'rank'"),
            (lambda kb: kb["roles"][1].update(rank=0), "'roles[1]': 'alpha_hero2': rank must be >= 1"),
            (lambda kb: kb["actors"][0].update(aliases=[""]), "'actors[0]': alias must be non-empty"),
        ],
        ids=[
            "string_aliases", "string_rank", "number_name", "roles_object", "actors_string", "invalid_json",
            "no_series", "role_without_rank", "rank_0", "empty_alias",
        ],
    )
    def test_bad_knowledge_base_exits_2_naming_file_and_field(self, pipeline, tmp_path, capsys, change, field):
        kb_dir = tmp_path / "kb"
        shutil.copytree(pipeline["synth"] / "kb", kb_dir)
        if change is None:
            (kb_dir / "alpha.json").write_text('{"series": "alpha", "roles": [', encoding="utf-8")
        else:
            _edit(change)(kb_dir / "alpha.json")
        out = tmp_path / "pre"
        corpus = pipeline["ingest"] / "corpus.filtered.jsonl"
        code = run(["preprocess", "--corpus", corpus, "--kb-dir", kb_dir, "--surrogates", "on", "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kb_dir / 'alpha.json'}: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("files", [(), ("alpha.json", "alpha2.json")], ids=["no_json_file", "series_twice"])
    def test_bad_kb_dir_exits_2_naming_it(self, pipeline, tmp_path, capsys, files):
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        (kb_dir / "notes.txt").write_text("not a knowledge base\n", encoding="utf-8")
        for name in files:
            shutil.copy(pipeline["synth"] / "kb" / "alpha.json", kb_dir / name)
        out = tmp_path / "pre"
        corpus = pipeline["ingest"] / "corpus.filtered.jsonl"
        code = run(["preprocess", "--corpus", corpus, "--kb-dir", kb_dir, "--surrogates", "on", "--out-dir", out])
        assert code == 2
        message = (
            f"duplicate knowledge base for series 'alpha' ({kb_dir / 'alpha2.json'})"
            if files
            else f"no knowledge-base files (*.json) found in {kb_dir}"
        )
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_unlabelled_tokens_line_exits_2_naming_the_file(self, pipeline, tmp_path, capsys, command):
        tokens = tmp_path / "tokens.jsonl"
        good = (pipeline["tokens"] / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
        bad = json.dumps({**json.loads(good[3]), "label": None})
        tokens.write_text("\n".join(good[:3] + [bad] + good[4:]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        extra = ["--model", pipeline["train"] / "model"] if command == "evaluate" else []
        code = run([command, "--tokens", tokens, *extra, "--out-dir", out, "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {tokens}: 1 review(s) lack labels; run 'revclass ingest' first\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--topics", 0, "K must be >= 1"),
            ("--iterations", 0, "iterations must be >= 1"),
            ("--top-words", -3, "--top-words must be >= 1, got -3"),
            ("--top-words", 0, "--top-words must be >= 1, got 0"),
        ],
        ids=["topics_0", "iterations_0", "top_words_negative", "top_words_0"],
    )
    def test_bad_lda_flag_exits_2(self, pipeline, tmp_path, capsys, flag, value, message):
        out = tmp_path / "lda"
        code = run(["lda", "--tokens", pipeline["tokens"] / "tokens.jsonl", flag, value, "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()
    @pytest.mark.parametrize("command", ["train", "lda", "evaluate"])
    @pytest.mark.parametrize("label", [9, -1])
    def test_label_outside_the_categories_exits_2_naming_file_line_and_field(
        self, pipeline, tmp_path, capsys, command, label
    ):
        tokens = tmp_path / "tokens.jsonl"
        good = (pipeline["tokens"] / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
        bad = json.dumps({**json.loads(good[3]), "label": label})
        tokens.write_text("\n".join(good[:3] + [bad] + good[4:]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        extra = ["--model", pipeline["train"] / "model"] if command == "evaluate" else []
        code = run([command, "--tokens", tokens, *extra, "--out-dir", out, "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tokens}: line 4: field 'label'") and "[0, 7]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "lda", "evaluate"])
    @pytest.mark.parametrize(
        "field, value",
        [("id", 5), ("id", ""), ("series", 3), ("series", None)],
        ids=["id_5", "id_empty", "series_3", "series_null"],
    )
    def test_id_or_series_not_a_string_exits_2_naming_file_line_and_field(
        self, pipeline, tmp_path, capsys, command, field, value
    ):
        tokens = tmp_path / "tokens.jsonl"
        good = (pipeline["tokens"] / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
        bad = json.dumps({**json.loads(good[3]), field: value})
        tokens.write_text("\n".join(good[:3] + [bad] + good[4:]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        extra = ["--model", pipeline["train"] / "model"] if command == "evaluate" else []
        code = run([command, "--tokens", tokens, *extra, "--out-dir", out, "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {tokens}: line 4: field {field!r} must be a non-empty string\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda kb: kb["roles"][0].update(rank=9), "role ranks must be unique and contiguous from 1"),
            (
                lambda kb: kb["actors"][0].update(aliases=[kb["roles"][0]["name"]]),
                "is ambiguous: maps to both role_",
            ),
        ],
        ids=["rank_gap", "ambiguous_surface"],
    )
    @pytest.mark.parametrize("surrogates", ["on", "off"])
    def test_inconsistent_knowledge_base_exits_2_naming_file(self, pipeline, tmp_path, capsys, change, message, surrogates):
        kb_dir = tmp_path / "kb"
        shutil.copytree(pipeline["synth"] / "kb", kb_dir)
        _edit(change)(kb_dir / "beta.json")
        out = tmp_path / "pre"
        corpus = pipeline["ingest"] / "corpus.filtered.jsonl"
        code = run(["preprocess", "--corpus", corpus, "--kb-dir", kb_dir, "--surrogates", surrogates, "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kb_dir / 'beta.json'}: ") and message in err
        assert not out.exists()


class TestHyperparameterFlags:
    def test_flags_and_config_keys_default_to_hyperparams(self, pipeline, tmp_path):
        parser = cli.build_parser()
        flags = {
            "--nb-smoothing": ("nb_smoothing", "l"),
            "--lr-eta": ("lr_eta", "eta"),
            "--lr-lambda": ("lr_lambda", "lam"),
            "--lr-epochs": ("lr_epochs", "lr_epochs"),
            "--svm-c": ("svm_c", "C"),
            "--svm-epochs": ("svm_epochs", "svm_epochs"),
        }
        argv = ["train", "--tokens", "t", "--out-dir", "o"]
        for flag, (key, name) in flags.items():
            default = getattr(classify.Hyperparams(), name)
            args = parser.parse_args(argv + [flag, "3"])
            assert getattr(args, key) == 3 and type(getattr(args, key)) is type(default)
        out = tmp_path / "train"
        assert run(["train", "--tokens", pipeline["tokens"] / "tokens.jsonl", "--method", "nb", "--sizes", "5",
                    "--lr-epochs", "7", "--out-dir", out, "--quiet"]) == 0
        config = _read_manifest(out)["config"]
        want = {key: getattr(classify.Hyperparams(), name) for key, name in flags.values()}
        assert {key: config[key] for key in want} == {**want, "lr_epochs": 7}


class TestAtomicOutputs:
    def test_failing_sweep_leaves_no_csv_and_no_temp_file(self, pipeline, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / "sweep"
        code = run(
            [
                "sweep",
                "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl",
                "--sizes", "10",
                "--method", "nb",
                "--out-dir", out,
                "--quiet",
            ]
        )
        assert code == 2
        assert not out.exists() or os.listdir(out) == []


_HYPER = {"nb_smoothing", "lr_eta", "lr_lambda", "lr_epochs", "svm_c", "svm_epochs"}
# Each command's settings: its flags that a config file may set and the manifest echoes.
_SETTINGS = {
    "synth": {"preset", "seed"},
    "ingest": {"seed"},
    "preprocess": {"surrogates", "seed"},
    "lda": {"topics", "alpha", "beta", "iterations", "top_words", "seed"},
    "train": {"method", "selector", "sizes", "seed", *_HYPER},
    "evaluate": {"seed"},
    "sweep": {"surrogates", "sizes", "method", "selector", "per_series_cap", "seed", *_HYPER},
    "cross-series": {"methods", "selector", "budgets", "per_series_cap", "seed", *_HYPER},
}


def _small_run(command, pipeline):
    """Arguments that run ``command`` quickly on the module's pipeline."""
    corpus = pipeline["ingest"] / "corpus.filtered.jsonl"
    tokens = pipeline["tokens"] / "tokens.jsonl"
    return {
        "synth": ["--preset", "sweep", "--seed", 3],
        "ingest": ["--corpus", pipeline["synth"] / "corpus.jsonl"],
        "preprocess": ["--corpus", corpus],
        "lda": ["--tokens", tokens, "--topics", 2, "--iterations", 2],
        "train": ["--tokens", tokens, "--method", "nb", "--sizes", 10],
        "evaluate": ["--model", pipeline["train"] / "model", "--tokens", tokens],
        "sweep": ["--corpus", corpus, "--sizes", 10, "--method", "nb"],
        "cross-series": ["--corpus", corpus, "--kb-dir", pipeline["synth"] / "kb", "--methods", "nb", "--budgets", 10],
    }[command]


def _write_config(tmp_path, obj):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(obj), encoding="utf-8")
    return config


class TestSettings:
    @pytest.mark.parametrize("command", sorted(_SETTINGS))
    def test_manifest_config_echoes_exactly_the_command_settings(self, pipeline, tmp_path, command):
        out = tmp_path / "out"
        assert run([command, *_small_run(command, pipeline), "--out-dir", out, "--quiet"]) == 0
        assert set(_read_manifest(out)["config"]) == _SETTINGS[command]
        args = cli.build_parser().parse_args([command, *map(str, _small_run(command, pipeline)), "--out-dir", "o"])
        assert set(args.settings) == _SETTINGS[command]

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("sweep", "methods", "nb"),
            ("sweep", "budgets", "50"),
            ("cross-series", "method", "nb"),
            ("cross-series", "sizes", "10,30"),
            ("cross-series", "surrogates", "on"),
        ],
    )
    def test_key_the_experiment_does_not_read_exits_2(self, pipeline, tmp_path, capsys, command, key, value):
        config = _write_config(tmp_path, {key: value})
        out = tmp_path / "out"
        assert run([command, *_small_run(command, pipeline), "--config", config, "--out-dir", out, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and f"unknown key(s) '{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("lda", "topics", "3"),
            ("lda", "topics", None),
            ("lda", "beta", True),
            ("train", "svm_epochs", "2"),
            ("train", "svm_c", "1.5"),
            ("train", "method", "forest"),
            ("train", "sizes", 10),
            ("sweep", "per_series_cap", "5"),
            ("sweep", "per_series_cap", 5.0),
            ("preprocess", "surrogates", "maybe"),
            ("synth", "preset", "big"),
            ("ingest", "seed", True),
        ],
    )
    def test_value_its_flag_would_not_accept_exits_2(self, pipeline, tmp_path, capsys, command, key, value):
        config = _write_config(tmp_path, {key: value})
        out = tmp_path / "out"
        assert run([command, *_small_run(command, pipeline), "--config", config, "--out-dir", out, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: key '{key}': {json.dumps(value)} is not a valid --")
        assert not out.exists()

    def test_config_value_is_checked_even_when_a_flag_overrides_it(self, pipeline, tmp_path, capsys):
        config = _write_config(tmp_path, {"topics": "3"})
        out = tmp_path / "out"
        assert run(["lda", *_small_run("lda", pipeline), "--config", config, "--out-dir", out, "--quiet"]) == 2
        assert "key 'topics'" in capsys.readouterr().err

    def test_int_for_a_float_setting_runs(self, pipeline, tmp_path):
        config = _write_config(tmp_path, {"svm_c": 2})
        out = tmp_path / "out"
        argv = ["--tokens", pipeline["tokens"] / "tokens.jsonl", "--method", "svm", "--sizes", 10, "--svm-epochs", 2]
        assert run(["train", *argv, "--config", config, "--out-dir", out, "--quiet"]) == 0
        member = json.loads((out / "model" / "member_0.json").read_text(encoding="utf-8"))
        assert _read_manifest(out)["config"]["svm_c"] == 2 and member["hyperparameters"]["C"] == 2

    def test_list_of_sizes_runs(self, pipeline, tmp_path):
        config = _write_config(tmp_path, {"sizes": [10, 30]})
        out = tmp_path / "out"
        corpus = pipeline["ingest"] / "corpus.filtered.jsonl"
        assert run(["sweep", "--corpus", corpus, "--method", "nb", "--config", config, "--out-dir", out, "--quiet"]) == 0
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"10", "30"}
        assert _read_manifest(out)["config"]["sizes"] == [10, 30]

    @pytest.mark.parametrize("command, key, value", [("sweep", "sizes", [10.7, 30]), ("cross-series", "budgets", [True])])
    def test_list_of_sizes_that_are_not_integers_exits_2(self, pipeline, tmp_path, capsys, command, key, value):
        config = _write_config(tmp_path, {key: value})
        out = tmp_path / "out"
        argv = ["--corpus", pipeline["ingest"] / "corpus.filtered.jsonl", "--kb-dir", pipeline["synth"] / "kb"]
        assert run([command, *argv, "--config", config, "--out-dir", out, "--quiet"]) == 2
        message = f"error: config file {config}: key '{key}': {json.dumps(value)} is not a valid --{key} value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "sizes", ""),
            ("train", "sizes", []),
            ("train", "sizes", [None]),
            ("train", "sizes", [10, 20]),
            ("sweep", "sizes", "10,0"),
            ("sweep", "sizes", [None]),
            ("cross-series", "budgets", ","),
            ("cross-series", "budgets", [-3]),
        ],
    )
    def test_size_list_that_does_not_parse_names_the_file_and_key(self, pipeline, tmp_path, capsys, command, key, value):
        config = _write_config(tmp_path, {key: value})
        out = tmp_path / "out"
        argv = _without(_small_run(command, pipeline), f"--{key}")
        assert run([command, *argv, "--config", config, "--out-dir", out, "--quiet"]) == 2
        message = f"error: config file {config}: key '{key}': {json.dumps(value)} is not a valid --{key} value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_null_alpha_runs_with_the_derived_prior(self, pipeline, tmp_path):
        config = _write_config(tmp_path, {"alpha": None})
        out = tmp_path / "out"
        assert run(["lda", *_small_run("lda", pipeline), "--config", config, "--out-dir", out, "--quiet"]) == 0
        assert _read_manifest(out)["config"]["alpha"] == 25.0  # 50 / topics


class TestInputEncoding:
    @pytest.mark.parametrize("kind", ["corpus", "tokens", "config", "stopwords", "dict"])
    def test_invalid_utf8_exits_2_naming_the_file(self, pipeline, tmp_path, capsys, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(b'{"id": "r0", "series": "s\xff"}\n' if kind != "config" else b'{"seed": "\xfe"}')
        corpus = pipeline["ingest"] / "corpus.filtered.jsonl"
        argv = {
            "corpus": ["ingest", "--corpus", bad],
            "tokens": ["train", "--tokens", bad],
            "config": ["ingest", "--corpus", corpus, "--config", bad],
            "stopwords": ["preprocess", "--corpus", corpus, "--stopwords", bad],
            "dict": ["preprocess", "--corpus", corpus, "--dict", bad],
        }[kind]
        out = tmp_path / "out"
        assert run([*argv, "--out-dir", out, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid UTF-8 at byte ")
        assert not out.exists()

    def test_corpus_error_names_the_file_and_the_line(self, tmp_path, capsys):
        bad = write_jsonl(tmp_path / "bad.jsonl", [review_record("r0"), {"id": "r1", "series": "s1", "text": "t"}])
        assert run(["ingest", "--corpus", bad, "--out-dir", tmp_path / "out", "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: line 2: missing field 'annotations'\n"


class TestExperimentFlagErrors:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("cross-series", ["--methods", "nb,forest"], "unknown classifier method 'forest'"),
            ("sweep", ["--rotation", "alpha,beta:alpha"], "rotation series must be disjoint"),
            ("sweep", ["--sizes", "30,10"], "feature sizes must be positive and strictly ascending"),
            ("cross-series", ["--budgets", "1,2"], "--budgets: expected 1 or 8 sizes, got 2"),
        ],
    )
    def test_bad_experiment_flag_exits_2(self, pipeline, tmp_path, capsys, command, flags, message):
        out = tmp_path / "out"
        assert run([command, *_small_run(command, pipeline), *flags, "--out-dir", out, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestSyntheticSpecFile:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("series", "abc", "field 'series' must be list of str"),
            ("reviews_per_series", -5, "field 'reviews_per_series' must be >= 1"),
            ("tokens_per_review", "x", "field 'tokens_per_review' must be int"),
            ("noise_vocab", [], "field 'noise_vocab' must be non-empty"),
            ("planted_vocab", [[]] + [[f"w{c}"] for c in range(1, 8)], "field 'planted_vocab' has an empty group 0"),
            ("roles_per_series", 0, "field 'roles_per_series' must be >= 6"),
            ("actors_per_series", 2, "field 'actors_per_series' must be >= 6"),
            ("series", ["alpha", "alpha"], "field 'series' names 'alpha' twice"),
            ("series", ["alpha", ""], "field 'series' has a blank name"),
            ("series", [], "field 'series' must name at least one series"),
            ("series", ["a/b", "c", "d"], "field 'series' name 'a/b' must not start with '.' or hold a path separator"),
            ("series", ["../x", "c", "d"], "field 'series' name '../x' must not start with '.' or hold a path separator"),
            ("series", [".", "c", "d"], "field 'series' name '.' must not start with '.' or hold a path separator"),
            ("series", ["c", ".."], "field 'series' name '..' must not start with '.' or hold a path separator"),
            ("series", [".c", "d"], "field 'series' name '.c' must not start with '.' or hold a path separator"),
        ],
    )
    def test_bad_spec_field_exits_2_naming_file_and_field(self, tmp_path, capsys, field, value, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({field: value}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["synth", "--spec", spec, "--out-dir", out, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid synthetic spec {spec}: ") and message in err
        assert not out.exists()


class TestSynthCountsNoListCanHold:
    """Counts that no list can hold exit 2 naming the field before anything
    is generated; the generator is stubbed, so no test allocates."""

    @staticmethod
    def _stub_generator(monkeypatch):
        def out_of_memory(spec):
            raise MemoryError()

        monkeypatch.setattr(cli, "generate_synthetic", out_of_memory)

    @pytest.mark.parametrize("field", ["reviews_per_series", "tokens_per_review", "mentions_per_hit"])
    def test_count_beyond_maxsize_exits_2_naming_the_field(self, monkeypatch, tmp_path, capsys, field):
        self._stub_generator(monkeypatch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({field: 10**30}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["synth", "--spec", spec, "--out-dir", out, "--quiet"]) == 2
        message = f"error: invalid synthetic spec {spec}: field '{field}' must be <= {sys.maxsize}, got {10**30}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_an_exception_without_a_message_is_named_by_its_type(self, monkeypatch, tmp_path, capsys):
        self._stub_generator(monkeypatch)
        out = tmp_path / "out"
        assert run(["synth", "--preset", "ablation", "--out-dir", out, "--quiet"]) == 1
        assert capsys.readouterr().err == "runtime error: MemoryError\n"
        assert not out.exists()


class TestCrossSeriesNeedsAMethod:
    def test_empty_methods_list_in_config_file_exits_2(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"methods": []}), encoding="utf-8")
        out = tmp_path / "out"
        corpus, kb_dir = pipeline["ingest"] / "corpus.filtered.jsonl", pipeline["synth"] / "kb"
        args = ["cross-series", "--corpus", corpus, "--kb-dir", kb_dir, "--config", config, "--out-dir", out, "--quiet"]
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("error: methods must name at least one classifier")
        assert not out.exists()


class TestModelFormatVersion:
    def test_train_writes_version_1(self, pipeline):
        manifest = json.loads((pipeline["train"] / "model" / "model_manifest.json").read_text(encoding="utf-8"))
        assert manifest["format_version"] == 1

    @pytest.mark.parametrize("version", [2, "1", True, 1.0, None])
    def test_unknown_version_exits_2_naming_manifest_and_field(self, pipeline, tmp_path, capsys, version):
        model = tmp_path / "model"
        shutil.copytree(pipeline["train"] / "model", model)
        _edit(lambda d: d.update(format_version=version))(model / "model_manifest.json")
        out = tmp_path / "eval"
        code = run(["evaluate", "--model", model, "--tokens", pipeline["tokens"] / "tokens.jsonl", "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model / "model_manifest.json") in err and "'format_version'" in err
        assert not out.exists()

    def test_manifest_without_version_reads_as_version_1(self, pipeline, tmp_path):
        model = tmp_path / "model"
        shutil.copytree(pipeline["train"] / "model", model)
        _edit(lambda d: d.pop("format_version"))(model / "model_manifest.json")
        tokens = pipeline["tokens"] / "tokens.jsonl"
        for name, given in (("kept", pipeline["train"] / "model"), ("dropped", model)):
            assert run(["evaluate", "--model", given, "--tokens", tokens, "--out-dir", tmp_path / name, "--quiet"]) == 0
        assert (tmp_path / "dropped" / "evaluation.csv").read_bytes() == (tmp_path / "kept" / "evaluation.csv").read_bytes()


# A hand-made corpus, written byte for byte: text stored raw and as JSON
# escapes, `episode` set and unset, a blank line, one disagreement and one
# single-annotator review that the agreement filter drops.
_GOLDEN_CORPUS = "\n".join(
    [
        '{"id": "甄-1", "series": "甄嬛传", "episode": 3, "text": "皇上 和 华妃 的 对手戏 很 好看", "annotations": [1, 1]}',
        r'{"annotations": [0, 0, 0], "id": "zh-2", "series": "甄嬛传", "text": "皇上 说 \"血派\" \\ 台词 😀 😀"}',
        '{"id": "zh-3", "series": "甄嬛传", "episode": 0, "text": "孙俪 演 得 好", "annotations": [3, 5]}',
        "",
        r'{"id": "hq-1", "series": "花千骨", "text": "白子画 tab\there nl\nthere caf\u00e9 e\u0301 \u2028 end", "annotations": [2, 2], "extra": null}',
        '{"id": "hq-2", "series": "花千骨", "episode": 12, "text": "小骨 和 霍建华 \U0001f600 \\/ ok", "annotations": [4, 4]}',
        '{"id": "hq-3", "series": "花千骨", "text": "单 一 标注", "annotations": [7]}',
        "",
    ]
)
_GOLDEN_KBS = {
    "zhenhuan.json": {
        "series": "甄嬛传",
        "roles": [{"name": "皇上", "aliases": [], "rank": 1}, {"name": "华妃", "aliases": [], "rank": 2}],
        "actors": [{"name": "孙俪", "aliases": [], "rank": 1}],
    },
    "huaqiangu.json": {
        "series": "花千骨",
        "roles": [{"name": "白子画", "aliases": [], "rank": 1}, {"name": "花千骨", "aliases": ["小骨"], "rank": 2}],
        "actors": [{"name": "霍建华", "aliases": ["华哥"], "rank": 1}],
    },
}
# SHA-256 of each output as the plain json.dumps writers produced it: a
# change to corpus or tokens I/O that alters one byte fails here.
_GOLDEN_DIGESTS = {
    "corpus.filtered.jsonl": "c528572abbaae7dba037e6de4a75cc105bdf6f7d347c0935503481b9ae1f6ac2",
    "ingest_report.json": "526d4af9576e14206a63b0128ef94ed2d778f6900c02f32063c689498e4a119f",
    "tokens.jsonl": "f34f4778e32bd214ebc2ea0284fe6beeb1d2f1e3cb77a36a80dec50f740fe3c8",
}

# SHA-256 of the CSV and text outputs of the module's pipeline, as the
# hand-joined writers produced them.
_GOLDEN_TABLE_DIGESTS = {
    "eval_nb/evaluation.csv": "3f9ef630df5672893244b1b187311f26a0987e342f4f88b2d41e2f05e8418dce",
    "eval_lr/evaluation.csv": "2587d4032c7129928df971554dbc066a6b52ca8ba50feb027e937e1336122aac",
    "sweep/sweep.csv": "81bf1deb2ca625f78f7b5e1a91b6905d53ad0dfee5c676baa6f1c416dbc7373d",
    "cross/crossseries.csv": "4712deaf70b6388569e7f1e85376df4ec99c72c7e1c4cf6056bcd6bd6514af94",
    "cross/crossseries_multiclass.csv": "1b171aa000e0a721cac3cbca0b410d96e608857491cec42f71a9f3d2d7d3ab51",
    "lda/heatmap.csv": "9bc9d8c98d6116d6846c648b63991eec1ee9eba2cb95ca9126da685e6408afd9",
    "lda/top_words.txt": "f617e6aa1946d1923efb8120c4418bed6fec8bf1ba35611548eefaf50cbd19e0",
}

# SHA-256 of the JSON model, ranking and LDA outputs of the module's pipeline,
# as json.dumps(..., indent=2) wrote them.
_GOLDEN_JSON_DIGESTS = {
    "lda/lda_model.json": "f6e55cd014418ce21d6fb3c0be852e2d7388fcce9a824a366124f1a0765d008a",
    "lr/model/member_0.json": "1af27ad817f19815a5adedbc7e2800063bc27b2d285d22f39372de2e285c38da",
    "lr/model/member_1.json": "9681c4dd0b50d75c4be3af293d71f8ecac78b8bf057e6ff7632b23407d4e6b95",
    "lr/model/member_2.json": "9211ec8e56b4dca5e14abca4e67f280338e6924bc3a8afb7aeff1a504bbde283",
    "lr/model/member_3.json": "b6c5f4f44b671a1c1b06ff6e6a8da840143fd9c22ee895a29e6481793eb90475",
    "lr/model/member_4.json": "9b017bfb5a4cee8d588da553f7e6353a925885e0d213b84d9c88fb34e1fdaf11",
    "lr/model/member_5.json": "9dc4b724b3461b288db5ac38d36196c247607e32e6d5a0cdeb5853cf448c45a2",
    "lr/model/member_6.json": "dc014a38bd58a2524735b7a4cd5823d952f57a254da6712728cccc02e79b8cd7",
    "lr/model/member_7.json": "05873ad0cb2b2d69778e5a8eb3d36d3a7ff9f919c04a2451e99bc24127fb630a",
    "lr/model/model_manifest.json": "814591fdb622f5d9a8bbb0f49057fb65112207e4cd2f4c97bd03d341c71fe92b",
    "nb/model/member_0.json": "f7a1ea7ff172e5e12dc2d7dbf84310c6872d8aa2e0d4735ba32fc5f4fd342e2a",
    "nb/model/member_1.json": "86c669c72308a4a12e50411730fa92c6a5a5f56cb7c269a82e7a893ff5968078",
    "nb/model/member_2.json": "abc09214e27cc6235f982def5196afada50b1ea20632eb6da90bf8e4bc33e5f2",
    "nb/model/member_3.json": "563a545ac507385566f3a5e59193856630e5845b3a417d0ec4efcc8a62c7aab2",
    "nb/model/member_4.json": "f8da955f50ce436a6a3180067906748f49f74fc55b1d0f87cb80af64e83ec26c",
    "nb/model/member_5.json": "87b6826a258e03c58f886489b252d145640e0d7fd809fad67de898c99addd584",
    "nb/model/member_6.json": "b05b1c7117c337327d1617736db984b6601f4d13575dc0b623bb793f9ea34a42",
    "nb/model/member_7.json": "15dd9236ee76eea323b41f7e586089b2a4035bf174e70b0e95a4f5ff8a804f5d",
    "nb/model/model_manifest.json": "fa771b1835d62ae523bb1b21136ce250d19303ba39338156da30d2ef54828cb9",
    "nb/rankings/class_0.json": "881d2084a036a9d881d4a602974aa84467394d40f3e3f413473f8bfbef782714",
    "nb/rankings/class_1.json": "facfe29409e9d6d99b79d304c2def2cd574beca4ef4e66e73ab499a3df9c5a8b",
    "nb/rankings/class_2.json": "05eb1d6c86f2f5e3c7a8e943a63d50eeaf498e509f7694c02b88bb9c2305881d",
    "nb/rankings/class_3.json": "2eb703325e945a97fe435ce0ab2e1eab7af9034cbf5cb24fdafc565b22c158b2",
    "nb/rankings/class_4.json": "4093b12ffa3f77d8c85ec15e31dea3f390058265a7c1be977c9849726953f703",
    "nb/rankings/class_5.json": "3277d5f12e6a154744d2918791a2f7dd9615778650adde9c6693a650c61d3b2c",
    "nb/rankings/class_6.json": "3b296cbd9e864fc88f992a4a7bb6cb4f03c63a20d771faf6208488b8f67a0ab1",
    "nb/rankings/class_7.json": "bc4c5df701b7e87282d3381b758890c16b1f25fa60b01e55fdd45b780500ec22",
}


# An edge spec for synth: every category mentions names, including those
# without a rank signature; a one-word planted group; more mentions per hit;
# and a different number of roles and actors.
_GOLDEN_SYNTH_SPEC = {
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
# SHA-256 of every file synth writes but its run manifest, for both presets
# and the edge spec.
_GOLDEN_SYNTH_DIGESTS = {
    "ablation/corpus.jsonl": "d3e48423e36f1ba10d842ff6d1b1c019d6fb7394139c805fee03979ca573a76b",
    "ablation/kb/alpha.json": "616b3f7261313fcf0bbcb5801696fc236875b91dadc01f332256ff46dac55084",
    "ablation/kb/beta.json": "230ac4e200a094bda99c346ccf0e7463690156ac5e308474bfc760bf9694274d",
    "ablation/kb/gamma.json": "4e8996054407f6f790fd6eec781b3facde17a4d9ebdf246ab15aeacb203a2db5",
    "ablation/synth_spec.json": "8c3c69ed14710e17420231fb39462dce66889797449568b65e66f81f8aece4bb",
    "sweep/corpus.jsonl": "d2148631a59337f1ccd277ff4dc8e0cd4df7a9d5bca7bf57c9a17e8e465db6d8",
    "sweep/kb/alpha.json": "616b3f7261313fcf0bbcb5801696fc236875b91dadc01f332256ff46dac55084",
    "sweep/kb/beta.json": "230ac4e200a094bda99c346ccf0e7463690156ac5e308474bfc760bf9694274d",
    "sweep/kb/gamma.json": "4e8996054407f6f790fd6eec781b3facde17a4d9ebdf246ab15aeacb203a2db5",
    "sweep/synth_spec.json": "4fc0500d88860d027fe3e32c252543b900c1c0df38a5c80e6dfce110769f59b1",
    "edge/corpus.jsonl": "c4a8cf7062c0d53992ac4419452c8d3c95754784e281d2392df2a93b81241756",
    "edge/kb/alpha.json": "db8d13153f26c1407c562cd3a3dbb697e407b734df52eb14485da19b8f75881f",
    "edge/kb/beta.json": "4b35e4d9ef15b13c6a59c28b5422478942d3e344d1038b497d7349795e666e5a",
    "edge/kb/gamma.json": "23c5130eb81f3c15ef17c975bf18849a161a0b9ebe0fb259871cf13074a744bf",
    "edge/synth_spec.json": "698f4b72836146b1faee5523a27765df6d6dbbed5d1caa2057d6631164662657",
}


class TestGoldenBytes:
    def test_ingest_and_preprocess_outputs_keep_their_bytes(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(_GOLDEN_CORPUS.encode("utf-8"))
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        for name, kb in _GOLDEN_KBS.items():
            (kb_dir / name).write_text(json.dumps(kb, ensure_ascii=False), encoding="utf-8")
        assert run(["ingest", "--corpus", corpus, "--out-dir", tmp_path / "ingest", "--quiet"]) == 0
        filtered = tmp_path / "ingest" / "corpus.filtered.jsonl"
        args = ["preprocess", "--corpus", filtered, "--kb-dir", kb_dir, "--surrogates", "on"]
        assert run([*args, "--out-dir", tmp_path / "tokens", "--quiet"]) == 0
        outputs = [filtered, tmp_path / "ingest" / "ingest_report.json", tmp_path / "tokens" / "tokens.jsonl"]
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs}
        assert digests == _GOLDEN_DIGESTS

    def test_csv_and_text_outputs_keep_their_bytes(self, pipeline, tmp_path):
        tokens = pipeline["tokens"] / "tokens.jsonl"
        runs = {
            "lr": ["train", "--tokens", tokens, "--method", "lr", "--sizes", 10, "--lr-epochs", 20],
            "eval_nb": ["evaluate", "--model", pipeline["train"] / "model", "--tokens", tokens],
            "eval_lr": ["evaluate", "--model", tmp_path / "lr" / "model", "--tokens", tokens],
            "sweep": ["sweep", *_small_run("sweep", pipeline)],
            "cross": ["cross-series", *_small_run("cross-series", pipeline)],
            "lda": ["lda", *_small_run("lda", pipeline)],
        }
        for name, argv in runs.items():
            assert run([*argv, "--out-dir", tmp_path / name, "--quiet"]) == 0
        outputs = [
            "eval_nb/evaluation.csv",
            "eval_lr/evaluation.csv",
            "sweep/sweep.csv",
            "cross/crossseries.csv",
            "cross/crossseries_multiclass.csv",
            "lda/heatmap.csv",
            "lda/top_words.txt",
        ]
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in outputs}
        assert digests == _GOLDEN_TABLE_DIGESTS

    def test_json_outputs_keep_their_bytes(self, pipeline, tmp_path):
        tokens = pipeline["tokens"] / "tokens.jsonl"
        lr = ["train", "--tokens", tokens, "--method", "lr", "--sizes", 10, "--lr-epochs", 20]
        assert run([*lr, "--out-dir", tmp_path / "lr", "--quiet"]) == 0
        assert run(["lda", *_small_run("lda", pipeline), "--out-dir", tmp_path / "lda", "--quiet"]) == 0
        model_files = [f"member_{c}.json" for c in range(8)] + ["model_manifest.json"]
        outputs = {
            **{f"nb/model/{name}": pipeline["train"] / "model" / name for name in model_files},
            **{f"nb/rankings/class_{c}.json": pipeline["train"] / "rankings" / f"class_{c}.json" for c in range(8)},
            **{f"lr/model/{name}": tmp_path / "lr" / "model" / name for name in model_files},
            "lda/lda_model.json": tmp_path / "lda" / "lda_model.json",
        }
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in outputs.items()}
        assert digests == _GOLDEN_JSON_DIGESTS

    def test_synth_outputs_keep_their_bytes(self, tmp_path):
        spec = tmp_path / "edge.json"
        spec.write_text(json.dumps(_GOLDEN_SYNTH_SPEC), encoding="utf-8")
        runs = {"ablation": ["--preset", "ablation"], "sweep": ["--preset", "sweep"], "edge": ["--spec", spec]}
        digests = {}
        for name, args in runs.items():
            assert run(["synth", *args, "--out-dir", tmp_path / name, "--quiet"]) == 0
            files = [tmp_path / name / "corpus.jsonl", *sorted((tmp_path / name / "kb").iterdir())]
            for path in [*files, tmp_path / name / "synth_spec.json"]:
                digests[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == _GOLDEN_SYNTH_DIGESTS


# The summary line each command prints before the manifest line.
_SUMMARIES = {
    "synth": r"generated \d+ reviews across \d+ series",
    "ingest": r"kept \d+/\d+ reviews \(drops: \{.*\}\)",
    "preprocess": r"tokenized \d+ reviews \(surrogates off\)",
    "lda": r"fitted 2-topic model on \d+ documents",
    "train": r"(warning: degenerate categories trained as stubs: \[[\d, ]+\]\n)?"
    r"trained 8 nb members over \d+-term vocabulary",
    "evaluate": r"multiclass accuracy \d\.\d{4} on \d+ reviews",
    "sweep": r"swept 1 feature sizes x 8 categories",
    "cross-series": r"cross-series table: \d+ cells",
}


class TestRunner:
    @pytest.mark.parametrize("command", sorted(_SUMMARIES))
    def test_non_quiet_run_prints_the_summary_then_the_manifest(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run([command, *_small_run(command, pipeline), "--out-dir", out]) == 0
        manifest = os.path.join(out, "run_manifest.json")
        assert re.fullmatch(_SUMMARIES[command] + f"\nwrote {re.escape(manifest)}\n", capsys.readouterr().err)
        assert _read_manifest(out)["command"] == command

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", sorted(_SUMMARIES))
    def test_negative_seed_exits_2_naming_the_flag(self, pipeline, tmp_path, capsys, command, source):
        argv = _small_run(command, pipeline)
        if source == "flag":
            argv = [*argv, "--seed", "-1"]
        else:  # without synth's --seed, which would override the file's
            argv = argv[: argv.index("--seed")] if "--seed" in argv else argv
            argv = [*argv, "--config", _write_config(tmp_path, {"seed": -1})]
        out = tmp_path / "out"
        assert run([command, *argv, "--out-dir", out, "--quiet"]) == 2
        message = "error: --seed must be >= 0, got -1\n"
        if source == "config":
            message = f"error: config file {argv[-1]}: key 'seed': -1 is not a valid --seed value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["sweep", "cross-series"])
    def test_series_cap_below_1_exits_2_naming_the_flag(self, pipeline, tmp_path, capsys, command, source, cap):
        argv = _small_run(command, pipeline)
        if source == "flag":
            argv = [*argv, "--per-series-cap", str(cap)]
        else:
            argv = [*argv, "--config", _write_config(tmp_path, {"per_series_cap": cap})]
        out = tmp_path / "out"
        assert run([command, *argv, "--out-dir", out, "--quiet"]) == 2
        message = f"error: --per-series-cap must be >= 1, got {cap}\n"
        if source == "config":
            message = f"error: config file {argv[-1]}: key 'per_series_cap': {cap} is not a valid --per-series-cap value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()



class TestParserBuiltOnce:
    def test_main_reuses_one_parser(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("command", ["preprocess", "lda", "train", "evaluate"])
    def test_two_runs_in_one_process_write_the_same_bytes(self, pipeline, tmp_path, command):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run([command, *_small_run(command, pipeline), "--out-dir", out, "--quiet"]) == 0
        names = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        for name in names:
            a, b = (out / name for out in outs)
            if name.name == "run_manifest.json":
                manifests = [json.loads(p.read_text(encoding="utf-8")) for p in (a, b)]
                for manifest in manifests:
                    manifest.pop("created_at")
                assert manifests[0] == manifests[1]
            else:
                assert a.read_bytes() == b.read_bytes(), name

    def test_a_command_patched_after_a_run_is_the_one_called(self, pipeline, tmp_path, monkeypatch):
        argv = ["lda", *_small_run("lda", pipeline), "--quiet"]
        assert run([*argv, "--out-dir", tmp_path / "a"]) == 0
        calls = []

        def patched(args, config):
            calls.append(args.out_dir)
            return [], [], "patched"

        monkeypatch.setattr(cli, "cmd_lda", patched)
        out = tmp_path / "b"
        assert run([*argv, "--out-dir", out]) == 0
        assert calls == [str(out)]
        assert not (out / "lda_model.json").exists() and _read_manifest(out)["outputs"] == []


_FLOAT_SETTINGS = [
    ("lda", "alpha"),
    ("lda", "beta"),
    ("train", "nb_smoothing"),
    ("train", "lr_eta"),
    ("train", "lr_lambda"),
    ("train", "svm_c"),
    ("sweep", "svm_c"),
    ("cross-series", "lr_eta"),
]


class TestNonFiniteFloatSettings:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command, key", _FLOAT_SETTINGS)
    def test_flag_exits_2_naming_the_flag(self, pipeline, tmp_path, capsys, command, key, value):
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "out"
        # "--flag=-inf": argparse reads a separate "-inf" as an option
        assert run([command, *_small_run(command, pipeline), f"{flag}={value}", "--out-dir", out, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be a finite number, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    @pytest.mark.parametrize("command, key", _FLOAT_SETTINGS)
    def test_config_value_exits_2_naming_file_and_key(self, pipeline, tmp_path, capsys, command, key, value):
        config = _write_config(tmp_path, {key: value})
        out = tmp_path / "out"
        assert run([command, *_small_run(command, pipeline), "--config", config, "--out-dir", out, "--quiet"]) == 2
        flag = "--" + key.replace("_", "-")
        message = f"error: config file {config}: key '{key}': {json.dumps(value)} is not a valid {flag} value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()


INT64_MAX = 2**63 - 1
# (command, key, least valid value): every integer setting of every command.
_INT_SETTINGS = [
    *((command, "seed", 0) for command in sorted(_SETTINGS)),
    ("lda", "topics", 1),
    ("lda", "iterations", 1),
    ("lda", "top_words", 1),
    *((command, key, 1) for command in ("train", "sweep", "cross-series") for key in ("lr_epochs", "svm_epochs")),
    ("sweep", "per_series_cap", 1),
    ("cross-series", "per_series_cap", 1),
]


@pytest.fixture
def pipeline_unreachable(monkeypatch):
    """Replace everything a command could spend long in by a function that
    raises, so a setting the boundary misses fails the test (exit 1) instead
    of running: a sampler or trainer asked for 10**20 iterations never ends."""

    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected setting reached the pipeline")

    for name in ("fit_lda", "train_ovr", "feature_size_sweep", "cross_series_experiment", "generate_synthetic"):
        monkeypatch.setattr(cli, name, unreachable)


def _without(argv, flag):
    """``argv`` without ``flag`` and its value, which would override a config
    file's value."""
    if flag not in argv:
        return argv
    at = argv.index(flag)
    return argv[:at] + argv[at + 2 :]


@pytest.mark.usefixtures("pipeline_unreachable")
class TestIntegerSettings:
    @staticmethod
    def _message(key, flag, bound, value):
        name = "--topics: the topic count K" if key == "topics" else flag
        return f"error: {name} must be {bound}, got {value}\n"

    @pytest.mark.parametrize("beyond", ["below", "above", "far_above", "far_below"])
    @pytest.mark.parametrize("command, key, least", _INT_SETTINGS)
    def test_flag_outside_its_range_exits_2_naming_the_flag(
        self, pipeline, tmp_path, capsys, command, key, least, beyond
    ):
        value = {"below": least - 1, "above": INT64_MAX + 1, "far_above": 10**20, "far_below": -(10**20)}[beyond]
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "out"
        # "--flag=-1": argparse reads a separate "-1" as an option
        assert run([command, *_small_run(command, pipeline), f"{flag}={value}", "--out-dir", out, "--quiet"]) == 2
        bound = f">= {least}" if value < least else f"<= {INT64_MAX}"
        assert capsys.readouterr().err == self._message(key, flag, bound, value)
        assert not out.exists()

    @pytest.mark.parametrize("command, key, least", _INT_SETTINGS)
    def test_config_value_below_its_least_exits_2_naming_the_flag(
        self, pipeline, tmp_path, capsys, command, key, least
    ):
        config = _write_config(tmp_path, {key: least - 1})
        flag = "--" + key.replace("_", "-")
        argv = _without(_small_run(command, pipeline), flag)
        out = tmp_path / "out"
        assert run([command, *argv, "--config", config, "--out-dir", out, "--quiet"]) == 2
        message = f"error: config file {config}: key '{key}': {least - 1} is not a valid {flag} value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("value", [INT64_MAX + 1, 10**20, -(2**63) - 1])
    @pytest.mark.parametrize("command, key, least", _INT_SETTINGS)
    def test_config_value_beyond_int64_exits_2_naming_file_and_key(
        self, pipeline, tmp_path, capsys, command, key, least, value
    ):
        config = _write_config(tmp_path, {key: value})
        flag = "--" + key.replace("_", "-")
        argv = _without(_small_run(command, pipeline), flag)
        out = tmp_path / "out"
        assert run([command, *argv, "--config", config, "--out-dir", out, "--quiet"]) == 2
        message = f"error: config file {config}: key '{key}': {value} is not a valid {flag} value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key",
        [("lda", "topics"), ("lda", "iterations"), ("lda", "top_words"), ("train", "svm_epochs"),
         ("sweep", "lr_epochs"), ("cross-series", "per_series_cap")],
    )
    def test_int64_max_passes_the_boundary(self, pipeline, tmp_path, capsys, command, key):
        # The stubbed pipeline is reached, and raises: exit 1.
        flag = "--" + key.replace("_", "-")
        argv = [command, *_small_run(command, pipeline), flag, INT64_MAX, "--out-dir", tmp_path / "out", "--quiet"]
        assert run(argv) == 1
        assert capsys.readouterr().err == "runtime error: a rejected setting reached the pipeline\n"

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--sizes", "99999999999999999999"),
            ("train", "--sizes", f"10,10,10,10,10,10,10,{INT64_MAX + 1}"),
            ("sweep", "--sizes", f"10,{2**64}"),
            ("cross-series", "--budgets", str(INT64_MAX + 1)),
            ("cross-series", "--budgets", "0"),
            ("train", "--sizes", "10,x"),
            ("sweep", "--sizes", "10,x"),
            ("cross-series", "--budgets", "10,x"),
        ],
    )
    def test_size_list_outside_int64_exits_2_naming_the_flag(self, pipeline, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert run([command, *_small_run(command, pipeline), flag, value, "--out-dir", out, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be integers in [1, {INT64_MAX}], got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("sweep", "--sizes"), ("cross-series", "--budgets")])
    def test_bad_size_list_is_reported_before_a_missing_corpus(self, pipeline, tmp_path, capsys, command, flag):
        argv = _small_run(command, pipeline)
        argv[argv.index("--corpus") + 1] = tmp_path / "missing.jsonl"
        out = tmp_path / "out"
        assert run([command, *argv, flag, "10,x", "--out-dir", out, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be integers in [1, {INT64_MAX}], got '10,x'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("train", "sizes"), ("cross-series", "budgets")])
    def test_size_list_in_a_config_file_outside_int64_exits_2_naming_the_setting(
        self, pipeline, tmp_path, capsys, command, key
    ):
        value = [10] * 7 + [INT64_MAX + 1]
        config = _write_config(tmp_path, {key: value})
        out = tmp_path / "out"
        argv = _without(_small_run(command, pipeline), f"--{key}")
        assert run([command, *argv, "--config", config, "--out-dir", out, "--quiet"]) == 2
        message = f"error: config file {config}: key '{key}': {json.dumps(value)} is not a valid --{key} value\n"
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_model_manifest_budgets_not_a_list_exits_2(pipeline, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(pipeline["train"] / "model", model)
    _edit(lambda d: d.update(budgets=5))(model / "model_manifest.json")
    out = tmp_path / "eval"
    assert run(["evaluate", "--model", model, "--tokens", pipeline["tokens"] / "tokens.jsonl", "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model / 'model_manifest.json'}: field 'budgets' must be ")
    assert not out.exists()


class TestNonFiniteMember:
    @pytest.mark.parametrize(
        "method, flag, named",
        [("svm", "--svm-c", "{'C': 1e+308, 'epochs': 50, 'seed': 42}"), ("nb", "--nb-smoothing", "{'l': 1e+308}")],
    )
    def test_train_exits_2_naming_the_member_before_writing(self, pipeline, tmp_path, capsys, method, flag, named):
        out = tmp_path / "train"
        tokens = pipeline["tokens"] / "tokens.jsonl"
        code = run(["train", "--tokens", tokens, "--method", method, flag, "1e308", "--out-dir", out, "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {method} member for category 0 has non-finite weights at {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "cross-series"])
    def test_experiment_exits_2_before_writing(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / command
        argv = [command, "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl", "--kb-dir", pipeline["synth"] / "kb"]
        code = run([*argv, "--method", "svm", "--svm-c", "1e308", "--svm-epochs", "2", "--out-dir", out, "--quiet"])
        assert code == 2
        assert "svm member for category 0 has non-finite weights at {'C': 1e+308, 'epochs': 2, " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nb_train_exits_2_without_numpy_warnings(self, pipeline, tmp_path, capsys):
        out = tmp_path / "train"
        tokens = pipeline["tokens"] / "tokens.jsonl"
        code = run(["train", "--tokens", tokens, "--method", "nb", "--nb-smoothing", "1e308", "--out-dir", out, "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == "error: nb member for category 0 has non-finite weights at {'l': 1e+308}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "cross-series"])
    def test_diverging_lr_exits_2_naming_its_hyperparameters(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / command
        if command == "train":
            argv = [command, "--tokens", pipeline["tokens"] / "tokens.jsonl"]
        else:
            argv = [command, "--corpus", pipeline["ingest"] / "corpus.filtered.jsonl", "--kb-dir", pipeline["synth"] / "kb"]
        code = run([*argv, "--method", "lr", "--lr-lambda", "1e308", "--lr-epochs", "2", "--out-dir", out, "--quiet"])
        assert code == 2
        want = "error: lr member for category 0 has a non-finite objective at {'eta': 0.1, 'lam': 1e+308, 'epochs': 2}\n"
        assert capsys.readouterr().err == want
        assert not out.exists()
