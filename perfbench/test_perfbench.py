"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from revclass import classify, cli, evaluate  # noqa: E402


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_time_of_hand_built_nested_spans():
    #  a [0, 100) contains b [10, 40) and d [50, 90); b contains c [15, 25).
    nested = [
        ("a", 0, 100, -1, "p0"),
        ("b", 10, 40, 0, "p0"),
        ("c", 15, 25, 1, "p0"),
        ("d", 50, 90, 0, "p0"),
        ("b", 200, 260, -1, "p1"),
    ]
    assert [round(t * 1e9) for t in spans.self_times(nested)] == [30, 20, 10, 40, 60]
    own, incl = spans.seconds_by_pass(nested)
    assert round(own["p0"]["b"] * 1e9) == 20 and round(incl["p0"]["b"] * 1e9) == 30
    assert round(own["p1"]["b"] * 1e9) == 60
    assert sum(own["p0"].values()) == pytest.approx(incl["p0"]["a"])


def test_tracer_records_parents_pass_ids_and_counts():
    tracer = spans.Tracer()
    leaf = tracer.wrap("x.leaf", lambda: 3, counter=lambda tr, args, kwargs, result: tr.add("x.items", result))
    outer = tracer.wrap("x.outer", lambda: [leaf(), leaf()])
    tracer.pass_id = "p3"
    outer()
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    # Counting is a sibling span of the counted call, so x.outer's self time excludes it.
    assert names == [
        ("x.outer", -1, "p3"),
        ("x.leaf", 0, "p3"),
        ("trace.count", 0, "p3"),
        ("x.leaf", 0, "p3"),
        ("trace.count", 0, "p3"),
    ]
    assert tracer.counts["p3"]["x.items"] == 6
    own, incl = spans.seconds_by_pass(tracer.spans)
    assert own["p3"]["x.outer"] <= incl["p3"]["x.outer"]


def test_span_is_closed_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("x.boom", boom)()
    assert tracer.spans[0][0] == "x.boom" and tracer._stack == []


# ---------------------------------------------------------------------------
# Wrapper installation and removal
# ---------------------------------------------------------------------------


def test_wrappers_cover_every_binding_and_are_removed():
    original = classify.train_svm
    pristine = spans.bindings()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert evaluate.train_svm is classify.train_svm is not original
        assert cli.train_ovr.__wrapped__ is classify.train_ovr.__wrapped__
        assert not spans.restored(pristine)
    assert spans.restored(pristine)
    assert evaluate.train_svm is classify.train_svm is original
    before = len(tracer.spans)
    evaluate.binary_accuracy  # noqa: B018 - touching the binding must not record
    assert len(tracer.spans) == before


def test_wrappers_are_removed_when_the_traced_body_raises():
    pristine = spans.bindings()
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            raise RuntimeError("traced pass failed")
    assert spans.restored(pristine)


def test_traced_pass_then_untraced_pass_uses_unpatched_functions(tmp_path):
    pristine = spans.bindings()
    tracer = spans.Tracer()
    wl = workloads.Ablation()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with spans.instrument(tracer):
            wl.setup(5, str(tmp_path), tiny=True)
            tracer.pass_id = "t0"
            traced = wl.run_pass(str(tmp_path))
        assert spans.restored(pristine)
        recorded = len(tracer.spans)
        untraced = wl.run_pass(str(tmp_path))
    assert len(tracer.spans) == recorded
    assert traced.errors == untraced.errors == []
    counts = tracer.counts["t0"]
    assert counts["classify.member_fits"] == 144 and counts["classify.svm_steps"] > 0
    assert traced.values == untraced.values


def test_traced_run_alternates_and_untraced_passes_record_nothing(tmp_path):
    pristine = spans.bindings()
    tracer = spans.Tracer()
    wl = _tiny(workloads.Lda, tmp_path)
    traced, untraced = run.run_traced_passes(wl, str(tmp_path), 0.0, tracer, pristine)
    assert len(traced) == len(untraced) == run.MIN_PASSES
    assert spans.restored(pristine)
    assert {s[4] for s in tracer.spans} == {f"t{i}" for i in range(run.MIN_PASSES)}
    assert all(tracer.counts[f"t{i}"]["topic_model.token_samples"] > 0 for i in range(run.MIN_PASSES))
    assert [r.values for r in traced] == [r.values for r in untraced]


# ---------------------------------------------------------------------------
# Steps, reference loops and scaled times
# ---------------------------------------------------------------------------


def test_pass_time_is_the_median_of_scaled_passes():
    ref = run.REFERENCE_SECONDS
    passes = [
        # Unscaled 6 s, on a machine at reference speed: 6 s.
        workloads.PassResult({"a": 1.0, "b": 5.0}, 1, reference={"a": ref, "b": ref}),
        # Unscaled 10 s, with the machine at half speed during both steps: 5 s.
        workloads.PassResult({"a": 2.0, "b": 8.0}, 1, reference={"a": 2 * ref, "b": 2 * ref}),
        # Half speed during "b" only: 1 + 8 / 2 = 5 s.
        workloads.PassResult({"a": 1.0, "b": 8.0}, 1, reference={"a": ref, "b": 2 * ref}),
        # A failed pass is left out.
        workloads.PassResult({"a": 0.1, "b": 0.1}, 1, errors=["bad output"], reference={"a": ref, "b": ref}),
    ]
    times = run.pass_times(passes)
    assert times["n"] == 3
    assert times["median"] == pytest.approx(5.0) and times["q3"] == pytest.approx(5.5)
    assert times["raw_median"] == pytest.approx(9.0)


def test_set_up_is_timed_in_parts_and_scaled(tmp_path):
    wl, seconds, scaled_s = run.set_up("lda", 3, str(tmp_path))
    assert isinstance(wl, workloads.Lda) and seconds > 0 and scaled_s > 0


def test_stopwatch_times_the_reference_loop_around_every_step():
    watch = workloads.Stopwatch()
    with pytest.raises(ValueError):
        watch.time("raises", int, "x")
    assert watch.time("ok", int, "7") == 7
    assert set(watch.steps) == set(watch.reference) == {"raises", "ok"}
    assert all(r > 0 for r in watch.reference.values())


def test_split_pass_fills_the_same_table_as_one_call(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        abl = _tiny(workloads.Ablation, tmp_path)
        whole = evaluate.cross_series_experiment(abl.corpus, abl.kbs, abl.config)
        result = abl.run_pass(str(tmp_path))
    assert len(result.steps) == 9 and result.errors == []
    on = [v for (_rot, mode), v in whole.multiclass.items() if mode == evaluate.SURROGATE_ON]
    gains = [
        whole.generalization[(cat, rot, evaluate.SURROGATE_ON)] - whole.generalization[(cat, rot, evaluate.SURROGATE_OFF)]
        for (cat, rot, mode) in whole.generalization
        if mode == evaluate.SURROGATE_ON and cat < 5
    ]
    assert result.values["multiclass_acc"] == pytest.approx(sum(on) / len(on), abs=1e-12)
    assert result.values["surrogate_gain"] == pytest.approx(sum(gains) / len(gains), abs=1e-12)


# ---------------------------------------------------------------------------
# Output checks count as failed operations
# ---------------------------------------------------------------------------


def _tiny(cls, tmp_path):
    wl = cls()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.setup(3, str(tmp_path), tiny=True)
    return wl


def test_corrupted_experiment_table_is_a_failed_operation(tmp_path, monkeypatch):
    real = evaluate.cross_series_experiment

    def corrupted(*args, **kwargs):
        table = real(*args, **kwargs)
        key = next(iter(table.generalization))
        table.generalization[key] = 1.5
        return table

    wl = _tiny(workloads.Ablation, tmp_path)
    monkeypatch.setattr(evaluate, "cross_series_experiment", corrupted)
    result = wl.run_pass(str(tmp_path))
    assert len(result.errors) == 1 and "outside [0, 1]" in result.errors[0]
    assert run.tally([result]) == (1, 1)


def test_roundtrip_catches_bad_digest_and_bad_evaluation(tmp_path):
    wl = _tiny(workloads.Roundtrip, tmp_path)
    result = wl.run_pass(str(tmp_path))
    assert result.errors == [] and result.attempted == 6
    out = os.path.join(str(tmp_path), "pass")
    with open(wl.raw_train, "a", encoding="utf-8") as fh:
        fh.write("\n")
    errors, _read, _written = workloads.check_manifest(os.path.join(out, "ingest_train"))
    assert errors and "digest" in errors[0]
    csv_path = os.path.join(out, "evaluate", "evaluation.csv")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    errors, _values = workloads.check_evaluation(csv_path)
    assert errors


def test_failed_command_is_a_failed_operation(tmp_path):
    wl = _tiny(workloads.Roundtrip, tmp_path)
    os.remove(wl.raw_test)
    result = wl.run_pass(str(tmp_path))
    # ingest_test fails, and so does everything downstream of it.
    assert result.attempted == 6 and run.tally([result]) == (6, 3)


def test_lda_rows_not_summing_to_one_are_caught(tmp_path):
    wl = _tiny(workloads.Lda, tmp_path)
    result = wl.run_pass(str(tmp_path))
    assert result.errors == [] and result.values["lda_loglik_per_token"] < 0
    model_path = os.path.join(str(tmp_path), "pass", "lda_model.json")
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    model["doc_topic"][0][0] += 0.5
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump(model, fh)
    errors, _ = workloads.check_lda(model_path, os.path.join(str(tmp_path), "pass", "heatmap.csv"), wl.docs)
    assert errors and "sum to 1" in errors[0]


def test_counts_that_differ_between_passes_fail_the_later_pass():
    passes = [workloads.PassResult({"a": 1.0}, 1, counts={"n": 5}) for _ in range(3)]
    passes[2].counts["n"] = 6
    run.flag_unrepeated(passes)
    assert [len(p.errors) for p in passes] == [0, 0, 1]
    assert run.tally(passes) == (3, 1)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the code reports
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    result = workloads.PassResult({"a": 2.0}, 1, values={"quality": 0.5}, reference={"a": run.REFERENCE_SECONDS})
    metrics, _details = run.end_to_end([result], [(1.0, 1.0)])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: unit for k, (_v, unit) in metrics.items()}
