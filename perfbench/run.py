"""revclass benchmark: one workload per process, closed loop, single client.

Run from the root of a revclass checkout:

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 30 --trace 0

Workloads: ablation, roundtrip, lda (see README.md).  The inputs are
generated from ``--seed``.  Passes run back to back until they have taken
``--seconds`` seconds, and at least three times.  Every pass's outputs are checked; a
failed check counts as a failed operation.

Times are scaled to the machine's speed at the moment they were taken: a
fixed reference loop is timed beside every step and every set-up, and a
time is reported as seconds on a machine where that loop takes
``REFERENCE_SECONDS`` (see README.md, "Scaled times").

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced passes, with the package's public functions wrapped in span
recorders, and untraced passes, with the wrappers removed; it reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment, every pass, and in traced runs every span) is written to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

# Fixed before numpy is imported, so every run uses the same BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("ablation", "roundtrip", "lda")
SETUP_SAMPLES = 5
REFERENCE_SECONDS = 0.01
MIN_PASSES = 3
# Result values that a deterministic pipeline must repeat exactly in every pass.
DETERMINISTIC = ("quality", "multiclass_acc", "surrogate_gain", "lda_loglik_per_token")
# Workload results printed beside the end-to-end metrics but not gated.
REPORTED_UNITS = {
    "multiclass_acc": "fraction",
    "surrogate_gain": "fraction",
    "lda_loglik_per_token": "nats",
    "classify_reviews_per_s": "reviews/s",
}
clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one cold set-up in a fresh interpreter, printing its seconds and scaled seconds.
    p.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: str):
    """Import revclass, build the workload's inputs, and warm up every code
    path on a tiny instance of the same workload.  Returns (workload,
    seconds, scaled seconds).  The set-up is timed in parts, like a pass:
    the imports, the inputs, the warm-up inputs and each step of the warm-up
    pass, each scaled by the reference loop timed beside it (after it, for
    the imports, which bring in numpy)."""
    start = clock()
    import workloads

    imports = clock() - start
    watch = workloads.Stopwatch()
    watch.steps["imports"], watch.reference["imports"] = imports, watch.first_reference
    wl = workloads.WORKLOADS[name]()
    watch.time("inputs", wl.setup, seed, os.path.join(workdir, "main"))
    warm = workloads.WORKLOADS[name]()
    warm_dir = os.path.join(workdir, "warmup")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tiny corpus is smaller than some feature budgets
        watch.time("warm-up inputs", warm.setup, seed, warm_dir, True)
        result = warm.run_pass(warm_dir)
    if result.errors:
        raise RuntimeError(f"warm-up failed: {result.errors}")
    parts = workloads.PassResult(watch.steps, 1, reference=watch.reference)
    parts.steps.update({f"warm-up {k}": v for k, v in result.steps.items()})
    parts.reference.update({f"warm-up {k}": v for k, v in result.reference.items()})
    return wl, parts.seconds, scaled_seconds(parts)


def setup_sample(args) -> tuple[float, float]:
    """Set-up seconds and scaled seconds in a fresh interpreter, so that
    every sample pays the one-time costs of a process (imports, a JIT
    compile) again."""
    workdir = os.path.join(WORK, f"{args.workload}-setup")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only", workdir]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    seconds, scaled_s = done.stdout.split()[-2:]
    return float(seconds), float(scaled_s)


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not the root of a work tree; git would report an enclosing one
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    from revclass import topic_model

    return {
        "git_commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": topic_model._HAVE_NUMBA,
        "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# Passes and their summaries
# ---------------------------------------------------------------------------


def run_passes(wl, workdir: str, seconds: float, before_pass) -> list:
    """Passes back to back until they have taken ``seconds``; ``before_pass``
    is called with the share of that time gone before each pass, and the
    time it takes does not count."""
    results = []
    spent = 0.0
    while len(results) < MIN_PASSES or spent < seconds:
        before_pass(spent / seconds if seconds > 0 else 1.0)
        start = clock()
        results.append(wl.run_pass(workdir))
        spent += clock() - start
    return results


def run_traced_passes(wl, workdir: str, seconds: float, tracer, pristine) -> tuple[list, list]:
    """Alternate a traced pass and an untraced pass, so that both see the
    same phases of the machine; the wrappers are removed, and checked to
    be, before every untraced pass."""
    import spans

    traced, untraced = [], []
    start = clock()
    while len(traced) < MIN_PASSES or clock() - start < seconds:
        tracer.pass_id = f"t{len(traced)}"
        with spans.instrument(tracer):
            traced.append(wl.run_pass(workdir))
        if not spans.restored(pristine):
            raise RuntimeError("span wrappers still installed after a traced pass")
        untraced.append(wl.run_pass(workdir))
    return traced, untraced


def flag_unrepeated(results, extra=None) -> None:
    """Append an error to every pass whose counts or deterministic results
    differ from the first pass's."""
    extra = extra or [{} for _ in results]

    def fingerprint(result, more):
        return {**result.counts, **{k: v for k, v in result.values.items() if k in DETERMINISTIC}, **more}

    first = fingerprint(results[0], extra[0])
    for result, more in zip(results[1:], extra[1:]):
        mine = fingerprint(result, more)
        if mine != first:
            diff = sorted(k for k in first.keys() | mine.keys() if first.get(k) != mine.get(k))
            result.errors.append(f"counts differ between passes: {diff}")


def tally(results) -> tuple[int, int]:
    attempted = sum(r.attempted for r in results)
    failed = sum(min(r.attempted, len(r.errors)) for r in results)
    return attempted, failed


def scaled_seconds(result) -> float:
    """A pass's seconds on a machine where the reference loop takes
    REFERENCE_SECONDS: each step scaled by the reference loop beside it."""
    return sum(t * REFERENCE_SECONDS / result.reference[step] for step, t in result.steps.items())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    values = sorted(values)
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 else (values[0],) * 3


def pass_times(results) -> dict:
    """Median and quartiles of the passes' scaled seconds (each step scaled
    by the reference loop timed beside it), and of their unscaled seconds.
    Failed passes are left out unless every pass failed."""
    kept = [r for r in results if not r.errors] or results
    q1, med, q3 = quartiles([scaled_seconds(r) for r in kept])
    raw_q1, raw_med, raw_q3 = quartiles([r.seconds for r in kept])
    return {"median": med, "q1": q1, "q3": q3, "n": len(kept),
            "raw_median": raw_med, "raw_q1": raw_q1, "raw_q3": raw_q3}


def end_to_end(results, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(gated metrics, reported details) of an untraced run."""
    attempted, failed = tally(results)
    good = [r for r in results if not r.errors]
    values = {k: statistics.median(r.values[k] for r in good) for k in (good[0].values if good else {})}
    times = pass_times(results)
    metrics = {
        "setup_s": (statistics.median(scaled_s for _seconds, scaled_s in setup_samples), "s"),
        "pass_s": (times["median"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_op_ratio": ((attempted - failed) / attempted, "fraction"),
        "quality": (values.pop("quality", 0.0), "fraction"),
    }
    details = {
        "pass_s": times,
        "setup_s": {"samples": setup_samples},
        "reported": {k: (v, REPORTED_UNITS[k]) for k, v in values.items()},
    }
    return metrics, details


def per_layer(tracer, traced, untraced) -> tuple[dict, dict]:
    """Medians over the traced passes of every per-layer metric, plus the
    tracing overhead against the untraced passes of the same run."""
    import spans

    own, incl = spans.seconds_by_pass(tracer.spans)
    rows = []
    for i, result in enumerate(traced):
        pid = f"t{i}"
        row = spans.layer_metrics(own[pid], incl[pid], {**tracer.counts[pid], **result.counts})
        row["trace.spans"] = sum(1 for s in tracer.spans if s[4] == pid)
        rows.append(row)
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["evaluate.synth_s"] = own["setup"].get("evaluate.generate_synthetic", 0.0)
    traced_times, untraced_times = pass_times(traced), pass_times(untraced)
    values["trace.traced_pass_s"] = traced_times["median"]
    values["trace.untraced_pass_s"] = untraced_times["median"]
    values["trace.overhead_s"] = values["trace.traced_pass_s"] - values["trace.untraced_pass_s"]
    metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER.items()}
    noise = untraced_times["q3"] - untraced_times["q1"]
    details = {
        "traced": traced_times,
        "untraced": untraced_times,
        "overhead": {"resolved": values["trace.overhead_s"] > noise, "noise_s": noise},
    }
    return metrics, details


def report(workload: str, env: dict, metrics: dict, details: dict, errors: list[str]) -> None:
    print(f"workload {workload}  env {json.dumps(env, sort_keys=True)}")
    for error in errors:
        print(f"FAILED {error}")
    beside = {}
    if "setup_s" in details:
        samples = details["setup_s"]["samples"]
        beside["setup_s"] = ("median of scaled " + " ".join(f"{scaled_s:.4f}" for _s, scaled_s in samples)
                             + "; unscaled " + " ".join(f"{s:.4f}" for s, _scaled_s in samples))
    for key, name in (("pass_s", "pass_s"), ("traced", "trace.traced_pass_s"), ("untraced", "trace.untraced_pass_s")):
        if key in details:
            w = details[key]
            beside[name] = (f"median of {w['n']} passes, q1 {w['q1']:.4f}, q3 {w['q3']:.4f}; unscaled median "
                            f"{w['raw_median']:.4f}, q1 {w['raw_q1']:.4f}, q3 {w['raw_q3']:.4f}")
    if "overhead" in details and not details["overhead"]["resolved"]:
        beside["trace.overhead_s"] = (f"unresolved: not above the untraced passes' interquartile range "
                                      f"{details['overhead']['noise_s']:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit:9s} {beside.get(name, '')}".rstrip())
    for name, (value, unit) in details.get("reported", {}).items():
        print(f"{name:36s} {value:16.6f} {unit:9s} reported, not gated")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "revclass", "__init__.py")):
        print("perfbench: no src/revclass here; run from the root of a revclass checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only:
        _wl, seconds, scaled_s = set_up(args.workload, args.seed, args.setup_only)
        print(repr(seconds), repr(scaled_s))
        return 0

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            import spans
            import workloads  # noqa: F401 - imports every revclass module before the bindings are listed

            tracer = spans.Tracer()
            pristine = spans.bindings()
            with spans.instrument(tracer):
                wl, _seconds, _scaled_s = set_up(args.workload, args.seed, workdir)
            traced, untraced = run_traced_passes(wl, workdir, args.seconds, tracer, pristine)
            results = traced + untraced
            flag_unrepeated(traced, [dict(tracer.counts[f"t{i}"]) for i in range(len(traced))])
            flag_unrepeated(results)
            metrics, details = per_layer(tracer, traced, untraced)
            record["spans"] = tracer.spans
            record["counts"] = {pid: dict(c) for pid, c in tracer.counts.items()}
        else:
            wl, seconds, scaled_s = set_up(args.workload, args.seed, workdir)
            setup_samples = [(seconds, scaled_s)]

            def sample_when_due(share_gone: float) -> None:
                # Spread the cold set-ups over the run, so that one slow phase
                # of the machine does not hold all of them.
                if len(setup_samples) < SETUP_SAMPLES and share_gone >= len(setup_samples) / (SETUP_SAMPLES - 1):
                    setup_samples.append(setup_sample(args))

            results = run_passes(wl, workdir, args.seconds, sample_when_due)
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(setup_sample(args))
            flag_unrepeated(results)
            metrics, details = end_to_end(results, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(results)
    errors = [e for r in results for e in r.errors]
    record.update(env=environment(args.seed), metrics=metrics, details=details, passes=[vars(r) for r in results])
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    report(args.workload, record["env"], metrics, details, errors)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
