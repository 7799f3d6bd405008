"""qdqa benchmark: one command per workload run.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the `qdqa` package from that
checkout's `src/` and nothing else.  With `--trace 0` it prints every
end-to-end metric of the workload by name with its unit; with `--trace 1`
it prints every per-layer metric, from spans recorded by wrappers around
the program's layer boundaries, plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from hostspeed import NOMINAL_LOOPS_PER_S
from spans import REPORTED_PRIMITIVES, SETUP, TRAIN
from workloads import WORKLOADS, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # span dumps and per-run scratch files

# Gated end-to-end metrics; each is defined on every workload.
END_TO_END = (("setup_s", "s"), ("nodes_per_s", "nodes/s"),
              ("peak_rss_mb", "MB"))
# what nodes_per_s and the median operation time are called per workload
OP_NAMES = {
    "train_full": ("train_nodes_per_s", "step_ms"),
    "train_agg": ("train_nodes_per_s", "step_ms"),
    "eval_full": ("eval_nodes_per_s", "eval_ms"),
    "score_corpus": ("score_nodes_per_s", "score_ms"),
}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
AGGREGATOR = ("gat_forward", "gat_layer", "predict_answers",
              "edge_representations", "edge_triplet_loss",
              "aggregation_loss")
ALIGNER = ("aggregate_objects", "aggregate_frames", "clip_scores",
           "backbone_joint", "answer_logits")


def load_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other qdqa."""
    package = SRC / "qdqa"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no qdqa sources at {package}; run from the "
                 "root of a qdqa checkout")
    sys.path.insert(0, str(SRC))
    import qdqa

    if Path(qdqa.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported qdqa from {qdqa.__file__}, "
                 f"not from {package}")


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # stop at the checkout: never report an enclosing repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "threads": "qdqa's --threads is stored but not applied; BLAS "
                   "threads follow the environment above or the BLAS "
                   "default",
    }


def tail(values):
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it, nearest-rank; None with fewer than 20 samples."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def op_timings(tracer, result):
    """(durations in s, nodes) of the measured operations of a phase."""
    spans = tracer.spans(result.op_span)
    return [d for d, _ in spans], sum(w for _, w in spans)


def nodes_per_s(tracer, result) -> float:
    """Nodes ÷ summed operation time, at nominal host speed."""
    durations, nodes = op_timings(tracer, result)
    return nodes / sum(durations) / tracer.host.factor() if durations \
        else 0.0


def end_to_end(workload: str, result) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) for every end-to-end metric, the gated
    ones first under their generic names.

    The gated set-up time and throughput are scaled to nominal host speed
    (see hostspeed.py); the lines after them are as measured.
    """
    u = result.untraced
    durations, nodes = op_timings(u, result)
    setups = [d for d, _ in u.spans(SETUP)]
    setup = statistics.median(setups) if setups else 0.0
    speed = u.host.factor()
    measured = nodes / sum(durations) if durations else 0.0
    rows = [
        ("setup_s", setup * speed, "s",
         f"median of {len(setups)} set-ups, at nominal host speed"),
        ("nodes_per_s", measured / speed, "nodes/s",
         "at nominal host speed"),
        ("peak_rss_mb", peak_rss_mb(), "MB",
         "" if result.setup_peak_mb is None else
         f"{result.setup_peak_mb:.1f} MB after the first set-up"),
    ]
    rate, op = OP_NAMES[workload]
    rows += [("host_speed", speed, "x",
              f"calibration rate ÷ {NOMINAL_LOOPS_PER_S:.0f} loops/s, "
              f"{len(u.host.loops)} samples"),
             ("setup_s_measured", setup, "s", ""),
             (rate, measured, "nodes/s", "as measured"),
             (f"{op}_p50",
              1000 * statistics.median(durations) if durations else 0.0,
              "ms", f"median of {len(durations)} operations")]
    if workload.startswith("train"):
        walls = [d for d, _ in u.spans(TRAIN)]
        rows.append(("train_wall_s", statistics.median(walls), "s",
                     f"median of {len(walls)} train() calls"))
        found = tail(durations)
        if found:
            p, value = found
            rows.append(("step_ms_tail", 1000 * value, "ms",
                         f"p{p:g} of {len(durations)} steps"))
        else:
            rows.append(("step_ms_tail", 0.0, "ms",
                         f"undefined: only {len(durations)} steps"))
        rows.append(("val_c_f", result.recorded.get("c_f", 0.0), "%",
                     "best validation c-F1, deterministic per seed"))
        if workload == "train_full":
            rows.append(("val_rel_recall",
                         result.recorded.get("rel_recall") or 0.0,
                         "fraction", "at the best step"))
    rows.append(("ops_failed_frac",
                 result.failed / result.attempted if result.attempted
                 else 1.0, "fraction",
                 f"{result.failed} of {result.attempted} operations"))
    return rows


def per_layer(result) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from the traced phase.

    Set-up functions are per set-up; every other time and count is per
    operation: per step on train_*, per evaluate() call on eval_full, per
    command on score_corpus.
    """
    t = result.traced
    table = t.self_times()
    ops = t.counts.get(result.op_span, 0)
    setups = t.counts.get(SETUP, 0)

    def op_s(name):
        return table[name][0] / ops if name in table and ops else 0.0

    def op_calls(name):
        return table[name][1] / ops if name in table and ops else 0.0

    def setup_s(name):
        return table[name][2] / setups if name in table and setups else 0.0

    def count(key):
        return t.counts.get(key, 0) / ops if ops else 0.0

    def ratio(num, den):
        den = t.counts.get(den, 0)
        return t.counts.get(num, 0) / den if den else 0.0

    m = {}
    m["synth.generate_dataset.s"] = (setup_s("synth.generate_dataset"), "s")
    for name in ("pack_split", "init_params"):
        m[f"train.{name}.s"] = (setup_s(f"train.{name}"), "s")
    for name in ("forward_losses", "predict_split", "evaluate"):
        m[f"train.{name}.ms"] = (1000 * op_s(f"train.{name}"), "ms")
    for name in ALIGNER:
        m[f"aligner.{name}.ms"] = (1000 * op_s(f"aligner.{name}"), "ms")
    relevance = t.last.get("relevance", {})
    m["aligner.forced_rows_frac"] = (
        ratio("aligner.forced_rows", "aligner.gumbel_rows"), "fraction")
    m["aligner.rel_precision"] = (relevance.get("precision", 0.0),
                                  "fraction")
    m["aligner.rel_recall"] = (relevance.get("recall", 0.0), "fraction")
    for name in AGGREGATOR:
        m[f"aggregator.{name}.ms"] = (1000 * op_s(f"aggregator.{name}"),
                                      "ms")
        m[f"aggregator.{name}.calls"] = (op_calls(f"aggregator.{name}"),
                                         "count")
    m["aggregator.triplet_edges_used_frac"] = (
        ratio("aggregator.triplet_edges_used", "aggregator.triplet_edges"),
        "fraction")
    m["autodiff.backward.ms"] = (1000 * op_s("autodiff.backward"), "ms")
    m["autodiff.tape_nodes"] = (count("autodiff.tape_nodes"), "count")
    m["autodiff.adam_step.ms"] = (1000 * op_s("autodiff.adam_step"), "ms")
    m["autodiff.param_store_save.ms"] = (
        1000 * op_s("autodiff.param_store_save"), "ms")
    m["autodiff.transformer_encoder_layer.ms"] = (
        1000 * op_s("autodiff.transformer_encoder_layer"), "ms")
    m["autodiff.transformer_encoder_layer.calls"] = (
        op_calls("autodiff.transformer_encoder_layer"), "count")
    for op in REPORTED_PRIMITIVES:
        m[f"autodiff.primitive.calls.{op}"] = (op_calls(f"autodiff.{op}"),
                                               "count")
        m[f"autodiff.primitive.ms.{op}"] = (1000 * op_s(f"autodiff.{op}"),
                                            "ms")
    m["autodiff.bytes_computed"] = (count("autodiff.bytes_computed"), "B")
    m["process.gc_pause.ms"] = (1000 * count("process.gc_pause_s"), "ms")
    for name in ("load_jsonl", "from_dict", "to_dict"):
        m[f"qdg.{name}.s"] = (op_s(f"qdg.{name}"), "s")
    m["qdg.from_dict.calls"] = (op_calls("qdg.from_dict"), "count")
    for name in ("load_predictions_jsonl", "tally_counts",
                 "accuracy_breakdown", "emit_report"):
        m[f"metrics.{name}.s"] = (op_s(f"metrics.{name}"), "s")
    m["metrics.degenerate_flags"] = (count("metrics.degenerate_flags"),
                                     "count")
    plain = nodes_per_s(result.untraced, result)
    traced = nodes_per_s(t, result)
    m["trace.untraced_nodes_per_s"] = (plain, "nodes/s")
    m["trace.traced_nodes_per_s"] = (traced, "nodes/s")
    m["trace.overhead_frac"] = (1 - traced / plain if plain else 0.0,
                                "fraction")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    load_program()

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in result.problems:
        print(f"FAILED CHECK: {problem}")
    e2e = end_to_end(args.workload, result)
    for name, value, unit, note in e2e:
        print(f"{args.workload} {name} = {value:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    if args.trace:
        metrics = per_layer(result)
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        result.traced.dump(OUT / f"spans-{args.workload}.npz",
                           {"workload": args.workload, "seed": args.seed,
                            "env": env})
    else:
        gated = {name: (value, unit) for name, value, unit, _ in e2e}
        metrics = {name: gated[name] for name, _ in END_TO_END}
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
