"""The four benchmark workloads and their output checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Each builds its
inputs from the seed alone and hands the program only those inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import COMMAND, EVALUATE, SETUP, STEP, Probe, Tracer

# A train() call is the default RunConfig cut to TRAIN_STEPS steps, so that
# several whole calls (and so several set-ups) fit in one run.
TRAIN_STEPS = 60
EVAL_EVERY = 20
# 400 clusters put about 1.8k question nodes in the train split
EVAL_CLUSTERS = 400
CORPUS_GRAPHS = 10_000
# A round is one set-up and the operations that use it; rounds repeat until
# the budget is spent, so set-ups are sampled across the whole run.
MIN_ROUNDS = 3
EVALS_PER_SETUP = 4  # evaluate() calls per eval_full round
BUCKETS = ("n_pp", "n_pm", "n_mp", "n_mm")


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Result:
    """What one workload run measured and checked."""

    untraced: Tracer
    traced: Tracer | None
    op_span: str  # STEP, EVALUATE or COMMAND
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # train_*: the deterministic "c_f" and "rel_recall" of the first call
    recorded: dict = field(default_factory=dict)
    setup_peak_mb: float | None = None  # peak RSS after the first set-up

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what not in self.problems:
                self.problems.append(what)


def _repeat(result: Result, call, budget: float, min_calls: int) -> None:
    """Call until the next call would likely end after `budget` seconds.

    An exception from the program is a failed operation; it ends the loop,
    since the same inputs would fail again.
    """
    began = time.perf_counter()
    took = []
    while True:
        t0 = time.perf_counter()
        try:
            call()
        except Exception as exc:  # report it as a failed operation
            result.check(False, f"{type(exc).__name__}: {exc}")
            return
        took.append(time.perf_counter() - t0)
        used = time.perf_counter() - began
        if len(took) >= min_calls and used + statistics.median(took) > budget:
            return


def _measure(result: Result, one_round, seconds: float, trace: bool) -> None:
    """One untimed warm-up round, then rounds until `seconds` are spent.

    The first round in a process runs cold (imports, first-touch memory,
    caches) and would count against the untraced phase alone, so it runs on
    a tracer that is thrown away; its output checks still count.  A traced
    run spends half its budget untraced and half traced, in that order, so
    that tracing overhead is measured within one warm process.
    """
    with Probe(Tracer(), full=False) as probe:
        _repeat(result, lambda: one_round(probe.tracer), 0.0, min_calls=1)
    budget = seconds / 2 if trace else seconds
    with Probe(result.untraced, full=False):
        _repeat(result, lambda: one_round(result.untraced), budget,
                min_calls=MIN_ROUNDS)
    if trace:
        result.traced = Tracer()
        with Probe(result.traced, full=True):
            _repeat(result, lambda: one_round(result.traced), budget,
                    min_calls=1)


# -- train_full / train_agg ---------------------------------------------------


def train_config(row: str, seed: int, steps: int = TRAIN_STEPS,
                 eval_every: int = EVAL_EVERY, clusters: int | None = None):
    from qdqa import synth, train as tr

    flags = dict(tr.ABLATION_ROWS)[row]
    synthetic = synth.SyntheticConfig(seed=seed)
    if clusters is not None:
        synthetic = synth.SyntheticConfig(seed=seed, clusters=clusters)
    return tr.RunConfig(synthetic=synthetic, seed=seed, steps=steps,
                        eval_every=eval_every, **flags)


def run_train(row: str, seed: int, seconds: float, trace: bool,
              scratch: Path, **config_kw) -> Result:
    """Repeated same-seed `train.train(cfg, out_dir=...)` calls."""
    from qdqa import train as tr

    cfg = train_config(row, seed, **config_kw)
    result = Result(untraced=Tracer(), traced=None, op_span=STEP)
    reports: list[str] = []

    def one_call(tracer: Tracer) -> None:
        first = len(tracer.losses)
        evals = tracer.counts.get(EVALUATE, 0)
        report, _ = tr.train(cfg, out_dir=scratch / "train")
        losses = tracer.losses[first:]
        for loss in losses:  # every step is an operation
            result.check(math.isfinite(loss), "non-finite step loss")
        for _ in range(tracer.counts.get(EVALUATE, 0) - evals):
            result.check(True, "evaluate() call")
        w = max(1, len(losses) // 4)
        result.check(
            statistics.fmean(losses[-w:]) < statistics.fmean(losses[:w]),
            "last-window mean loss not below the first window's",
        )
        text = report.to_json()
        if reports:
            result.check(text == reports[0],
                         "same-seed train() reports are not byte-identical")
        else:
            best = report.best_validation
            result.recorded = {"c_f": best["val_c_f"],
                               "rel_recall": best["val_rel_recall"]}
        reports.append(text)

    _measure(result, one_call, seconds, trace)
    return result


# -- eval_full ----------------------------------------------------------------


def run_eval(seed: int, seconds: float, trace: bool, scratch: Path,
             clusters: int = EVAL_CLUSTERS) -> Result:
    """Rounds of one set-up (a large split and full-row parameters fresh
    from `train.init_params`) and repeated `train.evaluate()` calls on it.
    Every set-up of a run builds the same inputs from the same seed."""
    from qdqa import synth, train as tr

    cfg = tr.RunConfig(synthetic=synth.SyntheticConfig(seed=seed,
                                                       clusters=clusters),
                       seed=seed)
    result = Result(untraced=Tracer(), traced=None, op_span=EVALUATE)
    state = {}

    def setup(tracer: Tracer) -> None:
        state.pop("pack", None)  # so the old inputs do not add to the peak
        state.pop("store", None)
        i = tracer.open(SETUP)
        ds = synth.generate_dataset(cfg.synthetic)
        pack = tr.pack_split(ds.train, cfg.synthetic.vocab_index)
        store = tr.init_params(cfg)
        tracer.close(i)
        state.update(pack=pack, store=store)
        if result.setup_peak_mb is None:
            result.setup_peak_mb = peak_rss_mb()

    def one_call(tracer: Tracer) -> None:
        tr.evaluate(state["store"], cfg, state["pack"])
        result.check(True, "evaluate() call")
        predictions = tracer.last["train.predict_split"][0]
        if "predictions" in state:
            result.check(predictions == state["predictions"],
                         "repeated evaluate() calls predict differently")
        else:
            state["predictions"] = predictions

    def one_round(tracer: Tracer) -> None:
        setup(tracer)
        for _ in range(EVALS_PER_SETUP):
            one_call(tracer)

    _measure(result, one_round, seconds, trace)
    return result


# -- score_corpus -------------------------------------------------------------

EDGE_TYPES = ("Choose", "Conjunction", "Disjunction", "Equals")
OPEN = ("red", "blue", "green")


def _right(answer: str, rng: random.Random) -> str:
    """A correct answer, sometimes in another case or padded."""
    roll = rng.random()
    if roll < 0.1:
        return answer.upper()
    if roll < 0.2:
        return f" {answer} "
    return answer


def _wrong(kind: str, answer: str, rng: random.Random) -> str:
    if kind == "binary":
        return "no" if answer == "yes" else "yes"
    return rng.choice([a for a in OPEN if a != answer] + ["purple"])


def make_corpus(seed: int, n_graphs: int):
    """Yield (graph document, gold rows, pred rows, bucket counts) per
    graph; the counts come from the generator's own knowledge of which
    answers are right.

    Trees of 2 to 30 nodes and depth 1 to 4; every graph has its own
    accuracy so all four buckets fill.  Node ids are unique corpus-wide.
    """
    rng = random.Random(seed)
    for g in range(n_graphs):
        size = rng.randint(2, 30)
        max_depth = rng.randint(1, 4)
        accuracy = rng.uniform(0.3, 0.95)
        nodes, edges, gold, pred, right, children = [], [], [], [], [], []
        frontier = []

        def add_node(depth: int) -> int:
            k = len(nodes)
            nid = f"g{g}n{k}"
            kind = rng.choice(("binary", "open"))
            answer = rng.choice(("yes", "no")) if kind == "binary" \
                else rng.choice(OPEN)
            ok = rng.random() < accuracy
            nodes.append({"id": nid, "text": f"question {nid}",
                          "kind": kind, "role": "leaf"})
            gold.append({"id": nid, "answer": answer})
            pred.append({"id": nid, "answer": _right(answer, rng) if ok
                         else _wrong(kind, answer, rng)})
            right.append(ok)
            children.append([])
            frontier.append((k, depth))
            return k

        add_node(0)
        nodes[0]["role"] = "main"
        while len(nodes) < size and frontier:
            parent, depth = frontier.pop(0)
            if depth >= max_depth:
                continue
            for _ in range(rng.randint(1, 4)):
                if len(nodes) >= size:
                    break
                child = add_node(depth + 1)
                children[parent].append(child)
                edges.append({"parent": nodes[parent]["id"],
                              "child": nodes[child]["id"],
                              "op": rng.choice(EDGE_TYPES)})
        buckets = dict.fromkeys(BUCKETS, 0)
        for k, kids in enumerate(children):
            if not kids:
                continue
            if k:
                nodes[k]["role"] = "intermediate"
            kids_ok = all(right[c] for c in kids)
            if right[k]:
                buckets["n_pp" if kids_ok else "n_mp"] += 1
            else:
                buckets["n_pm" if kids_ok else "n_mm"] += 1
        yield ({"graph_id": f"g{g}", "video_id": f"v{g}",
                "edge_types": list(EDGE_TYPES), "nodes": nodes,
                "edges": edges}, gold, pred, buckets)


def write_corpus(seed: int, n_graphs: int, files: dict) -> tuple[dict, int]:
    """Write the corpus to files["graphs"], ["gold"] and ["pred"] one graph
    at a time; return the four bucket counts and the number of nodes.

    Graphs go through the program's own `qdg.from_dict` and
    `qdg.serialize`, as a tool that emits QDG-JSON would.  Streaming keeps
    the generator's memory small, so the run's peak is the command's.
    """
    from qdqa import qdg

    buckets = dict.fromkeys(BUCKETS, 0)
    n_nodes = 0
    with open(files["graphs"], "w") as graphs, \
            open(files["gold"], "w") as gold, \
            open(files["pred"], "w") as pred:
        for doc, gold_rows, pred_rows, counted in make_corpus(seed,
                                                              n_graphs):
            graphs.write(qdg.serialize(qdg.from_dict(doc)) + "\n")
            gold.writelines(json.dumps(r) + "\n" for r in gold_rows)
            pred.writelines(json.dumps(r) + "\n" for r in pred_rows)
            for k, v in counted.items():
                buckets[k] += v
            n_nodes += len(doc["nodes"])
    return buckets, n_nodes


def run_score(seed: int, seconds: float, trace: bool, scratch: Path,
              n_graphs: int = CORPUS_GRAPHS) -> Result:
    """Rounds of writing the generated corpus (the set-up) and one
    in-process `qdqa eval` command over it."""
    from qdqa import cli, metrics

    result = Result(untraced=Tracer(), traced=None, op_span=COMMAND)
    files = {name: scratch / f"{name}.jsonl"
             for name in ("graphs", "gold", "pred")}
    out = scratch / "report.json"
    state = {}

    def setup(tracer: Tracer) -> None:
        i = tracer.open(SETUP)
        buckets, n_nodes = write_corpus(seed, n_graphs, files)
        tracer.close(i)
        state.update(buckets=buckets, n_nodes=n_nodes)
        if result.setup_peak_mb is None:
            result.setup_peak_mb = peak_rss_mb()

    argv = ["eval", "--graphs", str(files["graphs"]), "--gold",
            str(files["gold"]), "--pred", str(files["pred"]),
            "--out", str(out)]

    def one_call(tracer: Tracer) -> None:
        out.unlink(missing_ok=True)
        said = io.StringIO()
        i = tracer.open(COMMAND, work=state["n_nodes"])
        try:
            with contextlib.redirect_stdout(said):
                cli.main(argv, standalone_mode=False)
            status = json.loads(said.getvalue())["status"]
        except SystemExit as exc:  # the command's documented failure path
            status = f"exit {exc.code}"
        finally:
            tracer.close(i)
        result.check(status == "ok", "qdqa eval did not report ok")
        if status != "ok":
            return
        counts = tracer.last["metrics.tally_counts"]
        result.check(
            {k: getattr(counts, k) for k in BUCKETS} == state["buckets"],
            "tally_counts disagrees with the brute-force recount",
        )
        text = out.read_text()
        result.check(metrics.emit_report(metrics.parse_report(text)) == text,
                     "emit_report output does not round-trip")

    def one_round(tracer: Tracer) -> None:
        setup(tracer)
        one_call(tracer)

    _measure(result, one_round, seconds, trace)
    return result


WORKLOADS = {
    "train_full": lambda seed, seconds, trace, scratch, **kw:
        run_train("full", seed, seconds, trace, scratch, **kw),
    "train_agg": lambda seed, seconds, trace, scratch, **kw:
        run_train("aggregator_triplet", seed, seconds, trace, scratch, **kw),
    "eval_full": run_eval,
    "score_corpus": run_score,
}
