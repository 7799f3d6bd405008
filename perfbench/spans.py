"""Spans around qdqa's layer boundaries, attached from outside the program.

`Probe` installs wrappers by reassigning module and class attributes of the
`qdqa` package and puts the originals back on `close()`, so no file of the
program changes.  With `full=False` it marks only what the end-to-end
metrics need: `train.train`, its set-up, each optimizer step (entry to
`train.forward_losses` through return from `Adam.step`) and each
`train.evaluate` call.  With `full=True` it also wraps the public functions
of every layer and counts work at the same boundaries.  Either way it
samples the host's speed after garbage collections (see hostspeed.py).

A span records its name, start, end, parent span and trace id.  Spans stay
in memory (flat arrays) until the run ends.  Every step, set-up,
`evaluate()` call, `train()` call and eval command starts a new trace id;
spans opened inside it share that id.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed

SETUP = "setup"
STEP = "train.step"
TRAIN = "train.train"
EVALUATE = "train.evaluate"
COMMAND = "cli.eval"
# spans that start a trace of their own
ROOTS = frozenset((SETUP, STEP, TRAIN, EVALUATE, COMMAND))

# the host's speed is sampled at the end of a garbage collection, at most
# once per SAMPLE_EVERY seconds, for SAMPLE_LOOPS loops (about 2% of the
# time); the sample's time is held out of every span open around it
SAMPLE_EVERY = 0.02
SAMPLE_LOOPS = 200

# the primitives whose calls and self time are reported one by one
REPORTED_PRIMITIVES = (
    "getitem", "stack", "concat", "matmul", "add", "mul", "reshape",
    "swapaxes", "softmax", "log_softmax", "layer_norm",
    "euclidean_distance", "relu", "reduce_sum",
)
# every tensor-producing function of autodiff gets a span, so that a
# composite such as reduce_mean is not billed to its caller
PRIMITIVES = REPORTED_PRIMITIVES + (
    "power", "reduce_mean", "exp", "log", "leaky_relu", "sigmoid",
    "embedding_lookup", "softmax_cross_entropy",
    "softmax_cross_entropy_batch",
)
# plain spans: module -> functions; the span is named "<module>.<function>"
PLAIN = {
    "synth": ("generate_dataset",),
    "train": ("pack_split", "init_params"),
    "aligner": ("aggregate_objects", "aggregate_frames", "clip_scores",
                "backbone_joint", "answer_logits"),
    "aggregator": ("gat_forward", "gat_layer", "predict_answers",
                   "edge_representations", "aggregation_loss"),
    "autodiff": PRIMITIVES + ("transformer_encoder_layer",),
    "qdg": ("load_jsonl", "from_dict", "to_dict"),
    "metrics": ("load_predictions_jsonl", "accuracy_breakdown",
                "emit_report"),
}
MODULES = ("qdg", "metrics", "autodiff", "aligner", "aggregator", "synth",
           "train", "cli")


class Tracer:
    """In-memory span store plus counters, for one measured phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.work = array("q")  # question nodes handled, where known
        self.trace_root: list[str] = []  # trace id -> root span name
        self.stack: list[int] = []  # open span indexes
        self.counts: dict[str, float] = {}
        self.host = HostSpeed()
        self.held = 0.0  # calibration time so far
        self._next_sample = 0.0
        # per span: calibration time inside it (while open: self.held then)
        self.pause = array("d")
        self.last: dict[str, object] = {}  # latest captured return values
        self.losses: list[float] = []  # total loss of every step, in order

    def open(self, name: str, work: int = 0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        parent = self.stack[-1] if self.stack else -1
        if name in ROOTS:
            tid = len(self.trace_root)
            self.trace_root.append(name)
            self.count(name)
        else:
            tid = self.trace[parent] if parent >= 0 else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.trace.append(tid)
        self.work.append(work)
        self.pause.append(self.held)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        """Close span i and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            j = self.stack.pop()
            self.end[j] = now
            self.pause[j] = self.held - self.pause[j]
            if j == i:
                return

    def sample_host(self) -> None:
        """Sample the host's speed if SAMPLE_EVERY s have passed."""
        if time.perf_counter() >= self._next_sample:
            self.held += self.host.sample(SAMPLE_LOOPS)
            self._next_sample = time.perf_counter() + SAMPLE_EVERY

    def top(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def in_setup(self) -> bool:
        setup = self._ids.get(SETUP)
        return any(self.name[j] == setup for j in self.stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- reading spans back ------------------------------------------------

    def spans(self, name: str) -> list[tuple[float, int]]:
        """(duration in s, work) of every closed span with this name;
        host samples taken inside a span are not part of its duration."""
        nid = self._ids.get(name)
        return [(self.end[i] - self.start[i] - self.pause[i], self.work[i])
                for i in range(len(self.name))
                if self.name[i] == nid and self.end[i] > 0.0]

    def self_times(self):
        """Per span name: (self s in operations, calls in operations,
        self s in set-ups).

        Self time is a span's duration minus the time its child spans
        cover; the program is single-threaded, so children never overlap.
        Spans outside every trace are the benchmark's own output checks
        calling the program, and count in neither column.
        """
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start) \
            - np.frombuffer(self.pause)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        self_t = dur - covered
        trace = np.frombuffer(self.trace, dtype=np.int32)
        setup_ids = [t for t, root in enumerate(self.trace_root)
                     if root == SETUP]
        in_setup = np.isin(trace, setup_ids)
        in_ops = (trace >= 0) & ~in_setup
        k = len(self.names)
        out_s = np.bincount(names[in_ops], weights=self_t[in_ops],
                            minlength=k)
        out_calls = np.bincount(names[in_ops], minlength=k)
        in_s = np.bincount(names[in_setup], weights=self_t[in_setup],
                           minlength=k)
        return {name: (float(out_s[i]), int(out_calls[i]), float(in_s[i]))
                for i, name in enumerate(self.names)}

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span and counter; read back with numpy.load."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            pause=np.frombuffer(self.pause),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
            meta=np.array(json.dumps({
                **meta, "names": self.names, "trace_root": self.trace_root,
                "counts": self.counts,
            })),
        )


def tape_size(loss) -> int:
    """Tensors reachable from `loss` through parent links, the loss itself
    and leaves (parameters and constant inputs) included."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


class Probe:
    """Wrappers that feed one Tracer; use as a context manager."""

    def __init__(self, tracer: Tracer, full: bool):
        self.tracer = tracer
        self.full = full
        self.mods = {m: importlib.import_module(f"qdqa.{m}") for m in MODULES}
        self._undo: list[tuple[object, str, object]] = []
        self._gc_start = None

    def __enter__(self):
        try:
            self._install()
            # last, so that a sample is not billed to the gc pause
            gc.callbacks.append(self._sample_host)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        for callback in (self._on_gc, self._sample_host):
            if callback in gc.callbacks:
                gc.callbacks.remove(callback)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, module: str, attr: str, make) -> None:
        """Swap a function everywhere the package refers to it by name,
        e.g. train's own `generate_dataset` binding as well as synth's."""
        original = getattr(self.mods[module], attr)
        wrapped = make(original)
        for mod in self.mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _span(self, name: str, fn):
        tracer = self.tracer

        def wrapped(*args, **kwargs):
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
        return wrapped

    def _install(self) -> None:
        t, full = self.tracer, self.full
        ad = self.mods["autodiff"]

        def train_wrap(fn):
            def wrapped(*args, **kwargs):
                i = t.open(TRAIN)
                t.open(SETUP)  # closed by the first step
                try:
                    return fn(*args, **kwargs)
                finally:
                    t.close(i)
            return wrapped

        def forward_wrap(fn):
            def wrapped(pack, cluster_ids, *args, **kwargs):
                if t.top() == SETUP:
                    t.close(t.stack[-1])
                nodes = sum(len(pack.clusters[c][1]) for c in cluster_ids)
                t.open(STEP, work=nodes)
                i = t.open("train.forward_losses") if full else None
                try:
                    out = fn(pack, cluster_ids, *args, **kwargs)
                finally:
                    if i is not None:
                        t.close(i)
                t.losses.append(float(out[1].data))
                return out
            return wrapped

        def adam_step(fn):
            def wrapped(opt):
                i = t.open("autodiff.adam_step") if full else None
                try:
                    return fn(opt)
                finally:
                    if i is not None:
                        t.close(i)
                    if t.top() == STEP:
                        t.close(t.stack[-1])
            return wrapped

        def evaluate_wrap(fn):
            def wrapped(store, config, pack, *args, **kwargs):
                i = t.open(EVALUATE, work=pack.n_nodes)
                try:
                    return fn(store, config, pack, *args, **kwargs)
                finally:
                    t.close(i)
            return wrapped

        def capture(name, fn, on_result=None):
            def wrapped(*args, **kwargs):
                i = t.open(name) if full else None
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if i is not None:
                        t.close(i)
                t.last[name] = out
                if full and on_result is not None:
                    on_result(out)
                return out
            return wrapped

        def on_relevance(out):
            if out[1]:
                t.last["relevance"] = out[1]

        self._replace("train", "train", train_wrap)
        self._replace("train", "forward_losses", forward_wrap)
        self._set(ad.Adam, "step", adam_step(ad.Adam.step))
        self._replace("train", "evaluate", evaluate_wrap)
        self._replace("train", "predict_split",
                      lambda fn: capture("train.predict_split", fn,
                                         on_relevance))
        self._replace("metrics", "tally_counts",
                      lambda fn: capture("metrics.tally_counts", fn))
        if not full:
            return

        for module, names in PLAIN.items():
            for attr in names:
                self._replace(module, attr,
                              lambda fn, n=f"{module}.{attr}":
                              self._span(n, fn))
        self._set(ad.ParamStore, "save",
                  self._span("autodiff.param_store_save",
                             ad.ParamStore.save))

        backward = ad.Tensor.backward

        def backward_wrap(loss, grad=None):
            t.count("autodiff.tape_nodes", tape_size(loss))
            i = t.open("autodiff.backward")
            try:
                return backward(loss, grad)
            finally:
                t.close(i)
        self._set(ad.Tensor, "backward", backward_wrap)

        def make_wrap(fn):
            def wrapped(data, parents, backward):
                out = fn(data, parents, backward)
                t.count("autodiff.bytes_computed", out.data.nbytes)
                return out
            return wrapped
        self._replace("autodiff", "_make", make_wrap)

        def gumbel_wrap(fn):
            def wrapped(*args, **kwargs):
                i = t.open("autodiff.gumbel_softmax")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t.close(i)
                hard = kwargs.get("hard", args[2] if len(args) > 2 else False)
                if hard and out.ndim >= 2:
                    picks = out.data.sum(axis=-2)  # [..., 2] clips per side
                    t.count("aligner.gumbel_rows", picks[..., 0].size)
                    t.count("aligner.forced_rows",
                            int((picks.min(axis=-1) == 0).sum()))
                return out
            return wrapped
        self._replace("autodiff", "gumbel_softmax", gumbel_wrap)

        def triplet_wrap(fn):
            def wrapped(edge_reprs, *args, **kwargs):
                per_type: dict = {}
                for etype, _ in edge_reprs:
                    per_type[etype] = per_type.get(etype, 0) + 1
                used = sum(c for c in per_type.values()
                           if c > 1 and len(per_type) > 1)
                t.count("aggregator.triplet_edges", len(edge_reprs))
                t.count("aggregator.triplet_edges_used", used)
                i = t.open("aggregator.edge_triplet_loss")
                try:
                    return fn(edge_reprs, *args, **kwargs)
                finally:
                    t.close(i)
            return wrapped
        self._replace("aggregator", "edge_triplet_loss", triplet_wrap)

        def full_report_wrap(fn):
            def wrapped(*args, **kwargs):
                i = t.open("metrics.full_report")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t.close(i)
                t.count("metrics.degenerate_flags",
                        len(out.degenerate_flags))
                return out
            return wrapped
        self._replace("metrics", "full_report", full_report_wrap)

        gc.callbacks.append(self._on_gc)

    def _sample_host(self, phase, info):
        if phase == "stop":
            self.tracer.sample_host()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if not self.tracer.in_setup():  # pauses per operation only
                self.tracer.count("process.gc_pause_s",
                                  time.perf_counter() - self._gc_start)
            self._gc_start = None
