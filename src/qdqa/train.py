"""Joint training harness on synthetic clusters: backbone + clip aligner +
graph aggregator, with ablation flags gating each loss term.

Everything is batched over nodes (videos stacked along a leading axis) so a
full run stays in the seconds-to-minutes range on a plain CPU, and fully
deterministic given the run seed.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import count
from pathlib import Path

import numpy as np

from . import aggregator, aligner, autodiff as ad, metrics
from .autodiff import Adam, ParamStore, ShapeError, Tensor
from .synth import (MIN_CLUSTERS, ConfigError, SyntheticConfig,
                    generate_dataset)


class NonFiniteLossError(ArithmeticError):
    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class RunConfig:
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    h: int = 16  # joint feature width
    layers: int = 2  # aggregator attention depth
    heads: int = 2
    temperature: float = 1.0
    margin: float = 1.0
    lr: float = 1e-2
    grad_clip: float = 5.0  # global gradient-norm cap; 0 disables
    steps: int = 2000
    batch_clusters: int = 8
    eval_every: int = 250
    use_aligner: bool = True
    use_aggregator: bool = True
    use_triplet: bool = True
    use_contrastive: bool = True
    alignment_weight: float = 1.0
    aggregation_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.synthetic, dict):
            self.synthetic = SyntheticConfig(**self.synthetic)
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.seed < 0:  # numpy's seeding error would not name the key
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.h, self.layers, self.heads, self.batch_clusters,
               self.eval_every) < 1:
            raise ConfigError("all model/loop dimensions must be >= 1")
        if self.lr <= 0 or self.temperature <= 0:
            raise ConfigError("lr and temperature must be positive")
        if self.grad_clip < 0:
            raise ConfigError("grad_clip must be >= 0")
        if self.use_aligner and self.synthetic.h_q != self.synthetic.h_v:
            raise ConfigError(
                "the aligner fuses question tokens into video space and "
                "needs h_q == h_v"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """A config from JSON; a document that is not an object, an unknown
        key or a value of the wrong type raises ConfigError naming it."""
        return cls(**_checked(cls(), json.loads(text), "config"))


def _checked(default, raw, path: str):
    """`raw`, parsed from JSON at key path `path`, checked against
    `default`: key by key where the default is a dataclass, else by type;
    a float must be finite."""
    if is_dataclass(default):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must be a JSON object")
        unknown = sorted(raw.keys() - {f.name for f in fields(default)})
        if unknown:
            raise ConfigError(f"unknown config key {path}.{unknown[0]}")
        return {key: _checked(getattr(default, key), value, f"{path}.{key}")
                for key, value in raw.items()}
    kind = (int, float) if type(default) is float else type(default)
    if isinstance(raw, bool) != isinstance(default, bool) or \
            not isinstance(raw, kind):
        raise ConfigError(f"{path} must be {type(default).__name__}, got "
                          f"{type(raw).__name__}")
    # json reads NaN and Infinity; `norm > nan` is False, so a NaN
    # grad_clip would turn clipping off, and the report would not be JSON
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ConfigError(f"{path} must be finite, got {raw}")
    return raw


@dataclass
class RunReport:
    config: dict
    epochs: list  # one dict per evaluation point
    best_step: int
    best_validation: dict
    test: dict
    relevance: dict  # precision/recall of the hard indicator, or {}
    wall_clock: float = 0.0

    def to_json(self) -> str:
        """Canonical report; excludes wall-clock so reruns are
        byte-identical."""
        payload = asdict(self)
        del payload["wall_clock"]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def epochs_csv(self) -> str:
        cols = ["step", "train_loss", "answer_ce", "contrastive",
                "aggregation", "val_main_acc", "val_sub_acc", "val_c_f",
                "val_nc_f", "val_rel_precision", "val_rel_recall"]
        lines = [",".join(cols)]
        for row in self.epochs:
            lines.append(",".join(
                "" if row.get(c) is None else f"{row[c]:.6f}"
                for c in cols
            ))
        return "\n".join(lines) + "\n"


@dataclass
class PackedSplit:
    """One dataset split flattened to node-major arrays."""

    graphs: list
    f_o: np.ndarray  # [N, n_c, n_f, n_o, h_v]
    f_a: np.ndarray
    f_m: np.ndarray
    f_q: np.ndarray  # [N, n_q, h_q]
    gold: np.ndarray  # [N] vocab indices
    node_ids: list
    planted: np.ndarray  # [N, n_c] bool, True at planted-relevant clips
    # (graph, {node id -> global row}); a cluster's rows run contiguously
    # in `graph.nodes` (id) order, from where the previous cluster's ended
    clusters: list

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


def pack_split(instances, vocab_index: dict) -> PackedSplit:
    """The instances' stacked arrays concatenated in order."""
    node_ids, gold, clusters = [], [], []
    for inst in instances:
        ids = [node.id for node in inst.graph.nodes]
        clusters.append((inst.graph, dict(zip(ids, count(len(node_ids))))))
        node_ids += ids
        gold += [vocab_index[inst.gold[nid]] for nid in ids]

    def cat(name):
        return np.concatenate([getattr(inst, name) for inst in instances])

    return PackedSplit(
        graphs=[inst.graph for inst in instances],
        f_o=cat("f_o"), f_a=cat("f_a"), f_m=cat("f_m"), f_q=cat("q"),
        gold=np.array(gold, dtype=np.int64),
        node_ids=node_ids, planted=cat("planted"), clusters=clusters,
    )


def init_params(config: RunConfig) -> ParamStore:
    store = ParamStore(seed=config.seed)
    sc = config.synthetic
    vocab = len(sc.vocab)
    if config.use_aligner:
        aligner.init_aligner_params(store, sc.h_v, config.heads)
    aligner.init_backbone_params(store, sc.h_v, sc.h_q, config.h)
    aligner.init_answer_head(store, config.h, vocab)
    if config.use_aggregator:
        aggregator.init_aggregator_params(store, config.h, config.layers,
                                          vocab)
    return store


def _clip_gradients(store: ParamStore, max_norm: float) -> None:
    """Scale all gradients so their global norm is at most max_norm.
    Late in training the loss sits near zero and a single Gumbel flip can
    produce a step large enough to wreck the converged solution; the cap
    keeps such excursions bounded."""
    if max_norm <= 0:
        return
    total = 0.0
    for t in store.params.values():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for t in store.params.values():
            if t.grad is not None:
                t.grad *= scale


# videos per block of the aligner's clip stages: they run video by video,
# so blocks give the same bits as one pass and keep the temporaries of a
# large split small; on a 1.8k-node evaluation with two workers, blocks
# of 256 raised the peak memory over a serial pass by 22%, blocks of 128 by 9%
CLIP_BLOCK = 128
# threads for the clip blocks of a pass that draws no Gumbel noise from
# its rng, by default the CPUs this process may run on (`qdqa --threads`
# sets it); a pass uses min(WORKERS, blocks // 2) and runs serially below 2
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _forward(pack: PackedSplit, rows, clusters, store: ParamStore,
             config: RunConfig, rng=None, noise=None):
    """The model on pack rows `rows`, the nodes of `clusters` in order.

    The Gumbel noise is `noise` ([len(rows), n_c, 2]) when given, else
    drawn from `rng`.  Returns (head logits [len(rows), vocab], the
    aggregator logits or None, the aligner's (f_q, clips, ind, w_rel) or
    None).

    With `noise` given, the aligner's clip blocks run on a thread pool
    (numpy drops the GIL in their loops) and are joined in block order, so
    the bits do not depend on WORKERS.  Drawing from `rng` keeps them in
    order on this thread, so the random stream is unchanged.

    The aggregator runs once per cluster, and its logits are one node id
    -> Tensor map per cluster, when a parameter of `store` requires grad.
    Otherwise (a `store.frozen()` view) it runs once per cluster size on
    the stacked clusters of that size, and its logits are one
    [len(rows), vocab] array in row order; both give the same bits.
    Training reads `joint` with one `getitem` per node, at a row that
    `_cluster_logits` numbers by distinct node id.  So a batch that holds
    a cluster twice reads wrong rows: every node of both copies reads one
    row, and every later cluster reads rows shifted back by the repeated
    cluster's size.
    """
    f_q = Tensor(pack.f_q[rows])
    if config.use_aligner:
        def block(lo):
            blk = rows[lo:lo + CLIP_BLOCK]
            f_q_blk = f_q if len(blk) == len(rows) else Tensor(pack.f_q[blk])
            f_m_c, clips_blk = aligner.clip_pipeline(
                Tensor(pack.f_o[blk]), Tensor(pack.f_a[blk]),
                Tensor(pack.f_m[blk]), f_q_blk, store, config.heads)
            ind_blk, _ = aligner.hard_indicator(
                f_m_c, f_q_blk, store, config.heads, config.temperature, rng,
                None if noise is None else noise[lo:lo + CLIP_BLOCK])
            return clips_blk, ind_blk

        starts = range(0, len(rows), CLIP_BLOCK)
        workers = min(WORKERS, len(starts) // 2)
        if noise is not None and workers > 1:
            # each block runs in a copy of this thread's context, so the
            # caller's numpy error state holds on the pool threads too
            with ThreadPoolExecutor(workers) as pool:
                clips, ind = zip(*pool.map(
                    lambda ctx, lo: ctx.run(block, lo),
                    [contextvars.copy_context() for _ in starts], starts))
        else:
            clips, ind = zip(*map(block, starts))
        if len(clips) > 1:
            clips, ind = ad.concat(clips, axis=0), ad.concat(ind, axis=0)
        else:  # one block builds the tape of a single pass
            (clips,), (ind,) = clips, ind
        w_rel = ad.getitem(ind, (slice(None), slice(None), 0))
        aligned = (f_q, clips, ind, w_rel)
    else:
        clips, w_rel, aligned = Tensor(pack.f_m[rows]), None, None
    joint = aligner.backbone_joint(clips, f_q, store, clip_weights=w_rel)
    head = aligner.answer_logits(joint, store)

    agg = None
    if config.use_aggregator:
        if any(t.requires_grad for t in store.params.values()):
            agg = _cluster_logits(joint, clusters, store, config.layers)
        else:
            agg = _grouped_logits(joint, clusters, store, config.layers)
    return head, agg, aligned


def _cluster_logits(joint: Tensor, clusters, store: ParamStore,
                    layers: int) -> list:
    """One aggregator pass per cluster on one `getitem` row per node;
    returns one {node id: logits row Tensor} map per cluster."""
    local = {}
    for _, rows_map in clusters:
        for nid in rows_map:
            local[nid] = len(local)
    maps = []
    for g, rows_map in clusters:
        feats = ad.stack([ad.getitem(joint, local[nid]) for nid in rows_map])
        outputs, _ = aggregator.gat_forward(
            feats, aggregator.neighbor_mask(g), store, layers)
        head = aggregator.predict_answers(outputs, store)
        maps.append({nid: ad.getitem(head, i)
                     for i, nid in enumerate(rows_map)})
    return maps


def _grouped_logits(joint: Tensor, clusters, store: ParamStore,
                    layers: int) -> np.ndarray:
    """One aggregator pass per cluster size over the stacked clusters of
    that size; returns the logits [len(joint), vocab] in joint's rows."""
    groups: dict[int, tuple[list, list]] = {}
    start = 0
    for g, rows_map in clusters:
        idx, masks = groups.setdefault(len(rows_map), ([], []))
        idx.append(range(start, start + len(rows_map)))
        masks.append(aggregator.neighbor_mask(g))
        start += len(rows_map)
    logits = np.empty((start, store["ag.head.b"].shape[0]))
    for idx, masks in groups.values():
        idx = np.asarray(idx)  # [B, n]
        outputs, _ = aggregator.gat_forward(
            ad.getitem(joint, idx), np.stack(masks), store, layers)
        logits[idx] = aggregator.predict_answers(outputs, store).data
    return logits


def forward_losses(pack: PackedSplit, cluster_ids, store: ParamStore,
                   config: RunConfig, rng, noise=None):
    """Gated loss terms on a batch of whole clusters.

    Returns (terms dict, total Tensor).  `rng` draws the Gumbel noise
    (unless `noise` is given) and the triplet samples.  Terms that are
    gated off are never computed and never consume randomness, so a
    reduced model is reproduced bit-identically.
    """
    batch = [pack.clusters[i] for i in cluster_ids]
    rows = np.concatenate([
        np.fromiter(rows_map.values(), dtype=np.int64)
        for _, rows_map in batch
    ])
    head, maps, aligned = _forward(pack, rows, batch, store, config, rng,
                                   noise)
    terms = {}
    if aligned is not None and config.use_contrastive:
        terms["contrastive"] = aligner.anchor_contrastive(*aligned, store)
    terms["answer_ce"] = ad.softmax_cross_entropy_batch(head, pack.gold[rows])
    if maps is not None:
        graph_logits = [(g, lm) for (g, _), lm in zip(batch, maps)]
        if config.use_triplet:
            reprs = aggregator.edge_representations(graph_logits, store)
            triplet = aggregator.edge_triplet_loss(reprs, config.margin,
                                                   rng)
        else:
            triplet = Tensor(0.0)
        # nodes in batch-cluster order, id-sorted: the order of `rows`
        terms["aggregation"] = aggregator.aggregation_loss(
            ad.stack([lm[node.id] for g, lm in graph_logits
                      for node in g.nodes]),
            pack.gold[rows], triplet)

    total = ad.mul(terms["answer_ce"], config.alignment_weight)
    if "contrastive" in terms:
        total = ad.add(total, ad.mul(terms["contrastive"],
                                     config.alignment_weight))
    if "aggregation" in terms:
        total = ad.add(total, ad.mul(terms["aggregation"],
                                     config.aggregation_weight))
    return terms, total


def predict_split(store: ParamStore, config: RunConfig, pack: PackedSplit):
    """Deterministic (zero-noise) predictions over a whole split.

    Returns (predictions: node id -> answer token in `pack.node_ids`
    order, relevance stats dict).  Runs on a frozen view of the store, so
    no autodiff tape is recorded and the aggregator runs once per cluster
    size.
    """
    _check_dims(store, config)
    head, agg, aligned = _forward(
        pack, np.arange(pack.n_nodes), pack.clusters, store.frozen(), config,
        noise=np.zeros(pack.planted.shape + (2,)))
    answers = np.argmax(head.data if agg is None else agg, axis=-1)
    vocab = config.synthetic.vocab
    predictions = {nid: vocab[i]
                   for nid, i in zip(pack.node_ids, answers.tolist())}
    relevance = {}
    if aligned is not None:
        picked = aligned[3].data > 0.5
        hit = int((picked & pack.planted).sum())
        planted = int(pack.planted.sum())
        chosen = int(picked.sum())
        relevance = {
            "recall": hit / planted if planted else 0.0,
            "precision": hit / chosen if chosen else 0.0,
        }
    return predictions, relevance


# repr(config) -> {parameter name: shape} of init_params(config); the repr
# names every field's value, and a process sees few distinct configs
_PARAM_SHAPES: dict[str, dict] = {}


def _check_dims(store: ParamStore, config: RunConfig):
    """Every parameter the config's model reads must be in the store with
    the shape init_params gives it; extra parameters are allowed.  The
    shapes come from one init_params call per distinct config."""
    key = repr(config)
    shapes = _PARAM_SHAPES.get(key)
    if shapes is None:
        shapes = _PARAM_SHAPES[key] = {
            name: t.shape for name, t in init_params(config).params.items()}
    for name, want in shapes.items():
        if name not in store:
            raise ShapeError(f"checkpoint has no parameter {name!r}")
        if store[name].shape != want:
            raise ShapeError(
                f"checkpoint parameter {name!r} has shape "
                f"{store[name].shape}, expected {want}"
            )


def evaluate(store: ParamStore, config: RunConfig, pack: PackedSplit):
    """Side-effect-free split evaluation; returns (MetricsReport,
    relevance stats)."""
    predictions, relevance = predict_split(store, config, pack)
    return metrics.full_report(pack.graphs, predictions), relevance


def _epoch_row(step, loss_avgs, report, relevance):
    return {
        "step": step,
        "train_loss": loss_avgs.get("total"),
        "answer_ce": loss_avgs.get("answer_ce"),
        "contrastive": loss_avgs.get("contrastive"),
        "aggregation": loss_avgs.get("aggregation"),
        "val_main_acc": report.accuracy["main"]["all"],
        "val_sub_acc": report.accuracy["sub"]["all"],
        "val_c_f": report.c_f,
        "val_nc_f": report.nc_f,
        "val_rel_precision": relevance.get("precision"),
        "val_rel_recall": relevance.get("recall"),
    }


def _first_non_finite(store: ParamStore):
    """Name of the first parameter whose data or held gradient has a
    non-finite entry, else None."""
    for name, t in store.params.items():
        if not np.isfinite(t.data).all() or (
                t.grad is not None and not np.isfinite(t.grad).all()):
            return name
    return None


def _train_step(pack: PackedSplit, batch, store: ParamStore, opt: Adam,
                config: RunConfig, rng, step: int) -> dict:
    """One optimizer step on the clusters `batch`; returns the loss terms
    and "total" as floats.  The step's tape is reachable only from this
    call's locals, so it is freed on return, before the next step's
    forward."""
    terms, total = forward_losses(pack, batch, store, config, rng)
    losses = {"total": float(total.data),
              **{k: float(v.data) for k, v in terms.items()}}
    if not math.isfinite(losses["total"]):
        raise NonFiniteLossError(
            f"non-finite loss at step {step}",
            # JSON has no number for inf or nan: they go as "inf", "nan"
            dump={"step": step,
                  **{k: v if math.isfinite(v) else repr(v)
                     for k, v in losses.items() if k != "total"},
                  "param": _first_non_finite(store)},
        )
    store.zero_grad()
    total.backward()
    _clip_gradients(store, config.grad_clip)
    opt.step()
    return losses


def _packed_splits(config: RunConfig):
    """The config's dataset packed into (train, validation, test) splits,
    and the seconds spent generating and packing it.  The raw instances
    die on return: the packs hold copies of their arrays."""
    started = time.monotonic()
    ds = generate_dataset(config.synthetic)
    generate_s = time.monotonic() - started
    for name in ("train", "validation", "test"):
        if not getattr(ds, name):
            raise ConfigError(
                f"the {name} split is empty: synthetic.clusters is "
                f"{config.synthetic.clusters}, and must be at least "
                f"{MIN_CLUSTERS}")
    packing = time.monotonic()
    packs = tuple(pack_split(split, config.synthetic.vocab_index)
                  for split in (ds.train, ds.validation, ds.test))
    return packs, generate_s, time.monotonic() - packing


# a non-finite loss fails _train_step's check with the JSON error, which
# numpy's overflow and invalid-value warnings would only repeat
@np.errstate(all="ignore")
def train(config: RunConfig, out_dir=None) -> tuple[RunReport, ParamStore]:
    """Optimize the gated joint loss; checkpoint the best validation c-F1.

    Returns (report, store-with-best-parameters).  With out_dir, also
    writes report.json, epochs.csv, runtime.json, and checkpoint/.
    """
    started = time.monotonic()
    (train_pack, val_pack, test_pack), generate_s, pack_s = \
        _packed_splits(config)
    rng = np.random.default_rng([config.seed, 77])
    if out_dir is not None:  # an unwritable path fails before step 1
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

    store = init_params(config)
    opt = Adam(store, lr=config.lr)

    report0, rel0 = evaluate(store, config, val_pack)
    epochs = [_epoch_row(0, {}, report0, rel0)]
    best = {"step": 0, "c_f": report0.c_f,
            "params": {n: t.data.copy() for n, t in store.params.items()},
            "row": epochs[0]}

    queue: list[int] = []
    sums: dict[str, float] = {}
    n_batches = 0
    for step in range(1, config.steps + 1):
        while len(queue) < config.batch_clusters:
            queue.extend(rng.permutation(len(train_pack.clusters)).tolist())
        batch = queue[:config.batch_clusters]
        del queue[:config.batch_clusters]

        # linear warmdown: locks the solution in late in training instead
        # of letting a rare large step wreck a converged model
        opt.lr = config.lr * (1.0 - (step - 1) / max(config.steps, 1))
        losses = _train_step(train_pack, batch, store, opt, config, rng,
                             step)
        for name, value in losses.items():
            sums[name] = sums.get(name, 0.0) + value
        n_batches += 1

        if step % config.eval_every == 0 or step == config.steps:
            report, rel = evaluate(store, config, val_pack)
            avgs = {k: v / n_batches for k, v in sums.items()}
            row = _epoch_row(step, avgs, report, rel)
            epochs.append(row)
            sums, n_batches = {}, 0
            if report.c_f > best["c_f"] or (
                report.c_f == best["c_f"]
                and row["val_main_acc"] > best["row"]["val_main_acc"]
            ):
                best = {"step": step, "c_f": report.c_f,
                        "params": {n: t.data.copy()
                                   for n, t in store.params.items()},
                        "row": row}

    for name, data in best["params"].items():
        store.params[name].data = data.copy()
    test_report, test_rel = evaluate(store, config, test_pack)

    report = RunReport(
        config=json.loads(config.to_json()),
        epochs=epochs,
        best_step=best["step"],
        best_validation=best["row"],
        test=json.loads(metrics.emit_report(test_report)),
        relevance=test_rel,
        wall_clock=time.monotonic() - started,
    )
    if out_dir is not None:
        (out / "report.json").write_text(report.to_json())
        (out / "epochs.csv").write_text(report.epochs_csv())
        (out / "runtime.json").write_text(
            json.dumps({"wall_clock": report.wall_clock,
                        "generate_s": generate_s, "pack_s": pack_s,
                        # ru_maxrss is in KiB on Linux
                        "peak_rss_mb": resource.getrusage(
                            resource.RUSAGE_SELF).ru_maxrss / 1024}) + "\n"
        )
        store.save(out / "checkpoint")
        (out / "run_config.json").write_text(config.to_json())
    return report, store


ABLATION_ROWS = (
    ("backbone", dict(use_aligner=False, use_aggregator=False,
                      use_triplet=False, use_contrastive=False)),
    ("aligner", dict(use_aligner=True, use_aggregator=False,
                     use_triplet=False, use_contrastive=True)),
    ("aggregator", dict(use_aligner=False, use_aggregator=True,
                        use_triplet=False, use_contrastive=False)),
    ("aggregator_triplet", dict(use_aligner=False, use_aggregator=True,
                                use_triplet=True, use_contrastive=False)),
    ("full", dict(use_aligner=True, use_aggregator=True, use_triplet=True,
                  use_contrastive=True)),
)


def ablation_configs(base: RunConfig, rows=ABLATION_ROWS):
    """Variants sharing the base seed and data, differing only in flags."""
    raw = asdict(base)
    out = []
    for name, flags in rows:
        cfg = dict(raw)
        cfg.update(flags)
        out.append((name, RunConfig(**cfg)))
    return out


def ablate(base: RunConfig, rows=ABLATION_ROWS) -> dict:
    """Train every flag variant; rows of best-validation metrics."""
    table = {}
    for name, cfg in ablation_configs(base, rows):
        report, _ = train(cfg)
        row = report.best_validation
        table[name] = {
            "main_acc": row["val_main_acc"],
            "sub_acc": row["val_sub_acc"],
            "c_f": row["val_c_f"],
            "nc_f": row["val_nc_f"],
        }
    return table


def ablation_csv(table: dict) -> str:
    cols = ["row", "main_acc", "sub_acc", "c_f", "nc_f"]
    lines = [",".join(cols)]
    for name, row in table.items():
        lines.append(",".join(
            [name] + [f"{row[c]:.4f}" for c in cols[1:]]
        ))
    return "\n".join(lines) + "\n"
