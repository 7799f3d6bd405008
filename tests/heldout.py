"""Held-out yardstick for changes that move numerics.

Acceptance criteria 6 and 7 judge best-validation numbers at run seeds 0-2,
scored on the split that also picked each checkpoint.  This script trains
the four rows that criterion 6 compares (backbone, aligner, aggregator,
full) on the default config at other seeds, and scores each run's best
checkpoint on its validation split, its test split and 1,000 fresh
clusters (indices 120-1,119, drawn with the run's own `SignalBank`).

Per row, seed and split it gives main accuracy, c_f, ic and, for the rows
with an aligner, relevance recall and precision.  ic (internal
consistency) is the share of first-order pairs whose predicted parent
answer equals the edge operator's program, `synth.apply_program`, over the
predicted children in program order; every synthetic operator has one.
Per row it adds the mean over seeds with a 95% bootstrap interval.  It is
no gate: pytest does not collect it, and `test_heldout.py` only checks
that it runs.

    PYTHONPATH=src python tests/heldout.py [--out FILE]

prints the table for run seeds 3-12 as one JSON object, and writes it to
FILE too.  It takes about 13 minutes on one CPU.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from qdqa import metrics
from qdqa.synth import (SyntheticConfig, apply_program, generate_clusters,
                        split_ranges)
from qdqa.train import (RunConfig, ablation_configs, pack_split,
                        predict_split, train)

ROWS = ("backbone", "aligner", "aggregator", "full")
COLUMNS = ("main", "c_f", "ic", "recall", "precision")
SEEDS = range(3, 13)
FRESH = range(120, 1120)
BOOTSTRAP = 2000


def _internal_consistency(programs, predictions) -> float:
    """Percent of parents whose predicted answer is their operator's
    program over their predicted children."""
    hits = total = 0
    for program in programs:
        for parent, (op, children) in program.items():
            total += 1
            hits += predictions[parent] == apply_program(
                op, [predictions[c] for c in children])
    return 100.0 * hits / total


def score(store, config: RunConfig, indices) -> dict:
    """One run's columns on clusters `indices` of its config's data."""
    split = generate_clusters(config.synthetic, indices)
    pack = pack_split(split, config.synthetic.vocab_index)
    predictions, relevance = predict_split(store, config, pack)
    report = metrics.full_report(pack.graphs, predictions)
    return {"main": report.accuracy["main"]["all"], "c_f": report.c_f,
            "ic": _internal_consistency(split.programs, predictions),
            "recall": relevance.get("recall"),
            "precision": relevance.get("precision")}


def _mean_interval(values, rng) -> dict:
    values = np.asarray(values, dtype=np.float64)
    draws = rng.integers(len(values), size=(BOOTSTRAP, len(values)))
    means = values[draws].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return {"mean": float(values.mean()), "lo": float(lo), "hi": float(hi)}


def heldout_table(seeds=SEEDS, steps=None) -> dict:
    """{"runs": {row: {seed: {split: columns}}}, "means": {row: {split:
    {column: {mean, lo, hi}}}}} for the default config at each seed;
    `steps` shortens the runs."""
    shorter = {} if steps is None else {"steps": steps, "eval_every": steps}
    runs = {row: {} for row in ROWS}
    for seed in seeds:
        base = RunConfig(synthetic=SyntheticConfig(seed=seed), seed=seed,
                         **shorter)
        _, validation, test = split_ranges(base.synthetic.clusters)
        ranges = {"validation": validation, "test": test, "fresh": FRESH}
        for name, cfg in ablation_configs(base):
            if name not in runs:
                continue
            report, store = train(cfg)
            scores = {split: score(store, cfg, indices)
                      for split, indices in ranges.items()}
            # the regenerated validation split is the one training scored
            if scores["validation"]["main"] != \
                    report.best_validation["val_main_acc"]:
                raise RuntimeError(f"{name} seed {seed}: validation split "
                                   "differs from the run's")
            runs[name][str(seed)] = scores
    rng = np.random.default_rng(0)
    means = {row: {split: {} for split in ranges} for row in ROWS}
    for row, per_seed in runs.items():
        for split, cols in means[row].items():
            for col in COLUMNS:
                values = [r[split][col] for r in per_seed.values()]
                if None not in values:
                    cols[col] = _mean_interval(values, rng)
    return {"runs": runs, "means": means}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    text = json.dumps(heldout_table(), indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
