"""Compositional-consistency metrics over decomposition graphs.

Every consistency number derives from four counts tallied over first-order
(parent, direct-children) pairs: parent answered correctly or not, crossed
with whether *all* direct children were answered correctly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .qdg import QDG, first_order_pairs, iter_jsonl


class MissingPredictionError(KeyError):
    def __init__(self, node_id):
        super().__init__(f"no prediction for question id {node_id!r}")
        self.node_id = node_id


class MissingGoldError(KeyError):
    def __init__(self, node_id):
        super().__init__(f"no gold answer for question id {node_id!r}")
        self.node_id = node_id


def answers_match(predicted: str, gold: str) -> bool:
    """Exact match after whitespace trim and case-fold."""
    return predicted.strip().casefold() == gold.strip().casefold()


@dataclass(frozen=True)
class ConsistencyCounts:
    """The four buckets: p/m = parent right/wrong, second letter = children.

    n_pp: parent correct, all children correct
    n_pm: parent wrong, all children correct
    n_mp: parent correct, some child wrong
    n_mm: parent wrong, some child wrong
    """

    n_pp: int = 0
    n_pm: int = 0
    n_mp: int = 0
    n_mm: int = 0

    def __post_init__(self):
        if min(self.n_pp, self.n_pm, self.n_mp, self.n_mm) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


@dataclass
class MetricsReport:
    ca: float = 0.0
    rwr: float = 0.0
    delta: float = 0.0
    cp: float = 0.0
    cr: float = 0.0
    ncp: float = 0.0
    ncr: float = 0.0
    c_f: float = 0.0
    nc_f: float = 0.0
    beta: float = 1.0
    parent_accuracy: float = 0.0
    accuracy: dict = field(default_factory=dict)
    degenerate_flags: list = field(default_factory=list)


def tally_counts(graphs: list[QDG], predictions: dict) -> ConsistencyCounts:
    """One bucket increment per first-order pair across all graphs."""
    n_pp = n_pm = n_mp = n_mm = 0
    for g in graphs:
        correct = {}
        for node in g.nodes:
            if node.gold_answer is None:
                raise MissingGoldError(node.id)
            if node.id not in predictions:
                raise MissingPredictionError(node.id)
            correct[node.id] = answers_match(
                predictions[node.id], node.gold_answer
            )
        for parent, children in first_order_pairs(g):
            kids_ok = all(correct[c] for c in children)
            if correct[parent]:
                if kids_ok:
                    n_pp += 1
                else:
                    n_mp += 1
            else:
                if kids_ok:
                    n_pm += 1
                else:
                    n_mm += 1
    return ConsistencyCounts(n_pp, n_pm, n_mp, n_mm)


def _ratio(num, den, flag, flags):
    if den == 0:
        flags.append(flag)
        return 0.0
    return num / den


def _f_beta(p, r, beta, flag, flags):
    den = beta * beta * p + r
    if den == 0:
        flags.append(flag)
        return 0.0
    return (1 + beta * beta) * p * r / den


def compute_metrics(counts: ConsistencyCounts, beta: float = 1.0) -> MetricsReport:
    """Consistency metric family from the four counts.

    All ratios are kept unrounded here (fractions in [0, 1] scaled to
    percentages); rounding to 2 decimals happens only at emission.
    A zero denominator yields 0 and sets the metric's degenerate flag.
    """
    if not 0 < beta < float("inf"):  # also false for NaN
        raise ValueError(f"beta must be finite and positive, got {beta}")
    flags: list[str] = []
    ca = _ratio(counts.n_pp, counts.n_pp + counts.n_pm, "ca", flags)
    rwr = _ratio(counts.n_mp, counts.n_mp + counts.n_mm, "rwr", flags)
    cp = ca
    ncp = _ratio(counts.n_mm, counts.n_mp + counts.n_mm, "ncp", flags)
    cr = _ratio(counts.n_pp, counts.n_pp + counts.n_mp, "cr", flags)
    ncr = _ratio(counts.n_mm, counts.n_mm + counts.n_pm, "ncr", flags)
    c_f = _f_beta(cp, cr, beta, "c_f", flags)
    nc_f = _f_beta(ncp, ncr, beta, "nc_f", flags)
    parent_acc = _ratio(
        counts.n_pp + counts.n_mp, counts.total, "parent_accuracy", flags
    )
    return MetricsReport(
        ca=100.0 * ca,
        rwr=100.0 * rwr,
        delta=100.0 * (rwr - ca),
        cp=100.0 * cp,
        cr=100.0 * cr,
        ncp=100.0 * ncp,
        ncr=100.0 * ncr,
        c_f=100.0 * c_f,
        nc_f=100.0 * nc_f,
        beta=beta,
        parent_accuracy=100.0 * parent_acc,
        degenerate_flags=flags,
    )


def accuracy_breakdown(graphs: list[QDG], predictions: dict) -> dict:
    """Main/sub x open/binary/all accuracy percentages (micro-averaged)."""
    hits = {("main", "open"): 0, ("main", "binary"): 0,
            ("sub", "open"): 0, ("sub", "binary"): 0}
    totals = dict.fromkeys(hits, 0)
    for g in graphs:
        for node in g.nodes:
            if node.gold_answer is None:
                raise MissingGoldError(node.id)
            if node.id not in predictions:
                raise MissingPredictionError(node.id)
            group = "main" if node.role == "main" else "sub"
            key = (group, node.kind)
            totals[key] += 1
            if answers_match(predictions[node.id], node.gold_answer):
                hits[key] += 1

    def pct(h, t):
        return 100.0 * h / t if t else 0.0

    out = {}
    for group in ("main", "sub"):
        h_open, t_open = hits[(group, "open")], totals[(group, "open")]
        h_bin, t_bin = hits[(group, "binary")], totals[(group, "binary")]
        out[group] = {
            "open": pct(h_open, t_open),
            "binary": pct(h_bin, t_bin),
            "all": pct(h_open + h_bin, t_open + t_bin),
        }
    return out


def full_report(graphs: list[QDG], predictions: dict, beta: float = 1.0) -> MetricsReport:
    report = compute_metrics(tally_counts(graphs, predictions), beta)
    report.accuracy = accuracy_breakdown(graphs, predictions)
    return report


_METRIC_FIELDS = (
    "ca", "rwr", "delta", "cp", "cr", "ncp", "ncr", "c_f", "nc_f",
    "parent_accuracy",
)


def emit_report(report: MetricsReport) -> str:
    """Serialize a report as JSON with 2-decimal half-even rounding
    (Python's round)."""
    payload = {name: round(getattr(report, name), 2)
               for name in _METRIC_FIELDS}
    payload["beta"] = report.beta
    payload["accuracy"] = {
        group: {k: round(v, 2) for k, v in vals.items()}
        for group, vals in report.accuracy.items()
    }
    payload["degenerate_flags"] = sorted(report.degenerate_flags)
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def parse_report(text: str) -> MetricsReport:
    """Inverse of emit_report at report precision."""
    raw = json.loads(text)
    report = MetricsReport(
        beta=raw["beta"],
        accuracy=raw["accuracy"],
        degenerate_flags=list(raw["degenerate_flags"]),
    )
    for name in _METRIC_FIELDS:
        setattr(report, name, raw[name])
    return report


def load_predictions_jsonl(source) -> dict:
    """Predictions JSONL, a str or lines as `qdg.iter_jsonl` takes them:
    one {"id": ..., "answer": ...} object per line, both strings, each id
    once; any other line raises ValueError naming its number (both numbers
    for a repeated id)."""
    out = {}
    line_of = {}
    for number, obj in iter_jsonl(source):
        if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
                and isinstance(obj.get("answer"), str)):
            raise ValueError(
                f"line {number}: expected an object with string "
                f"\"id\" and \"answer\""
            )
        first = line_of.setdefault(obj["id"], number)
        if first != number:
            raise ValueError(
                f"line {number}: id {obj['id']!r} repeats line {first}"
            )
        out[obj["id"]] = obj["answer"]
    return out
