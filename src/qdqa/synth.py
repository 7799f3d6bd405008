"""Synthetic VidQA clusters with planted clip relevance and answer programs.

Each instance is one decomposition graph plus per-question video views:
relevant clips carry a fixed relevance direction, the node's gold-answer
embedding, and a question-correlated component; irrelevant clips carry a
distractor answer embedding and noise.  Parent answers are computed from
children through a symbolic program (AND / OR / EQUALS / FIRST); the
operator and child position are cued on the child question features, so a
parent's answer is decodable only by aggregating over its children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aligner import VideoFeatures
from .qdg import QDG, VALID_ROLES, from_dict

OPEN_VOCAB = ("red", "blue", "green")
BINARY_VOCAB = ("yes", "no")

OP_EDGE_TYPES = {
    "AND": "Conjunction",
    "OR": "Disjunction",
    "EQUALS": "Equals",
    "FIRST": "Choose",
}


class ConfigError(ValueError):
    pass


@dataclass
class SyntheticConfig:
    n_c: int = 6
    n_f: int = 2
    n_o: int = 2
    h_v: int = 16
    h_q: int = 16
    n_q: int = 4  # question tokens
    clusters: int = 120
    subs_min: int = 2
    subs_max: int = 3
    max_depth: int = 2
    relevant_min: int = 1
    relevant_max: int = 3
    noise_scale: float = 0.5
    relevance_scale: float = 2.0
    answer_scale: float = 2.0
    question_scale: float = 0.5
    # strength of the operator/position cue planted on child questions
    # (sub-question wording reflects how it slots into its parent)
    op_signal_scale: float = 1.0
    # answer-signal multiplier by role; parents carry a weaker direct
    # signal, so deducing them from children actually pays off
    role_gain: dict = field(default_factory=lambda: {
        "leaf": 1.0, "intermediate": 0.35, "main": 0.15,
    })
    open_leaf_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_c, self.n_f, self.n_o, self.h_v, self.h_q, self.n_q,
               self.clusters, self.subs_min, self.relevant_min) < 1:
            raise ConfigError("all counts must be >= 1")
        if not 1 <= self.relevant_min <= self.relevant_max <= self.n_c:
            raise ConfigError("relevant-clip range must lie within [1, n_c]")
        if self.subs_min > self.subs_max:
            raise ConfigError("bad subs range")
        if self.seed < 0:  # numpy's seeding error would not name the key
            raise ConfigError(f"synthetic.seed must be >= 0, got {self.seed}")
        if not isinstance(self.role_gain, dict):
            raise ConfigError("role_gain must map each role to a number")
        for role, gain in self.role_gain.items():
            if role not in VALID_ROLES:
                raise ConfigError(f"unknown role_gain key {role!r}")
            if isinstance(gain, bool) or not isinstance(gain, (int, float)):
                raise ConfigError(f"role_gain.{role} must be a number, got "
                                  f"{type(gain).__name__}")
            if isinstance(gain, float) and not math.isfinite(gain):
                raise ConfigError(f"role_gain.{role} must be finite, got "
                                  f"{gain}")
        missing = [r for r in VALID_ROLES if r not in self.role_gain]
        if missing:
            raise ConfigError(f"role_gain.{missing[0]} is missing")

    @property
    def vocab(self) -> tuple:
        return BINARY_VOCAB + OPEN_VOCAB

    @property
    def vocab_index(self) -> dict:
        return {a: i for i, a in enumerate(self.vocab)}


@dataclass
class SyntheticInstance:
    graph: QDG
    videos: dict  # node id -> VideoFeatures (that question's view)
    question_features: dict  # node id -> np.ndarray [n_q, h_q]
    gold: dict  # node id -> answer token
    planted_relevance: dict  # node id -> sorted clip index list
    program: dict  # parent id -> (op, ordered children ids)


class SignalBank:
    """Fixed embedding directions shared by every instance of a config."""

    def __init__(self, config: SyntheticConfig):
        rng = np.random.default_rng([config.seed, 0xB0B])
        h = config.h_v

        def unit(v):
            return v / np.linalg.norm(v)

        self.relevance_dir = unit(rng.normal(size=h))
        self.answer_emb = np.stack(
            [unit(rng.normal(size=h)) for _ in config.vocab]
        )
        self.question_map = rng.normal(size=(config.h_q, h)) / np.sqrt(
            config.h_q
        )
        # question-space cues: which operator a sub-question serves and at
        # which child position (needed for order-sensitive programs)
        self.op_emb = {
            etype: unit(rng.normal(size=config.h_q))
            for etype in sorted(OP_EDGE_TYPES.values())
        }
        self.position_emb = np.stack(
            [unit(rng.normal(size=config.h_q)) for _ in range(8)]
        )


def apply_program(op: str, child_answers: list[str]) -> str:
    if op == "AND":
        return "yes" if all(a == "yes" for a in child_answers) else "no"
    if op == "OR":
        return "yes" if any(a == "yes" for a in child_answers) else "no"
    if op == "EQUALS":
        return "yes" if len(set(child_answers)) == 1 else "no"
    if op == "FIRST":
        return child_answers[0]
    raise ConfigError(f"unknown program op {op!r}")


def _build_graph(config: SyntheticConfig, index: int, rng):
    """Random program DAG: returns (graph dict parts, program, gold)."""
    prefix = f"c{index:05d}"
    nodes = []
    edges = []
    program = {}
    kinds = {}
    counter = [0]

    def new_id():
        counter[0] += 1
        return f"{prefix}_q{counter[0]:02d}"

    def grow(node_id: str, depth: int) -> None:
        """Decide whether node_id is a leaf or expands into children."""
        if depth >= config.max_depth or (depth > 0 and rng.random() < 0.5):
            kinds[node_id] = (
                "open" if rng.random() < config.open_leaf_prob else "binary"
            )
            return
        op = str(rng.choice(list(OP_EDGE_TYPES)))
        n_children = int(rng.integers(config.subs_min, config.subs_max + 1))
        children = [new_id() for _ in range(n_children)]
        for child in children:
            grow(child, depth + 1)
        if op in ("AND", "OR"):
            # boolean operators read their children as yes/no
            for child in children:
                kinds[child] = "binary"
        program[node_id] = (op, children)
        kinds[node_id] = (
            kinds[children[0]] if op == "FIRST" else "binary"
        )
        for child in children:
            edges.append(
                {"parent": node_id, "child": child, "op": OP_EDGE_TYPES[op]}
            )

    root = new_id()
    grow(root, 0)
    if root not in program:
        # force at least one decomposition level for the main question
        op = str(rng.choice(["AND", "OR"]))
        children = [new_id(), new_id()]
        for child in children:
            kinds[child] = "binary"
        program[root] = (op, children)
        kinds[root] = "binary"
        for child in children:
            edges.append(
                {"parent": root, "child": child, "op": OP_EDGE_TYPES[op]}
            )

    # leaf gold answers, then parents bottom-up
    gold = {}

    def resolve(node_id: str) -> str:
        if node_id in gold:
            return gold[node_id]
        if node_id not in program:
            if kinds[node_id] == "binary":
                gold[node_id] = str(rng.choice(BINARY_VOCAB))
            else:
                gold[node_id] = str(rng.choice(OPEN_VOCAB))
            return gold[node_id]
        op, children = program[node_id]
        gold[node_id] = apply_program(op, [resolve(c) for c in children])
        return gold[node_id]

    resolve(root)
    # FIRST over open children can make a parent's kind open; recheck
    for nid in list(kinds):
        if kinds[nid] == "binary" and gold[nid] not in BINARY_VOCAB:
            kinds[nid] = "open"

    all_ids = sorted(kinds)
    for nid in all_ids:
        if nid == root:
            role = "main"
        elif nid in program:
            role = "intermediate"
        else:
            role = "leaf"
        nodes.append(
            {
                "id": nid,
                "text": f"synthetic question {nid} ({kinds[nid]})",
                "kind": kinds[nid],
                "role": role,
                "answer": gold[nid],
            }
        )
    doc = {
        "graph_id": f"g{index:05d}",
        "video_id": f"v{index:05d}",
        "edge_types": sorted(set(OP_EDGE_TYPES.values())),
        "nodes": nodes,
        "edges": edges,
    }
    return doc, program, gold


def generate_instance(config: SyntheticConfig, index: int,
                      bank: SignalBank | None = None) -> SyntheticInstance:
    """Deterministic for (config.seed, index)."""
    bank = bank or SignalBank(config)
    rng = np.random.default_rng([config.seed, 1, index])
    doc, program, gold = _build_graph(config, index, rng)
    graph = from_dict(doc)
    vocab_index = config.vocab_index

    edge_info = {}
    for pid, (op, children) in program.items():
        for pos, child in enumerate(children):
            edge_info[child] = (OP_EDGE_TYPES[op], pos)

    question_features = {}
    videos = {}
    planted = {}
    for node in graph.nodes:
        q = rng.normal(size=(config.n_q, config.h_q))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        if node.id in edge_info:
            etype, pos = edge_info[node.id]
            cue = bank.op_emb[etype] + bank.position_emb[
                min(pos, len(bank.position_emb) - 1)
            ]
            q = q + config.op_signal_scale * cue
        question_features[node.id] = q

        n_rel = int(rng.integers(config.relevant_min,
                                 config.relevant_max + 1))
        rel = sorted(rng.choice(config.n_c, size=n_rel, replace=False))
        planted[node.id] = [int(c) for c in rel]

        f_o = config.noise_scale * rng.normal(
            size=(config.n_c, config.n_f, config.n_o, config.h_v)
        )
        f_a = config.noise_scale * rng.normal(
            size=(config.n_c, config.n_f, config.h_v)
        )
        f_m = config.noise_scale * rng.normal(
            size=(config.n_c, config.h_v)
        )
        gain = config.role_gain[node.role]
        ans_vec = bank.answer_emb[vocab_index[gold[node.id]]]
        q_bar = q.mean(axis=0)
        signal = (
            config.relevance_scale * bank.relevance_dir
            + config.answer_scale * gain * ans_vec
            + config.question_scale * (q_bar @ bank.question_map)
        )
        rel_set = set(planted[node.id])
        for c in range(config.n_c):
            if c in rel_set:
                add = signal
            else:
                wrong = [a for a in config.vocab if a != gold[node.id]]
                distractor = bank.answer_emb[
                    vocab_index[str(rng.choice(wrong))]
                ]
                add = config.answer_scale * gain * distractor
            f_o[c] += add
            f_a[c] += add
            f_m[c] += add
        videos[node.id] = VideoFeatures(f_o, f_a, f_m)

    return SyntheticInstance(
        graph=graph,
        videos=videos,
        question_features=question_features,
        gold=gold,
        planted_relevance=planted,
        program=program,
    )


@dataclass
class Dataset:
    train: list
    validation: list
    test: list


# the fewest clusters whose 70/15/15 split leaves no split empty
MIN_CLUSTERS = 7


def generate_dataset(config: SyntheticConfig) -> Dataset:
    """70/15/15 split over disjoint index ranges."""
    bank = SignalBank(config)
    instances = [
        generate_instance(config, i, bank) for i in range(config.clusters)
    ]
    n = config.clusters
    n_train = int(n * 0.7)
    n_val = int(n * 0.15)
    return Dataset(
        train=instances[:n_train],
        validation=instances[n_train:n_train + n_val],
        test=instances[n_train + n_val:],
    )
