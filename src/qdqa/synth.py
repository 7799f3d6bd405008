"""Synthetic VidQA clusters with planted clip relevance and answer programs.

Each instance is one decomposition graph plus one video view per question,
stacked with the question tokens and planted clips into `[n, ...]` arrays
whose rows follow `graph.nodes` (id) order: the layout `train.pack_split`
concatenates and the model reads.  Relevant clips carry a fixed relevance
direction, the node's gold-answer embedding, and a question-correlated
component; irrelevant clips carry a distractor answer embedding and noise.
Parent answers are computed from children through a symbolic program (AND /
OR / EQUALS / FIRST); the operator and child position are cued on the child
question features, so a parent's answer is decodable only by aggregating
over its children.

Draw order.  `generate_instance(config, i)` draws everything from one
generator seeded with (config.seed, 1, i), so every dataset byte, and so
every report, rests on the order of its draws.  `_build_graph` draws first,
while it grows the program, picks operators and draws the leaf answers.
Then each node, in id order, makes these draws and no others:

1. its question tokens, `normal(size=(n_q, h_q))`;
2. its relevant-clip count, `integers(relevant_min, relevant_max + 1)`;
3. its planted clips, `choice(n_c, n_rel, replace=False)`;
4. its clip noise, one `normal` over the f_o, f_a and f_m sizes in turn;
5. one distractor among the other answers for each irrelevant clip, in
   clip order: `integers(len(vocab) - 1, size=n_c - n_rel)`.

Only then does the float arithmetic run, once over the cluster's stacked
`[n, ...]` arrays; it never touches the generator.  A reordered, added or
dropped draw shifts every later draw of its cluster, and so changes the
dataset bytes and every report.  So does a float operation that rounds
differently from the per-node one, such as one matrix product in place of
a stack of vector-matrix products.  `test_generated_datasets_are_byte_pinned`
pins the bytes, and `test_stacked_arithmetic_matches_the_per_node_loop`
checks them against a per-node loop that interleaves draws and arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        # `rng.random() < p` would take 2.0 as "always open" and NaN as
        # "never", with no error
        if not 0.0 <= self.open_leaf_prob <= 1.0:
            raise ConfigError(f"open_leaf_prob must lie in [0, 1], got "
                              f"{self.open_leaf_prob}")
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
    """One cluster, with one array row per node in `graph.nodes` order."""

    graph: QDG
    f_o: np.ndarray  # [n, n_c, n_f, n_o, h_v]: each question's video view
    f_a: np.ndarray  # [n, n_c, n_f, h_v]
    f_m: np.ndarray  # [n, n_c, h_v]
    q: np.ndarray  # [n, n_q, h_q] question tokens
    planted: np.ndarray  # [n, n_c] bool, True at planted-relevant clips
    gold: dict  # node id -> answer token
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
        op = list(OP_EDGE_TYPES)[rng.integers(len(OP_EDGE_TYPES))]
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
        op = ("AND", "OR")[rng.integers(2)]
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
            vocab = BINARY_VOCAB if kinds[node_id] == "binary" else OPEN_VOCAB
            gold[node_id] = vocab[rng.integers(len(vocab))]
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


# an overflow or NaN from a huge config scale fails the finiteness checks
# at the end, which numpy's warnings would only repeat
@np.errstate(over="ignore", invalid="ignore")
def generate_instance(config: SyntheticConfig, index: int,
                      bank: SignalBank | None = None) -> SyntheticInstance:
    """Deterministic for (config.seed, index); the module docstring gives
    the draw order that fixes its bytes.  Question tokens or video features
    that are not finite raise ValueError."""
    bank = bank or SignalBank(config)
    rng = np.random.default_rng([config.seed, 1, index])
    doc, program, gold = _build_graph(config, index, rng)
    graph = from_dict(doc)
    nodes = graph.nodes
    n, n_c, h_v = len(nodes), config.n_c, config.h_v
    vocab_index = config.vocab_index
    gold_rows = np.array([vocab_index[gold[node.id]] for node in nodes])
    shapes = ((n_c, config.n_f, config.n_o, h_v), (n_c, config.n_f, h_v),
              (n_c, h_v))
    sizes = [math.prod(shape) for shape in shapes]

    # draw phase: every rng draw, node by node in id order
    q = np.empty((n, config.n_q, config.h_q))
    noise = np.empty((n, sum(sizes)))
    planted, picks = np.zeros((n, n_c), dtype=bool), []
    for i in range(n):
        q[i] = rng.normal(size=q.shape[1:])
        n_rel = int(rng.integers(config.relevant_min,
                                 config.relevant_max + 1))
        planted[i, rng.choice(n_c, size=n_rel, replace=False)] = True
        noise[i] = rng.normal(size=noise.shape[1])
        # one pick among the other answers per irrelevant clip
        picks.append(rng.integers(len(vocab_index) - 1, size=n_c - n_rel))

    # arithmetic phase: no draws, the same float ops on the stacked rows
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    edge_info = {child: (OP_EDGE_TYPES[op], pos)
                 for op, children in program.values()
                 for pos, child in enumerate(children)}
    cued = [(i, *edge_info[node.id]) for i, node in enumerate(nodes)
            if node.id in edge_info]
    rows = [i for i, _, _ in cued]
    cue = np.stack([bank.op_emb[etype] for _, etype, _ in cued]) + (
        bank.position_emb[[min(pos, len(bank.position_emb) - 1)
                           for _, _, pos in cued]])
    q[rows] = q[rows] + config.op_signal_scale * cue[:, None, :]

    # (answer_scale * gain) first, in Python floats: the grouping fixes
    # the rounding
    answer_gain = np.array([config.answer_scale * config.role_gain[node.role]
                            for node in nodes])[:, None]
    q_bar = q.mean(axis=1)
    # [n, 1, h_q] @ map runs one vector-matrix product per row, whose bits
    # a single [n, h_q] matrix product would not reproduce
    signal = (
        config.relevance_scale * bank.relevance_dir
        + answer_gain * bank.answer_emb[gold_rows]
        + config.question_scale * (q_bar[:, None] @ bank.question_map)[:, 0]
    )
    # the k-th other answer skips the gold one: k, or k + 1 past gold
    distractor = np.zeros((n, n_c), dtype=np.int64)
    distractor[~planted] = np.concatenate(picks)
    distractor += distractor >= gold_rows[:, None]
    add = np.where(planted[..., None], signal[:, None],
                   answer_gain[..., None] * bank.answer_emb[distractor])
    noise *= config.noise_scale
    parts = np.split(noise, np.cumsum(sizes)[:-1], axis=1)
    f_o, f_a, f_m = (part.reshape(n, *shape)
                     for part, shape in zip(parts, shapes))
    f_o += add[:, :, None, None]
    f_a += add[:, :, None]
    f_m += add
    if not np.isfinite(q).all():
        raise ValueError("non-finite question features")
    if not all(np.isfinite(f).all() for f in (f_o, f_a, f_m)):
        raise ValueError("non-finite video features")
    return SyntheticInstance(graph, f_o, f_a, f_m, q, planted, gold, program)


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
