import hashlib
import json

import numpy as np
import pytest

from qdqa import qdg, synth
from qdqa.synth import SignalBank, SyntheticConfig
from qdqa.train import RunConfig, _packed_splits

from test_qdg import root_of


CFG = SyntheticConfig(clusters=20, seed=3)


def gold_of(g) -> dict:
    """Node id -> gold answer of a generated graph."""
    return {node.id: node.gold_answer for node in g.nodes}


def test_config_validation():
    with pytest.raises(synth.ConfigError):
        SyntheticConfig(relevant_min=0)
    with pytest.raises(synth.ConfigError):
        SyntheticConfig(relevant_max=99)
    with pytest.raises(synth.ConfigError):
        SyntheticConfig(subs_min=4, subs_max=2)


@pytest.mark.parametrize("prob", [2.0, -0.1, float("nan"), float("inf")])
def test_open_leaf_prob_must_be_a_probability(prob):
    with pytest.raises(synth.ConfigError, match="open_leaf_prob"):
        SyntheticConfig(open_leaf_prob=prob)
    SyntheticConfig(open_leaf_prob=0)
    SyntheticConfig(open_leaf_prob=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key, value, what", [
    ("noise_scale", 1e308, "video"),
    ("op_signal_scale", 1e308, "video"),  # q_bar overflows, q does not
    ("op_signal_scale", 1.79e308, "question"),  # the cued tokens overflow
])
def test_non_finite_features_raise_without_numpy_warnings(key, value, what):
    with pytest.raises(ValueError, match=f"non-finite {what} features"):
        synth.generate_clusters(SyntheticConfig(**{key: value}), [0])


@pytest.mark.parametrize("role_gain, named", [
    ({}, "role_gain.main is missing"),
    ({"leaf": 1.0, "intermediate": 0.5}, "role_gain.main is missing"),
    ({"leaf": "x"}, "role_gain.leaf must be a number"),
    ({"leaf": True, "intermediate": 1, "main": 1}, "role_gain.leaf"),
    ({"leaf": 1, "intermediate": 1, "main": 1, "root": 1}, "'root'"),
    ([1.0, 0.35, 0.15], "role_gain must"),
])
def test_role_gain_needs_a_number_per_role(role_gain, named):
    with pytest.raises(synth.ConfigError, match=named):
        SyntheticConfig(role_gain=role_gain)
    SyntheticConfig(role_gain={"leaf": 2, "intermediate": 0.5, "main": 0})


def test_apply_program_boolean_reductions():
    assert synth.apply_program("AND", ["yes", "no"]) == "no"
    assert synth.apply_program("AND", ["yes", "yes"]) == "yes"
    assert synth.apply_program("OR", ["no", "no"]) == "no"
    assert synth.apply_program("OR", ["no", "yes"]) == "yes"
    assert synth.apply_program("EQUALS", ["red", "red"]) == "yes"
    assert synth.apply_program("EQUALS", ["red", "blue"]) == "no"
    assert synth.apply_program("FIRST", ["blue", "yes"]) == "blue"


def test_instance_determinism():
    a = synth.generate_clusters(CFG, [4])
    b = synth.generate_clusters(CFG, [4])
    assert a.graphs == b.graphs
    assert [n.gold_answer for n in a.graphs[0].nodes] == \
        [n.gold_answer for n in b.graphs[0].nodes]
    np.testing.assert_array_equal(a.planted, b.planted)
    np.testing.assert_array_equal(a.f_o, b.f_o)
    np.testing.assert_array_equal(a.q, b.q)


def test_instances_differ_across_indices():
    a, b = synth.generate_clusters(CFG, [0, 1]).graphs
    assert a.graph_id != b.graph_id


def test_graphs_validate_and_roles_consistent():
    for g in synth.generate_clusters(CFG, range(20)).graphs:
        # re-parsing the serialized form must succeed and round-trip
        assert qdg.parse_and_validate(qdg.serialize(g)) == g
        assert root_of(g).role == "main"


def test_planted_relevance_sizes_in_range():
    cfg = SyntheticConfig(clusters=100, relevant_min=2, relevant_max=4,
                          seed=9)
    split = synth.generate_clusters(cfg, range(100))
    assert split.planted.shape == (sum(len(g.nodes) for g in split.graphs),
                                   cfg.n_c)
    for n_rel in split.planted.sum(axis=1):
        assert cfg.relevant_min <= n_rel <= cfg.relevant_max


def test_program_consistency():
    # recomputing every parent answer from children reproduces gold
    split = synth.generate_clusters(CFG, range(20))
    for g, program in zip(split.graphs, split.programs):
        gold = gold_of(g)
        for parent, (op, children) in program.items():
            expect = synth.apply_program(
                op, [gold[c] for c in children]
            )
            assert gold[parent] == expect


def test_program_edges_match_graph_edges():
    split = synth.generate_clusters(CFG, [7])
    prog_edges = {
        (p, c)
        for p, (_, children) in split.programs[0].items()
        for c in children
    }
    assert prog_edges == {(e.parent, e.child) for e in split.graphs[0].edges}


def test_dataset_split_sizes_and_disjointness():
    cfg = SyntheticConfig(clusters=100, seed=1)
    ds = synth.generate_dataset(cfg)
    assert (len(ds.train.graphs), len(ds.validation.graphs),
            len(ds.test.graphs)) == (70, 15, 15)
    ids = [g.graph_id for split in (ds.train, ds.validation, ds.test)
           for g in split.graphs]
    assert len(set(ids)) == 100


def test_leaf_answer_marginals():
    # leaves: binary uniform over yes/no, open uniform over the open vocab
    cfg = SyntheticConfig(clusters=260, seed=5)
    ds = synth.generate_dataset(cfg)
    counts = {}
    n_binary = n_open = 0
    for g in ds.train.graphs + ds.validation.graphs + ds.test.graphs:
        for node in g.nodes:
            if node.role != "leaf":
                continue
            counts[node.gold_answer] = counts.get(node.gold_answer, 0) + 1
            if node.kind == "binary":
                n_binary += 1
            else:
                n_open += 1
    total = n_binary + n_open
    assert total >= 1000
    # kinds: AND/OR parents force binary leaves, so binary >= open is
    # expected; check each within-kind marginal against uniform +-5%
    for token in synth.BINARY_VOCAB:
        assert counts[token] / n_binary == pytest.approx(0.5, abs=0.05)
    for token in synth.OPEN_VOCAB:
        assert counts.get(token, 0) / n_open == pytest.approx(
            1 / len(synth.OPEN_VOCAB), abs=0.05
        )


def test_relevance_oracle_beats_random_indicator():
    # pooling the planted clips must give lower answer CE under the oracle
    # readout than pooling a random clip set of the same size
    cfg = SyntheticConfig(clusters=100, seed=11)
    bank = SignalBank(cfg)
    rng = np.random.default_rng(0)
    vocab_index = cfg.vocab_index

    def ce(pooled, gold):
        logits = pooled @ bank.answer_emb.T
        logits = logits - logits.max()
        return -(logits[vocab_index[gold]]
                 - np.log(np.exp(logits).sum()))

    planted_total = random_total = 0.0
    n_terms = 0
    split = synth.generate_clusters(cfg, range(100), bank)
    nodes = [node for g in split.graphs for node in g.nodes]
    for node, f_m, planted in zip(nodes, split.f_m, split.planted):
        pooled = f_m[planted].mean(axis=0)
        rand = rng.choice(cfg.n_c, size=planted.sum(), replace=False)
        pooled_rand = f_m[sorted(rand)].mean(axis=0)
        planted_total += ce(pooled, node.gold_answer)
        random_total += ce(pooled_rand, node.gold_answer)
        n_terms += 1
    assert planted_total / n_terms < random_total / n_terms


def _per_node_instance(config, index, bank):
    """One cluster's generated features as one loop over the nodes that
    interleaves the draws with the float arithmetic: the reference that
    the draw-then-stack version must match bit for bit."""
    rng = np.random.default_rng([config.seed, 1, index])
    doc, program = synth._build_graph(config, index, rng)
    gold = {node["id"]: node["answer"] for node in doc["nodes"]}
    vocab_index = config.vocab_index
    edge_info = {child: (synth.OP_EDGE_TYPES[op], pos)
                 for op, children in program.values()
                 for pos, child in enumerate(children)}
    out = {}
    for node in qdg.from_dict(doc).nodes:
        q = rng.normal(size=(config.n_q, config.h_q))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        if node.id in edge_info:
            etype, pos = edge_info[node.id]
            q = q + config.op_signal_scale * (
                bank.op_emb[etype]
                + bank.position_emb[min(pos, len(bank.position_emb) - 1)])
        n_rel = int(rng.integers(config.relevant_min,
                                 config.relevant_max + 1))
        rel = sorted(rng.choice(config.n_c, size=n_rel, replace=False))
        f_o = config.noise_scale * rng.normal(
            size=(config.n_c, config.n_f, config.n_o, config.h_v))
        f_a = config.noise_scale * rng.normal(
            size=(config.n_c, config.n_f, config.h_v))
        f_m = config.noise_scale * rng.normal(size=(config.n_c, config.h_v))
        gain = config.role_gain[node.role]
        signal = (
            config.relevance_scale * bank.relevance_dir
            + config.answer_scale * gain
            * bank.answer_emb[vocab_index[gold[node.id]]]
            + config.question_scale * (q.mean(axis=0) @ bank.question_map)
        )
        for c in range(config.n_c):
            if c in rel:
                add = signal
            else:
                wrong = [a for a in config.vocab if a != gold[node.id]]
                add = config.answer_scale * gain * bank.answer_emb[
                    vocab_index[str(rng.choice(wrong))]]
            f_o[c] += add
            f_a[c] += add
            f_m[c] += add
        out[node.id] = ([int(c) for c in rel], q, f_o, f_a, f_m)
    return out


@pytest.mark.parametrize("cfg", [
    SyntheticConfig(clusters=12, seed=4),
    SyntheticConfig(n_c=9, relevant_max=5, h_v=8, h_q=8, n_o=3, subs_max=10,
                    open_leaf_prob=0.9, clusters=12, seed=1),
    SyntheticConfig(n_c=3, relevant_min=3, relevant_max=3, n_q=1,
                    role_gain={"leaf": 2, "intermediate": 0, "main": 1},
                    clusters=12, seed=2),
], ids=["default", "wide", "all_relevant"])
def test_stacked_arithmetic_matches_the_per_node_loop(cfg):
    bank = SignalBank(cfg)
    singles = [synth.generate_clusters(cfg, [index], bank)
               for index in range(cfg.clusters)]
    for index, one in enumerate(singles):
        ref = _per_node_instance(cfg, index, bank)
        assert list(ref) == [node.id for node in one.graphs[0].nodes]
        for i, (rel, q, f_o, f_a, f_m) in enumerate(ref.values()):
            assert np.flatnonzero(one.planted[i]).tolist() == rel
            for got, want in ((one.q[i], q), (one.f_o[i], f_o),
                              (one.f_a[i], f_a), (one.f_m[i], f_m)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    # the arithmetic runs once over a run's rows, so a run is its clusters'
    # one-cluster runs concatenated, byte for byte
    run = synth.generate_clusters(cfg, range(3, cfg.clusters), bank)
    assert run.graphs == [one.graphs[0] for one in singles[3:]]
    assert run.programs == [one.programs[0] for one in singles[3:]]
    for name in ("f_o", "f_a", "f_m", "q", "planted"):
        want = np.concatenate([getattr(one, name) for one in singles[3:]])
        assert getattr(run, name).shape == want.shape
        assert getattr(run, name).tobytes() == want.tobytes()


def test_an_empty_run_is_a_split_of_zero_rows():
    split = synth.generate_clusters(CFG, [])
    assert split.graphs == [] and split.programs == []
    for arr, shape in ((split.f_o, (CFG.n_c, CFG.n_f, CFG.n_o, CFG.h_v)),
                       (split.f_a, (CFG.n_c, CFG.n_f, CFG.h_v)),
                       (split.f_m, (CFG.n_c, CFG.h_v)),
                       (split.q, (CFG.n_q, CFG.h_q)),
                       (split.planted, (CFG.n_c,))):
        assert arr.shape == (0, *shape)
    # 2 clusters split 1/0/1, and the empty split is named
    cfg = RunConfig(synthetic=SyntheticConfig(clusters=2))
    with pytest.raises(synth.ConfigError,
                       match="the validation split is empty"):
        _packed_splits(cfg)


def _dataset_digest(cfg: SyntheticConfig) -> str:
    """sha256 over every byte generate_dataset produces, split by split."""
    h = hashlib.sha256()
    ds = synth.generate_dataset(cfg)
    for split in (ds.train, ds.validation, ds.test):
        h.update(b"|split|")
        start = 0
        for g, program in zip(split.graphs, split.programs):
            rows = range(start, start + len(g.nodes))  # id-sorted nodes
            start = rows.stop
            planted = {node.id: np.flatnonzero(split.planted[i]).tolist()
                       for node, i in zip(g.nodes, rows)}
            h.update(qdg.serialize(g).encode())
            h.update(json.dumps([gold_of(g), planted, program],
                                sort_keys=True).encode())
            for i in rows:
                for arr in (split.f_o[i], split.f_a[i], split.f_m[i],
                            split.q[i]):
                    h.update(repr((arr.dtype.str, arr.shape)).encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# the configs whose generated (and packed) bytes are pinned
PINNED_CONFIGS = (
    SyntheticConfig(seed=0),
    SyntheticConfig(n_c=9, relevant_max=5, h_v=8, h_q=8, n_o=3, subs_max=4,
                    open_leaf_prob=0.9, seed=1, clusters=50),
)


@pytest.mark.parametrize("cfg, digest", zip(PINNED_CONFIGS, [
    "a20a8212e29073d282eeecb2bc30a2d0057f75693b70b3293b8b2333b0cf892d",
    "f3dcee23de4cca95b9b9fd26a0eead0c525c02add0cafaa69354650c82a07bb7",
]))
def test_generated_datasets_are_byte_pinned(cfg, digest):
    # every report and checkpoint rests on these bytes: a reordered rng
    # draw or a changed float operation order moves the digest
    assert _dataset_digest(cfg) == digest
