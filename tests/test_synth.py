import numpy as np
import pytest

from qdqa import qdg, synth
from qdqa.synth import SignalBank, SyntheticConfig

from test_qdg import root_of


CFG = SyntheticConfig(clusters=20, seed=3)


def test_config_validation():
    with pytest.raises(synth.ConfigError):
        SyntheticConfig(relevant_min=0)
    with pytest.raises(synth.ConfigError):
        SyntheticConfig(relevant_max=99)
    with pytest.raises(synth.ConfigError):
        SyntheticConfig(subs_min=4, subs_max=2)


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
    a = synth.generate_instance(CFG, 4)
    b = synth.generate_instance(CFG, 4)
    assert a.graph == b.graph
    assert a.gold == b.gold
    assert a.planted_relevance == b.planted_relevance
    for nid in a.videos:
        np.testing.assert_array_equal(a.videos[nid].f_o, b.videos[nid].f_o)
        np.testing.assert_array_equal(
            a.question_features[nid], b.question_features[nid]
        )


def test_instances_differ_across_indices():
    a = synth.generate_instance(CFG, 0)
    b = synth.generate_instance(CFG, 1)
    assert a.graph.graph_id != b.graph.graph_id


def test_graphs_validate_and_roles_consistent():
    for i in range(20):
        inst = synth.generate_instance(CFG, i)
        g = inst.graph
        # re-parsing the serialized form must succeed and round-trip
        assert qdg.parse_and_validate(qdg.serialize(g)) == g
        assert root_of(g).role == "main"


def test_planted_relevance_sizes_in_range():
    cfg = SyntheticConfig(clusters=100, relevant_min=2, relevant_max=4,
                          seed=9)
    for i in range(100):
        inst = synth.generate_instance(cfg, i)
        for rel in inst.planted_relevance.values():
            assert cfg.relevant_min <= len(rel) <= cfg.relevant_max
            assert all(0 <= c < cfg.n_c for c in rel)


def test_program_consistency():
    # recomputing every parent answer from children reproduces gold
    for i in range(20):
        inst = synth.generate_instance(CFG, i)
        for parent, (op, children) in inst.program.items():
            expect = synth.apply_program(
                op, [inst.gold[c] for c in children]
            )
            assert inst.gold[parent] == expect


def test_program_edges_match_graph_edges():
    inst = synth.generate_instance(CFG, 7)
    prog_edges = {
        (p, c)
        for p, (_, children) in inst.program.items()
        for c in children
    }
    assert prog_edges == {(e.parent, e.child) for e in inst.graph.edges}


def test_dataset_split_sizes_and_disjointness():
    cfg = SyntheticConfig(clusters=100, seed=1)
    ds = synth.generate_dataset(cfg)
    assert (len(ds.train), len(ds.validation), len(ds.test)) == (70, 15, 15)
    ids = [inst.graph.graph_id for split in (ds.train, ds.validation, ds.test)
           for inst in split]
    assert len(set(ids)) == 100


def test_leaf_answer_marginals():
    # leaves: binary uniform over yes/no, open uniform over the open vocab
    cfg = SyntheticConfig(clusters=260, seed=5)
    ds = synth.generate_dataset(cfg)
    counts = {}
    n_binary = n_open = 0
    for inst in ds.train + ds.validation + ds.test:
        g = inst.graph
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
    for i in range(100):
        inst = synth.generate_instance(cfg, i, bank)
        for nid, v in inst.videos.items():
            rel = inst.planted_relevance[nid]
            pooled = v.f_m[rel].mean(axis=0)
            rand = rng.choice(cfg.n_c, size=len(rel), replace=False)
            pooled_rand = v.f_m[sorted(rand)].mean(axis=0)
            planted_total += ce(pooled, inst.gold[nid])
            random_total += ce(pooled_rand, inst.gold[nid])
            n_terms += 1
    assert planted_total / n_terms < random_total / n_terms
