import heldout


def test_heldout_table_runs_and_stays_in_range():
    """The yardstick on one seed with short runs: every row, seed, split
    and column is there, percentages lie in [0, 100] and the aligner's
    relevance in [0, 1], and each interval holds its mean."""
    table = heldout.heldout_table([3], steps=5)
    splits = {"validation", "test", "fresh"}
    assert set(table["runs"]) == set(heldout.ROWS) == set(table["means"])
    for row, per_seed in table["runs"].items():
        relevance = row in ("aligner", "full")
        assert set(per_seed) == {"3"}
        assert set(per_seed["3"]) == splits == set(table["means"][row])
        for split, scores in per_seed["3"].items():
            assert set(scores) == set(heldout.COLUMNS)
            for col, value in scores.items():
                if col in ("recall", "precision"):
                    assert (value is not None) == relevance
                    assert value is None or 0.0 <= value <= 1.0
                else:
                    assert 0.0 <= value <= 100.0
            means = table["means"][row][split]
            assert set(means) == {col for col, v in scores.items()
                                  if v is not None}
            for col, m in means.items():
                # one seed: the bootstrap can only redraw it
                assert m["lo"] == m["mean"] == m["hi"] == scores[col]
