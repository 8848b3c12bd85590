import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                       {"name": "acc_pct", "better": "higher", "bound": 0.25}]}


def _pairs(parent, change, metric):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


class TestSummarize:
    def test_quartiles_wins_and_resolution_for_a_lower_is_better_metric(self):
        parent = [2.0, 2.2, 2.1, 2.4, 2.3]
        change = [1.5, 1.6, 2.1, 1.4, 2.5]
        s = ab.summarize(_pairs(parent, change, "score-csv.run_s"), SPEC)["score-csv.run_s"]
        assert s["parent"] == {"median": 2.2, "q1": 2.1, "q3": 2.3}
        assert s["change"]["median"] == 1.6
        assert (s["change_wins"], s["parent_wins"], s["ties"]) == (3, 1, 1)
        assert s["median_gap"] == pytest.approx(-0.6)
        assert s["median_gap_rel"] == pytest.approx(-0.6 / 2.2)
        assert s["parent_iqr"] == pytest.approx(0.2)
        assert s["resolved"] and s["bound"] == 0.25

    def test_higher_is_better_metric_counts_wins_the_other_way(self):
        s = ab.summarize(_pairs([50.0, 51.0], [52.0, 49.0], "grid-c10.acc_pct"), SPEC)
        assert (s["grid-c10.acc_pct"]["change_wins"], s["grid-c10.acc_pct"]["parent_wins"]) == (1, 1)

    def test_gap_inside_the_parent_iqr_is_unresolved(self):
        s = ab.summarize(_pairs([1.0, 2.0, 3.0], [1.9, 2.1, 2.9], "x.run_s"), SPEC)["x.run_s"]
        assert not s["resolved"]

    def test_one_pair_and_undeclared_metrics(self):
        pairs = [{"parent": {"x.run_s": 2.0, "x.other": 1.0}, "change": {"x.run_s": 1.0, "x.other": 1.0}}]
        s = ab.summarize(pairs, SPEC)
        assert list(s) == ["x.run_s"]
        assert s["x.run_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
        assert s["x.run_s"]["resolved"]


class TestAcceptanceRule:
    def test_gain_needs_nine_tenths_of_the_pairs_with_ties_counting_for_neither_side(self):
        parent = [2.0 + 0.01 * i for i in range(10)]
        nine_and_a_tie = ab.summarize(_pairs(parent, [1.5] * 9 + [parent[9]], "w.run_s"), SPEC)["w.run_s"]
        eight_and_two_ties = ab.summarize(_pairs(parent, [1.5] * 8 + parent[8:], "w.run_s"), SPEC)["w.run_s"]
        assert (nine_and_a_tie["change_wins"], nine_and_a_tie["ties"]) == (9, 1)
        assert nine_and_a_tie["resolved"] and nine_and_a_tie["gain"]
        assert (eight_and_two_ties["change_wins"], eight_and_two_ties["ties"]) == (8, 2)
        assert eight_and_two_ties["resolved"] and not eight_and_two_ties["gain"]

    def test_no_gain_unless_the_median_moves_past_the_parents_iqr_the_better_way(self):
        parent = [1.0, 2.0, 3.0, 4.0, 5.0]
        inside = ab.summarize(_pairs(parent, [p - 0.5 for p in parent], "w.run_s"), SPEC)["w.run_s"]
        assert inside["change_wins"] == 5 and not inside["resolved"] and not inside["gain"]
        worse = ab.summarize(_pairs([50.0] * 10, [40.0] * 10, "w.acc_pct"), SPEC)["w.acc_pct"]
        assert worse["resolved"] and worse["parent_wins"] == 10 and not worse["gain"]
        better = ab.summarize(_pairs([50.0] * 10, [51.0] * 10, "w.acc_pct"), SPEC)["w.acc_pct"]
        assert better["gain"]

    @pytest.mark.parametrize("metric, change, worse", [
        ("w.run_s", 1.24, False), ("w.run_s", 1.26, True), ("w.run_s", 0.5, False),
        ("w.acc_pct", 0.76, False), ("w.acc_pct", 0.74, True), ("w.acc_pct", 2.0, False)])
    def test_worse_than_bound_is_the_median_worse_by_more_than_the_bound_share(self, metric, change, worse):
        s = ab.summarize(_pairs([1.0] * 3, [change] * 3, metric), SPEC)[metric]
        assert s["bound"] == 0.25
        assert s["worse_than_bound"] is worse

    def test_print_summary_shows_both_verdicts(self, capsys):
        ab.print_summary(ab.summarize(_pairs([2.0] * 10, [1.0] * 10, "w.run_s"), SPEC))
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[-3:] == ["resolved", "gain", "worse_than_bound"]
        assert row.split()[-3:] == ["True", "True", "False"]


def test_diff_trees_lists_changed_and_one_sided_files(tmp_path):
    for side, files in {"a": {"same": b"1", "sub/changed": b"x", "only_a": b""},
                        "b": {"same": b"1", "sub/changed": b"y", "only_b": b""}}.items():
        for name, content in files.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
    assert ab.diff_trees(tmp_path / "a", tmp_path / "b") == (4, ["only_a", "only_b", "sub/changed"])


def test_run_pair_runs_the_named_side_first_and_keeps_each_sides_result(monkeypatch):
    calls = []

    def fake_bench(tree, seed, seconds, trace):
        calls.append((tree, seed, seconds, trace))
        return {"env": {"seed": seed}, "correct": True, "attempted": 3, "failed": 0,
                "metrics": {"w.run_s": 1.0 if tree == "p" else 0.5}}

    monkeypatch.setattr(ab, "bench", fake_bench)
    pair, env = ab.run_pair({"parent": "p", "change": "c"}, 4, 35, "change")
    assert calls == [("c", 4, 35, 0), ("p", 4, 35, 0)]
    assert pair == {"seed": 4, "first": "change", "parent": {"w.run_s": 1.0}, "change": {"w.run_s": 0.5},
                    "parent_attempted": 3, "parent_correct": True, "parent_failed": 0,
                    "change_attempted": 3, "change_correct": True, "change_failed": 0}
    assert env == {"seed": 4}


def test_cross_load_lists_each_scored_output_that_differs_from_the_bases_own(tmp_path):
    from ltcalib.cli import main

    base = tmp_path / "score-csv"
    assert main(["gen-data", "--classes", "3", "--nmax", "40", "--nmin", "8", "--dim", "3",
                 "--out", str(base / "op" / "data" / "score")]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"stage1_epochs": 2, "stage1_schedule": {"kind": "cosine"},
                                                   "stage2_epochs": 1, "hidden": [4], "batch_size": 16}))
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--data", str(base / "op" / "data" / "score"),
                 "--out", str(base / "setup" / "ckpt")]) == 0
    # The base's own outputs, written by this tree's code, so that nothing differs at first.
    assert ab.cross_load(ab.ROOT, base, tmp_path / "own") == (4, [
        f"cross-load/{name}" for name in ab.CROSS_LOADED])
    for name, own in ab.CROSS_LOADED.items():
        shutil.copy(tmp_path / "own" / name, base / own)
    assert ab.cross_load(ab.ROOT, base, tmp_path / "same") == (4, [])
    (base / "op" / "reliability.csv").write_text("changed\n")
    assert ab.cross_load(ab.ROOT, base, tmp_path / "changed") == (4, ["cross-load/reliability.csv"])
    assert ab.cross_load(ab.ROOT, base, tmp_path / "reverse", "cross-load-reverse") == (
        4, ["cross-load-reverse/reliability.csv"])


def test_cross_load_both_ways_scores_each_sides_files_with_the_other_sides_code(tmp_path, monkeypatch):
    calls = []

    def fake_cross_load(tree, base_score, out, label):
        calls.append((tree, base_score, out, label))
        return 4, [f"{label}/eval.stdout"] if tree == "p" else []

    monkeypatch.setattr(ab, "cross_load", fake_cross_load)
    assert ab.cross_load_both_ways({"parent": "p", "change": "c"}, tmp_path) == (8, ["cross-load-reverse/eval.stdout"])
    assert calls == [("c", tmp_path / "artifacts-parent" / "score-csv", tmp_path / "cross-load", "cross-load"),
                     ("p", tmp_path / "artifacts-change" / "score-csv", tmp_path / "cross-load-reverse",
                      "cross-load-reverse")]
