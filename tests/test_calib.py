import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltcalib.calib import (
    CalibrationReport,
    PredictionLog,
    bin_index,
    ece,
    export_distribution_csv,
    export_reliability_csv,
    probability_distribution,
    reliability_bins,
    split_accuracy,
)


def _log(confidence, correct):
    confidence = np.asarray(confidence, dtype=np.float64)
    correct = np.asarray(correct)
    predicted = np.zeros(len(confidence), dtype=int)
    label = np.where(correct == 1, 0, 1)
    return PredictionLog(confidence=confidence, predicted=predicted, label=label)


def _brute_force_ece(confidence, correct, b):
    """Independent ECE: explicit interval tests and per-bin Python sums."""
    n = len(confidence)
    total = 0.0
    for j in range(1, b + 1):
        lo, hi = (j - 1) / b, j / b
        members = [i for i, c in enumerate(confidence)
                   if (lo < c <= hi) or (j == 1 and c <= lo)]
        if not members:
            continue
        acc = sum(correct[i] for i in members) / len(members)
        conf = sum(confidence[i] for i in members) / len(members)
        total += len(members) / n * abs(conf - acc)
    return total * 100.0


class TestEce:
    def test_hand_case(self):
        log = _log([0.9, 0.9, 0.6, 0.6], [1, 0, 1, 1])
        report = ece(log, b=15)
        assert report.ece_percent == pytest.approx(40.0, abs=1e-12)

    def test_perfectly_calibrated_two_bins(self):
        # bin (0.5, 1]: conf 0.75, acc 0.75 -> zero gap
        log = _log([0.75, 0.75, 0.75, 0.75], [1, 1, 1, 0])
        assert ece(log, b=2).ece_percent == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_is_mean_gap(self):
        conf = np.array([0.3, 0.8, 0.6])
        correct = np.array([1, 0, 1])
        report = ece(_log(conf, correct), b=1)
        expect = abs(conf.mean() - correct.mean()) * 100
        assert report.ece_percent == pytest.approx(expect, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(300):
            n = rng.integers(1, 50)
            b = int(rng.choice([1, 5, 15]))
            conf = rng.uniform(0.0, 1.0, n)
            if rng.random() < 0.3:  # push some values onto bin edges
                conf[: n // 2] = np.round(conf[: n // 2] * b) / b
            correct = rng.integers(0, 2, n).astype(float)
            got = ece(_log(conf, correct), b=b).ece_percent
            want = _brute_force_ece(conf, correct, b)
            assert got == want

    def test_order_invariance(self, rng):
        conf = rng.uniform(0, 1, 40)
        correct = rng.integers(0, 2, 40)
        perm = rng.permutation(40)
        a = ece(_log(conf, correct), 15).ece_percent
        b = ece(_log(conf[perm], correct[perm]), 15).ece_percent
        # per-bin sums are sequential, so permutation changes only the rounding
        assert a == pytest.approx(b, abs=1e-10)

    def test_direction(self):
        assert ece(_log([0.9, 0.9], [0, 0]), 10).direction == "over-confident"
        assert ece(_log([0.6, 0.6], [1, 1]), 10).direction == "under-confident"

    def test_confidence_one_lands_in_last_bin(self):
        assert bin_index(np.array([1.0]), 15)[0] == 14
        assert bin_index(np.array([0.0]), 15)[0] == 0

    def test_bin_assignment_matches_interval_test(self):
        rng = np.random.default_rng(7)
        for b in (1, 5, 15):
            conf = np.concatenate([rng.uniform(0, 1, 200), np.arange(b + 1) / b])
            idx = bin_index(conf, b)
            for c, j in zip(conf, idx):
                lo, hi = j / b, (j + 1) / b
                assert (lo < c <= hi) or (j == 0 and c <= 0.0) or (j == 0 and c <= hi)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ece(_log([0.5], [1]), b=0)
        with pytest.raises(ValueError):
            ece(_log([], []), b=15)


class TestReliability:
    def test_rows_partition_unit_interval(self):
        rows = reliability_bins(_log([0.1, 0.9], [1, 0]), b=15)
        assert len(rows) == 15
        assert rows[0]["bin_lo"] == 0.0
        assert rows[-1]["bin_hi"] == 1.0
        for a, b in zip(rows, rows[1:]):
            assert a["bin_hi"] == b["bin_lo"]

    def test_counts_sum_to_n_including_empty_bins(self, rng):
        conf = rng.uniform(0, 1, 37)
        rows = reliability_bins(_log(conf, rng.integers(0, 2, 37)), b=15)
        assert sum(r["count"] for r in rows) == 37

    def test_internal_consistency_with_ece(self, rng):
        conf = rng.uniform(0, 1, 60)
        correct = rng.integers(0, 2, 60)
        log = _log(conf, correct)
        rows = reliability_bins(log, 15)
        recomputed = sum(
            r["count"] / 60 * abs(r["confidence"] - r["accuracy"]) for r in rows
        ) * 100
        assert abs(recomputed - ece(log, 15).ece_percent) <= 1e-12

    def test_csv_export(self, tmp_path, rng):
        rows = reliability_bins(_log(rng.uniform(0, 1, 10), rng.integers(0, 2, 10)), 5)
        export_reliability_csv(rows, tmp_path / "rel.csv")
        lines = (tmp_path / "rel.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,accuracy,confidence"
        assert len(lines) == 6


class TestSplitAccuracy:
    def test_per_split_values(self):
        splits = ["many", "many", "medium", "few"]
        log = PredictionLog(
            confidence=np.full(6, 0.9),
            predicted=np.array([0, 1, 0, 2, 3, 3]),
            label=np.array([0, 1, 1, 2, 3, 2]),
        )
        acc = split_accuracy(log, splits)
        assert acc["many"] == pytest.approx(200 / 3)
        assert acc["medium"] == pytest.approx(50.0)
        assert acc["few"] == pytest.approx(100.0)
        assert acc["all"] == pytest.approx(400 / 6)

    def test_absent_split_is_none(self):
        log = PredictionLog(
            confidence=np.array([0.9]), predicted=np.array([0]), label=np.array([0])
        )
        acc = split_accuracy(log, ["many", "many"])
        assert acc["medium"] is None and acc["few"] is None
        assert acc["all"] == 100.0

    def test_label_without_tag_rejected(self):
        log = PredictionLog(
            confidence=np.array([0.9]), predicted=np.array([2]), label=np.array([2])
        )
        with pytest.raises(ValueError):
            split_accuracy(log, ["many", "many"])


class TestProbabilityDistribution:
    def test_from_probs_logs_three_numbers_per_row_and_not_the_rows(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.55, 0.45]])
        log = PredictionLog.from_probs(probs, np.array([0, 0, 1]))
        assert log.confidence.tolist() == [0.7, 0.8, 0.55]
        assert log.predicted.tolist() == [0, 1, 0]
        assert log.p_true.tolist() == [0.7, 0.2, 0.45]
        assert not hasattr(log, "probs")

    def test_true_class_probabilities_per_split(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.55, 0.45]])
        log = PredictionLog.from_probs(probs, np.array([0, 0, 1]))
        dist = probability_distribution(log, ["many", "few"])
        assert np.allclose(np.sort(dist["many"]["samples"]), [0.2, 0.7])
        assert np.allclose(dist["few"]["samples"], [0.45])
        assert dist["many"]["mean"] == pytest.approx(0.45)
        assert dist["medium"]["mean"] is None

    def test_frac_above_099(self):
        probs = np.array([[0.995, 0.005], [0.5, 0.5]])
        log = PredictionLog.from_probs(probs, np.array([0, 0]))
        dist = probability_distribution(log, ["many", "many"])
        assert dist["many"]["frac_above_099"] == pytest.approx(0.5)

    def test_requires_full_probability_rows(self):
        log = _log([0.9], [1])
        with pytest.raises(ValueError):
            probability_distribution(log, ["many", "many"])

    def test_csv_export(self, tmp_path):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        log = PredictionLog.from_probs(probs, np.array([0, 1]))
        dist = probability_distribution(log, ["many", "few"])
        export_distribution_csv(dist, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().strip().splitlines()
        assert lines[0] == "split,p_true"
        assert len(lines) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 30), st.integers(0, 10**6))
def test_ece_bounded_by_100(n, b, seed):
    rng = np.random.default_rng(seed)
    log = _log(rng.uniform(0, 1, n), rng.integers(0, 2, n))
    report = ece(log, b)
    assert 0.0 <= report.ece_percent <= 100.0
    assert isinstance(report, CalibrationReport)
    assert isinstance(report.ece_percent, float)
