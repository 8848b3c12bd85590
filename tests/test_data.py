import csv
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ltcalib import data
from ltcalib.data import (
    LongTailedDataset,
    MixupConfig,
    Sampler,
    gen_gaussian_blobs,
    load_dataset,
    make_longtail_profile,
    mixup_batch,
    one_hot,
    save_dataset,
    split_tags,
)


class TestProfile:
    def test_pinned_endpoints_and_if(self):
        counts = make_longtail_profile(500, 5, 100)
        assert counts[0] == 500
        assert counts[99] == 5
        assert counts[0] / counts[-1] == 100

    def test_balanced_degenerate(self):
        assert np.array_equal(make_longtail_profile(100, 100, 10), [100] * 10)

    def test_interior_value(self):
        counts = make_longtail_profile(500, 5, 100)
        assert counts[49] == round(500 * 100 ** (-49 / 99)) == 51

    def test_monotone_non_increasing(self):
        counts = make_longtail_profile(777, 3, 37)
        assert np.all(counts[:-1] >= counts[1:])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_longtail_profile(100, 0, 10)
        with pytest.raises(ValueError):
            make_longtail_profile(100, 10, 1)

    @pytest.mark.parametrize("n_max", [2**63, 10**20])
    def test_n_max_beyond_int64_rejected(self, n_max):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            make_longtail_profile(n_max, 5, 3)


class TestSplits:
    def test_thresholds(self):
        assert split_tags(np.array([101, 100, 20, 19])) == ["many", "medium", "medium", "few"]


class TestBlobs:
    def test_separable_limit_nearest_center(self):
        ds = gen_gaussian_blobs([10, 10], dim=4, spread=1e-6, seed=0)
        d = np.linalg.norm(ds.test_features[:, None, :] - ds.centers[None], axis=2)
        assert np.array_equal(d.argmin(axis=1), ds.test_labels)

    def test_same_seed_bit_identical(self):
        a = gen_gaussian_blobs([30, 10], dim=3, spread=0.5, seed=9)
        b = gen_gaussian_blobs([30, 10], dim=3, spread=0.5, seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.test_features.tobytes() == b.test_features.tobytes()

    def test_label_histogram_matches_counts(self):
        counts = make_longtail_profile(500, 5, 10)
        ds = gen_gaussian_blobs(counts, dim=4, spread=0.3, seed=2)
        assert np.array_equal(np.bincount(ds.labels), counts)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_gaussian_blobs([10, 10], dim=1, spread=0.5, seed=0)
        with pytest.raises(ValueError):
            gen_gaussian_blobs([10, 10], dim=4, spread=0.0, seed=0)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_rejected(self, spread):
        with pytest.raises(ValueError, match="spread"):
            gen_gaussian_blobs([10, 10], dim=4, spread=spread, seed=0)

    def test_spread_that_overflows_a_feature_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spread 1e\\+308"):
                gen_gaussian_blobs([10, 10], dim=4, spread=1e308, seed=0)


class TestSampler:
    def test_class_balanced_marginal(self):
        ds = gen_gaussian_blobs([900, 100], dim=2, spread=0.5, seed=4)
        sampler = Sampler("class", ds, seed=11)
        _, y = sampler.next_batch(100_000)
        assert abs((y == 0).mean() - 0.5) < 0.01

    def test_instance_balanced_marginal(self):
        ds = gen_gaussian_blobs([900, 100], dim=2, spread=0.5, seed=4)
        sampler = Sampler("instance", ds, seed=11)
        _, y = sampler.next_batch(100_000)
        assert abs((y == 0).mean() - 0.9) < 0.01

    def test_single_instance_dataset(self):
        ds = LongTailedDataset(
            features=np.array([[1.0, 2.0], [3.0, 4.0]]),
            labels=np.array([0, 1]),
            class_counts=np.array([1, 1]),
            splits=["few", "few"],
        )
        x, y = Sampler("instance", ds, seed=0).next_batch(1)
        assert x.shape == (1, 2)

    def test_class_draws_match_per_class_index_lists(self):
        # labels in shuffled order: a class's instances are not contiguous
        base = gen_gaussian_blobs([40, 17, 3], dim=2, spread=0.5, seed=4)
        perm = np.random.default_rng(2).permutation(len(base.labels))
        ds = LongTailedDataset(features=base.features[perm], labels=base.labels[perm],
                               class_counts=base.class_counts, splits=base.splits)
        sampler = Sampler("class", ds, seed=13)
        rng = np.random.default_rng(13)
        by_class = [np.flatnonzero(ds.labels == j) for j in range(3)]
        for batch in (1, 7, 64):
            classes = rng.integers(0, 3, size=batch)
            picks = rng.random(batch)
            expect = [by_class[c][int(p * len(by_class[c]))] for c, p in zip(classes, picks)]
            assert np.array_equal(sampler.next_indices(batch), expect)

    def test_class_sampler_rejects_an_empty_class(self):
        ds = LongTailedDataset(features=np.zeros((3, 2)), labels=np.array([0, 0, 1]),
                               class_counts=np.array([2, 1, 0]), splits=["few"] * 3)
        with pytest.raises(ValueError):
            Sampler("class", ds, seed=0)
        Sampler("instance", ds, seed=0).next_batch(4)

    def test_unknown_kind(self):
        ds = gen_gaussian_blobs([5, 5], dim=2, spread=0.5, seed=4)
        with pytest.raises(ValueError):
            Sampler("reversed", ds, seed=0)


class TestMixup:
    def test_lambda_one_is_identity(self, rng):
        x1, x2 = rng.standard_normal((2, 4, 3))
        x, q = mixup_batch(x1, [0, 1, 2, 0], x2, [2, 2, 1, 1], MixupConfig(0.2), rng, k=3, lam=1.0)
        assert np.array_equal(x, x1)
        assert np.array_equal(q, one_hot([0, 1, 2, 0], 3))

    def test_same_label_half_mix(self, rng):
        x1, x2 = rng.standard_normal((2, 2, 3))
        _, q = mixup_batch(x1, [1, 1], x2, [1, 1], MixupConfig(0.2), rng, k=4, lam=0.5)
        assert np.allclose(q, one_hot([1, 1], 4))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 5.0), st.integers(0, 10**6))
    def test_convex_combination(self, alpha, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((3, 5))
        x2 = rng.standard_normal((3, 5))
        x, q = mixup_batch(x1, [0, 1, 2], x2, [3, 4, 0], MixupConfig(alpha), rng, k=5)
        assert np.all(x >= np.minimum(x1, x2) - 1e-12)
        assert np.all(x <= np.maximum(x1, x2) + 1e-12)
        assert np.all(q >= 0)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_alpha_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            MixupConfig(alpha=0.0)
        with pytest.raises(ValueError):
            mixup_batch(np.ones((1, 2)), [0], np.ones((1, 2)), [1],
                        MixupConfig(alpha=-1.0, enabled=False), rng, k=2)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = gen_gaussian_blobs(make_longtail_profile(120, 4, 5), dim=3, spread=0.4, seed=7)
        save_dataset(ds, tmp_path / "blob")
        back = load_dataset(tmp_path / "blob")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.class_counts, ds.class_counts)
        assert back.splits == ds.splits
        assert np.array_equal(back.test_features, ds.test_features)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        from ltcalib.data import _read_feature_csv

        with pytest.raises(ValueError):
            _read_feature_csv(path)

    def test_empty_file_raises_format_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(data.DatasetFormatError):
            data._read_feature_csv(path)

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            LongTailedDataset(
                features=np.zeros((3, 2)),
                labels=np.array([0, 1, 1]),
                class_counts=np.array([1, 2]),  # not non-increasing
                splits=["few", "few"],
            )


def _reference_csv(features, labels) -> str:
    """The csv-module writer that the one-pass writer must match byte for byte."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"feat_{i}" for i in range(features.shape[1])] + ["label"])
    for row, lab in zip(features, labels):
        writer.writerow([repr(float(v)) for v in row] + [int(lab)])
    return buf.getvalue()


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16,
                  np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.1, 1 / 3]
finite_f64 = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(SPECIAL_FLOATS))


class TestCsvByteIdentity:
    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 2 * data._CHUNK_ROWS + 3),
                                            st.integers(1, 4)), elements=finite_f64))
    @example(np.array([SPECIAL_FLOATS] * (data._CHUNK_ROWS + 1)))
    def test_writer_matches_csv_module_and_round_trips(self, features):
        n = len(features)
        counts = np.array([n - n // 2, n // 2])
        labels = np.repeat([0, 1], counts)
        buf = io.StringIO(newline="")
        data._write_feature_csv(buf, features, labels)
        assert buf.getvalue() == _reference_csv(features, labels)

        ds = LongTailedDataset(features=features, labels=labels, class_counts=counts,
                               splits=["few", "few"], test_features=features[: n // 3 + 1],
                               test_labels=labels[: n // 3 + 1])
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(ds, Path(tmp) / "d")
            assert (Path(tmp) / "d.csv").read_bytes() == buf.getvalue().encode()
            back = load_dataset(Path(tmp) / "d")
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.test_features.tobytes() == ds.test_features.tobytes()
        assert back.features.flags["C_CONTIGUOUS"]
        assert back.labels.dtype == back.test_labels.dtype == np.int64
        assert np.array_equal(back.labels, labels)
        assert np.array_equal(back.test_labels, ds.test_labels)


class TestAtomicSave:
    @pytest.mark.parametrize("fail_on_call, left", [(1, []), (2, ["blob.csv"])])
    def test_failed_write_leaves_no_partial_or_temporary_file(self, tmp_path, monkeypatch,
                                                              fail_on_call, left):
        ds = gen_gaussian_blobs(make_longtail_profile(120, 4, 5), dim=3, spread=0.4, seed=7)
        write = data._write_feature_csv
        calls = []

        def failing_write(fh, features, labels):
            calls.append(None)
            if len(calls) == fail_on_call:
                fh.write("feat_0,feat_1,feat_2,label\r\n0.5,")
                raise OSError("disk full")
            write(fh, features, labels)

        monkeypatch.setattr(data, "_write_feature_csv", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(ds, tmp_path / "blob")
        assert sorted(p.name for p in tmp_path.iterdir()) == left
        if left:
            buf = io.StringIO(newline="")
            write(buf, ds.features, ds.labels)
            assert (tmp_path / "blob.csv").read_bytes() == buf.getvalue().encode()

    def test_failed_rewrite_keeps_previous_dataset(self, tmp_path, monkeypatch):
        ds = gen_gaussian_blobs(make_longtail_profile(120, 4, 5), dim=3, spread=0.4, seed=7)
        save_dataset(ds, tmp_path / "blob")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_write(fh, features, labels):
            fh.write("feat_0,")
            raise OSError("disk full")

        monkeypatch.setattr(data, "_write_feature_csv", failing_write)
        with pytest.raises(OSError):
            save_dataset(ds, tmp_path / "blob")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_empty_class_is_rejected_before_any_write(self, tmp_path):
        # An empty class makes the imbalance factor infinite, which is not valid JSON.
        ds = LongTailedDataset(features=np.zeros((2, 3)), labels=np.array([0, 0]),
                               class_counts=np.array([2, 0]), splits=["few", "few"])
        with pytest.raises(ValueError, match="empty class"):
            save_dataset(ds, tmp_path / "d")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field, value", [("seed", 2**63), ("splits", ["few", "rare"])])
    def test_sidecar_that_load_sidecar_refuses_is_rejected_before_any_write(self, tmp_path, field, value):
        ds = gen_gaussian_blobs([4, 2], dim=3, spread=0.4, seed=7)
        setattr(ds, field, value)
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            save_dataset(ds, tmp_path / "d")
        assert list(tmp_path.iterdir()) == []
