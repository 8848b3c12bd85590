import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            LongTailedDataset(
                features=np.zeros((3, 2)),
                labels=np.array([0, 1, 1]),
                class_counts=np.array([1, 2]),  # not non-increasing
                splits=["few", "few"],
            )
