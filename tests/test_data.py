import csv
import io
import shutil
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ltcalib import data
from ltcalib.data import (
    LongTailedDataset,
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

    # n_max rounds to the float 2**63, which no int64 holds.
    @pytest.mark.parametrize("n_max, n_min, k", [(2**63 - 1, 1, 3), (2**63 - 1, 2**63 - 2, 3),
                                                 (2**63 - 1, 2**62, 10)])
    def test_n_max_just_below_2_63_stays_in_range_without_a_warning(self, n_max, n_min, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = make_longtail_profile(n_max, n_min, k)
        assert counts[0] == n_max and counts[-1] == n_min and len(counts) == k
        assert np.all(counts[:-1] >= counts[1:]) and np.all((counts >= n_min) & (counts <= n_max))

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


def _reference_blobs(counts, dim, spread, seed, test_per_class):
    """The train and test features as the per-class arrays and np.concatenate that
    gen_gaussian_blobs once used, from the same generators."""
    centers = data._class_centers(len(counts), dim, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD4]))
    test_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E]))
    features = np.concatenate([centers[j] + spread * rng.standard_normal((int(n), dim))
                               for j, n in enumerate(counts)])
    test_features = np.concatenate([centers[j] + spread * test_rng.standard_normal((test_per_class, dim))
                                    for j in range(len(counts))])
    return features, test_features


class TestBlobsInPlace:
    @pytest.mark.parametrize("profile, dim, spread, seed, test_per_class",
                             [((500, 5, 100), 24, 0.45, 3, 200), ((500, 5, 10), 16, 0.45, 1, 50),
                              ((7, 7, 2), 2, 3.0, 0, 1), ((40, 1, 4), 5, 1e-3, 2**62, 3)])
    def test_features_match_the_concatenated_reference(self, profile, dim, spread, seed, test_per_class):
        counts = make_longtail_profile(*profile)
        ds = gen_gaussian_blobs(counts, dim, spread, seed, test_per_class)
        features, test_features = _reference_blobs(counts, dim, spread, seed, test_per_class)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.test_features.tobytes() == test_features.tobytes()

    def test_peak_memory_stays_near_the_dataset(self):
        """The score-csv dataset's rows are drawn into their arrays: the traced peak
        stays under 1.2x the arrays returned (concatenating per-class arrays peaked at 1.6x)."""
        counts = make_longtail_profile(500, 5, 100)
        tracemalloc.start()
        try:
            ds = gen_gaussian_blobs(counts, 24, 0.45, seed=3, test_per_class=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in (ds.features, ds.labels, ds.test_features, ds.test_labels, ds.centers))
        assert peak < 1.2 * size, f"peak {peak} bytes for {size} bytes of dataset"

    def test_counts_summing_past_int64_are_refused_as_too_big(self):
        with pytest.raises(ValueError, match="too big"):
            gen_gaussian_blobs([2**63 - 1, 2], dim=2, spread=0.5, seed=0)


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
        x, q = mixup_batch(x1, [0, 1, 2, 0], x2, [2, 2, 1, 1], 0.2, rng, k=3, lam=1.0)
        assert np.array_equal(x, x1)
        assert np.array_equal(q, one_hot([0, 1, 2, 0], 3))

    def test_same_label_half_mix(self, rng):
        x1, x2 = rng.standard_normal((2, 2, 3))
        _, q = mixup_batch(x1, [1, 1], x2, [1, 1], 0.2, rng, k=4, lam=0.5)
        assert np.allclose(q, one_hot([1, 1], 4))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 5.0), st.integers(0, 10**6))
    def test_convex_combination(self, alpha, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((3, 5))
        x2 = rng.standard_normal((3, 5))
        x, q = mixup_batch(x1, [0, 1, 2], x2, [3, 4, 0], alpha, rng, k=5)
        assert np.all(x >= np.minimum(x1, x2) - 1e-12)
        assert np.all(x <= np.maximum(x1, x2) + 1e-12)
        assert np.all(q >= 0)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_alpha_must_be_positive(self, rng):
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError, match="alpha"):
                mixup_batch(np.ones((1, 2)), [0], np.ones((1, 2)), [1], alpha, rng, k=2)


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

    # np.loadtxt numbers a bad value's row from 0 and a width change's row from 1;
    # ltcalib's messages number data rows from 1, blank lines not counted.
    @pytest.mark.parametrize("body, message", [
        ("\r\nx,2.0,0\r\n1.0,2.0,1\r\n", "could not convert string 'x' to float64 at data row 1, column 1."),
        ("1.0,2.0,0\r\n\r\n1.0,1\r\n", "the number of columns changed from 3 to 2 at data row 2;"),
        ("1.0,at row 7,0\r\n", "could not convert string 'at row 7' to float64 at data row 1, column 2."),
    ], ids=["bad_first_row", "short_second_row", "row_text_in_a_field"])
    def test_parse_error_names_the_1_based_data_row(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_bytes(("feat_0,feat_1,label\r\n" + body).encode())
        with pytest.raises(data.DatasetFormatError) as exc:
            data._read_feature_csv(path)
        assert str(exc.value).startswith(f"{path}: {message}"), str(exc.value)

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


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, 1e16, 1e308, -1e308,
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
            # The binary twins hold the parse's arrays bit for bit.
            for csv_path in (Path(tmp) / "d.csv", Path(tmp) / "d.test.csv"):
                twin, parsed = data._read_twin(csv_path), data._read_feature_csv(csv_path)
                assert [(a.dtype, a.shape, a.tobytes()) for a in twin] == [(a.dtype, a.shape, a.tobytes()) for a in parsed]
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


def _saved(tmp_path, seed=7):
    """Save a small gen-data set as ``tmp_path/d``; its train and test CSV paths."""
    ds = gen_gaussian_blobs(make_longtail_profile(60, 4, 4), dim=3, spread=0.4, seed=seed)
    save_dataset(ds, tmp_path / "d")
    return tmp_path / "d.csv", tmp_path / "d.test.csv"


def _edit_digit(csv_path, twin_path):
    text = csv_path.read_bytes()
    at = text.index(b",", text.index(b"\r\n")) - 1  # the last digit of the first data row's first feature
    assert text[at:at + 1].isdigit()
    csv_path.write_bytes(text[:at] + (b"1" if text[at:at + 1] != b"1" else b"2") + text[at + 1:])


def _flip_payload_byte(csv_path, twin_path):
    blob = bytearray(twin_path.read_bytes())
    blob[-9] ^= 0x01  # in the last feature
    twin_path.write_bytes(bytes(blob))


def _garbage_header(csv_path, twin_path):
    size = data._TWIN_HEADER.size
    twin_path.write_bytes(b"\xff" * size + twin_path.read_bytes()[size:])


def _twin_of_another_csv(csv_path, twin_path):
    (csv_path.parent / "other").mkdir()
    _saved(csv_path.parent / "other", seed=8)
    shutil.copy(csv_path.parent / "other" / twin_path.name, twin_path)


# Each leaves a twin that must not stand in for the CSV beside it.
TWIN_FALLBACKS = {
    "edited_csv_digit": _edit_digit,
    "truncated_twin": lambda csv_path, twin_path: twin_path.write_bytes(twin_path.read_bytes()[:-8]),
    "flipped_payload_byte": _flip_payload_byte,
    "missing_twin": lambda csv_path, twin_path: twin_path.unlink(),
    "garbage_header": _garbage_header,
    "twin_of_a_different_csv": _twin_of_another_csv,
}


class TestBinaryTwin:
    def test_files_are_written_csvs_first_then_twins_then_the_sidecar(self, tmp_path, monkeypatch):
        written = []
        for name in ("write_atomic", "write_json"):
            original = getattr(data, name)
            monkeypatch.setattr(data, name, lambda path, *args, original=original, **kwargs:
                                written.append(Path(path).name) or original(path, *args, **kwargs))
        _saved(tmp_path)
        assert written == ["d.csv", "d.test.csv", "d.csv.bin", "d.test.csv.bin", "d.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)

    def test_a_loaded_dataset_views_the_twins_read_only(self, tmp_path):
        _saved(tmp_path)
        ds = load_dataset(tmp_path / "d")
        for a in (ds.features, ds.labels, ds.test_features, ds.test_labels):
            assert not a.flags.writeable
        assert ds.features.flags["C_CONTIGUOUS"] and ds.labels.dtype == np.int64
        sidecar, features, labels = data.load_test_split(tmp_path / "d")
        assert not features.flags.writeable
        assert features.tobytes() == ds.test_features.tobytes()

    @pytest.mark.parametrize("which", ["train", "test"])
    @pytest.mark.parametrize("case", sorted(TWIN_FALLBACKS))
    def test_a_twin_that_does_not_match_gives_the_csv_parse(self, tmp_path, case, which):
        csv_path = _saved(tmp_path)[which == "test"]
        twin_path = data._twin_path(csv_path)
        TWIN_FALLBACKS[case](csv_path, twin_path)
        assert data._read_twin(csv_path) is None
        ds = load_dataset(tmp_path / "d")
        features, labels = data._read_feature_csv(csv_path)
        got = (ds.features, ds.labels) if which == "train" else (ds.test_features, ds.test_labels)
        assert got[0].tobytes() == features.tobytes() and got[1].tobytes() == labels.tobytes()
        assert got[0].flags.writeable  # parsed, not mapped

    def test_an_edited_csv_that_does_not_parse_gives_the_parse_error(self, tmp_path):
        _, test_csv = _saved(tmp_path)
        test_csv.write_bytes(test_csv.read_bytes().replace(b"\r\n", b"\r\nx", 1))
        with pytest.raises(data.DatasetFormatError) as expected:
            data._read_feature_csv(test_csv)
        with pytest.raises(data.DatasetFormatError) as got:
            load_dataset(tmp_path / "d")
        assert str(got.value) == str(expected.value)
        assert "could not convert string 'x" in str(got.value)

    def test_a_twin_whose_arrays_the_parse_would_refuse_is_not_used(self, tmp_path):
        ds = LongTailedDataset(features=np.array([[1.0, np.nan], [2.0, 3.0]]), labels=np.array([0, 1]),
                               class_counts=np.array([1, 1]), splits=["few", "few"])
        save_dataset(ds, tmp_path / "d")
        assert data._twin_path(tmp_path / "d.csv").is_file()
        assert data._read_twin(tmp_path / "d.csv") is None
        with pytest.raises(data.DatasetFormatError, match="non-finite feature in data row 1"):
            data._read_checked_csv(tmp_path / "d.csv", 2, 2)
