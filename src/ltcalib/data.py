"""Synthetic long-tailed datasets, samplers, and mixup augmentation."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import (_AT_LEAST_ONE, _POSITIVE, FormatError, _number, _one_of, check_fields, list_of,
                        write_atomic, write_json)

__all__ = [
    "LongTailedDataset",
    "make_longtail_profile",
    "split_tags",
    "gen_gaussian_blobs",
    "Sampler",
    "MixupConfig",
    "one_hot",
    "mixup_batch",
    "save_dataset",
    "load_sidecar",
    "load_dataset",
    "load_test_split",
    "DatasetFormatError",
]

MANY_THRESHOLD = 100  # count > 100  -> "many"
FEW_THRESHOLD = 20  # count < 20   -> "few"; in between -> "medium"


def make_longtail_profile(n_max: int, n_min: int, k: int) -> np.ndarray:
    """Exponentially decaying per-class counts with imbalance factor n_max/n_min.

    counts[j] = round(n_max * beta**(-j/(k-1))); the first and last entries are
    pinned to n_max and n_min exactly so the realized imbalance factor is exact.
    """
    if k < 2 or not 1 <= n_min <= n_max < 2**63:
        raise ValueError(f"require k >= 2 and 2**63 > n_max >= n_min >= 1, got k={k}, n_max={n_max}, n_min={n_min}")
    beta = n_max / n_min
    j = np.arange(k)
    counts = np.rint(n_max * beta ** (-j / (k - 1))).astype(np.int64)
    counts[0] = n_max
    counts[-1] = n_min
    return counts


def split_tags(counts: np.ndarray) -> list[str]:
    """Tag each class many/medium/few by its training-instance count."""
    return [
        "many" if c > MANY_THRESHOLD else ("few" if c < FEW_THRESHOLD else "medium")
        for c in counts
    ]


@dataclass
class LongTailedDataset:
    """Labeled feature vectors with per-class counts sorted non-increasing."""

    features: np.ndarray  # (N_total, M)
    labels: np.ndarray  # (N_total,) int
    class_counts: np.ndarray  # (K,) non-increasing
    splits: list[str]
    seed: int | None = None
    test_features: np.ndarray | None = None
    test_labels: np.ndarray | None = None
    centers: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.class_counts)
        if np.any(counts[:-1] < counts[1:]):
            raise ValueError("class_counts must be non-increasing")
        if counts.sum() != len(self.labels):
            raise ValueError("class_counts must sum to the number of instances")
        hist = np.bincount(self.labels, minlength=len(counts))
        if not np.array_equal(hist, counts):
            raise ValueError("label histogram disagrees with class_counts")

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def imbalance_factor(self) -> float:
        return float(self.class_counts[0] / self.class_counts[-1])


def _class_centers(k: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic class centers on the unit sphere in R^dim."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC3]))
    centers = rng.standard_normal((k, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    return centers


def gen_gaussian_blobs(
    counts,
    dim: int,
    spread: float,
    seed: int,
    test_per_class: int = 50,
) -> LongTailedDataset:
    """Isotropic Gaussian blobs around unit-sphere centers, plus a balanced test set."""
    counts = np.asarray(counts, dtype=np.int64)
    check_fields({"dim": _number(">= 2", lambda v: v >= 2, integer=True), "spread": _POSITIVE,
                  "test_per_class": _AT_LEAST_ONE}, {"dim": dim, "spread": spread, "test_per_class": test_per_class})
    k = len(counts)
    centers = _class_centers(k, dim, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD4]))

    test_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E]))
    with np.errstate(over="ignore"):  # reported below as the ValueError that names the spread
        features = np.concatenate(
            [centers[j] + spread * rng.standard_normal((int(counts[j]), dim)) for j in range(k)]
        )
        test_features = np.concatenate(
            [centers[j] + spread * test_rng.standard_normal((test_per_class, dim)) for j in range(k)]
        )
    if not (np.isfinite(features).all() and np.isfinite(test_features).all()):
        raise ValueError(f"spread {spread!r} makes a feature non-finite; it must be smaller")
    labels = np.repeat(np.arange(k), counts)
    test_labels = np.repeat(np.arange(k), test_per_class)

    return LongTailedDataset(
        features=features,
        labels=labels,
        class_counts=counts,
        splits=split_tags(counts),
        seed=seed,
        test_features=test_features,
        test_labels=test_labels,
        centers=centers,
    )


class Sampler:
    """Batch sampler with replacement.

    kind="instance": each training instance equi-probable.
    kind="class": a class is drawn uniformly, then an instance within it.
    """

    KINDS = ("instance", "class")

    def __init__(self, kind: str, dataset: LongTailedDataset, seed: int):
        if kind not in self.KINDS:
            raise ValueError(f"unknown sampler kind {kind!r}")
        if len(dataset.labels) == 0:
            raise ValueError("cannot sample from an empty dataset")
        self.kind = kind
        self.dataset = dataset
        self.rng = np.random.default_rng(seed)
        if kind == "class":
            # Instance indices grouped by class (ascending within a class),
            # with each class's start offset and size.
            self._sizes = np.asarray(dataset.class_counts, dtype=np.int64)
            if np.any(self._sizes == 0):
                raise ValueError("class-balanced sampling needs at least one instance per class")
            self._order = np.argsort(dataset.labels, kind="stable")
            self._starts = np.cumsum(self._sizes) - self._sizes

    def next_indices(self, batch: int) -> np.ndarray:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        n = len(self.dataset.labels)
        if self.kind == "instance":
            return self.rng.integers(0, n, size=batch)
        classes = self.rng.integers(0, self.dataset.num_classes, size=batch)
        picks = self.rng.random(batch)
        sizes = self._sizes[classes]
        return self._order[self._starts[classes] + (picks * sizes).astype(np.int64)]

    def next_batch(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.next_indices(batch)
        return self.dataset.features[idx], self.dataset.labels[idx]


@dataclass
class MixupConfig:
    alpha: float = 0.2
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and self.alpha <= 0:
            raise ValueError("mixup alpha must be positive")


def one_hot(labels, k: int) -> np.ndarray:
    labels = np.atleast_1d(np.asarray(labels))
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def mixup_batch(x1, y1, x2, y2, cfg: MixupConfig, rng: np.random.Generator, k: int, lam=None):
    """Convex combination of two batches and of their (one-hot) labels.

    y1/y2 may be integer labels or soft label rows; the returned label rows
    are probability vectors. ``lam`` overrides the Beta(alpha, alpha) draw.
    """
    if cfg.alpha <= 0:
        raise ValueError("mixup alpha must be positive")
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ValueError("mixup inputs must share a shape")
    q1 = y1 if np.asarray(y1).ndim == 2 else one_hot(y1, k)
    q2 = y2 if np.asarray(y2).ndim == 2 else one_hot(y2, k)
    if lam is None:
        lam = float(rng.beta(cfg.alpha, cfg.alpha))
    x = lam * x1 + (1.0 - lam) * x2
    q = lam * q1 + (1.0 - lam) * q2
    return x, q


# -- CSV export / import -------------------------------------------------------

# Rows formatted per write: few enough that a chunk's text stays near 100 kB,
# so peak memory does not grow with the dataset, and enough to amortize the
# per-chunk calls.
_CHUNK_ROWS = 256


class DatasetFormatError(FormatError):
    """A dataset file that was read but does not hold a well-formed dataset."""


def _write_feature_csv(fh, features: np.ndarray, labels: np.ndarray):
    """Header plus one ``repr(float)`` field per feature and the integer label,
    CRLF-terminated: the bytes ``csv.writer`` writes for those fields."""
    m = features.shape[1]
    fh.write(",".join([f"feat_{i}" for i in range(m)] + ["label"]) + "\r\n")
    row_format = ",".join(["%r"] * m + ["%d"]) + "\r\n"
    labels = np.asarray(labels, dtype=np.int64)
    for i in range(0, len(features), _CHUNK_ROWS):
        rows = zip(features[i : i + _CHUNK_ROWS].tolist(), labels[i : i + _CHUNK_ROWS].tolist())
        fh.write("".join([row_format % (*row, lab) for row, lab in rows]))


# What save_dataset writes in a sidecar, walked by load_sidecar.
SIDECAR_RULES = {
    "class_counts": list_of("integers in [1, 2**63)", _AT_LEAST_ONE),
    "splits": list_of("tags in ('many', 'medium', 'few')", _one_of(("many", "medium", "few"))),
    "dim": _AT_LEAST_ONE, "imbalance_factor": _POSITIVE,
    "seed": _number(">= 0", lambda v: v >= 0, integer=True, null=True),
    "test_csv": ("null or a printable string", lambda v: v is None or isinstance(v, str) and v.isprintable()),
}


def save_dataset(ds: LongTailedDataset, out_prefix: str | Path):
    """Write <prefix>.csv (+ .test.csv when present) and a JSON sidecar, each
    atomically; the sidecar is written last. A dataset with an empty class (no
    imbalance factor) or a sidecar off ``SIDECAR_RULES`` is rejected first."""
    if np.any(np.asarray(ds.class_counts) == 0):
        raise ValueError("cannot save a dataset with an empty class: its imbalance factor is undefined")
    prefix = Path(out_prefix)
    test_path = prefix.parent / (prefix.name + ".test.csv")
    sidecar = {
        "class_counts": [int(c) for c in ds.class_counts],
        "splits": ds.splits,
        "seed": ds.seed,
        "dim": int(ds.features.shape[1]),
        "imbalance_factor": ds.imbalance_factor,
        "test_csv": None if ds.test_features is None else test_path.name,
    }
    check_fields(SIDECAR_RULES, sidecar)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(prefix.with_suffix(".csv"),
                 lambda fh: _write_feature_csv(fh, ds.features, ds.labels))
    if ds.test_features is not None:
        write_atomic(test_path, lambda fh: _write_feature_csv(fh, ds.test_features, ds.test_labels))
    write_json(prefix.with_suffix(".json"), sidecar)


def _read_feature_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Features (C-contiguous float64) and int64 labels of a dataset CSV.

    The body is parsed in one pass; numpy's parser is correctly rounded, so
    every ``repr(float)`` field reads back to the same float64. Blank lines are
    skipped and ``#`` starts no comment; :class:`DatasetFormatError` is raised for
    anything else but a header and rows (one at least) of finite features and an integer label.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode().rstrip("\r\n").split(",")
            if header[-1] != "label" or not header[0].startswith("feat_"):
                raise DatasetFormatError(f"not a dataset CSV (header {header[:2]}...)")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except ValueError as exc:  # also UnicodeDecodeError
        raise DatasetFormatError(f"{path}: {exc}") from None
    if body.size == 0:
        raise DatasetFormatError(f"{path}: no data rows")
    if body.shape[1] != len(header):
        raise DatasetFormatError(f"{path}: {body.shape[1]} columns, header has {len(header)}")
    features, labels = body[:, :-1], body[:, -1]
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DatasetFormatError(f"{path}: non-finite feature in data row {bad[0] + 1}")
    # Integers beyond 2**53 are not exact in float64, so they cannot be labels.
    bad = np.flatnonzero((labels != np.trunc(labels)) | (np.abs(labels) > 2.0**53))
    if bad.size:
        raise DatasetFormatError(f"{path}: label {float(labels[bad[0]])!r} in data row {bad[0] + 1} "
                                 "is not an integer")
    return np.ascontiguousarray(features), labels.astype(np.int64)


def load_sidecar(prefix: str | Path) -> dict:
    """The JSON sidecar of the dataset at ``prefix``, with ``class_counts`` as an
    int64 array; one off ``SIDECAR_RULES`` or its joins raises :class:`DatasetFormatError`."""
    path = Path(prefix).with_suffix(".json")
    try:
        with open(path) as fh:
            sidecar = json.load(fh)
        check_fields(SIDECAR_RULES, sidecar)
    except ValueError as exc:  # also UnicodeDecodeError
        raise DatasetFormatError(f"{path}: {exc}") from None
    counts, splits = sidecar["class_counts"], sidecar["splits"]
    if not counts or len(splits) != len(counts):
        raise DatasetFormatError(f"{path}: splits: must hold one tag per class_counts entry, one at least, got {splits!r}")
    if any(b > a for a, b in zip(counts, counts[1:])):
        raise DatasetFormatError(f"{path}: class_counts: must be non-increasing, got {counts!r}")
    sidecar["class_counts"] = np.array(counts, dtype=np.int64)
    return sidecar


def _read_checked_csv(path: Path, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A dataset CSV whose width matches the sidecar's ``dim`` and whose labels lie in [0, k)."""
    features, labels = _read_feature_csv(path)
    if features.shape[1] != dim:
        raise DatasetFormatError(f"{path}: {features.shape[1]} feature columns, sidecar dim is {dim}")
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        raise DatasetFormatError(f"{path}: label {labels[bad[0]]} in data row {bad[0] + 1} "
                                 f"outside [0, {k})")
    return features, labels


def _test_csv_path(prefix: Path, sidecar: dict) -> Path:
    """The test CSV the sidecar names; training and scoring both need one."""
    if not sidecar["test_csv"]:
        raise DatasetFormatError(f"{prefix.with_suffix('.json')}: the dataset has no test split")
    return prefix.parent / sidecar["test_csv"]


def load_dataset(prefix: str | Path) -> LongTailedDataset:
    """Read a dataset written by :func:`save_dataset`, with its test split; a
    malformed file or a missing test split raises :class:`DatasetFormatError`
    naming the file."""
    prefix = Path(prefix)
    sidecar = load_sidecar(prefix)
    dim, k = sidecar["dim"], len(sidecar["class_counts"])
    test_path = _test_csv_path(prefix, sidecar)
    features, labels = _read_checked_csv(prefix.with_suffix(".csv"), dim, k)
    test_features, test_labels = _read_checked_csv(test_path, dim, k)
    try:
        return LongTailedDataset(features=features, labels=labels, class_counts=sidecar["class_counts"],
                                 splits=sidecar["splits"], seed=sidecar["seed"],
                                 test_features=test_features, test_labels=test_labels)
    except ValueError as exc:
        raise DatasetFormatError(f"{prefix.with_suffix('.json')}: {exc}") from None


def load_test_split(prefix: str | Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """The sidecar (as :func:`load_sidecar` returns it) and the test features and
    labels of the dataset at ``prefix``, with the checks of :func:`load_dataset`
    on those two files; the training CSV is not read."""
    prefix = Path(prefix)
    sidecar = load_sidecar(prefix)
    features, labels = _read_checked_csv(_test_csv_path(prefix, sidecar), sidecar["dim"],
                                         len(sidecar["class_counts"]))
    return sidecar, features, labels
