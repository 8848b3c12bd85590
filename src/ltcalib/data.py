"""Synthetic long-tailed datasets, samplers, and mixup augmentation."""

from __future__ import annotations

import hashlib
import json
import mmap
import re
import struct
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
    "one_hot",
    "mixup_batch",
    "save_dataset",
    "load_sidecar",
    "load_dataset",
    "load_test_split",
    "DatasetFormatError",
    "nan_row_error",
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
    rounded = np.rint(n_max * beta ** (-np.arange(k) / (k - 1)))
    counts = np.clip(np.minimum(rounded, 2.0**63 - 1024).astype(np.int64), n_min, n_max)  # the largest float below 2**63
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
    test_path: Path | None = None  # the CSV the test split was read from, when it was

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
                  "test_per_class": _AT_LEAST_ONE, "seed": SIDECAR_RULES["seed"]},
                 {"dim": dim, "spread": spread, "test_per_class": test_per_class, "seed": seed})
    k = len(counts)
    total = sum(counts.tolist())  # Python ints: an int64 sum would wrap
    if total >= 2**63:
        raise ValueError(f"class counts sum to {total} rows, 2**63 or more: the array is too big")
    centers = _class_centers(k, dim, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD4]))
    test_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E]))
    features, test_features = np.empty((total, dim)), np.empty((k * test_per_class, dim))
    with np.errstate(over="ignore"):  # reported below as the ValueError that names the spread
        # Class j's rows are centers[j] + spread * z, the classes drawn in turn;
        # z is drawn into the rows, then scaled and shifted there.
        start = 0
        for j, n in enumerate(counts.tolist()):
            for rows, draw in ((features[start:start + n], rng),
                               (test_features[j * test_per_class:(j + 1) * test_per_class], test_rng)):
                draw.standard_normal(out=rows)
                rows *= spread
                rows += centers[j]
            start += n
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


def one_hot(labels, k: int) -> np.ndarray:
    """Rows of k zeros with a 1 at each label, shaped ``labels.shape + (k,)``."""
    labels = np.atleast_1d(np.asarray(labels))
    out = np.zeros((*labels.shape, k))
    out.reshape(-1, k)[np.arange(labels.size), labels.ravel()] = 1.0
    return out


def mixup_batch(x1, y1, x2, y2, alpha: float, rng: np.random.Generator, k: int, lam=None):
    """Convex combination of two batches and of their (one-hot) labels.

    y1/y2 may be integer labels (one per row of x) or soft label rows (as many
    axes as x); the returned label rows are probability vectors. ``lam``
    overrides the Beta(alpha, alpha) draw: a float, or an array that broadcasts
    against x, such as one λ per batch, shaped ``(n, 1, 1)``, for a stack of n.
    """
    if alpha <= 0:
        raise ValueError("mixup alpha must be positive")
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ValueError("mixup inputs must share a shape")
    q1 = y1 if np.ndim(y1) == x1.ndim else one_hot(y1, k)
    q2 = y2 if np.ndim(y2) == x1.ndim else one_hot(y2, k)
    if lam is None:
        lam = float(rng.beta(alpha, alpha))
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


def nan_row_error(test_csv: Path | None, confidence: np.ndarray) -> DatasetFormatError:
    """The error for the first test row whose confidence is NaN: a finite feature
    that the forward pass overflows, since a softmax row of finite logits is finite."""
    row = np.flatnonzero(np.isnan(confidence))[0] + 1
    return DatasetFormatError(f"{test_csv or 'test split'}: data row {row} "
                              "overflows the checkpoint's forward pass to a NaN probability")


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
    """Write <prefix>.csv (+ .test.csv when present), then each CSV's binary twin
    ``<csv name>.bin``, then a JSON sidecar, each atomically. A dataset with an
    empty class (no imbalance factor) or a sidecar off ``SIDECAR_RULES`` is
    rejected first."""
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
    csvs = [(prefix.with_suffix(".csv"), ds.features, ds.labels)]
    if ds.test_features is not None:
        csvs.append((test_path, ds.test_features, ds.test_labels))
    for path, features, labels in csvs:
        write_atomic(path, lambda fh: _write_feature_csv(fh, features, labels))
    for path, features, labels in csvs:
        _write_twin(path, features, labels)
    write_json(prefix.with_suffix(".json"), sidecar)


# The binary twin of a dataset CSV: a fixed header, then the features as
# little-endian float64 rows and the labels as int64. The header holds a magic
# string, the CSV's SHA-256, the row count, the width and the payload's SHA-256.
# The twin stands in for the CSV only while the CSV still has the bytes it was
# written beside; the CSV stays the interchange format and the reference.
_TWIN_MAGIC = b"LTCTWIN1"
_TWIN_HEADER = struct.Struct("<8s32sQQ32s")


def _twin_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name + ".bin")


def _file_sha256(path: Path) -> bytes:
    """The file's SHA-256, read through a 256 KiB buffer (``hashlib.file_digest``
    does the same from Python 3.11 on)."""
    digest, buffer = hashlib.sha256(), bytearray(1 << 18)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(memoryview(buffer)[:size])
    return digest.digest()


def _write_twin(csv_path: Path, features: np.ndarray, labels: np.ndarray):
    """The twin of the CSV at ``csv_path``, which holds ``features`` and ``labels``."""
    features = np.ascontiguousarray(features, dtype="<f8")
    labels = np.ascontiguousarray(labels, dtype="<i8")
    payload = hashlib.sha256(features)
    payload.update(labels)
    header = _TWIN_HEADER.pack(_TWIN_MAGIC, _file_sha256(csv_path), *features.shape, payload.digest())

    def write(fh):
        for part in (header, features, labels):
            fh.write(part)

    write_atomic(_twin_path(csv_path), write, binary=True)


def _read_twin(csv_path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """The features and labels of the CSV at ``csv_path``, read from its twin as
    read-only views of the twin's mapping (which closes when they are freed);
    None, so that the CSV is parsed, unless the twin's header parses, its size
    and payload hash match, the CSV's SHA-256 is the one it records, and the
    parse would accept its rows (one at least, of finite features)."""
    try:
        with open(_twin_path(csv_path), "rb") as fh:
            magic, csv_sha, rows, width, payload_sha = _TWIN_HEADER.unpack(fh.read(_TWIN_HEADER.size))
            if (magic != _TWIN_MAGIC or rows < 1 or width < 1
                    or _TWIN_HEADER.size + 8 * rows * (width + 1) != fh.seek(0, 2)):
                return None
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        with memoryview(mapped) as view, view[_TWIN_HEADER.size:] as payload:
            payload_ok = hashlib.sha256(payload).digest() == payload_sha
        if not (payload_ok and _file_sha256(csv_path) == csv_sha):
            mapped.close()
            return None
    except (OSError, struct.error):
        return None
    features = np.frombuffer(mapped, "<f8", rows * width, _TWIN_HEADER.size).reshape(rows, width)
    labels = np.frombuffer(mapped, "<i8", rows, _TWIN_HEADER.size + 8 * rows * width)
    return (features, labels) if np.isfinite(features).all() else None


def _data_row_message(message: str) -> str:
    """An ``np.loadtxt`` error with its row renumbered as a 1-based data row: loadtxt
    counts a bad value's ``row R, column C`` from 0 and a width change's ``row R``
    from 1, blank lines uncounted in both. The last match is loadtxt's own."""
    matches = list(re.finditer(r"at row (\d+)(, column \d+)?", message))
    if not matches:
        return message
    found = matches[-1]
    row = int(found[1]) + (found[2] is not None)
    return f"{message[:found.start()]}at data row {row}{found[2] or ''}{message[found.end():]}"


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
        raise DatasetFormatError(f"{path}: {_data_row_message(str(exc))}") from None
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
    """A dataset CSV whose width matches the sidecar's ``dim`` and whose labels lie in [0, k);
    its binary twin stands in for the parse when :func:`_read_twin` accepts it."""
    features, labels = _read_twin(path) or _read_feature_csv(path)
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
                                 test_features=test_features, test_labels=test_labels, test_path=test_path)
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
