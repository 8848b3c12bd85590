"""The benchmark's workloads, each driven in-process through ``ltcalib.cli.main``.

A workload has three parts:

* ``setup(root, seed)`` writes the inputs the program sees (configs, data,
  the scoring checkpoint) under ``root``. It is timed as ``setup_s``.
* ``op(inputs, out)`` runs one timed operation: the CLI commands only.
* ``check(inputs, out, raw)`` parses and cross-checks the artifacts outside
  the timed region and returns an :class:`Outcome`. Any failed check raises
  :class:`CheckFailed`, which the runner counts as a failed operation.

The configs are written out in full here rather than read from
``ltcalib.cli.PRESETS``, so that a later change to a preset cannot silently
change what the benchmark measures.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

BINS = 15

# The cifar100lt-if100-analog preset: config and the dataset of its analog.
C100_CONFIG = {"eps1": 0.4, "eps_k": 0.1, "lr_ratio_dw": 0.2, "las_kind": "concave",
               "stage1_epochs": 20, "stage2_epochs": 10,
               "stage1_schedule": {"kind": "multistep", "milestones": [16, 18], "factor": 0.1}}
C100_DATA = {"classes": 100, "nmax": 500, "nmin": 5, "dim": 24, "spread": 0.45}

# The cifar10lt-if100-analog preset with the Stage-2 BN settings of acceptance
# gate 6 (a stats-only warm pass instead of concurrent shift, 25 Stage-1 epochs).
C10_GRID_CONFIG = {"eps1": 0.3, "eps_k": 0.0, "lr_ratio_dw": 0.5, "las_kind": "concave",
                   "stage1_epochs": 25, "stage2_epochs": 10,
                   "stage1_schedule": {"kind": "multistep", "milestones": [17, 22], "factor": 0.1},
                   "bn_warm_steps": 300, "bn_concurrent": False}
C10_DATA = {"classes": 10, "nmax": 500, "nmin": 5, "dim": 16, "spread": 0.45}

# A short run of the C100 recipe: the checkpoint that score-csv scores.
SCORE_CKPT_CONFIG = dict(C100_CONFIG, stage1_epochs=8, stage2_epochs=2,
                         stage1_schedule={"kind": "multistep", "milestones": [6], "factor": 0.1})
SCORE_TEST_PER_CLASS = 200


class CheckFailed(Exception):
    """An operation's exit code or artifacts failed a check."""


@dataclass
class Outcome:
    digests: dict[str, str]  # artifact name -> sha256; must equal the first op's
    quality: dict[str, float]  # acc_pct, acc_few_pct, ece_pct
    work: dict[str, int] = field(default_factory=dict)  # train_samples / scored_rows per op


def call_cli(argv: list[str]) -> str:
    """Run ``ltcalib <argv>`` in-process; return its stdout, raise on a non-zero exit."""
    from ltcalib import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"ltcalib {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def _gen_data_argv(spec: dict, seed: int, prefix: Path, test_per_class: int = 50) -> list[str]:
    return ["gen-data", "--classes", str(spec["classes"]), "--nmax", str(spec["nmax"]),
            "--nmin", str(spec["nmin"]), "--dim", str(spec["dim"]), "--spread", str(spec["spread"]),
            "--test-per-class", str(test_per_class), "--seed", str(seed), "--out", str(prefix)]


def _write_config(path: Path, config: dict, seed: int) -> None:
    path.write_text(json.dumps(dict(config, seed=seed), indent=2, sort_keys=True) + "\n")


def _finite_pct(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value) or not 0.0 <= value <= 100.0:
        raise CheckFailed(f"{what} is {value!r}, not a finite percentage")
    return float(value)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from None


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name} does not read: {exc}") from None
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def _check_checkpoint(prefix: Path) -> None:
    manifest = _read_json(prefix.with_suffix(".json"))
    size = prefix.with_suffix(".bin").stat().st_size
    if size != 8 * manifest.get("total", -1):
        raise CheckFailed(f"checkpoint blob has {size} bytes, manifest says {manifest.get('total')} f64")


def _train_samples(config: dict, n_train: int, warm: bool = True) -> int:
    """(Stage-1 + Stage-2 + BN-warm steps) x batch, from the config."""
    batch = config.get("batch_size", 64)
    steps = math.ceil(n_train / batch) * (config["stage1_epochs"] + config["stage2_epochs"])
    return (steps + (config.get("bn_warm_steps", 0) if warm else 0)) * batch


def _n_train(data_prefix: Path) -> int:
    return sum(_read_json(data_prefix.with_suffix(".json"))["class_counts"])


class TrainC100:
    """``ltcalib train`` on the cifar100lt-if100-analog config and data."""

    name = "train-c100"

    def setup(self, root: Path, seed: int) -> dict:
        _write_config(root / "config.json", C100_CONFIG, seed)
        call_cli(_gen_data_argv(C100_DATA, seed, root / "data" / "c100"))
        return {"config": root / "config.json", "data": root / "data" / "c100"}

    def op(self, inputs: dict, out: Path) -> dict:
        call_cli(["train", "--config", str(inputs["config"]), "--data", str(inputs["data"]),
                  "--out", str(out)])
        return {}

    def check(self, inputs: dict, out: Path, raw: dict) -> Outcome:
        names = ["manifest.json", "model.json", "model.bin", "metrics.csv", "schedule.json"]
        for name in names:
            if not (out / name).is_file():
                raise CheckFailed(f"train wrote no {name}")
        final = _read_json(out / "manifest.json")["final"]
        quality = {"acc_pct": _finite_pct(final.get("accuracy"), "accuracy"),
                   "acc_few_pct": _finite_pct(final.get("acc_few"), "few-split accuracy"),
                   "ece_pct": _finite_pct(final.get("ece"), "ECE")}
        _check_checkpoint(out / "model")
        _read_json(out / "schedule.json")
        rows = _read_csv(out / "metrics.csv", ["epoch", "stage", "lr", "train_loss", "test_acc", "ece"])
        epochs = C100_CONFIG["stage1_epochs"] + C100_CONFIG["stage2_epochs"]
        if len(rows) != epochs:
            raise CheckFailed(f"metrics.csv has {len(rows)} epochs, expected {epochs}")
        # The last per-epoch evaluation scores the final model, so it must agree exactly.
        if (float(rows[-1][4]), float(rows[-1][5])) != (final["accuracy"], final["ece"]):
            raise CheckFailed("manifest final metrics disagree with the last metrics.csv row")
        n_test = C100_DATA["classes"] * 50
        return Outcome(
            digests={name: sha256(out / name) for name in names},
            quality=quality,
            work={"train_samples": _train_samples(C100_CONFIG, _n_train(inputs["data"])),
                  "scored_rows": (epochs + 1) * n_test},
        )


class GridC10:
    """``ltcalib ablate``: the 2^3 mixup / shift-BN / LAS grid on cifar10lt-if100-analog data."""

    name = "grid-c10"

    def setup(self, root: Path, seed: int) -> dict:
        _write_config(root / "config.json", C10_GRID_CONFIG, seed)
        call_cli(_gen_data_argv(C10_DATA, seed, root / "data" / "c10"))
        return {"config": root / "config.json", "data": root / "data" / "c10"}

    def op(self, inputs: dict, out: Path) -> dict:
        # ablation.json keeps only accuracy and ECE per cell; the few-split
        # accuracy is read from the return value of each cell's trainer.run.
        from ltcalib import trainer

        argv = ["ablate", "--config", str(inputs["config"]), "--data", str(inputs["data"]), "--out", str(out)]
        if not hasattr(trainer, "run"):
            call_cli(argv)
            return {"finals": None}
        finals: list[dict] = []
        with _observe_runs(trainer, finals):
            call_cli(argv)
        return {"finals": finals}

    def check(self, inputs: dict, out: Path, raw: dict) -> Outcome:
        cells = _read_json(out / "ablation.json")
        if not isinstance(cells, list) or len(cells) != 8:
            raise CheckFailed(f"ablation.json holds {len(cells) if isinstance(cells, list) else cells!r} cells, not 8")
        for cell in cells:
            if "error" in cell:
                raise CheckFailed(f"ablation cell {cell} failed")
            _finite_pct(cell.get("accuracy"), "cell accuracy")
            _finite_pct(cell.get("ece"), "cell ECE")
        quality = {"acc_pct": sum(c["accuracy"] for c in cells) / 8,
                   "ece_pct": sum(c["ece"] for c in cells) / 8}
        finals = raw["finals"]
        if finals is not None:
            if [(f["accuracy"], f["ece"]) for f in finals] != [(c["accuracy"], c["ece"]) for c in cells]:
                raise CheckFailed("trainer.run results disagree with ablation.json")
            quality["acc_few_pct"] = sum(_finite_pct(f.get("acc_few"), "cell few-split accuracy")
                                         for f in finals) / 8
        n_train = _n_train(inputs["data"])
        samples = sum(_train_samples(C10_GRID_CONFIG, n_train, warm=c["shift_bn"]) for c in cells)
        epochs = C10_GRID_CONFIG["stage1_epochs"] + C10_GRID_CONFIG["stage2_epochs"]
        return Outcome(
            digests={"ablation.json": sha256(out / "ablation.json")},
            quality=quality,
            work={"train_samples": samples, "scored_rows": 8 * (epochs + 1) * C10_DATA["classes"] * 50},
        )


@contextlib.contextmanager
def _observe_runs(trainer, finals: list):
    """Append ``trainer.run(...)["final"]`` to ``finals`` for each call made inside the block."""
    original = trainer.run

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        finals.append(result["final"])
        return result

    trainer.run = observed
    try:
        yield
    finally:
        trainer.run = original


class ScoreCsv:
    """gen-data for a 100-class set with a large test split, then the four scoring commands."""

    name = "score-csv"

    def setup(self, root: Path, seed: int) -> dict:
        _write_config(root / "config.json", SCORE_CKPT_CONFIG, seed)
        # The checkpoint trains on the preset's in-process analog, whose class
        # centres equal those of the gen-data set made from the same seed.
        call_cli(["train", "--config", str(root / "config.json"), "--preset", "cifar100lt-if100-analog",
                  "--out", str(root / "ckpt")])
        return {"checkpoint": root / "ckpt" / "model", "seed": seed}

    def op(self, inputs: dict, out: Path) -> dict:
        data = out / "data" / "score"
        ckpt = str(inputs["checkpoint"])
        call_cli(_gen_data_argv(C100_DATA, inputs["seed"], data, SCORE_TEST_PER_CLASS))
        common = ["--checkpoint", ckpt, "--data", str(data)]
        eval_out = call_cli(["eval", *common, "--bins", str(BINS)])
        call_cli(["reliability", *common, "--bins", str(BINS), "--out", str(out / "reliability.csv")])
        call_cli(["distributions", *common, "--out", str(out / "distributions.csv")])
        call_cli(["weight-norms", *common, "--out", str(out / "weight_norms.csv")])
        return {"eval": eval_out}

    def check(self, inputs: dict, out: Path, raw: dict) -> Outcome:
        n_test = C100_DATA["classes"] * SCORE_TEST_PER_CLASS
        lines = raw["eval"].splitlines()
        if len(lines) != 3 or lines[0].split() != ["many", "medium", "few", "all", "ece%"]:
            raise CheckFailed(f"eval printed {raw['eval']!r}")
        try:
            _many, _medium, few, acc, ece = (float(v) for v in lines[1].split())
        except ValueError:
            raise CheckFailed(f"eval printed {lines[1]!r}") from None
        quality = {"acc_pct": _finite_pct(acc, "eval accuracy"),
                   "acc_few_pct": _finite_pct(few, "eval few-split accuracy"),
                   "ece_pct": _finite_pct(ece, "eval ECE")}

        bins = _read_csv(out / "reliability.csv", ["bin_lo", "bin_hi", "count", "accuracy", "confidence"])
        counts = [int(r[2]) for r in bins]
        if len(bins) != BINS or sum(counts) != n_test:
            raise CheckFailed(f"reliability.csv has {len(bins)} bins over {sum(counts)} rows")
        # eval prints to 2 decimals; the bins must reproduce its accuracy and ECE.
        acc_bins = 100.0 * sum(c * float(r[3]) for c, r in zip(counts, bins)) / n_test
        ece_bins = 100.0 * sum(c * abs(float(r[4]) - float(r[3])) for c, r in zip(counts, bins)) / n_test
        if abs(acc_bins - acc) > 0.0051 or abs(ece_bins - ece) > 0.0051:
            raise CheckFailed(f"reliability bins give acc {acc_bins:.4f} / ECE {ece_bins:.4f}, "
                              f"eval printed {acc} / {ece}")

        dist = _read_csv(out / "distributions.csv", ["split", "p_true"])
        if len(dist) != n_test or not all(0.0 <= float(p) <= 1.0 for _, p in dist):
            raise CheckFailed(f"distributions.csv has {len(dist)} rows or a p_true outside [0, 1]")

        data = out / "data" / "score"
        class_counts = _read_json(data.with_suffix(".json"))["class_counts"]
        norms = _read_csv(out / "weight_norms.csv", ["class", "count", "norm_effective", "norm_w"])
        if [int(r[1]) for r in norms] != class_counts:
            raise CheckFailed("weight_norms.csv class counts disagree with the dataset")

        names = ["reliability.csv", "distributions.csv", "weight_norms.csv",
                 "data/score.csv", "data/score.test.csv", "data/score.json"]
        digests = {name: sha256(out / name) for name in names}
        digests["eval.stdout"] = hashlib.sha256(raw["eval"].encode()).hexdigest()
        # eval, reliability and distributions each score every test row.
        return Outcome(digests=digests, quality=quality, work={"scored_rows": 3 * n_test})


WORKLOADS = {w.name: w for w in (TrainC100(), GridC10(), ScoreCsv())}
