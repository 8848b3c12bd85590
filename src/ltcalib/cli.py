"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, reliability, weight-norms,
distributions. Exit codes: 0 success, 1 usage/config error, 2 I/O error,
3 training divergence, 4 checkpoint/data shape mismatch. A malformed dataset
or checkpoint file is an I/O error, as is a dataset without the test split
that train, ablate and the scoring commands need (weight-norms reads the
sidecar alone).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import trainer as trainer_mod
from .artifacts import FormatError, write_json
from .calib import (
    PredictionLog,
    ece,
    export_distribution_csv,
    export_reliability_csv,
    probability_distribution,
    reliability_bins,
    split_accuracy,
)
from .losses import SmoothingSchedule
from .trainer import DivergenceError, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3
EXIT_SHAPE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Desk-scale analogs of the published CIFAR-LT settings: the smoothing
# endpoints, schedules, and dW learning-rate ratios match; the dataset is a
# synthetic blob benchmark at the same class count and imbalance factor, and
# epoch counts are scaled down to single-core budgets.
PRESETS: dict[str, dict] = {
    "cifar10lt-if10-analog": {
        "config": {"eps1": 0.1, "eps_k": 0.0, "lr_ratio_dw": 0.2, "las_kind": "concave",
                   "stage1_epochs": 30, "stage1_schedule": {"kind": "multistep", "milestones": [24, 27], "factor": 0.1}},
        "dataset": {"classes": 10, "nmax": 500, "nmin": 50, "dim": 16, "spread": 0.45},
    },
    "cifar10lt-if100-analog": {
        "config": {"eps1": 0.3, "eps_k": 0.0, "lr_ratio_dw": 0.5, "las_kind": "concave",
                   "stage1_epochs": 30, "stage1_schedule": {"kind": "multistep", "milestones": [24, 27], "factor": 0.1}},
        "dataset": {"classes": 10, "nmax": 500, "nmin": 5, "dim": 16, "spread": 0.45},
    },
    "cifar100lt-if100-analog": {
        "config": {"eps1": 0.4, "eps_k": 0.1, "lr_ratio_dw": 0.2, "las_kind": "concave",
                   "stage1_epochs": 20, "stage1_schedule": {"kind": "multistep", "milestones": [16, 18], "factor": 0.1}},
        "dataset": {"classes": 100, "nmax": 500, "nmin": 5, "dim": 24, "spread": 0.45},
    },
}
# Alias: the full method (mixup + shifted BN + label-aware smoothing).
PRESETS["mislas-cifar100lt-if100-analog"] = PRESETS["cifar100lt-if100-analog"]


def build_parser() -> _Parser:
    parser = _Parser(prog="ltcalib")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic long-tailed dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--spread", type=float, default=0.45)
    p.add_argument("--test-per-class", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("train", help="run the two-stage pipeline")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named preset")
    p.add_argument("--data", help="dataset path prefix (default: preset's synthetic analog)")
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("ablate", help="run the 2^3 toggle grid")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--data")
    p.add_argument("--out", default=None)

    for name in ("eval", "reliability", "weight-norms", "distributions"):
        p = sub.add_parser(name)
        p.add_argument("--checkpoint", required=True, help="checkpoint path prefix")
        p.add_argument("--data", required=True, help="dataset path prefix")
        if name in ("eval", "reliability"):
            p.add_argument("--bins", type=int, default=15)
        if name != "eval":
            p.add_argument("--out", default=None)

    return parser


def _load_config_and_dataset(args) -> tuple[TrainConfig, data_mod.LongTailedDataset]:
    if args.config:
        cfg = TrainConfig.from_json(args.config)
    elif args.preset:
        cfg = TrainConfig.from_dict(PRESETS[args.preset]["config"])
    else:
        raise UsageError("one of --config or --preset is required")
    if args.data:
        ds = data_mod.load_dataset(args.data)
    else:
        if not args.preset:
            raise UsageError("--data is required when no preset supplies a synthetic analog")
        spec = PRESETS[args.preset]["dataset"]
        counts = data_mod.make_longtail_profile(spec["nmax"], spec["nmin"], spec["classes"])
        ds = data_mod.gen_gaussian_blobs(counts, spec["dim"], spec["spread"], seed=cfg.seed)
    return cfg, ds


def _load_model_for(sidecar: dict, checkpoint):
    """The checkpoint's model, checked against the dataset sidecar's width and class count."""
    model = trainer_mod.load_model(checkpoint)
    dim, k = sidecar["dim"], len(sidecar["class_counts"])
    if model.backbone.cfg.in_dim != dim:
        raise ShapeMismatch(f"checkpoint expects {model.backbone.cfg.in_dim}-dim features, dataset has {dim}")
    if model.classifier.dw.shape[1] != k:
        raise ShapeMismatch(f"checkpoint has {model.classifier.dw.shape[1]} classes, dataset has {k}")
    return model


class ShapeMismatch(Exception):
    pass


def _scored(args) -> tuple[dict, PredictionLog]:
    """The dataset sidecar and the checkpoint's prediction log on the test split (the training
    CSV is not read); a row the forward pass overflows to a NaN probability is a malformed file."""
    sidecar, features, labels = data_mod.load_test_split(args.data)
    model = _load_model_for(sidecar, args.checkpoint)
    log = model.prediction_log(features, labels)
    # argmax picks a row's NaN when it holds one.
    if np.isnan(log.confidence).any():
        raise data_mod.nan_row_error(Path(args.data).parent / sidecar["test_csv"], log.confidence)
    return sidecar, log


def cmd_gen_data(args) -> int:
    counts = data_mod.make_longtail_profile(args.nmax, args.nmin, args.classes)
    ds = data_mod.gen_gaussian_blobs(counts, args.dim, args.spread, seed=args.seed,
                                     test_per_class=args.test_per_class)
    data_mod.save_dataset(ds, args.out)
    comp = {tag: ds.splits.count(tag) for tag in ("many", "medium", "few")}
    print(f"imbalance factor beta = {ds.imbalance_factor:g}")
    print(f"splits: many={comp['many']} medium={comp['medium']} few={comp['few']}")
    print(f"wrote {args.out}.csv / .test.csv / .csv.bin / .test.csv.bin / .json")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, ds = _load_config_and_dataset(args)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    result = trainer_mod.run(cfg, ds)
    trainer_mod.write_metrics_csv(result["curves"], out / "metrics.csv")  # refuses a non-finite curve first
    trainer_mod.save_model(result["model"], out / "model", meta={"class_counts": [int(c) for c in ds.class_counts]})
    if cfg.stage2_loss == "las" and cfg.stage2_epochs > 0:
        SmoothingSchedule.from_counts(ds.class_counts, cfg.las_kind, cfg.eps1, cfg.eps_k,
                                      cfg.las_p).to_json(out / "schedule.json")
    else:  # an earlier run's schedule would be taken for this run's
        (out / "schedule.json").unlink(missing_ok=True)
    manifest = {
        "config": result["config"],
        "final": result["final"],
        "artifacts": {"checkpoint": "model", "metrics": "metrics.csv"},
    }
    write_json(out / "manifest.json", manifest)
    f = result["final"]
    print(f"accuracy {f['accuracy']:.2f}%  ece {f['ece']:.2f}%")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg, ds = _load_config_and_dataset(args)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    results = trainer_mod.run_ablation_grid(cfg, ds)
    write_json(out / "ablation.json", results)
    print(f"{'MU':>5} {'SL':>5} {'LAS':>5} {'acc%':>8} {'ece%':>8}")
    for cell in results:
        if "error" in cell:
            print(f"{cell['mixup_stage1']!s:>5} {cell['shift_bn']!s:>5} {cell['las']!s:>5}  {cell['error']}")
        else:
            print(f"{cell['mixup_stage1']!s:>5} {cell['shift_bn']!s:>5} {cell['las']!s:>5} "
                  f"{cell['accuracy']:8.2f} {cell['ece']:8.2f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    sidecar, log = _scored(args)
    report = ece(log, args.bins)
    accs = split_accuracy(log, sidecar["splits"])
    fmt = lambda v: f"{v:.2f}" if v is not None else "n/a"
    print(f"{'many':>8} {'medium':>8} {'few':>8} {'all':>8} {'ece%':>8}")
    print(f"{fmt(accs['many']):>8} {fmt(accs['medium']):>8} {fmt(accs['few']):>8} "
          f"{fmt(accs['all']):>8} {report.ece_percent:8.2f}")
    print(f"direction: {report.direction}")
    return EXIT_OK


def _report(args, name: str, export) -> int:
    """``export(path)`` at ``--out``, by default ``name`` in the working directory."""
    out = Path(args.out or name)
    out.parent.mkdir(parents=True, exist_ok=True)
    export(out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_reliability(args) -> int:
    _, log = _scored(args)
    rows = reliability_bins(log, args.bins)
    return _report(args, "reliability.csv", lambda out: export_reliability_csv(rows, out))


def cmd_weight_norms(args) -> int:
    sidecar = data_mod.load_sidecar(args.data)
    model = _load_model_for(sidecar, args.checkpoint)
    if model.classifier.w is None:
        raise UsageError("checkpoint has no trained classifier head")
    return _report(args, "weight_norms.csv", lambda out: model.classifier.export_weight_norms(out, sidecar["class_counts"]))


def cmd_distributions(args) -> int:
    sidecar, log = _scored(args)
    dist = probability_distribution(log, sidecar["splits"])
    return _report(args, "distributions.csv", lambda out: export_distribution_csv(dist, out))


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "ablate": cmd_ablate,
    "eval": cmd_eval,
    "reliability": cmd_reliability,
    "weight-norms": cmd_weight_norms,
    "distributions": cmd_distributions,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "bins", 1) < 1:
            raise UsageError(f"argument --bins: must be an integer >= 1, got {args.bins}")
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:  # a ValueError, but about a file
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ShapeMismatch as exc:
        print(f"shape mismatch: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # a width the config allows but this machine cannot hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
