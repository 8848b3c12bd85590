import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ltcalib import data as data_mod, net
from ltcalib.cli import EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, EXIT_SHAPE, EXIT_USAGE, PRESETS, main
from ltcalib.trainer import TrainConfig, load_model, run

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_CONFIG = {
    "stage1_epochs": 3,
    "stage1_schedule": {"kind": "multistep", "milestones": [2], "factor": 0.1},
    "stage2_epochs": 2,
    "hidden": [8],
    "batch_size": 16,
    "batches_per_epoch": 4,
    "seed": 1,
}

# Any JSON value, NaN and the infinities included (json.dumps writes them as
# NaN/Infinity and json.load reads them back), weighted towards small numbers,
# the config's choice strings and schedule keys so that many draws are valid.
WORDS = st.sampled_from(["las", "ce", "weighted", "crt", "lws", "generalized", "concave",
                         "exponential", "multistep", "cosine", "kind", "milestones", "factor"])
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 4) | st.integers() | st.floats(-0.5, 1.5)
                | st.floats() | WORDS | st.text(max_size=8))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(WORDS | st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset, a small config, and one completed training run."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--classes", "3", "--nmax", "60", "--nmin", "6",
                 "--dim", "3", "--seed", "5", "--out", str(root / "blobs")]) == EXIT_OK
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    run_dir = root / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(root / "blobs"),
                 "--out", str(run_dir)]) == EXIT_OK
    return root


class TestGenData:
    def test_writes_sidecar_and_reports_composition(self, tmp_path, capsys):
        code = main(["gen-data", "--classes", "4", "--nmax", "120", "--nmin", "12",
                     "--dim", "3", "--seed", "1", "--out", str(tmp_path / "d")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "beta = 10" in out
        sidecar = json.loads((tmp_path / "d.json").read_text())
        assert sidecar["class_counts"][0] == 120
        assert sidecar["class_counts"][-1] == 12
        assert (tmp_path / "d.csv").exists()
        assert (tmp_path / "d.test.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen-data", "--classes", "3", "--nmax", "40", "--nmin", "4",
                "--dim", "3", "--seed", "2"]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        main(args + ["--out", str(tmp_path / "a" / "d")])
        main(args + ["--out", str(tmp_path / "b" / "d")])
        for suffix in (".csv", ".test.csv", ".json"):
            assert (tmp_path / "a" / f"d{suffix}").read_bytes() == (tmp_path / "b" / f"d{suffix}").read_bytes()

    def test_balanced_profile_is_all_medium(self, tmp_path, capsys):
        main(["gen-data", "--classes", "3", "--nmax", "50", "--nmin", "50",
              "--dim", "3", "--out", str(tmp_path / "flat")])
        assert "many=0 medium=3 few=0" in capsys.readouterr().out

    def test_no_test_rows_is_usage_error_and_writes_nothing(self, tmp_path):
        code = main(["gen-data", "--classes", "3", "--nmax", "10", "--nmin", "2",
                     "--dim", "3", "--test-per-class", "0", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_spread_is_usage_error_and_writes_nothing(self, tmp_path, capsys, spread):
        code = main(["gen-data", "--classes", "3", "--nmax", "10", "--nmin", "2",
                     "--dim", "3", "--spread", spread, "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "spread" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_invalid_profile_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-data", "--classes", "3", "--nmax", "10", "--nmin", "0",
                     "--dim", "3", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    # A dataset gen-data writes must be one its own readers accept.
    @pytest.mark.parametrize("flag, value, named", [("--spread", "1e308", "spread"),
                                                    ("--nmax", str(10**20), "n_max"),
                                                    ("--nmax", str(2**63 - 1), "too big"),
                                                    ("--seed", str(2**63), "seed"),
                                                    ("--seed", "-1", "seed")])
    def test_value_its_readers_would_refuse_exits_usage_with_one_line_and_writes_nothing(
            self, tmp_path, capsys, flag, value, named):
        args = {"--classes": "3", "--nmax": "10", "--nmin": "2", "--dim": "3", flag: value}
        code = main(["gen-data", *[x for kv in args.items() for x in kv], "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error: ") and named in err and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_artifacts_present(self, workspace):
        run_dir = workspace / "run"
        for name in ("model.json", "model.bin", "metrics.csv", "manifest.json",
                     "schedule.json"):
            assert (run_dir / name).exists(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["stage1_epochs"] == 3
        assert 0 <= manifest["final"]["ece"] <= 100

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        for out in ("r1", "r2"):
            assert main(["train", "--config", str(workspace / "config.json"),
                         "--data", str(workspace / "blobs"),
                         "--out", str(tmp_path / out)]) == EXIT_OK
        for name in ("model.bin", "model.json", "metrics.csv", "manifest.json",
                     "schedule.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes(), name

    def test_no_schedule_json_for_plain_ce(self, workspace, tmp_path):
        cfg = dict(TINY_CONFIG, stage2_loss="ce")
        cfg_path = tmp_path / "ce.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--data", str(workspace / "blobs"),
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        assert not (tmp_path / "run" / "schedule.json").exists()

    def test_a_run_without_a_schedule_removes_the_one_an_earlier_run_left(self, workspace, tmp_path):
        cfg_path = tmp_path / "ce.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, stage2_loss="ce")))
        for config, out in ((workspace / "config.json", "reused"), (cfg_path, "reused"), (cfg_path, "fresh")):
            assert main(["train", "--config", str(config), "--data", str(workspace / "blobs"),
                         "--out", str(tmp_path / out)]) == EXIT_OK
        assert not (tmp_path / "reused" / "schedule.json").exists()
        files = lambda out: {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
        assert files("reused") == files("fresh")

    def test_invalid_epsilons_exit_usage(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, eps1=0.1, eps_k=0.3)))
        code = main(["train", "--config", str(cfg_path),
                     "--data", str(workspace / "blobs"), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [{"lr": "0.1"}, {"batch_size": "16"}, {"hidden": ["8"]},
                                       {"stage1_schedule": {"kind": "multistep", "factor": "0.1"}}])
    def test_non_numeric_value_exits_usage_before_training(self, workspace, tmp_path, capsys,
                                                           patch):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, **patch)))
        code = main(["train", "--config", str(cfg_path),
                     "--data", str(workspace / "blobs"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert next(iter(patch)) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("patch", [{"batch_size": 0}, {"batches_per_epoch": 0},
                                       {"stage1_schedule": {"kind": "poly"}},
                                       {"stage2_schedule": {"kind": "bogus"}},
                                       {"las_kind": "nope"},
                                       {"batch_size": 1},
                                       {"stage2_schedule": {"kind": "multistep", "milestones": [5, 1]}},
                                       {"lr": -1}, {"hidden": [0]}, {"momentum": 5},
                                       {"weight_decay": -1}, {"stage2_lr_scale": -1},
                                       {"mixup_force_lam": 3}, {"bn_warm_steps": -5},
                                       {"lr_ratio_dw": -1}, {"seed": -1}, {"bn_momentum": 0},
                                       {"las_p": -1, "las_kind": "exponential"},
                                       {"batchnorm": "false"},
                                       {"stage1_schedule": {"kind": "multistep", "milestones": [2],
                                                            "decay": 0.1}},
                                       {"batch_size": 10**21}, {"hidden": [2**63]}],
                             ids=["batch_size", "batches_per_epoch", "stage1_schedule",
                                  "stage2_schedule", "las_kind", "batch_size_one_with_batchnorm",
                                  "stage2_milestones_decreasing", "lr", "hidden", "momentum",
                                  "weight_decay", "stage2_lr_scale", "mixup_force_lam",
                                  "bn_warm_steps", "lr_ratio_dw", "seed", "bn_momentum", "las_p",
                                  "batchnorm_string", "schedule_unknown_key", "batch_size_huge",
                                  "hidden_huge"])
    def test_out_of_range_value_exits_usage_before_reading_data(self, tmp_path, capsys, patch):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, **patch)))
        # A missing dataset would exit 2, so exit 1 shows the config failed first.
        code = main(["train", "--config", str(cfg_path),
                     "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert next(iter(patch)) in err
        assert not (tmp_path / "o").exists()

    def test_divergence_exits_3_with_one_stderr_line_naming_the_stage(self, workspace, tmp_path):
        # A child process, so that numpy's warnings reach stderr as they would
        # in a shell rather than pytest's warning capture.
        # At lr 1e12 the loss stays finite through Stage 1, whose last evaluation
        # overflows the training rows too; at 1e14 the loss itself overflows.
        for lr, expected in [(1e12, r"non-finite evaluation at stage 1, epoch 2: "
                                    r"the model overflows its own training rows"),
                             (1e14, r"non-finite loss at stage [12], epoch \d+, step \d+")]:
            cfg_path = tmp_path / "diverge.json"
            cfg_path.write_text(json.dumps(dict(TINY_CONFIG, lr=lr)))
            proc = subprocess.run([sys.executable, "-m", "ltcalib.cli", "train", "--config", str(cfg_path),
                                   "--data", str(workspace / "blobs"), "--out", str(tmp_path / "o")],
                                  capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
            assert proc.returncode == EXIT_DIVERGENCE
            assert re.fullmatch(f"divergence: {expected}\n", proc.stderr), proc.stderr
            assert not (tmp_path / "o" / "model.json").exists()

    # A: a learning rate that leaves finite weights near 3e299, whose forward
    # pass overflows on every row: a divergence, exit 3 from train; ablate records
    # it as the error of every cell that trained that model and exits 0. B: a test
    # row of 1.7e308 features that a finite model overflows: a data fault, exit 2.
    @pytest.mark.parametrize("probe", ["lr_1e300", "test_row_1.7e308"])
    def test_non_finite_metric_exits_with_one_stderr_line_naming_its_cause_and_writes_no_file(self, tmp_path, probe):
        assert main(["gen-data", "--classes", "3", "--nmax", "60", "--nmin", "6", "--dim", "3",
                     "--seed", "3", "--out", str(tmp_path / "d")]) == EXIT_OK
        config = {"lr": 1e300, "stage1_epochs": 1, "stage1_schedule": {"kind": "cosine"}, "stage2_epochs": 0,
                  "hidden": [8], "batch_size": 16, "batches_per_epoch": 1, "seed": 1}
        if probe != "lr_1e300":
            config = TINY_CONFIG
            test_csv = tmp_path / "d.test.csv"
            lines = test_csv.read_bytes().split(b"\r\n")
            lines[1] = b",".join([b"1.7e308"] * 3 + lines[1].split(b",")[-1:])
            test_csv.write_bytes(b"\r\n".join(lines))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        (tmp_path / "o").mkdir()
        divergence = "non-finite evaluation at stage 1, epoch 0: the model overflows its own training rows"
        # A child process, so that numpy's warnings reach stderr as in a shell.
        for command in ["train", "ablate"]:
            out = tmp_path / ("o" if command == "train" or probe != "lr_1e300" else "grid")
            proc = subprocess.run([sys.executable, "-m", "ltcalib.cli", command, "--config", str(tmp_path / "cfg.json"),
                                   "--data", str(tmp_path / "d"), "--out", str(out)],
                                  capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
            if probe != "lr_1e300":
                assert proc.returncode == EXIT_IO
                assert proc.stderr == (f"i/o error: {tmp_path / 'd.test.csv'}: data row 1 overflows the "
                                       "checkpoint's forward pass to a NaN probability\n"), proc.stderr
            elif command == "train":
                assert proc.returncode == EXIT_DIVERGENCE
                assert proc.stderr == f"divergence: {divergence}\n", proc.stderr
            else:
                assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
                cells = json.loads((out / "ablation.json").read_text())
                assert [c["error"] for c in cells] == [divergence] * 8
            assert list((tmp_path / "o").iterdir()) == []

    def test_width_too_large_to_allocate_exits_usage_with_one_line(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(dict(TINY_CONFIG, hidden=[10**14])))
        code = main(["train", "--config", str(cfg_path),
                     "--data", str(workspace / "blobs"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["null", "3", '"abc"', "[1]"])
    def test_non_object_config_exits_usage_before_reading_data(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        code = main(["train", "--config", str(cfg_path),
                     "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"config error: config: must be a JSON object, got {json.loads(text)!r}\n"
        assert not (tmp_path / "o").exists()

    @settings(max_examples=150, deadline=None)
    @example(name="lr", value=10**400)  # an integer past the float range is not finite
    @given(name=st.sampled_from(sorted(TrainConfig.__dataclass_fields__)), value=JSON_VALUES)
    def test_any_json_value_for_any_field_fails_cleanly_before_reading_data(self, name, value):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            config = dict(TINY_CONFIG, **{name: value})
            (root / "cfg.json").write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["train", "--config", str(root / "cfg.json"),
                             "--data", str(root / "nowhere"), "--out", str(root / "o")])
            try:
                TrainConfig.from_dict(json.loads(json.dumps(config)))
                valid = True
            except ValueError:
                valid = False
            err = err.getvalue()
            assert "Traceback" not in err and err.count("\n") == 1, err
            if valid:
                assert code == EXIT_IO and err.startswith("i/o error: "), err
            else:
                assert code == EXIT_USAGE and err.startswith("config error: ") and name in err, err
            assert not (root / "o").exists()

    def test_requires_config_or_preset(self, workspace, tmp_path):
        assert main(["train", "--data", str(workspace / "blobs"),
                     "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_unknown_flag_exits_usage(self, workspace):
        assert main(["train", "--confg", "x"]) == EXIT_USAGE

    def test_presets_cover_published_settings(self):
        assert PRESETS["cifar100lt-if100-analog"]["config"]["eps1"] == 0.4
        assert PRESETS["cifar10lt-if100-analog"]["config"]["eps_k"] == 0.0
        assert PRESETS["mislas-cifar100lt-if100-analog"] is PRESETS["cifar100lt-if100-analog"]

    def test_config_without_data_exits_usage_and_writes_nothing(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", str(workspace / "config.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --data is required when no preset supplies a synthetic analog\n"
        assert not (tmp_path / "o").exists()

    def test_a_preset_alone_trains_on_its_synthetic_analog_at_the_config_seed(self, tmp_path, monkeypatch):
        spec = {"classes": 3, "nmax": 40, "nmin": 4, "dim": 3, "spread": 0.45}
        preset = dict(TINY_CONFIG, seed=3)
        monkeypatch.setitem(PRESETS, "tiny-analog", {"config": preset, "dataset": spec})
        assert main(["train", "--preset", "tiny-analog", "--out", str(tmp_path / "run")]) == EXIT_OK
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"] == dict(dataclasses.asdict(TrainConfig()), **preset)
        counts = data_mod.make_longtail_profile(spec["nmax"], spec["nmin"], spec["classes"])
        solo = run(TrainConfig.from_dict(manifest["config"]),
                   data_mod.gen_gaussian_blobs(counts, spec["dim"], spec["spread"], seed=3))
        assert manifest["final"] == solo["final"]
        assert ({k: a.tobytes() for k, a in load_model(tmp_path / "run" / "model").state_arrays().items()}
                == {k: a.tobytes() for k, a in solo["model"].state_arrays().items()})


class TestAblate:
    def test_grid_json_and_table(self, workspace, tmp_path, capsys):
        cfg = dict(TINY_CONFIG, stage1_epochs=2, stage2_epochs=1,
                   stage1_schedule={"kind": "cosine"})
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["ablate", "--config", str(cfg_path), "--data", str(workspace / "blobs"),
                     "--out", str(tmp_path / "grid")]) == EXIT_OK
        cells = json.loads((tmp_path / "grid" / "ablation.json").read_text())
        assert len(cells) == 8
        assert all("accuracy" in c for c in cells)
        table = capsys.readouterr().out.strip().splitlines()
        assert len(table) == 9  # header + one row per cell


class TestInspection:
    def test_eval_prints_split_table(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(workspace / "blobs")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "many" in out and "ece%" in out and "direction:" in out

    def test_reliability_csv_has_one_row_per_bin(self, workspace, tmp_path):
        out = tmp_path / "rel.csv"
        assert main(["reliability", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(workspace / "blobs"), "--bins", "15",
                     "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 16

    def test_weight_norms_csv_has_one_row_per_class(self, workspace, tmp_path):
        out = tmp_path / "norms.csv"
        assert main(["weight-norms", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(workspace / "blobs"), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 4  # header + 3 classes

    def test_distributions_cover_every_test_sample(self, workspace, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["distributions", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(workspace / "blobs"), "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        sidecar = json.loads((workspace / "blobs.json").read_text())
        assert len(rows) == 50 * len(sidecar["class_counts"])
        assert {r.split(",")[0] for r in rows} <= set(sidecar["splits"])


class TestDefaultOut:
    """Without ``--out``, or with an empty one, train and ablate write into the
    working directory and each report writes its CSV there."""

    @pytest.mark.parametrize("command, names", [
        ("train", ["manifest.json", "metrics.csv", "model.bin", "model.json", "schedule.json"]),
        ("ablate", ["ablation.json"])])
    def test_train_and_ablate_write_into_the_working_directory(self, workspace, tmp_path, monkeypatch,
                                                               command, names):
        argv = [command, "--config", str(workspace / "config.json"), "--data", str(workspace / "blobs")]
        written = []
        for out in ([], ["--out", ""]):
            cwd = tmp_path / str(len(out))
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main([*argv, *out]) == EXIT_OK
            written.append({p.name: p.read_bytes() for p in cwd.iterdir()})
        assert sorted(written[0]) == names and written[0] == written[1]

    @pytest.mark.parametrize("command, name", [("reliability", "reliability.csv"),
                                               ("weight-norms", "weight_norms.csv"),
                                               ("distributions", "distributions.csv")])
    def test_a_report_writes_its_csv_into_the_working_directory(self, workspace, tmp_path, monkeypatch, capsys,
                                                                command, name):
        argv = [command, "--checkpoint", str(workspace / "run" / "model"), "--data", str(workspace / "blobs")]
        assert main([*argv, "--out", str(tmp_path / "given.csv")]) == EXIT_OK
        capsys.readouterr()
        for out in ([], ["--out", ""]):
            cwd = tmp_path / str(len(out))
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main([*argv, *out]) == EXIT_OK
            assert capsys.readouterr().out == f"wrote {name}\n"
            assert [p.name for p in cwd.iterdir()] == [name]
            assert (cwd / name).read_bytes() == (tmp_path / "given.csv").read_bytes()


class TestFailureModes:
    @pytest.mark.parametrize("command", ["eval", "reliability"])
    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_one_exits_usage_before_reading_files(self, tmp_path, capsys, command, bins):
        # Neither file exists, so exit 1 (not 2) shows the check ran first.
        code = main([command, "--checkpoint", str(tmp_path / "ghost"),
                     "--data", str(tmp_path / "nowhere"), "--bins", bins])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: argument --bins: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["weight-norms", "distributions"])
    def test_bins_is_not_an_option_of_commands_without_bins(self, workspace, tmp_path, command):
        assert main([command, "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(workspace / "blobs"), "--bins", "15",
                     "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE
        assert not (tmp_path / "o.csv").exists()

    def test_dimension_mismatch_exits_shape(self, workspace, tmp_path):
        main(["gen-data", "--classes", "3", "--nmax", "30", "--nmin", "6",
              "--dim", "4", "--out", str(tmp_path / "wide")])
        code = main(["eval", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(tmp_path / "wide")])
        assert code == EXIT_SHAPE

    def test_class_count_mismatch_exits_shape(self, workspace, tmp_path):
        main(["gen-data", "--classes", "5", "--nmax", "30", "--nmin", "6",
              "--dim", "3", "--out", str(tmp_path / "five")])
        code = main(["eval", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(tmp_path / "five")])
        assert code == EXIT_SHAPE

    def test_missing_dataset_exits_io(self, workspace, tmp_path):
        code = main(["eval", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(tmp_path / "nowhere")])
        assert code == EXIT_IO

    def test_missing_checkpoint_exits_io(self, workspace, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "ghost"),
                     "--data", str(workspace / "blobs")])
        assert code == EXIT_IO


def _copy_dataset(workspace, dest):
    for suffix in (".csv", ".test.csv", ".json"):
        shutil.copy(workspace / ("blobs" + suffix), dest / ("bad" + suffix))
    _edit_sidecar(dest / "bad.json", test_csv="bad.test.csv")
    return dest / "bad"


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\r\n".join(edit(lines)) + "\r\n")


def _set_field(row, col, value):
    fields = row.split(",")
    fields[col] = value
    return ",".join(fields)


def _edit_sidecar(path, **changes):
    sidecar = json.loads(path.read_text())
    sidecar.update(changes)
    path.write_text(json.dumps(sidecar))


# name -> (file to edit, edit); the workspace dataset has dim 3 and 3 classes.
MALFORMED = {
    "header_only_test_csv": (".test.csv", lambda lines: lines[:1]),
    "nan_feature": (".test.csv", lambda lines: [lines[0], _set_field(lines[1], 1, "nan"), *lines[2:]]),
    "ragged_row": (".test.csv", lambda lines: [*lines[:3], lines[3].rsplit(",", 1)[0], *lines[4:]]),
    "non_numeric_field": (".test.csv", lambda lines: [lines[0], _set_field(lines[1], 0, "abc"), *lines[2:]]),
    "fractional_label": (".test.csv", lambda lines: [lines[0], _set_field(lines[1], -1, "1.5"), *lines[2:]]),
    "label_out_of_range": (".test.csv", lambda lines: [lines[0], _set_field(lines[1], -1, "3"), *lines[2:]]),
    "negative_label": (".test.csv", lambda lines: [lines[0], _set_field(lines[1], -1, "-1"), *lines[2:]]),
    "comment_row": (".test.csv", lambda lines: [lines[0], "#" + lines[1], *lines[2:]]),
    # Finite, but the checkpoint's forward pass overflows it to a NaN probability.
    "feature_overflowing_the_model": (".test.csv",
                                      lambda lines: [lines[0], _set_field(lines[1], 0, "1.7e308"), *lines[2:]]),
    "test_width_differs_from_train": (
        ".test.csv", lambda lines: ["feat_0,feat_1,feat_2,feat_3,label"]
        + [row.replace(",", ",0.5,", 1) for row in lines[1:]]),
}

# The same for the training CSV, which only train and ablate read.
MALFORMED_TRAIN_CSV = {
    "inf_feature_in_train_csv": (".csv", lambda lines: [lines[0], _set_field(lines[1], 0, "inf"), *lines[2:]]),
    "not_a_dataset_csv": (".csv", lambda lines: ["a,b", "1,2"]),
    "comment_row": (".csv", lambda lines: [*lines[:2], "#" + lines[2], *lines[3:]]),
}


class TestMalformedDataset:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_csv_exits_io_with_one_line(self, workspace, tmp_path, capsys, case):
        prefix = _copy_dataset(workspace, tmp_path)
        suffix, edit = MALFORMED[case]
        _edit_lines(Path(str(prefix) + suffix), edit)
        code = main(["eval", "--checkpoint", str(workspace / "run" / "model"),
                     "--data", str(prefix)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"i/o error: {prefix}") and err.count("\n") == 1, err

    def test_row_overflowing_the_model_past_the_first_score_block_is_named(self, workspace, tmp_path, capsys):
        prefix = _copy_dataset(workspace, tmp_path)
        # 6,000 rows, two score blocks; data row 5,000 is in the second.
        _edit_lines(Path(f"{prefix}.test.csv"), lambda lines: [lines[0], *(lines[1:] * 40)[:6000]])
        _edit_lines(Path(f"{prefix}.test.csv"), lambda lines: [*lines[:5000], _set_field(lines[5000], 0, "1.7e308"),
                                                               *lines[5001:]])
        code = main(["eval", "--checkpoint", str(workspace / "run" / "model"), "--data", str(prefix)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"i/o error: {prefix}.test.csv: data row 5000 overflows") and err.count("\n") == 1, err

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRAIN_CSV))
    def test_malformed_train_csv_exits_io_with_one_line(self, workspace, tmp_path, capsys, case):
        prefix = _copy_dataset(workspace, tmp_path)
        suffix, edit = MALFORMED_TRAIN_CSV[case]
        _edit_lines(Path(str(prefix) + suffix), edit)
        code = main(["train", "--config", str(workspace / "config.json"),
                     "--data", str(prefix), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"i/o error: {prefix}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("changes", [{"dim": 4}, {"class_counts": [60, 6]}, None,
                                         {"class_counts": [6, 19, 60]},
                                         {"class_counts": [5.5, 2, 1]}, {"class_counts": [5, 2, -1]},
                                         {"class_counts": [1e30, 10, 4]}, {"class_counts": []},
                                         {"splits": ["many", "x", "few"]}, {"splits": "abc"},
                                         {"dim": "3"}, {"dim": 4.7}, {"seed": "s"},
                                         {"imbalance_factor": "x"}, {"test_csv": 5},
                                         {"test_csv": ["x"]}, {"test_csv": "bad\x00.csv"}],
                             ids=["dim_differs_from_csvs", "fewer_counts_than_splits", "not_json",
                                  "increasing_class_counts", "fractional_count", "negative_count",
                                  "count_beyond_int64", "no_classes", "unknown_split_tag",
                                  "splits_a_string", "dim_a_string", "fractional_dim", "seed_a_string",
                                  "imbalance_factor_a_string", "test_csv_a_number", "test_csv_a_list",
                                  "test_csv_with_nul"])
    def test_malformed_sidecar_exits_io(self, workspace, tmp_path, capsys, changes):
        prefix = _copy_dataset(workspace, tmp_path)
        if changes is None:
            prefix.with_suffix(".json").write_text("{not json")
        else:
            _edit_sidecar(prefix.with_suffix(".json"), **changes)
        for command in ("eval", "train"):
            code = main(_command_argv(command, workspace, prefix, tmp_path / "out"))
            err = capsys.readouterr().err
            assert code == EXIT_IO, (command, err)
            assert err.startswith(f"i/o error: {prefix}.") and err.count("\n") == 1, (command, err)
            assert changes is None or all(key in err for key in changes), (command, err)
            assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_malformed_train_csv_fails_before_training(self, workspace, tmp_path, capsys):
        prefix = _copy_dataset(workspace, tmp_path)
        _edit_lines(prefix.with_suffix(".csv"), lambda lines: [*lines[:2], "1,2", *lines[2:]])
        code = main(["train", "--config", str(workspace / "config.json"),
                     "--data", str(prefix), "--out", str(tmp_path / "run")])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith(f"i/o error: {prefix}.csv")
        assert not (tmp_path / "run").exists()

    def test_trailing_blank_lines_are_skipped(self, workspace, tmp_path, capsys):
        args = ["eval", "--checkpoint", str(workspace / "run" / "model")]
        assert main([*args, "--data", str(workspace / "blobs")]) == EXIT_OK
        expected = capsys.readouterr().out
        prefix = _copy_dataset(workspace, tmp_path)
        _edit_lines(prefix.with_suffix(".test.csv"), lambda lines: [*lines, "", ""])
        assert main([*args, "--data", str(prefix)]) == EXIT_OK
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("counts, cause", [([60, 19, 5], "class_counts must sum to the number of instances"),
                                               ([60, 20, 5], "label histogram disagrees with class_counts")],
                             ids=["sum", "histogram"])
    def test_class_counts_that_disagree_with_the_training_labels_exit_io_before_any_write(
            self, workspace, tmp_path, capsys, counts, cause):
        prefix = _copy_dataset(workspace, tmp_path)
        _edit_sidecar(prefix.with_suffix(".json"), class_counts=counts)
        code = main(_command_argv("train", workspace, prefix, tmp_path / "run"))
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"i/o error: {prefix}.json: {cause}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("suffix, command", [(".test.csv", "eval"), (".csv", "train")])
    def test_rows_one_column_wider_than_the_header_exit_io_naming_both_widths(self, workspace, tmp_path, capsys,
                                                                             suffix, command):
        prefix = _copy_dataset(workspace, tmp_path)
        _edit_lines(Path(f"{prefix}{suffix}"), lambda lines: [lines[0], *(row + ",0.5" for row in lines[1:])])
        code = main(_command_argv(command, workspace, prefix, tmp_path / "out"))
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"i/o error: {prefix}{suffix}: 5 columns, header has 4\n"
        assert not (tmp_path / "out").exists()


def _command_argv(command, workspace, prefix, out):
    """argv for ``command`` on the dataset at ``prefix``: train and ablate with the
    workspace config, the scoring commands with the workspace checkpoint."""
    if command in ("train", "ablate"):
        return [command, "--config", str(workspace / "config.json"), "--data", str(prefix),
                "--out", str(out)]
    argv = [command, "--checkpoint", str(workspace / "run" / "model"), "--data", str(prefix)]
    return argv if command == "eval" else [*argv, "--out", str(out)]


def _score(command, workspace, prefix, out, capsys) -> bytes:
    """A scoring command's output: the table eval prints, or the file the others write."""
    assert main(_command_argv(command, workspace, prefix, out)) == EXIT_OK
    stdout = capsys.readouterr().out
    return stdout.encode() if command == "eval" else out.read_bytes()


class TestNoTestSplit:
    @pytest.mark.parametrize("command", ["train", "ablate", "eval", "reliability", "distributions"])
    def test_command_needing_the_test_split_exits_io(self, workspace, tmp_path, capsys, command):
        prefix = _copy_dataset(workspace, tmp_path)
        _edit_sidecar(prefix.with_suffix(".json"), test_csv=None)
        code = main(_command_argv(command, workspace, prefix, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"i/o error: {prefix}.json") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_weight_norms_needs_no_test_split(self, workspace, tmp_path, capsys):
        prefix = _copy_dataset(workspace, tmp_path)
        expected = _score("weight-norms", workspace, prefix, tmp_path / "before.csv", capsys)
        _edit_sidecar(prefix.with_suffix(".json"), test_csv=None)
        assert _score("weight-norms", workspace, prefix, tmp_path / "after.csv", capsys) == expected


class TestScoringReads:
    def test_output_is_the_same_without_the_files_a_command_does_not_read(self, workspace, tmp_path,
                                                                           capsys):
        prefix = _copy_dataset(workspace, tmp_path)
        commands = ["eval", "reliability", "distributions", "weight-norms"]
        expected = {c: _score(c, workspace, prefix, tmp_path / f"{c}.full", capsys) for c in commands}
        prefix.with_suffix(".csv").unlink()
        for command in commands:
            assert _score(command, workspace, prefix, tmp_path / f"{command}.no_train",
                          capsys) == expected[command], command
        Path(f"{prefix}.test.csv").unlink()
        assert _score("weight-norms", workspace, prefix, tmp_path / "weight-norms.sidecar_only",
                      capsys) == expected["weight-norms"]


def _eval_on(workspace, sidecar: dict, test_csv: bytes) -> tuple[int, str, str]:
    """eval of the workspace checkpoint on a dataset holding only this sidecar and test CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "bad"
        prefix.with_suffix(".json").write_text(json.dumps({**sidecar, "test_csv": "bad.test.csv"}))
        Path(f"{prefix}.test.csv").write_bytes(test_csv)
        return _run(["eval", "--checkpoint", str(workspace / "run" / "model"), "--data", str(prefix)])


SPLIT_TAGS = ("many", "medium", "few")
ASCII = st.characters(min_codepoint=32, max_codepoint=126)  # printable, so one CSV line stays one
CSV_FIELDS = st.floats().map(repr) | st.integers(-3, 5).map(str) | st.text(ASCII, max_size=8)


def _as_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


class TestDatasetFuzz:
    # Any one sidecar key set to any JSON value. eval prints the split table,
    # so only a valid relabelling of the 3 classes' splits may change its output.
    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(sorted(data_mod.SIDECAR_RULES)), value=JSON_VALUES)
    @example(key="splits", value=["few", "few", "few"])
    @example(key="class_counts", value=[3, 2, 2])
    @example(key="seed", value=None)
    def test_any_json_value_for_any_sidecar_key_fails_cleanly_or_scores_the_same(self, workspace, key,
                                                                                 value):
        sidecar = json.loads((workspace / "blobs.json").read_text())
        test_csv = (workspace / "blobs.test.csv").read_bytes()
        code, out, err = _eval_on(workspace, {**sidecar, key: value}, test_csv)
        assert "Traceback" not in err
        if code == EXIT_OK:
            relabelled = (key == "splits" and isinstance(value, list) and len(value) == 3
                          and all(isinstance(tag, str) and tag in SPLIT_TAGS for tag in value))
            assert err == "" and (relabelled or out == _eval_on(workspace, sidecar, test_csv)[1])
        else:
            assert code in (EXIT_IO, EXIT_SHAPE) and err.count("\n") == 1, (code, err)
            assert err.startswith("i/o error: ") and out == "", err

    # One mutation of the test CSV's lines: the header, a field, a row's width,
    # or an added blank, truncated or '#' line. Exit 0 is allowed only for a
    # file that stays valid: a changed finite feature, a label changed to
    # another class, a header that still reads feat_*,...,label, or an added
    # blank line (which must also leave eval's output as it was).
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["header", "field", "width", "blank", "truncate", "comment"]),
           data=st.data())
    def test_any_one_test_csv_mutation_fails_cleanly_or_leaves_a_valid_file(self, workspace, kind, data):
        sidecar = json.loads((workspace / "blobs.json").read_text())
        lines = (workspace / "blobs.test.csv").read_bytes().decode().split("\r\n")[:-1]
        row = data.draw(st.integers(1, len(lines) - 1), label="row")
        valid = same = False
        if kind == "header":
            lines[0] = data.draw(st.text(ASCII, max_size=40), label="header")
            names = lines[0].split(",")
            valid = len(names) == 4 and names[0].startswith("feat_") and names[-1] == "label"
        elif kind == "field":
            col = data.draw(st.integers(0, 3), label="col")
            value = data.draw(CSV_FIELDS, label="value")
            lines[row] = _set_field(lines[row], col, value)
            number = _as_float(value) if "," not in value else None
            valid = col < 3 or (number is not None and number in (0.0, 1.0, 2.0))
        elif kind == "width":
            lines[row] = (lines[row].rsplit(",", 1)[0] if data.draw(st.booleans(), label="drop")
                          else lines[row] + ",0.5")
        elif kind == "blank":
            lines.insert(row, "")
            valid = same = True
        elif kind == "truncate":
            lines[row] = lines[row][: data.draw(st.integers(1, len(lines[row]) - 1), label="keep")]
        else:
            lines.insert(row, "#" + data.draw(st.text(ASCII, max_size=12), label="comment"))
        code, out, err = _eval_on(workspace, sidecar, ("\r\n".join(lines) + "\r\n").encode())
        assert "Traceback" not in err
        if code == EXIT_OK:
            assert valid and err == "", (kind, out)
            if same:
                assert out == _eval(workspace / "run" / "model", workspace)[1]
        else:
            assert code == EXIT_IO and err.count("\n") == 1, (kind, code, err)
            assert err.startswith("i/o error: ") and out == "", err


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(edit(manifest)))


def _move_last_entry_past_blob(manifest):
    manifest["entries"][-1]["offset"] = manifest["total"] - 1
    return manifest


def _set_blob_value(path, name, value):
    """Write ``value`` over the first value of entry ``name`` in the blob at
    ``path``, and the new blob's SHA-256 into the manifest beside it."""
    manifest = json.loads(path.with_suffix(".json").read_text())
    offset = next(e["offset"] for e in manifest["entries"] if e["name"] == name)
    raw = bytearray(path.read_bytes())
    raw[8 * offset : 8 * offset + 8] = struct.pack("<d", value)
    path.write_bytes(raw)
    path.with_suffix(".json").write_text(json.dumps(dict(manifest, sha256=hashlib.sha256(raw).hexdigest())))


# name -> (file to edit, edit); the workspace model has hidden [8] and 3 classes.
MALFORMED_CHECKPOINT = {
    "truncated_bin": (".bin", lambda path: path.write_bytes(path.read_bytes()[:-12])),
    "doubled_bin": (".bin", lambda path: path.write_bytes(path.read_bytes() * 2)),
    "manifest_is_a_list": (".json", lambda path: path.write_text("[]")),
    "manifest_not_json": (".json", lambda path: path.write_text('{"entries": [')),
    "entry_past_blob": (".json", lambda path: _edit_manifest(path, _move_last_entry_past_blob)),
    "duplicate_entry": (".json", lambda path: _edit_manifest(
        path, lambda m: dict(m, entries=m["entries"] + m["entries"][:1]))),
    "blob_of_another_save": (".bin", lambda path: path.write_bytes(path.read_bytes()[::-1])),
    "entry_shape_differs_from_meta": (".json", lambda path: _edit_manifest(
        path, lambda m: dict(m, entries=[dict(e, shape=[2, 2, 2]) if e["name"] == "head.w" else e
                                         for e in m["entries"]]))),
    "entry_shape_transposed": (".json", lambda path: _edit_manifest(
        path, lambda m: dict(m, entries=[dict(e, shape=e["shape"][::-1]) if e["name"] == "head.w" else e
                                         for e in m["entries"]]))),
    "head_r_differs_from_meta": (".bin", lambda path: _set_blob_value(path, "head.r", 5.0)),
    "non_finite_entry": (".bin", lambda path: _set_blob_value(path, "backbone.linear0.weight", float("nan"))),
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINT))
    def test_malformed_checkpoint_exits_io_with_one_line(self, workspace, tmp_path, capsys, case):
        for suffix in (".json", ".bin"):
            shutil.copy(workspace / "run" / f"model{suffix}", tmp_path / f"model{suffix}")
        suffix, edit = MALFORMED_CHECKPOINT[case]
        edit(tmp_path / f"model{suffix}")
        code = main(["eval", "--checkpoint", str(tmp_path / "model"),
                     "--data", str(workspace / "blobs")])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith(f"i/o error: {tmp_path / 'model'}.") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_a_duplicate_entry_name_exits_io(self, workspace, tmp_path):
        prefix = _copy_checkpoint(workspace / "run" / "model", tmp_path)
        entries = json.loads(prefix.with_suffix(".json").read_text())["entries"]
        # The entries still tile the blob in order, so only the name check refuses it.
        entries[1]["name"] = entries[0]["name"]
        _edit_manifest(prefix.with_suffix(".json"), lambda m: dict(m, entries=entries))
        code, _, err = _eval(prefix, workspace)
        _assert_io_error_line(code, err, prefix)
        assert f"duplicate entry {entries[0]['name']!r}" in err


def _run(argv) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr, captured without capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _eval(checkpoint, workspace) -> tuple[int, str, str]:
    return _run(["eval", "--checkpoint", str(checkpoint), "--data", str(workspace / "blobs")])


@pytest.fixture(scope="module")
def checkpoints(workspace):
    """The workspace's Stage-2 checkpoint and a Stage-1 one trained on the same data."""
    cfg_path = workspace / "stage1.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, stage2_epochs=0, stage2_schedule={"kind": "cosine"})))
    assert main(["train", "--config", str(cfg_path), "--data", str(workspace / "blobs"),
                 "--out", str(workspace / "stage1")]) == EXIT_OK
    return {"stage1": workspace / "stage1" / "model", "stage2": workspace / "run" / "model"}


def _copy_checkpoint(prefix: Path, dest: Path) -> Path:
    for suffix in (".json", ".bin"):
        shutil.copy(prefix.with_suffix(suffix), dest / f"model{suffix}")
    return dest / "model"


def _assert_io_error_line(code, err, prefix):
    assert code == EXIT_IO, err
    assert err.startswith(f"i/o error: {prefix}.") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestCheckpointLayout:
    def test_stage2_stores_the_classifier_weight_once(self, checkpoints):
        names = {stage: [e["name"] for e in json.loads(prefix.with_suffix(".json").read_text())["entries"]]
                 for stage, prefix in checkpoints.items()}
        assert "classifier.w" in names["stage1"] and not any(n.startswith("head.") for n in names["stage1"])
        assert "classifier.w" not in names["stage2"] and "head.w" in names["stage2"]

    def test_older_layout_with_classifier_w_loads_with_identical_predictions(self, workspace, checkpoints,
                                                                             tmp_path):
        arrays, meta = net.load_checkpoint(checkpoints["stage2"])
        net.save_checkpoint(tmp_path / "old", {**arrays, "classifier.w": arrays["head.w"]}, meta)
        features = data_mod.load_test_split(workspace / "blobs")[1]
        new, old = load_model(checkpoints["stage2"]), load_model(tmp_path / "old")
        assert old.predict_probs(features).tobytes() == new.predict_probs(features).tobytes()
        assert _eval(tmp_path / "old", workspace)[:2] == _eval(checkpoints["stage2"], workspace)[:2]

    def test_older_layout_whose_classifier_w_differs_from_head_w_exits_io(self, workspace, checkpoints,
                                                                          tmp_path):
        arrays, meta = net.load_checkpoint(checkpoints["stage2"])
        net.save_checkpoint(tmp_path / "old", {**arrays, "classifier.w": arrays["head.w"] + 1.0}, meta)
        code, _, err = _eval(tmp_path / "old", workspace)
        _assert_io_error_line(code, err, tmp_path / "old")
        assert "classifier.w" in err

    def test_weight_norms_of_a_stage1_checkpoint_is_a_usage_error(self, workspace, checkpoints, tmp_path):
        code, _, err = _run(["weight-norms", "--checkpoint", str(checkpoints["stage1"]),
                             "--data", str(workspace / "blobs"), "--out", str(tmp_path / "n.csv")])
        assert code == EXIT_USAGE and err == "error: checkpoint has no trained classifier head\n"
        assert not (tmp_path / "n.csv").exists()


class TestCheckpointAgainstMeta:
    def test_meta_without_the_batchnorm_its_entries_hold_exits_io(self, workspace, checkpoints, tmp_path):
        prefix = _copy_checkpoint(checkpoints["stage2"], tmp_path)
        _edit_manifest(prefix.with_suffix(".json"),
                       lambda m: {**m, "meta": {**m["meta"], "backbone": {**m["meta"]["backbone"],
                                                                          "batchnorm": False}}})
        code, out, err = _eval(prefix, workspace)
        _assert_io_error_line(code, err, prefix)
        assert "'backbone.bn0." in err and out == ""

    @pytest.mark.parametrize("group, key, value", [("backbone", "batchnorm", "no"),
                                                   ("backbone", "bn_momentum", True),
                                                   ("head", "lr_ratio_dw", -5),
                                                   ("backbone", "in_dim", 0),
                                                   ("head", "r", float("nan"))])
    def test_meta_value_outside_its_rule_exits_io_naming_the_key(self, workspace, checkpoints, tmp_path,
                                                                  group, key, value):
        prefix = _copy_checkpoint(checkpoints["stage2"], tmp_path)
        _edit_manifest(prefix.with_suffix(".json"),
                       lambda m: {**m, "meta": {**m["meta"], group: {**m["meta"][group], key: value}}})
        code, out, err = _eval(prefix, workspace)
        _assert_io_error_line(code, err, prefix)
        assert f": meta.{group}.{key}: must be " in err and out == ""

    @pytest.mark.parametrize("hidden", [[4_000_000], [10**14]], ids=["4e6", "1e14"])
    def test_claimed_width_is_checked_before_any_layer_is_built(self, workspace, checkpoints, tmp_path,
                                                                monkeypatch, hidden):
        prefix = _copy_checkpoint(checkpoints["stage2"], tmp_path)
        _edit_manifest(prefix.with_suffix(".json"),
                       lambda m: {**m, "meta": {**m["meta"], "backbone": {**m["meta"]["backbone"],
                                                                          "hidden": hidden}}})

        def no_backbone(*args, **kwargs):
            raise AssertionError("a Backbone was built")

        monkeypatch.setattr(net, "Backbone", no_backbone)
        tracemalloc.start()
        try:
            code, out, err = _eval(prefix, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_io_error_line(code, err, prefix)
        assert "layer widths" in err and out == ""
        assert peak < 8 * 2**20  # the real checkpoint is a few kB; the claim is >= 1 GB

    # Any one meta value (top level, backbone.* or head.*) or entry field set to
    # any JSON value, or one entry dropped or duplicated.
    @settings(max_examples=200, deadline=None)
    @given(stage=st.sampled_from(["stage1", "stage2"]), data=st.data())
    def test_any_one_mutation_fails_cleanly_or_scores_the_same(self, workspace, checkpoints, stage, data):
        prefix = checkpoints[stage]
        manifest = json.loads(prefix.with_suffix(".json").read_text())
        meta, entries = manifest["meta"], manifest["entries"]
        sites = ([("meta", key) for key in meta]
                 + [(group, key) for group in ("backbone", "head") for key in meta.get(group, {})]
                 + [("entry", i, f) for i in range(len(entries)) for f in ("name", "shape", "offset")]
                 + [(kind, i) for kind in ("drop", "duplicate") for i in range(len(entries))])
        site = data.draw(st.sampled_from(sites), label="site")
        mutated = copy.deepcopy(manifest)
        if site[0] == "drop":
            del mutated["entries"][site[1]]
        elif site[0] == "duplicate":
            mutated["entries"].insert(site[1], entries[site[1]])
        else:
            value = data.draw(JSON_VALUES, label="value")
            if site[0] == "entry":
                mutated["entries"][site[1]][site[2]] = value
            else:
                (mutated["meta"] if site[0] == "meta" else mutated["meta"][site[0]])[site[1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            copied = _copy_checkpoint(prefix, Path(tmp))
            copied.with_suffix(".json").write_text(json.dumps(mutated))
            code, out, err = _eval(copied, workspace)
        assert "Traceback" not in err
        if code == EXIT_OK:
            assert err == "" and out == _eval(prefix, workspace)[1]
        else:
            assert code in (EXIT_IO, EXIT_SHAPE) and err.count("\n") == 1, (code, err)
