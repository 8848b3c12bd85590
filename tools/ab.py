"""A/B evidence for a change: alternated benchmark pairs and an artifact byte-diff.

Usage (from the repository root):

    python3 tools/ab.py --base HEAD~1 --pairs 10 --out BENCH_pr<N>.json
    python3 tools/ab.py --base HEAD --pairs 0

The base revision's tree and the working tree (tracked files with their
uncommitted edits, plus untracked files that ``.gitignore`` does not exclude)
are each exported with ``git archive`` of a tree id into a temporary directory,
so the repository's own checkout and ``.git`` are left as they were, and both
sides' files carry the time of export as their mtime.

Byte-diff: in each tree, every workload of ``perfbench/workloads.py`` runs its
set-up and one operation for one seed, then ``train`` runs the five small
``TRAIN_VARIANTS`` configs on a gen-data set of that seed. Every file they write
(gen-data files, the ``train-c100`` outputs, ``ablation.json``, the scoring
checkpoint and outputs, each variant's config and train outputs) and the
``eval`` stdout is compared byte for byte. Then the working tree's code runs
``eval``, ``reliability``, ``distributions`` and ``weight-norms`` on the base
tree's ``score-csv`` checkpoint and dataset, and each output is compared with
the base's own (``cross-load/<file>``), which shows that the change reads
checkpoints the base wrote. Every file that differs, or exists on one side
only, is listed.

Timing: ``--pairs N`` runs ``perfbench/run.py --workload all --trace 0``, with
``--seconds`` from ``BENCHMARK.json``'s ``run_seconds``, on both trees for seeds 1..N, the base first for odd seeds and the change first
for even ones; then one pair on the benchmark's held-out seed and one traced
run per tree. Per end-to-end metric it reports each side's median and
quartiles, the pairs each side won, and whether the median gap lies outside the
base's interquartile range ("resolved"). ``--pairs 0`` runs the byte-diff only.

The exit status is 1 when a file differs or a benchmark run reports a failed
operation, and 0 otherwise; no timing is asserted.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT_SEED = 7
# Per workload, perfbench/run.py allows 600 s.
RUN_TIMEOUT_S = 3 * 600 + 60

# One BLAS/OpenMP thread, as perfbench/run.py pins before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Small train runs of the configs no workload covers: each variant patches
# TRAIN_BASE and trains on a 10-class gen-data set made for the byte-diff.
TRAIN_BASE = {"stage1_epochs": 3, "stage1_schedule": {"kind": "multistep", "milestones": [2], "factor": 0.1},
              "stage2_epochs": 2, "hidden": [16], "batches_per_epoch": 6}
TRAIN_VARIANTS = {
    "stage2_epochs_0": {"stage2_epochs": 0},
    "mixup_stage2_weighted": {"mixup_stage2": True, "stage2_loss": "weighted"},
    "crt_ce_batch48": {"head_mode": "crt", "stage2_loss": "ce", "batch_size": 48},
    "lws_no_mixup_stage1": {"head_mode": "lws", "mixup_stage1": False},
    "bn_warm_30_not_concurrent": {"bn_warm_steps": 30, "bn_concurrent": False},
}

# Run inside each tree: the set-up and one operation of every workload, then
# the train variants, with that tree's ltcalib and perfbench.
# argv: tree, output directory, seed, {variant: config} as JSON.
ARTIFACTS_CHILD = """
import json
import sys
from pathlib import Path
tree, out, seed = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
from workloads import WORKLOADS, call_cli
for name, workload in WORKLOADS.items():
    (out / name / "setup").mkdir(parents=True)
    inputs = workload.setup(out / name / "setup", seed)
    raw = workload.op(inputs, out / name / "op")
    workload.check(inputs, out / name / "op", raw)
    if "eval" in raw:
        (out / name / "eval.stdout").write_text(raw["eval"])
inputs = out / "train-variants" / "inputs"
inputs.mkdir(parents=True)
call_cli(["gen-data", "--classes", "10", "--nmax", "200", "--nmin", "5", "--dim", "8",
          "--seed", str(seed), "--out", str(inputs / "blobs")])
for name, config in json.loads(sys.argv[4]).items():
    (inputs / f"{name}.json").write_text(json.dumps(config))
    call_cli(["train", "--config", str(inputs / f"{name}.json"), "--data", str(inputs / "blobs"),
              "--out", str(out / "train-variants" / name)])
"""

# Run inside the working tree: score the base tree's score-csv checkpoint and
# dataset with the working tree's code. argv: tree, base's score-csv directory, output directory.
CROSS_LOAD_CHILD = """
import sys
from pathlib import Path
tree, base, out = (Path(arg) for arg in sys.argv[1:4])
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
from workloads import BINS, call_cli
common = ["--checkpoint", str(base / "setup" / "ckpt" / "model"), "--data", str(base / "op" / "data" / "score")]
out.mkdir(parents=True)
(out / "eval.stdout").write_text(call_cli(["eval", *common, "--bins", str(BINS)]))
call_cli(["reliability", *common, "--bins", str(BINS), "--out", str(out / "reliability.csv")])
call_cli(["distributions", *common, "--out", str(out / "distributions.csv")])
call_cli(["weight-norms", *common, "--out", str(out / "weight_norms.csv")])
"""
# Each cross-loaded output -> the base's own output, relative to its score-csv directory.
CROSS_LOADED = {"eval.stdout": "eval.stdout", "reliability.csv": "op/reliability.csv",
                "distributions.csv": "op/distributions.csv", "weight_norms.csv": "op/weight_norms.csv"}


def git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          env=env).stdout


def working_tree_id(workdir: Path) -> str:
    """A git tree object of the working tree, built in a temporary index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(workdir / "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env).decode().strip()


def export_tree(tree_ish: str, dest: Path) -> Path:
    """Extract ``git archive <tree_ish>`` into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", tree_ish))) as tar:
        tar.extractall(dest)
    return dest


def child_env() -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def write_artifacts(tree: Path, out: Path, seed: int) -> None:
    variants = {name: dict(TRAIN_BASE, seed=seed, **patch) for name, patch in TRAIN_VARIANTS.items()}
    subprocess.run([sys.executable, "-c", ARTIFACTS_CHILD, str(tree), str(out), str(seed),
                    json.dumps(variants)], cwd=tree, env=child_env(), check=True, timeout=RUN_TIMEOUT_S)


def diff_trees(a: Path, b: Path) -> tuple[int, list[str]]:
    """(number of files compared, sorted relative paths that differ or exist on one side only)."""
    def files(root: Path) -> dict[str, Path]:
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    names = sorted(fa.keys() | fb.keys())
    return len(names), [n for n in names
                        if n not in fa or n not in fb or fa[n].read_bytes() != fb[n].read_bytes()]


def cross_load(tree: Path, base_score: Path, out: Path) -> tuple[int, list[str]]:
    """Score the base's ``score-csv`` checkpoint and dataset with ``tree``'s code:
    (outputs compared, ``cross-load/<file>`` for each that differs from the
    base's own, or that either side did not write)."""
    subprocess.run([sys.executable, "-c", CROSS_LOAD_CHILD, str(tree), str(base_score), str(out)],
                   cwd=tree, env=child_env(), timeout=RUN_TIMEOUT_S)
    read = lambda path: path.read_bytes() if path.is_file() else None
    return len(CROSS_LOADED), [f"cross-load/{name}" for name, own in CROSS_LOADED.items()
                               if read(out / name) is None or read(out / name) != read(base_score / own)]


def bench(tree: Path, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py --workload all`` run: its env line, result and metric values."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", str(trace)],
                          cwd=tree, env=child_env(), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"perfbench printed no result in {tree} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}") from None
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"env": env, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: each side's quartiles, pairs won, and
    whether the median gap lies outside the parent's interquartile range."""
    declared = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for key in sorted(pairs[0]["parent"]):
        metric = declared.get(key.split(".", 1)[1])
        if metric is None:
            continue
        parent = [p["parent"][key] for p in pairs]
        change = [p["change"][key] for p in pairs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        p_stats, c_stats = quartiles(parent), quartiles(change)
        gap = c_stats["median"] - p_stats["median"]
        iqr = p_stats["q3"] - p_stats["q1"]
        summary[key] = {
            "bound": metric["bound"],
            "parent": p_stats,
            "change": c_stats,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "parent_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "median_gap": gap,
            "median_gap_rel": gap / p_stats["median"] if p_stats["median"] else 0.0,
            "parent_iqr": iqr,
            "resolved": abs(gap) > iqr,
        }
    return summary


def run_pair(trees: dict[str, Path], seed: int, seconds: float, first: str) -> tuple[dict, dict]:
    """One untraced run per tree, ``first`` first: the pair record and the last run's env line."""
    pair = {"seed": seed, "first": first}
    for side in (first, "change" if first == "parent" else "parent"):
        run = bench(trees[side], seed, seconds, trace=0)
        pair[side] = run["metrics"]
        pair.update({f"{side}_{k}": run[k] for k in ("attempted", "correct", "failed")})
    print(f"pair seed {seed} ({first} first): "
          + ", ".join(f"{k} {pair['parent'][k]:.4g}->{pair['change'][k]:.4g}"
                      for k in sorted(pair["parent"]) if k.endswith("run_s")), flush=True)
    return pair, run["env"]


def print_summary(summary: dict) -> None:
    print(f"{'metric':<26} {'parent median [q1, q3]':>30} {'change median':>14} {'gap':>8} "
          f"{'wins c/p':>9} resolved")
    for key, s in summary.items():
        p = s["parent"]
        print(f"{key:<26} {p['median']:12.4f} [{p['q1']:.4f}, {p['q3']:.4f}] "
              f"{s['change']['median']:14.4f} {100 * s['median_gap_rel']:+7.1f}% "
              f"{s['change_wins']:>4}/{s['parent_wins']:<4} {s['resolved']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, required=True,
                        help="alternated benchmark pairs (seeds 1..N); 0 runs the byte-diff only")
    parser.add_argument("--out", help="write the pairs and summary to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error("--pairs must be >= 0")
    try:
        base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    except subprocess.CalledProcessError as exc:
        print(f"error: {args.base!r} is not a commit: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        workdir = Path(tmp)
        # Both sides are archived from a tree id, so both get the time of export
        # as their files' mtime; a commit would stamp its commit time on the base's.
        trees = {"parent": export_tree(f"{base_sha}^{{tree}}", workdir / "parent"),
                 "change": export_tree(working_tree_id(workdir), workdir / "change")}
        for side, tree in trees.items():
            try:
                write_artifacts(tree, workdir / f"artifacts-{side}", ARTIFACT_SEED)
            except subprocess.CalledProcessError:
                print(f"error: the {side} tree's workloads failed (traceback above)", file=sys.stderr)
                return 1
        compared, differing = diff_trees(workdir / "artifacts-parent", workdir / "artifacts-change")
        crossed, cross_differing = cross_load(trees["change"], workdir / "artifacts-parent" / "score-csv",
                                              workdir / "cross-load")
        compared, differing = compared + crossed, differing + cross_differing
        print(f"artifacts (seed {ARTIFACT_SEED}): {len(differing)} of {compared} files differ")
        for name in differing:
            print(f"  differs: {name}")
        record = {"base": {"rev": args.base, "sha": base_sha},
                  "artifacts": {"seed": ARTIFACT_SEED, "compared": compared, "differing": differing}}
        failed = bool(differing)

        if args.pairs:
            command = f"python3 perfbench/run.py --workload all --seed <seed> --seconds {seconds:g}"
            runs = [run_pair(trees, seed, seconds, "parent" if seed % 2 else "change")
                    for seed in range(1, args.pairs + 1)]
            pairs = [pair for pair, _ in runs]
            # The machine's description; the revision and seed differ per run.
            env = {k: v for k, v in runs[0][1].items() if k not in ("git_sha", "tree_sha256", "seed")}
            held_out, _ = run_pair(trees, env["held_out_seed"], seconds, "parent")
            held_out["order"] = "parent first"
            held_out["change_minus_parent_rel"] = {
                k: (held_out["change"][k] - v) / v if v else 0.0 for k, v in held_out["parent"].items()}
            traced = {"command": command.replace("<seed>", "1") + " --trace 1",
                      "note": "one traced run per side, medians over its traced ops; "
                              "per-layer times are for reading, not for a claim"}
            for side, tree in trees.items():
                run = bench(tree, 1, seconds, trace=1)
                traced[side] = run["metrics"]
                failed |= not run["correct"]
            summary = summarize(pairs, spec)
            print_summary(summary)
            failed |= not all(p[f"{side}_correct"] for p in [*pairs, held_out]
                              for side in ("parent", "change"))
            record.update(command=command + " --trace 0", env=env,
                          order="odd seeds run the parent first, even seeds the change first",
                          pairs=pairs, summary=summary, held_out=held_out, traced=traced)

    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
