"""ltcalib benchmark: end-to-end and per-layer timings of the two-stage recipe.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-c100 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each workload is driven in-process through ``ltcalib.cli.main`` from this one
process, with BLAS and OpenMP pinned to one thread. ``--seed`` generates the
inputs; the program only sees the generated configs and data. The run sets
up several times (median = ``setup_s``), then repeats the workload's
operation until the next one would end after ``--seconds``, checking every
operation's exit code and artifacts. With ``--trace 1`` every second
operation runs with the per-layer wrappers of ``tracing.py`` installed.

Human-readable report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
metric names and units are those of BENCHMARK.json. The full record (the
environment, every op time, the spans of a traced run) goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import EXACT_COUNTS, LAYERS, Tracer
from workloads import WORKLOADS, CheckFailed, tree_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Never used while the benchmark or a change is tuned; kept for claim checks.
HELD_OUT_SEED = 104729

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 9, 4.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

E2E_UNITS = {"setup_s": "s", "run_s": "s", "train_samples_per_s": "samples/s",
             "scored_rows_per_s": "rows/s", "peak_rss_mb": "MB", "acc_pct": "%",
             "acc_few_pct": "%", "ece_pct": "%", "error_rate": "ratio"}


def import_ltcalib() -> None:
    """Import ltcalib from this checkout's src/, never from anywhere else."""
    package = SRC / "ltcalib"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no ltcalib sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ltcalib

    if Path(ltcalib.__file__).resolve().parent != package.resolve():
        raise ImportError(f"ltcalib was imported from {ltcalib.__file__}, not {package}")


def environment(seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        tree.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "git_sha": sha, "tree_sha256": tree.hexdigest(),
            "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]
    return None


def run_setup(workload, seed: int, work: Path) -> tuple[dict, list[float]]:
    """Set up several times; return the first inputs and every set-up time."""
    times: list[float] = []
    first = None
    while len(times) < SETUP_MIN_REPS or (len(times) < SETUP_MAX_REPS and sum(times) < SETUP_BUDGET_S):
        root = work / f"setup{len(times)}"
        root.mkdir()
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup(root, seed)
        times.append(time.perf_counter() - start)
        digest = tree_digest(root)
        if first is None:
            first = (inputs, digest)
        else:
            if digest != first[1]:
                raise RuntimeError("set-up is not deterministic: its files differ between repetitions")
            shutil.rmtree(root)
    return first[0], times


def run_ops(workload, inputs: dict, seconds: float, tracer: Tracer | None, work: Path) -> dict:
    """Repeat the operation for ``seconds``; with a tracer, every second op is traced."""
    untraced: list[float] = []
    traced: list[float] = []
    errors: list[str] = []
    ref = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        op_id = attempted
        is_traced = tracer is not None and op_id % 2 == 1
        out = work / f"op{op_id}"
        attempted += 1
        gc.collect()
        try:
            if is_traced:
                tracer.begin(op_id)
            t0 = time.perf_counter()
            try:
                raw = workload.op(inputs, out)
            finally:
                elapsed = time.perf_counter() - t0
                if is_traced:
                    tracer.end()
            outcome = workload.check(inputs, out, raw)
            if ref is None:
                ref = outcome
            elif outcome.digests != ref.digests or outcome.quality != ref.quality:
                changed = sorted(k for k in ref.digests if outcome.digests.get(k) != ref.digests[k])
                raise CheckFailed(f"artifacts differ from the first op: {changed or 'quality'}")
            (traced if is_traced else untraced).append(elapsed)
        except CheckFailed as exc:
            failed += 1
            errors.append(f"op {op_id}: {exc}")
        except Exception:  # a crash in the program counts as a failed op; keep measuring
            failed += 1
            errors.append(f"op {op_id}: {traceback.format_exc(limit=3)}")
        shutil.rmtree(out, ignore_errors=True)
        done = time.perf_counter() - start
        estimate = statistics.median(untraced + traced) if untraced or traced else 0.0
        # At least two ops, so every run checks a rerun (and, traced, has one op of each kind).
        if attempted >= 2 and done + estimate > seconds:
            break
    return {"attempted": attempted, "failed": failed, "errors": errors, "ref": ref,
            "untraced": untraced, "traced": traced}


def end_to_end(setup_times: list[float], ops: dict) -> dict[str, float]:
    values = {"setup_s": statistics.median(setup_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "error_rate": ops["failed"] / ops["attempted"]}
    times = ops["untraced"]
    if times:
        values["run_s"] = statistics.median(times)
    ref = ops["ref"]
    if ref is not None:
        values.update(ref.quality)
        if times:
            if "train_samples" in ref.work:
                values["train_samples_per_s"] = ref.work["train_samples"] / values["run_s"]
            if "scored_rows" in ref.work:
                values["scored_rows_per_s"] = ref.work["scored_rows"] / values["run_s"]
    return values


def check_counts_repeat(key: str, counts: dict) -> str | None:
    """Exact counts must equal those of an earlier traced run of the same code."""
    path = OUT / "exact_counts.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != counts:
        return f"exact counts differ from an earlier run of the same code: {known[key]} != {counts}"
    known[key] = counts
    path.write_text(json.dumps(known, indent=2, sort_keys=True) + "\n")
    return None


def print_layer_table(per_op: list[dict], op_time: float) -> None:
    """Inclusive time and calls per traced function, then self time per layer."""
    def med(key):
        return statistics.median(m.get(key, 0.0) for m in per_op)

    spans = sorted({k[:-len(".calls")] for m in per_op for k in m if k.endswith(".calls")},
                   key=lambda n: -med(f"{n}_s"))
    print(f"per-layer, median over {len(per_op)} traced ops of {op_time:.3f} s:")
    print(f"  {'span':<30} {'inclusive s':>12} {'% of op':>8} {'calls':>8}")
    for name in spans:
        t = med(f"{name}_s")
        print(f"  {name:<30} {t:12.4f} {100.0 * t / op_time:8.1f} {med(f'{name}.calls'):8.0f}")
    print(f"  {'layer':<30} {'self s':>12} {'% of op':>8}")
    for layer in LAYERS:
        t = med(f"{layer}.self_s")
        print(f"  {layer:<30} {t:12.4f} {100.0 * t / op_time:8.1f}")


def traced_metrics(tracer: Tracer, ops: dict, declared: list[dict], counts_key: str,
                   problems: list[str]) -> dict:
    """Print the layer table; return the declared per-layer metrics. Appends to ``problems``."""
    per_op = [tracer.op_metrics(i) for i in sorted({span[0] for span in tracer.spans})]
    for metric in EXACT_COUNTS:
        seen = {m.get(metric) for m in per_op}
        if len(seen) > 1:
            problems.append(f"{metric} differs between traced ops: {sorted(seen)}")
    values: dict[str, float] = {}
    absent = []
    for name in (m["name"] for m in declared):
        if tracer.absent(name):
            absent.append(name)
        elif name in EXACT_COUNTS and per_op:
            values[name] = per_op[0][name]
        elif per_op and not name.startswith("trace."):
            values[name] = statistics.median(m.get(name, 0.0) for m in per_op)
    if ops["traced"] and ops["untraced"]:
        values["trace.run_s"] = statistics.median(ops["traced"])
        values["trace.untraced_run_s"] = statistics.median(ops["untraced"])
        values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
    problem = check_counts_repeat(counts_key, {k: values[k] for k in EXACT_COUNTS if k in values})
    if problem:
        problems.append(problem)

    if per_op and ops["traced"]:
        print_layer_table(per_op, statistics.median(ops["traced"]))
    if "trace.overhead_s" in values:
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s per op "
              f"({100.0 * values['trace.overhead_s'] / values['trace.untraced_run_s']:.1f}% of untraced run_s)")
    if absent:
        print("absent per-layer metrics (target not found): " + ", ".join(absent))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}


def run_one(args) -> int:
    try:
        import_ltcalib()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=WORK))
    tracer = Tracer() if args.trace else None
    try:
        inputs, setup_times = run_setup(workload, args.seed, work)
        ops = run_ops(workload, inputs, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(ops["errors"])
    e2e = end_to_end(setup_times, ops)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}"
          + ("  (held-out seed)" if args.seed == HELD_OUT_SEED else ""))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup_s median of {len(setup_times)}: " + ", ".join(f"{t:.4f}" for t in setup_times))
    times = ops["untraced"]
    tail = tail_percentile(times)
    print(f"run_s samples n={len(times)}: " + ", ".join(f"{t:.4f}" for t in times)
          + (f"; p{tail[0]:g} = {tail[1]:.4f} s" if tail else "; no tail percentile (fewer than 20 samples)"))
    for name, value in e2e.items():
        print(f"  {name:<22} {value:14.6f} {E2E_UNITS[name]}")

    if tracer is not None:
        metrics = traced_metrics(tracer, ops, spec["per_layer"], f"{env['tree_sha256']}:{workload.name}", problems)
        tracer.write_spans(OUT / f"{workload.name}-seed{args.seed}-spans.jsonl")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"] if m["name"] in e2e}

    for problem in problems:
        print(f"FAILED {problem}")
    correct = not problems and ops["failed"] == 0
    result = {"correct": correct, "attempted": ops["attempted"], "failed": ops["failed"], "metrics": metrics}
    record = dict(result, workload=workload.name, trace=args.trace, seconds=args.seconds, env=env,
                  setup_times=setup_times, untraced=ops["untraced"], traced=ops["traced"],
                  end_to_end=e2e, problems=problems)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after the other; a combined summary last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
