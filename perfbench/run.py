"""Benchmark of synthbrain's generate -> export -> evaluate -> adapt path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deform-96 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload runs in its own child process (``workloads.py``) with
BLAS/OpenMP pinned to one thread, so ``--threads`` is the only parallelism.
Set-up is done ``SETUP_REPEATS`` times, each in a fresh process, and
``setup_s`` is the median. ``--trace 0`` reports the end-to-end metrics
listed in BENCHMARK.json; ``--trace 1`` reports the per-layer metrics from a
traced replay. The last line of stdout is one JSON object; a readable table
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.update({name: "1" for name in PINNED})
    env.pop("SYNTHBRAIN_THREADS", None)
    return env


def run_child(args, workdir: Path, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start one workload process; returns (its set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          timeout=max(1.0, deadline - start), check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready_at"] - start, result


def seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def median(values) -> float:
    return float(statistics.median(values))


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    root = Path(".perfbench_work") / f"{args.workload}-{os.getpid()}"
    try:
        setups = [run_child(args, root / f"setup{k}", deadline, True)[0]
                  for k in range(SETUP_REPEATS - 1)]
        setup_s, child = run_child(args, root / "main", deadline, False)
        setups.append(setup_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with_parent = root.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            with_parent.rmdir()

    ops = child["ops"]
    if not ops:
        raise RuntimeError(f"all {child['attempted']} ops failed; nothing to measure")
    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: median(op.get(m["name"], 0.0) for op in ops) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        op_s = [op["op"] for op in ops]
        values = {
            "batch_s": median(op_s),
            "samples_per_s": child["n"] / median(op_s),
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": median(setups),
        }
    summary = {"ops": len(ops), "error_rate": child["failed"] / child["attempted"]}
    for key in ("eval", "fit"):
        if key in ops[0]:
            summary[f"{key}_s"] = median(op[key] for op in ops)
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "summary": summary,
    }


def show(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}", file=sys.stderr)
    for metric, v in result["metrics"].items():
        print(f"   {metric:<40} {v['value']:>12.6g} {v['unit']}", file=sys.stderr)
    for key, v in result["summary"].items():
        print(f"   ({key:<38} {v:>12.6g})", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=seed_arg, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (Path("src/synthbrain/cli.py").is_file() and Path("BENCHMARK.json").is_file()):
        print("perfbench: run from the root of a synthbrain checkout "
              "(src/synthbrain and BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if not set(todo) <= set(names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2

    results = {}
    try:
        for name in todo:
            args.workload = name
            results[name] = measure(args, spec)
            show(name, results[name])
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for res in results.values():
        del res["summary"]
    print(json.dumps(results if len(todo) > 1 else results[todo[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
