"""One workload in one process: set-up, closed-loop timed ops, checks, traced replay.

Run by ``run.py`` as a child process with BLAS/OpenMP pinned to one thread;
it prints one JSON line with its readiness time, op counts and metrics.
Every op calls the program only through ``synthbrain.cli.main`` in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from synthbrain import (
    LabelMap,
    SynthBrainError,
    Volume,
    VolumeStack,
    read_nifti_file,
    write_nifti_file,
)
from synthbrain.cli import main as cli_main

from phantom import make_phantom
from replay import GenerateReplay, MB, kernel_rates, replay_evaluate, replay_fit, round_trip
from spans import Tracer, span_cost

# dims: voxels per side; n: samples per batch; threads: --threads
WORKLOADS = {
    "deform-96": {"kind": "generate", "dims": 96, "n": 1, "threads": 1},
    "samples-64": {"kind": "generate", "dims": 64, "n": 48, "threads": 2},
    "evaluate-64": {"kind": "evaluate", "dims": 64, "n": 2, "threads": 1},
}
FEATURE_CHANNELS = 32
# evaluate inverts the shared field by fixed-point iteration, which the program
# rejects (exit 2, NotInvertible) once its residual passes 1 voxel; with the
# default affine ranges ~2 in 24 fields at 64^3 do. The evaluate batches keep
# the default velocity field and switch the affine part off (residual <= 0.002
# voxel over 24 seeds); invert's cost is the same 20 iterations either way.
EVALUATE_CONFIG = "deformation.rot_max=0\ndeformation.scale_max=0\ndeformation.shear_max=0\n"
WARMUP_DIMS = 32
MIN_OPS = 3
WARMUP_OP = 1 << 30  # an op index no run reaches
LAYERS = ("cli", "generator", "deformation", "volume", "synthesis", "corruption",
          "nifti", "metrics", "adaptation")
PER_OP_SPANS = (
    "deformation.sample_svf", "deformation.build_deformation", "deformation.warp_labels",
    "deformation.warp_volume", "deformation.invert", "deformation.warp_stack",
    "synthesis.paint", "corruption.sample_corruption_record", "corruption.apply_corruption",
    "generator.generate_batch", "generator.export_batch", "nifti.write", "nifti.read",
    "metrics.canonical_features", "metrics.l1", "metrics.ssim", "metrics.ms_ssim",
    "adaptation.fit_adapter", "adaptation.fit_residual",
)


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def op_seed(seed: int, op: int) -> int:
    """A CLI seed no earlier op used, derived from the workload seed and op index."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def ladder(n: int) -> list[str]:
    """The default mild -> severe schedule the manifest must list."""
    if n == 1:
        return ["mild"]
    return [("mild", "medium", "severe")[int(np.floor(i * 2.0 / (n - 1) + 0.5))]
            for i in range(n)]


def cli(argv: list) -> tuple[int, float]:
    """Call the program's entry point in-process; returns (exit code, seconds)."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main([str(a) for a in argv])
    return rc, time.perf_counter() - start


def write_inputs(root: Path, dims: int, seed: int) -> tuple[Path, Path]:
    labels, image = make_phantom(dims, seed)
    root.mkdir(parents=True, exist_ok=True)
    write_nifti_file(root / "labels.nii", LabelMap(labels), "int16")
    write_nifti_file(root / "anatomy.nii", Volume(image), "float32")
    return root / "labels.nii", root / "anatomy.nii"


# -- checks ------------------------------------------------------------------------

def check_batch(out: Path, n: int, dims: int) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    require(manifest["n"] == n and len(manifest["samples"]) == n, "manifest sample count")
    require(manifest["schedule"] == ladder(n), "manifest schedule")
    for entry, level in zip(manifest["samples"], ladder(n)):
        require(entry["level"] == level, "sample level")
        data = read_nifti_file(out / entry["file"], as_labels=False).data
        require(data.shape == (dims,) * 3, "sample dims")
        require(bool(np.all(np.isfinite(data))), "sample not finite")
        require(data.min() >= 0.0 and data.max() <= 1.0, "sample outside [0, 1]")
    return manifest


def check_report(path: Path, count: int) -> None:
    report = json.loads(path.read_text())["metrics"]
    for name in ("l1", "ssim", "ms_ssim"):
        vals = np.asarray(report[name]["values"], dtype=np.float64)
        require(vals.size == count and bool(np.all(np.isfinite(vals))), f"{name} values")
        if name == "l1":
            require(bool(np.all(vals >= 0.0)), "l1 < 0")
        else:
            require(bool(np.all(np.abs(vals) <= 1.0)), f"{name} outside [-1, 1]")


def check_adapter(path: Path, target: Path) -> None:
    residuals = json.loads(path.read_text())["residuals"]
    y = read_nifti_file(target, as_labels=False).data
    constant = float(np.mean((y - y.mean()) ** 2))
    require(np.isfinite(residuals["residual_l2"]), "residual not finite")
    require(residuals["residual_l2"] <= constant * (1.0 + 1e-9), "worse than the mean predictor")


def same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


# -- workloads ---------------------------------------------------------------------

class Workload:
    """Inputs written in set-up, then ops; each op's inputs are new to it."""

    def __init__(self, name: str, seed: int, root: Path):
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.root = root
        self.span_cost = 0.0
        self.labels, self.anatomy = write_inputs(root / "inputs", self.cfg["dims"], seed)
        self.config = []
        if self.cfg["kind"] == "evaluate":
            (root / "inputs" / "generate.cfg").write_text(EVALUATE_CONFIG)
            self.config = ["--config", root / "inputs" / "generate.cfg"]

    def warm_up(self) -> None:
        """One untimed op through the same entry points on a small phantom."""
        small = dict(self.cfg, dims=WARMUP_DIMS)
        labels, anatomy = write_inputs(self.root / "warmup", WARMUP_DIMS, self.seed)
        op = self.root / "warmup" / "op"
        if self.cfg["kind"] == "generate":
            self.generate(op, labels, anatomy, small, op_seed(self.seed, WARMUP_OP))
        else:
            self.prepare(op, labels, anatomy, small, op_seed(self.seed, WARMUP_OP))
            self.evaluate(op, labels, anatomy)

    def generate(self, out, labels, anatomy, cfg, seed) -> float:
        rc, dt = cli(["generate", labels, anatomy, "--n", cfg["n"], "--seed", seed,
                      "--threads", cfg["threads"], "--out", out] + self.config)
        require(rc == 0, f"generate exit code {rc}")
        return dt

    def prepare(self, op: Path, labels, anatomy, cfg, seed) -> None:
        """Untimed: the op's batch plus a feature stack made from its first sample."""
        self.generate(op / "batch", labels, anatomy, cfg, seed)
        first = check_batch(op / "batch", cfg["n"], cfg["dims"])["samples"][0]["file"]
        img = read_nifti_file(op / "batch" / first, as_labels=False)
        feats = []
        for c in range(FEATURE_CHANNELS):
            smooth = gaussian_filter(img.data, 0.5 + 0.5 * (c % 8))
            feats.append(img.with_data(np.tanh((1 + c // 8) * 2.0 * (smooth - 0.5))))
        write_nifti_file(op / "features.nii", VolumeStack(tuple(feats)), "float32")

    def evaluate(self, op: Path, labels, anatomy) -> tuple[float, float]:
        rc, eval_s = cli(["evaluate", "--mode", "intra", "--reference", anatomy,
                          "--candidates", op / "batch" / "manifest.json",
                          "--mask", labels, "--out", op / "report.json"])
        require(rc == 0, f"evaluate exit code {rc}")
        rc, fit_s = cli(["fit-adapter", "--features", op / "features.nii",
                         "--target", op / "batch" / "target.nii",
                         "--out", op / "adapter.json"])
        require(rc == 0, f"fit-adapter exit code {rc}")
        return eval_s, fit_s

    def timed_op(self, i: int) -> dict:
        """Run and check op i; returns its wall times (seconds)."""
        cfg, op = self.cfg, self.root / f"op{i}"
        seed = op_seed(self.seed, i)
        if cfg["kind"] == "generate":
            dt = self.generate(op, self.labels, self.anatomy, cfg, seed)
            check_batch(op, cfg["n"], cfg["dims"])
            return {"op": dt}
        self.prepare(op, self.labels, self.anatomy, cfg, seed)
        eval_s, fit_s = self.evaluate(op, self.labels, self.anatomy)
        check_report(op / "report.json", cfg["n"])
        check_adapter(op / "adapter.json", op / "batch" / "target.nii")
        return {"op": eval_s + fit_s, "eval": eval_s, "fit": fit_s}

    def traced_op(self, i: int) -> dict:
        """Op i, then its traced replay; returns per-layer numbers for this op."""
        times = self.timed_op(i)
        cfg, op = self.cfg, self.root / f"op{i}"
        t = Tracer()
        out: dict[str, float] = {}
        if cfg["kind"] == "generate":
            manifest = json.loads((op / "manifest.json").read_text())
            rep = GenerateReplay(self.labels, self.anatomy, cfg["n"], op_seed(self.seed, i))
            got = rep.run(t, op / "replay", manifest)
            for name in [e["file"] for e in manifest["samples"]] + [manifest["target"],
                                                                    manifest["deformation"]]:
                require(same_bytes(op / name, op / "replay" / name), f"replay differs: {name}")
            require(rep.records == [e["record"] for e in manifest["samples"]],
                    "replay corruption records differ")
            seq = got["sample_wall"]
            threaded = seq
            if cfg["threads"] > 1 and cfg["n"] > 1:
                threaded = rep.threaded_sample_wall(cfg["threads"])
            out["generator.thread_speedup"] = seq / threaded
            # the replay runs the sample phase sequentially; put back the pool's wall
            replay_wall = t.root_time() - seq + threaded
            out.update(kernel_rates(got["field"], got["mprage"].data, got["labels"].data,
                                    got["labels"].grid_to_world))
            if cfg["n"] == 1:
                mean, worst = round_trip(got["field"])
                require(mean <= 0.2 and worst <= 1.0, f"round trip {mean:.3f}/{worst:.3f} voxel")
                out["deformation.roundtrip_mean_vox"] = mean
                out["deformation.roundtrip_max_vox"] = worst
            nio = rep.io
            out["cli.generate_s"] = times["op"]
        else:
            nio = {"read": 0, "written": 0}
            values, inverse, ref, lm = replay_evaluate(
                t, nio, self.anatomy, op / "batch" / "manifest.json", self.labels)
            report = json.loads((op / "report.json").read_text())["metrics"]
            for name, vals in values.items():
                diff = np.abs(np.asarray(vals) - np.asarray(report[name]["values"]))
                require(vals and float(diff.max()) <= 1e-12, f"replay {name} differs")
            residuals = replay_fit(t, nio, op / "features.nii", op / "batch" / "target.nii")
            stored = json.loads((op / "adapter.json").read_text())["residuals"]
            for name, val in residuals.items():
                require(abs(val - stored[name]) <= 1e-12 * max(1.0, abs(val)),
                        f"replay {name} differs")
            replay_wall = t.root_time()
            out["generator.thread_speedup"] = 1.0
            out.update(kernel_rates(inverse, ref.data, lm.data, lm.grid_to_world))
            out["cli.evaluate_s"] = times["eval"]
            out["cli.fit_adapter_s"] = times["fit"]
        totals = t.totals()
        for name in PER_OP_SPANS:
            out[name + "_s"] = totals.get(name, 0.0)
        out["nifti.mb_read"] = nio["read"] / MB
        out["nifti.mb_written"] = nio["written"] / MB
        selfs = t.self_times()
        for layer in LAYERS:
            out[layer + ".share"] = selfs.get(layer, 0.0) / t.root_time()
        out["trace.overhead_frac"] = len(t.spans) * self.span_cost / t.root_time()
        out["trace.replay_gap_frac"] = (replay_wall - times["op"]) / times["op"]
        return out


def run(args) -> dict:
    root = Path(args.workdir)
    wl = Workload(args.workload, args.seed, root)
    wl.warm_up()
    ready_at = time.monotonic()
    if args.setup_only:
        return {"ready_at": ready_at}
    wl.span_cost = span_cost() if args.trace else 0.0
    results, failed, attempted = [], 0, 0
    min_ops = 1 if args.trace else MIN_OPS
    # a traced op costs several plain ones, so a traced run skips an op that would overrun
    lookahead = 0.0
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start + lookahead < args.seconds:
        began = time.perf_counter()
        attempted += 1
        try:
            results.append((wl.traced_op if args.trace else wl.timed_op)(attempted - 1))
        except (CheckFailed, SynthBrainError, OSError, KeyError, ValueError) as exc:
            failed += 1
            print(f"op {attempted - 1} failed: {exc}", file=sys.stderr)
        shutil.rmtree(root / f"op{attempted - 1}", ignore_errors=True)
        if args.trace:
            lookahead = time.perf_counter() - began
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"ready_at": ready_at, "attempted": attempted, "failed": failed,
            "ops": results, "peak_rss_mb": peak_mb, "n": wl.cfg["n"]}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
