"""Command-line interface: generate, evaluate, fit-adapter, metrics.

Every command is a pure function of its inputs, flags, and seed — re-runs
are byte-identical. Data goes to stdout, diagnostics to stderr.

Exit codes
    0   success
    2   I/O problem (message names the file)
    3   geometry mismatch
    4   channel-count mismatch
    5   singular least-squares system
    64  usage error
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import adaptation, metrics
from .corruption import SEVERITY_LEVELS, SeverityConfig
from .deformation import DeformationConfig, DeformationField
from .errors import (
    ChannelMismatch,
    GeometryMismatch,
    SingularSystem,
    SynthBrainError,
)
from .generator import SubjectRecord, export_batch, generate_batch, severity_ladder
from .nifti import read_header, read_nifti, read_nifti_file, read_volume_stack
from .volume import LabelMap, Volume, VolumeStack

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 2
EXIT_GEOMETRY = 3
EXIT_CHANNELS = 4
EXIT_SINGULAR = 5
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; route through our usage code instead
    def error(self, message):
        raise _UsageError(message)


def _check_exists(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {p}")
    return p


def _read_bytes(path) -> bytes:
    return _check_exists(path).read_bytes()


def _tag_file(path, exc: Exception) -> Exception:
    exc.args = (f"{path}: {exc}",)
    return exc


def _read_volume(path, as_labels: bool | None = None):
    _check_exists(path)
    try:
        return read_nifti_file(path, as_labels=as_labels)
    except (SynthBrainError, ValueError) as exc:
        raise _tag_file(path, exc)


def _read_stack(path) -> VolumeStack:
    """A 5D vector file becomes a stack; a plain 3D file a single channel."""
    blob = _read_bytes(path)
    try:
        hdr = read_header(blob)
        if hdr.dim[0] == 5:
            return read_volume_stack(blob)
        v = read_nifti(blob, as_labels=False)
        return VolumeStack((v,))
    except (SynthBrainError, ValueError) as exc:
        raise _tag_file(path, exc)


def _read_field(path) -> DeformationField:
    stack = _read_stack(path)
    if stack.channel_count != 3:
        raise ChannelMismatch(f"{path}: a deformation needs 3 channels, found {stack.channel_count}")
    return DeformationField(stack.as_array(), stack.spacing, stack.grid_to_world)


# -- config file -----------------------------------------------------------------

def _load_config(path) -> dict[str, str]:
    """KEY=VALUE lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_check_exists(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _fill_from_config(args, config: dict[str, str], converters: dict) -> None:
    for key, conv in converters.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None and key in config:
            try:
                setattr(args, attr, conv(config[key]))
            except ValueError as exc:
                raise _UsageError(f"config key {key}: {exc}")


_RANGE_FIELDS = {"bias_mu", "bias_sigma", "noise_sigma",
                 "low_field_spacing", "anisotropic_spacing"}


def _severity_presets(config: dict[str, str]) -> dict[str, SeverityConfig]:
    """Presets with numeric overrides like ``severe.noise_sigma_max=20``."""
    presets = {name: SeverityConfig.by_name(name) for name in SEVERITY_LEVELS + ("off",)}
    deform_over: dict[str, float] = {}
    for key, value in config.items():
        if "." not in key:
            continue
        scope, _, fld = key.partition(".")
        if scope == "deformation":
            if fld not in {f.name for f in dataclasses.fields(DeformationConfig)}:
                raise _UsageError(f"unknown deformation field {fld!r}")
            deform_over[fld] = float(value)
            continue
        if scope not in presets:
            raise _UsageError(f"unknown severity level {scope!r} in config key {key}")
        cfg = presets[scope]
        if fld in ("p_low_field", "p_anisotropic"):
            presets[scope] = dataclasses.replace(cfg, **{fld: float(value)})
        elif fld.endswith(("_min", "_max")) and fld[:-4] in _RANGE_FIELDS:
            base = fld[:-4]
            lo, hi = getattr(cfg, base)
            pair = (float(value), hi) if fld.endswith("_min") else (lo, float(value))
            presets[scope] = dataclasses.replace(cfg, **{base: pair})
        else:
            raise _UsageError(f"unknown severity field {fld!r} in config key {key}")
    if deform_over:
        for name, cfg in presets.items():
            presets[name] = dataclasses.replace(
                cfg, deformation=dataclasses.replace(cfg.deformation, **deform_over)
            )
    return presets


# -- subcommands -----------------------------------------------------------------

def _cmd_generate(args, config: dict[str, str]) -> int:
    _fill_from_config(args, config, {"n": int, "seed": int, "schedule": str,
                                     "threads": int, "out": str})
    if args.seed is None:
        raise _UsageError("--seed is required (no silent nondeterminism)")
    if args.out is None:
        raise _UsageError("--out is required")
    # an explicit schedule fixes the batch size unless --n contradicts it
    if args.n is None:
        n = len(args.schedule.split(",")) if args.schedule else 4
    else:
        n = args.n

    presets = _severity_presets(config)
    names = args.schedule.split(",") if args.schedule else severity_ladder(n)
    if len(names) != n:
        raise _UsageError(f"schedule has {len(names)} entries for --n {n}")
    try:
        schedule = [presets[name.strip().lower()] for name in names]
    except KeyError as exc:
        raise _UsageError(f"unknown severity level {exc.args[0]!r}")

    labels = _read_volume(args.labels, as_labels=True)
    if not isinstance(labels, LabelMap):
        raise _tag_file(args.labels, ValueError("not an integer label volume"))
    mprage = _read_volume(args.mprage, as_labels=False)
    subject = SubjectRecord(Path(args.labels).stem.replace(".nii", ""), labels, mprage)

    batch = generate_batch(subject, n, args.seed, schedule=schedule, threads=args.threads)
    manifest = export_batch(batch, args.out, seed=args.seed)
    print(manifest)
    return EXIT_OK


def _load_candidates(manifest_path, mode: str, atlas_map):
    """Accept either an explicit candidates list or a generated-batch manifest."""
    doc = json.loads(_check_exists(manifest_path).read_text())
    base = Path(manifest_path).parent

    def resolve(name):
        return base / name

    pairs = []
    if "candidates" in doc:
        for entry in doc["candidates"]:
            stack = _read_stack(resolve(entry["features"]))
            fld = None
            if "deformation" in entry:
                fld = _read_field(resolve(entry["deformation"]))
            pairs.append((stack, fld))
    elif "samples" in doc:
        shared = _read_field(resolve(doc["deformation"]))
        for entry in doc["samples"]:
            pairs.append((_read_stack(resolve(entry["file"])), shared))
    else:
        raise _UsageError(f"{manifest_path}: neither 'candidates' nor 'samples' present")

    out = []
    for stack, fld in pairs:
        use = atlas_map if mode == "inter" else fld
        if use is None:
            raise _UsageError("candidate missing a deformation field")
        out.append((stack, use))
    return out


def _cmd_evaluate(args, config: dict[str, str]) -> int:
    _fill_from_config(args, config, {"mode": str, "out": str, "window": int, "scales": int})
    mode = args.mode or "intra"
    if mode not in ("intra", "inter"):
        raise _UsageError(f"--mode must be intra or inter, got {mode!r}")
    if mode == "inter" and args.atlas_map is None:
        raise _UsageError("--atlas-map is required in inter mode")

    reference = _read_stack(args.reference)
    atlas_map = _read_field(args.atlas_map) if args.atlas_map else None
    candidates = _load_candidates(args.candidates, mode, atlas_map)

    mask = None
    if args.mask:
        lm = _read_volume(args.mask, as_labels=True)
        mask = metrics.interior_mask(lm, erosion=args.erosion)

    report = metrics.robustness_protocol(
        reference, candidates, mode=mode, mask=mask,
        window=args.window or 7, scales=args.scales or 3,
    )
    print(report.to_text())
    out = Path(args.out or "report.json")
    out.write_text(report.to_json() + "\n")
    print(out, file=sys.stderr)
    return EXIT_OK


def _cmd_fit_adapter(args, config: dict[str, str]) -> int:
    _fill_from_config(args, config, {"ridge": float, "out": str})
    ridge = args.ridge if args.ridge is not None else 1e-6

    features = _read_stack(args.features)
    target = _read_stack(args.target)
    concat = _read_volume(args.concat_input, as_labels=False) if args.concat_input else None
    if isinstance(concat, LabelMap):
        concat = Volume(concat.data, concat.spacing, concat.grid_to_world)

    adapter = adaptation.fit_adapter(features, target, concat_input=concat,
                                     ridge=ridge, softmax=args.softmax)
    residuals = adaptation.fit_residual(adapter, features, target, concat)
    adaptation.save_adapter(args.out or "adapter.json", adapter,
                            extra={"residuals": residuals})
    for name in ("residual_l1", "residual_l2"):
        print(f"{name} {residuals[name]:.6e}")
    return EXIT_OK


def _cmd_metrics(args, config: dict[str, str]) -> int:
    _fill_from_config(args, config, {"window": int, "scales": int, "peak": float})
    want_labels = args.metric == "dice"
    pred = _read_volume(args.pred, as_labels=want_labels)
    ref = _read_volume(args.ref, as_labels=want_labels)
    if want_labels:
        if not isinstance(pred, LabelMap) or not isinstance(ref, LabelMap):
            raise _UsageError("dice expects integer label volumes")
        scores = metrics.dice(pred, ref)
        print(f"{scores.mean:.6f}")
        for lab, val in sorted(scores.per_label.items()):
            print(f"label {lab} {val:.6f}")
        return EXIT_OK

    peak = 1.0 if args.peak is None else args.peak
    fns = {
        "l1": lambda: metrics.l1(pred, ref),
        "psnr": lambda: metrics.psnr(pred, ref, peak=peak),
        "ssim": lambda: metrics.ssim(pred, ref, window=args.window or 7),
        "msssim": lambda: metrics.ms_ssim(pred, ref, scales=args.scales or 3,
                                          window=args.window or 7),
        "norml2": lambda: metrics.norm_l2_bias(pred, ref),
    }
    print(f"{fns[args.metric]():.6f}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="synthbrain",
                description="Synthetic brain-image generation and evaluation")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="KEY=VALUE config file")

    g = sub.add_parser("generate", parents=[common], description="Generate one sample batch")
    g.add_argument("labels", help="segmentation NIfTI (integer labels)")
    g.add_argument("mprage", help="structural anatomy target NIfTI")
    g.add_argument("--n", type=int, default=None, help="batch size (default 4)")
    g.add_argument("--seed", type=int, default=None, required=False)
    g.add_argument("--schedule", default=None,
                   help="comma-separated severity names, e.g. mild,medium,medium,severe")
    g.add_argument("--out", default=None, help="output directory")
    g.add_argument("--threads", type=int, default=None)
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("evaluate", parents=[common], description="Feature-robustness report")
    e.add_argument("--mode", choices=["intra", "inter"], default=None)
    e.add_argument("--reference", required=True, help="reference stack (3D or 5D NIfTI)")
    e.add_argument("--candidates", required=True, help="candidates manifest JSON")
    e.add_argument("--atlas-map", default=None, help="atlas deformation NIfTI (inter mode)")
    e.add_argument("--mask", default=None, help="label NIfTI; interior mask is its eroded foreground")
    e.add_argument("--erosion", type=int, default=2)
    e.add_argument("--window", type=int, default=None)
    e.add_argument("--scales", type=int, default=None)
    e.add_argument("--out", default=None, help="report JSON path (default report.json)")
    e.set_defaults(func=_cmd_evaluate)

    f = sub.add_parser("fit-adapter", parents=[common],
                       description="Closed-form one-layer adaptation")
    f.add_argument("--features", required=True)
    f.add_argument("--target", required=True)
    f.add_argument("--concat-input", default=None)
    f.add_argument("--ridge", type=float, default=None)
    f.add_argument("--softmax", action="store_true")
    f.add_argument("--out", default=None, help="adapter JSON path (default adapter.json)")
    f.set_defaults(func=_cmd_fit_adapter)

    m = sub.add_parser("metrics", parents=[common],
                       description="Scalar metric between two volumes")
    m.add_argument("--pred", required=True)
    m.add_argument("--ref", required=True)
    m.add_argument("--metric", required=True,
                   choices=["l1", "psnr", "ssim", "msssim", "dice", "norml2"])
    m.add_argument("--peak", type=float, default=None, help="PSNR peak (default 1)")
    m.add_argument("--window", type=int, default=None)
    m.add_argument("--scales", type=int, default=None)
    m.set_defaults(func=_cmd_metrics)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _load_config(args.config) if args.config else {})
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GeometryMismatch as exc:
        print(f"geometry mismatch: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ChannelMismatch as exc:
        print(f"channel mismatch: {exc}", file=sys.stderr)
        return EXIT_CHANNELS
    except SingularSystem as exc:
        print(f"singular system: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (SynthBrainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
