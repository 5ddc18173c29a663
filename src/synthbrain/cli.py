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
import math
import sys
import typing
from pathlib import Path

from . import adaptation, generator, metrics
from .corruption import SEVERITY_LEVELS, SeverityConfig
from .deformation import DeformationConfig, DeformationField
from .errors import (
    ChannelMismatch,
    GeometryMismatch,
    SingularSystem,
    SynthBrainError,
)
from .generator import SubjectRecord, severity_ladder, write_batch
from .nifti import StackReader, read_nifti_file
from .seeding import _SEED_RANGE
from .volume import same_geometry

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


def _ranged(kind, low, high=math.inf, strict=False):
    """An argparse ``type``: ``kind(text)`` in ``[low, high]`` (``(low, high]``
    when ``strict``). A value outside, or NaN, is a usage error."""
    def convert(text):
        value = kind(text)
        if not ((value > low if strict else value >= low) and value <= high):
            interval = f"{'(' if strict else '['}{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{text!r} is outside {interval}")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


_COUNT = _ranged(int, 1)
_SEED = _ranged(int, *_SEED_RANGE)
_SCALES = _ranged(int, 1, len(metrics._MS_WEIGHTS))


# -- config file -----------------------------------------------------------------

def _read_utf8(path) -> str:
    """The text of ``path``; a file that is not UTF-8 text is an I/O error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def _load_config(path) -> dict[str, str]:
    """KEY=VALUE lines; blank lines and # comments ignored, a key set twice refused.
    A file that is not UTF-8 text is an I/O error naming it."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(_read_utf8(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in first:
            raise _UsageError(f"{path}:{lineno}: config key {key} repeats line {first[key]}")
        first[key] = lineno
        out[key] = value
    return out


def _override(cfg, scope: str, values: dict[str, str]):
    """``cfg`` with ``values`` (field name -> text) set, each converted to a float.

    A key names a ``float`` field, or is ``<range>_min`` / ``<range>_max``,
    which sets one bound of a ``tuple[float, float]`` range field. The
    values are applied together, so the file's order cannot matter; a value
    that does not convert, or that ``cfg``'s class rejects, is a usage error.
    """
    hints = typing.get_type_hints(type(cfg))
    changes: dict = {}
    for fld, value in values.items():
        key, base, end = f"{scope}.{fld}", fld[:-4], fld[-4:]
        bound = end in ("_min", "_max") and hints.get(base) == tuple[float, float]
        if not (bound or hints.get(fld) is float):
            raise _UsageError(f"unknown field {fld!r} in config key {key}")
        try:
            typed = float(value)
        except ValueError as exc:
            raise _UsageError(f"config key {key}: {exc}")
        if bound:
            lo, hi = changes.get(base, getattr(cfg, base))
            changes[base] = (typed, hi) if end == "_min" else (lo, typed)
        else:
            changes[fld] = typed
    try:
        return dataclasses.replace(cfg, **changes)
    except ValueError as exc:
        raise _UsageError(f"config for {scope}: {exc}")


def _severity_presets(config: dict[str, str]) -> dict[str, SeverityConfig]:
    """Presets with overrides like ``severe.noise_sigma_max=20``, typed by their fields.

    ``deformation.*`` keys set the deformation that ``mild``, ``medium`` and
    ``severe`` share. ``off`` is fixed: every stage and the deformation off.
    A key without a dot is a run setting, which only its flag sets.
    """
    over: dict[str, dict[str, str]] = {scope: {} for scope in ("deformation",) + SEVERITY_LEVELS}
    for key, value in config.items():
        scope, dot, fld = key.partition(".")
        if not dot:
            raise _UsageError(f"config key {key}: the config file holds only dotted "
                              f"preset keys; use --{key}")
        if scope == "off":
            raise _UsageError(f"config key {key}: the off level is fixed "
                              "(no corruption, no deformation)")
        if scope not in over:
            raise _UsageError(f"unknown severity level {scope!r} in config key {key}")
        over[scope][fld] = value
    deformation = _override(DeformationConfig(), "deformation", over["deformation"])
    presets = {name: dataclasses.replace(_override(SeverityConfig.by_name(name), name, over[name]),
                                         deformation=deformation)
               for name in SEVERITY_LEVELS}
    return {**presets, "off": SeverityConfig.all_off()}


# -- subcommands -----------------------------------------------------------------

def _cmd_generate(args) -> int:
    if args.seed is None:
        raise _UsageError("--seed is required (no silent nondeterminism)")
    if args.out is None:
        raise _UsageError("--out is required")
    # an explicit schedule fixes the batch size unless --n contradicts it
    if args.n is None:
        n = len(args.schedule.split(",")) if args.schedule is not None else 4
    else:
        n = args.n

    presets = _severity_presets(_load_config(args.config) if args.config else {})
    names = args.schedule.split(",") if args.schedule is not None else severity_ladder(n)
    try:
        schedule = generator._normalize_schedule([presets[nm.strip().lower()] for nm in names], n)
    except KeyError as exc:
        raise _UsageError(f"unknown severity level {exc.args[0]!r}")
    except ValueError as exc:  # a schedule longer or shorter than --n, or decreasing
        raise _UsageError(str(exc))

    labels = read_nifti_file(args.labels, as_labels=True)
    mprage = read_nifti_file(args.mprage, as_labels=False)
    subject = SubjectRecord(Path(args.labels).stem.replace(".nii", ""), labels, mprage)

    print(write_batch(subject, n, args.seed, args.out, schedule=schedule, threads=args.threads))
    return EXIT_OK


def _load_candidates(manifest_path, mode: str, atlas_map):
    """(stack reader, field) pairs from a candidates list or a generated-batch
    manifest. Each deformation file is read once; in inter mode only
    ``atlas_map`` is used. A file that is not UTF-8 JSON is an I/O error naming it."""
    text = _read_utf8(manifest_path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: not valid JSON ({exc})") from None
    base = Path(manifest_path).parent
    if not isinstance(doc, dict) or not doc.keys() & {"candidates", "samples"}:
        raise _UsageError(f"{manifest_path}: neither 'candidates' nor 'samples' present")
    section, file_key = ("candidates", "features") if "candidates" in doc else ("samples", "file")
    if not isinstance(doc[section], list) or not all(isinstance(e, dict) for e in doc[section]):
        raise _UsageError(f"{manifest_path}: {section!r} is not a list of objects")
    if not doc[section]:
        raise _UsageError(f"{manifest_path}: {section!r} is empty")
    entries = []
    for i, e in enumerate(doc[section]):
        if file_key not in e:
            raise _UsageError(f"{manifest_path}: {section}[{i}] has no {file_key!r}")
        # a batch manifest names one deformation for all its samples
        deformation = (e if section == "candidates" else doc).get("deformation")
        if not isinstance(e[file_key], str) or not isinstance(deformation, (str, type(None))):
            raise _UsageError(
                f"{manifest_path}: {section}[{i}]: {file_key!r} and 'deformation' must be strings")
        entries.append((e[file_key], deformation))

    fields: dict[Path, DeformationField] = {}  # resolved path -> field
    out = []
    for features, deformation in entries:
        if mode == "inter":
            fld = atlas_map
        elif deformation is None:
            raise _UsageError("candidate missing a deformation field")
        else:
            key = (base / deformation).resolve()
            if key not in fields:
                fields[key] = StackReader.open(base / deformation).field()
            fld = fields[key]
        out.append((StackReader.open(base / features), fld))
    return out


def _cmd_evaluate(args) -> int:
    if args.mode == "inter" and args.atlas_map is None:
        raise _UsageError("--atlas-map is required in inter mode")

    reference = StackReader.open(args.reference)
    mask = None
    if args.mask:
        mask = read_nifti_file(args.mask, as_labels=True)
        if not same_geometry(mask, reference):
            raise GeometryMismatch(f"{args.mask}: the mask's grid is not the reference's")
        mask = metrics.interior_mask(mask, erosion=args.erosion)
    atlas_map = StackReader.open(args.atlas_map).field() if args.atlas_map else None
    candidates = _load_candidates(args.candidates, args.mode, atlas_map)
    # the stacks are read one channel at a time as they are scored
    report = metrics.robustness_protocol(
        reference, candidates, mode=args.mode, mask=mask,
        window=args.window, scales=args.scales,
    )
    print(report.to_text())
    out = Path(args.out)
    out.write_text(report.to_json() + "\n")
    print(out, file=sys.stderr)
    return EXIT_OK


def _cmd_fit_adapter(args) -> int:
    # both passes decode the stacks slab by slab from their files
    features, target = StackReader.open(args.features), StackReader.open(args.target)
    concat = read_nifti_file(args.concat_input, as_labels=False) if args.concat_input else None
    adapter = adaptation.fit_adapter(features, target, concat_input=concat,
                                     ridge=args.ridge, softmax=args.softmax)
    residuals = adaptation.fit_residual(adapter, features, target, concat)
    adaptation.save_adapter(args.out, adapter, extra={"residuals": residuals})
    for name in ("residual_l1", "residual_l2"):
        print(f"{name} {residuals[name]:.6e}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    want_labels = args.metric == "dice"
    pred, ref = (read_nifti_file(path, as_labels=want_labels) for path in (args.pred, args.ref))
    if want_labels:
        scores = metrics.dice(pred, ref)
        print(f"{scores.mean:.6f}")
        for lab, val in sorted(scores.per_label.items()):
            print(f"label {lab} {val:.6f}")
        return EXIT_OK

    fns = {
        "l1": lambda: metrics.l1(pred, ref),
        "psnr": lambda: metrics.psnr(pred, ref, peak=args.peak),
        "ssim": lambda: metrics.ssim(pred, ref, window=args.window),
        "msssim": lambda: metrics.ms_ssim(pred, ref, scales=args.scales, window=args.window),
        "norml2": lambda: metrics.norm_l2_bias(pred, ref),
    }
    print(f"{fns[args.metric]():.6f}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="synthbrain",
                description="Synthetic brain-image generation and evaluation")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", description="Generate one sample batch")
    g.add_argument("labels", help="segmentation NIfTI (integer labels)")
    g.add_argument("mprage", help="structural anatomy target NIfTI")
    g.add_argument("--n", type=_COUNT, default=None,
                   help="batch size (default: the schedule's length, else 4)")
    g.add_argument("--seed", type=_SEED, default=None, required=False,
                   help="base seed, a signed 128-bit integer")
    g.add_argument("--schedule", default=None,
                   help="comma-separated severity names, e.g. mild,medium,medium,severe")
    g.add_argument("--out", default=None, help="output directory")
    g.add_argument("--threads", type=_COUNT, default=1)
    g.add_argument("--config", default=None,
                   help="KEY=VALUE file of dotted preset keys, e.g. severe.noise_sigma_max=20")
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("evaluate", description="Feature-robustness report")
    e.add_argument("--mode", choices=["intra", "inter"], default="intra")
    e.add_argument("--reference", required=True, help="reference stack (3D or 5D NIfTI)")
    e.add_argument("--candidates", required=True, help="candidates manifest JSON")
    e.add_argument("--atlas-map", default=None, help="atlas deformation NIfTI (inter mode)")
    e.add_argument("--mask", default=None, help="label NIfTI; interior mask is its eroded foreground")
    e.add_argument("--erosion", type=_ranged(int, 0), default=2)
    e.add_argument("--window", type=_COUNT, default=7)
    e.add_argument("--scales", type=_SCALES, default=3)
    e.add_argument("--out", default="report.json", help="report JSON path (default %(default)s)")
    e.set_defaults(func=_cmd_evaluate)

    f = sub.add_parser("fit-adapter", description="Closed-form one-layer adaptation")
    f.add_argument("--features", required=True)
    f.add_argument("--target", required=True)
    f.add_argument("--concat-input", default=None)
    f.add_argument("--ridge", type=_ranged(float, 0.0), default=1e-6)
    f.add_argument("--softmax", action="store_true")
    f.add_argument("--out", default="adapter.json", help="adapter JSON path (default %(default)s)")
    f.set_defaults(func=_cmd_fit_adapter)

    m = sub.add_parser("metrics", description="Scalar metric between two volumes")
    m.add_argument("--pred", required=True)
    m.add_argument("--ref", required=True)
    m.add_argument("--metric", required=True,
                   choices=["l1", "psnr", "ssim", "msssim", "dice", "norml2"])
    m.add_argument("--peak", type=_ranged(float, 0.0, strict=True), default=1.0,
                   help="PSNR peak (default %(default)s)")
    m.add_argument("--window", type=_COUNT, default=7)
    m.add_argument("--scales", type=_SCALES, default=3)
    m.set_defaults(func=_cmd_metrics)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
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
