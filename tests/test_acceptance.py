"""Acceptance gate: capability criteria checked at their stated scales.

Each test prints one [PASS]/[FAIL] line so the suite output doubles as the
acceptance report. Tolerances are part of the contract and are asserted
exactly as stated.
"""
import hashlib
import json
import math
import time

import numpy as np
from scipy.ndimage import gaussian_filter

import synthbrain as sb
from synthbrain.cli import main as cli_main
from synthbrain.corruption import SeverityConfig
from synthbrain.deformation import DeformationConfig

from conftest import make_subject, smooth_volume, sphere_labels

import reference_impls as ref


def _report(capsys, num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] criterion {num}: {desc}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def _tree_hashes(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_01_deterministic_generation(tmp_path, capsys):
    subject = make_subject(n=64, seed=0)
    labels, mprage = tmp_path / "labels.nii", tmp_path / "anatomy.nii"
    sb.write_nifti_file(labels, subject.labels, "int16")
    sb.write_nifti_file(mprage, subject.mprage, "float32")

    def run(out, threads):
        rc = cli_main(["generate", str(labels), str(mprage), "--n", "4",
                       "--seed", "7", "--threads", str(threads), "--out", str(out)])
        assert rc == 0

    t0 = time.perf_counter()
    run(tmp_path / "a", 1)
    elapsed = time.perf_counter() - t0
    run(tmp_path / "b", 1)
    run(tmp_path / "c", 8)
    capsys.readouterr()

    h = [_tree_hashes(tmp_path / d) for d in ("a", "b", "c")]
    ok = h[0] == h[1] == h[2] and len(h[0]) == 7 and elapsed < 30.0
    _report(capsys, 1, "seeded generation is byte-identical across runs and "
            "thread counts, 64³ n=4 in < 30 s", ok, f"{elapsed:.1f}s, {len(h[0])} files")


def test_02_deformation_inverse_consistency(capsys):
    like = smooth_volume(64, 0)
    cfg = DeformationConfig()
    box = tuple(slice(16, 48) for _ in range(3))  # central box, 25% margin
    means, maxes = [], []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        fld = sb.build_deformation(sb.sample_affine(rng, cfg),
                                   sb.sample_svf(rng, cfg, like))
        res = sb.compose(fld, sb.invert(fld))
        mag = np.sqrt((res.displacement[box] ** 2).sum(-1))
        means.append(float(mag.mean()))
        maxes.append(float(mag.max()))
    ok = max(means) <= 0.2 and max(maxes) <= 1.0
    _report(capsys, 2, "50 sampled deformations at 64³: interior residual of "
            "round trip, mean ≤ 0.2 and max ≤ 1.0 voxel", ok,
            f"worst mean {max(means):.2e}, worst max {max(maxes):.2e}")


def test_03_velocity_integration(capsys):
    import dataclasses
    like = smooth_volume(32, 0)
    off = DeformationConfig.all_off()
    zero = sb.integrate_svf(sb.sample_svf(np.random.default_rng(0), off, like))
    exact_identity = not zero.displacement.any()

    c = np.array([1.5, -0.75, 0.5])
    svf = sb.sample_svf(np.random.default_rng(0), off, like)
    svf = dataclasses.replace(svf, velocities=np.broadcast_to(c, svf.velocities.shape))
    fld = sb.integrate_svf(svf)
    margin = DeformationConfig().squaring_steps + int(np.ceil(np.abs(c).max()))
    sl = tuple(slice(margin, s - margin) for s in fld.dims)
    rel = float(np.abs(fld.displacement[sl] - c).max()) / float(np.linalg.norm(c))
    ok = exact_identity and rel <= 1e-4
    _report(capsys, 3, "constant velocity integrates to its translation "
            "(rel err ≤ 1e-4); zero field integrates to exact identity", ok,
            f"rel err {rel:.2e}")


def test_04_contrast_statistics(capsys):
    lm = sphere_labels(64, (28.0, 22.0, 14.0))
    sizes = {lab: int((lm.data == lab).sum()) for lab in lm.label_set if lab != 0}
    worst_mean, worst_std = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = sb.sample_contrast_params(rng, lm.label_set)
        out = sb.paint(lm, params, rng, normalize=False)
        for lab, (mu, sigma) in params.table.items():
            if lab == 0:
                continue
            region = out.data[lm.data == lab]
            worst_mean = max(worst_mean, abs(float(region.mean()) - mu))
            worst_std = max(worst_std, abs(float(region.std()) / sigma - 1.0))
    ok = all(s >= 10_000 for s in sizes.values()) and worst_mean <= 0.02 and worst_std <= 0.1
    _report(capsys, 4, "painted regions (≥10⁴ voxels, 20 seeds) reproduce their "
            "drawn mean within 2% of range and std within 10%", ok,
            f"worst |Δmean| {worst_mean:.4f}, worst std dev {worst_std:.3f}")


def test_05_severity_ordering(capsys):
    lm = sphere_labels(32, (13.4, 9.6, 5.4))
    rng = np.random.default_rng(0)
    clean = sb.paint(lm, sb.sample_contrast_params(rng, lm.label_set), rng)
    psnrs = {name: [] for name in sb.SEVERITY_LEVELS}
    for seed in range(50):
        for name in sb.SEVERITY_LEVELS:
            out, _ = sb.corrupt(clean, sb.make_rng(seed, name), SeverityConfig.by_name(name))
            psnrs[name].append(sb.psnr(out, clean))
    mild, medium, severe = (float(np.mean(psnrs[k])) for k in ("mild", "medium", "severe"))
    ok = (mild - medium >= 1.0) and (medium - severe >= 1.0)
    _report(capsys, 5, "mean PSNR over 50 seeds orders the presets with ≥ 1 dB gaps",
            ok, f"mild {mild:.1f} dB, medium {medium:.1f} dB, severe {severe:.1f} dB")


def test_06_scale_invariant_bias_metric(capsys):
    rng = np.random.default_rng(3)
    worst_scale = 0.0
    for _ in range(10):
        b_true = sb.Volume(np.exp(rng.normal(0.0, 0.3, (6, 6, 6))))
        for c in (0.5, 1.0, 2.0):
            est = b_true.with_data(c * b_true.data)
            worst_scale = max(worst_scale, sb.norm_l2_bias(est, b_true))
    worst_pair = 0.0
    for _ in range(100):
        est = sb.Volume(np.exp(rng.normal(0.0, 0.3, (5, 5, 5))))
        true = sb.Volume(np.exp(rng.normal(0.0, 0.3, (5, 5, 5))))
        got = sb.norm_l2_bias(est, true)
        worst_pair = max(worst_pair, abs(got - ref.brute_norm_l2(est.data, true.data)))
    ok = worst_scale <= 1e-9 and worst_pair <= 1e-9
    _report(capsys, 6, "bias metric is 0 for rescaled truth (c ∈ {0.5,1,2}) and "
            "matches an independent re-implementation on 100 pairs (≤1e-9)", ok,
            f"scale {worst_scale:.1e}, pair {worst_pair:.1e}")


def test_07_ssim_oracles(capsys):
    rng = np.random.default_rng(7)
    worst_ssim, worst_ms = 0.0, 0.0
    for _ in range(20):
        a = sb.Volume(rng.random((8, 8, 8)))
        b = sb.Volume(rng.random((8, 8, 8)))
        got = sb.ssim(a, b, window=3)
        want = float(np.mean(ref.brute_ssim(a.data, b.data, window=3)))
        worst_ssim = max(worst_ssim, abs(got - want))
        got_ms = sb.ms_ssim(a, b, scales=2, window=3)
        want_ms = ref.brute_ms_ssim(a.data, b.data, scales=2, window=3)
        worst_ms = max(worst_ms, abs(got_ms - want_ms))
    v = smooth_volume(16, 1)
    self_exact = (sb.ssim(v, v) == 1.0) and (sb.ms_ssim(v, v, scales=2) == 1.0)
    ok = worst_ssim <= 1e-6 and worst_ms <= 1e-6 and self_exact
    _report(capsys, 7, "similarity scores match sliding-window brute force on 8³ "
            "(≤1e-6); self-similarity is exactly 1", ok,
            f"ssim {worst_ssim:.1e}, ms {worst_ms:.1e}")


def test_08_batch_loss_oracle(capsys):
    subject = make_subject(n=16, seed=2)
    zero_iff, worst = True, 0.0
    for seed in range(5):
        batch = sb.generate_batch(subject, 4, base_seed=seed)
        zero_iff &= sb.batch_loss(batch, [batch.target] * 4, lam=1.0) == 0.0
        bumped = batch.target.with_data(
            batch.target.data + np.eye(1, batch.target.data.size, seed).reshape(batch.target.dims) * 0.1
        )
        zero_iff &= sb.batch_loss(batch, [bumped] * 4, lam=1.0) > 0.0
        rng = np.random.default_rng(seed + 100)
        preds = [sb.Volume(rng.random(batch.target.dims)) for _ in range(4)]
        got = sb.batch_loss(batch, preds, lam=1.0)
        want = ref.brute_batch_loss([p.data for p in preds], batch.target.data,
                                    1.0, batch.target.spacing)
        worst = max(worst, abs(got - want) / abs(want))
    ok = zero_iff and worst <= 1e-6
    _report(capsys, 8, "batch loss is zero iff predictions equal the target and "
            "matches naive re-summation (≤1e-6 rel) on 4-sample batches", ok,
            f"worst rel {worst:.1e}")


def test_09_adapter_recovery(capsys):
    feats = sb.VolumeStack(tuple(smooth_volume(32, i) for i in range(64)))
    rng = np.random.default_rng(0)
    w = rng.normal(0.0, 1.0, 64)
    x = np.stack([c.data.ravel() for c in feats.channels], axis=1)
    target = sb.Volume((x @ w + 0.3).reshape(feats.dims))
    adapter = sb.fit_adapter(feats, target, ridge=0.0)
    w_err = float(np.abs(adapter.weights[:, 0] - w).max())
    b_err = abs(float(adapter.bias[0]) - 0.3)
    res = sb.fit_residual(adapter, feats, target)["residual_l1"]

    small = sb.VolumeStack(tuple(smooth_volume(32, 100 + i) for i in range(8)))
    image = smooth_volume(32, 200)
    xs = np.stack([c.data.ravel() for c in small.channels], axis=1)
    w2 = rng.normal(0.0, 1.0, 8)
    tgt2 = sb.Volume((xs @ w2 + 0.8 * image.data.ravel() + 0.1).reshape(small.dims))
    concat = sb.fit_adapter(small, tgt2, concat_input=image, ridge=0.0)
    c_err = abs(float(concat.weights[-1, 0]) - 0.8)

    ok = w_err <= 1e-4 and b_err <= 1e-4 and res <= 1e-6 and c_err <= 1e-4
    _report(capsys, 9, "closed-form head recovers a planted 64→1 map at 32³ "
            "(≤1e-4, residual ≤1e-6) and the planted input coefficient in "
            "concat mode (≤1e-4)", ok,
            f"w {w_err:.1e}, residual {res:.1e}, concat {c_err:.1e}")


def test_10_robustness_protocol(capsys):
    n = 64
    lm = sphere_labels(n, (0.42 * n, 0.3 * n, 0.17 * n))
    rng = np.random.default_rng(0)
    tissue = gaussian_filter(rng.standard_normal((n, n, n)), 3.0)
    tissue = (tissue - tissue.min()) / (tissue.max() - tissue.min())
    shells = gaussian_filter((lm.data / lm.data.max()).astype(float), 1.5)
    data = 0.55 * shells + 0.45 * tissue
    data[lm.data == 0] = 0.0
    anatomy = sb.Volume(data / data.max())

    mask = sb.interior_mask(lm, erosion=2)
    cfg = DeformationConfig()
    candidates = []
    for seed in range(10):
        srng = np.random.default_rng(seed)
        fld = sb.build_deformation(sb.sample_affine(srng, cfg),
                                   sb.sample_svf(srng, cfg, anatomy))
        moved = sb.warp_volume(anatomy, fld)
        corrupted, _ = sb.corrupt(moved, srng, SeverityConfig.mild())
        candidates.append((sb.VolumeStack((corrupted,)), fld))
    report = sb.robustness_protocol(sb.VolumeStack((anatomy,)), candidates,
                                    mode="intra", mask=mask)
    mean_ssim = report.mean("ssim")
    ok = mean_ssim >= 0.95
    _report(capsys, 10, "10 deformed+mildly-corrupted structural copies mapped "
            "back to the reference frame keep interior SSIM ≥ 0.95", ok,
            f"mean ssim {mean_ssim:.4f}")


def test_11_file_round_trip(capsys):
    rng = np.random.default_rng(11)
    bit_exact = True
    geometry_ok = True
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(4, 17, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
        data = rng.random(dims, dtype=np.float32).astype(np.float32)
        v = sb.Volume(data, spacing)
        blob = sb.write_nifti(v, "float32")
        back = sb.StackReader.from_bytes(blob).image()
        bit_exact &= np.array_equal(back.data.astype(np.float32), data)
        dump = ref.header_dump(blob)  # independent offset-level parser
        geometry_ok &= tuple(dump["dim"][1:4]) == dims
        geometry_ok &= np.allclose(dump["pixdim"][1:4], spacing, atol=1e-6)
        geometry_ok &= dump["datatype"] == 16 and dump["bitpix"] == 32
        geometry_ok &= np.allclose(dump["srow"][:3], v.grid_to_world[:3], atol=1e-5)
    ok = bit_exact and geometry_ok
    _report(capsys, 11, "100 random float32 volumes survive write→read "
            "bit-exactly and an independent header dump agrees on geometry", ok)
