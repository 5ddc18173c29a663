"""
Generate a batch of synthetic contrasts from one segmentation
=============================================================

One label map in, n images out: every sample shares a single random
deformation, gets its own random per-label contrast, and is corrupted at
an escalating severity. The anatomy target is warped by the same map, so
sample i and the target stay voxel-aligned.
"""
import tempfile
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

import synthbrain as sb

# ---- a toy subject: three concentric shells + smooth texture -----------------
n = 48
center = (n - 1) / 2.0
r = np.linalg.norm(np.indices((n, n, n)) - center, axis=0)
labels = np.zeros((n, n, n), dtype=np.int16)
for k, radius in enumerate((0.42 * n, 0.3 * n, 0.17 * n), start=1):
    labels[r <= radius] = k
texture = gaussian_filter(np.random.default_rng(0).standard_normal((n, n, n)), 2.0)
texture = (texture - texture.min()) / np.ptp(texture)
anatomy = 0.2 * labels + 0.3 * texture
anatomy[labels == 0] = 0.0
anatomy /= anatomy.max()

subject = sb.SubjectRecord("demo", sb.LabelMap(labels), sb.Volume(anatomy))

# ---- generate -----------------------------------------------------------------
batch = sb.generate_batch(subject, n=4, base_seed=7)
print(f"subject {batch.subject_id!r}: {len(batch.samples)} samples")
for i, s in enumerate(batch.samples):
    stages = [name for name, v in (("bias", s.record.bias),
                                   ("resolution", s.record.resolution),
                                   ("noise", s.record.noise)) if v is not None]
    print(f"  sample {i}: severity={s.level:<7s} stages={','.join(stages) or 'none'}"
          f"  range=[{s.image.data.min():.2f}, {s.image.data.max():.2f}]")

# the regression loss the samples are meant to train (prediction = target here)
print("loss at the optimum:", sb.batch_loss(batch, [batch.target] * 4, lam=1.0))

# ---- write: the same batch as NIfTI volumes + a replayable JSON manifest --------
# each sample is written as soon as it is made, so memory does not grow with n
with tempfile.TemporaryDirectory(prefix="synthbrain_demo_") as tmp:
    out = Path(tmp)
    manifest = sb.write_batch(subject, n=4, base_seed=7, out_dir=out)
    print("wrote", manifest)
    print(sorted(p.name for p in out.iterdir()))
