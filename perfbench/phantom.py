"""Seeded head phantom: an ellipsoidal head parcellated into FreeSurfer-style labels.

The label values follow the sparse aparc+aseg numbering (white matter 2/41,
ventricles 4/43, deep grey 10-18/49-54, cortical parcels 1000s/2000s), so
the generator sees the same kind of label set a real segmentation has: about
40 labels whose maximum is above 2000. Shapes and positions are jittered by
the seed, so each seed is a different subject of the same size.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

# cortical parcels per hemisphere, left values; right = left + 1000
CORTEX_LEFT = (1002, 1003, 1005, 1008, 1011, 1017, 1024, 1035)
# (left, right, nominal centre in head units, radius in head units)
DEEP_GREY = (
    (10, 49, (0.14, -0.05, 0.05), 0.10),   # thalamus
    (11, 50, (0.16, 0.18, 0.16), 0.07),    # caudate
    (12, 51, (0.30, 0.08, 0.02), 0.08),    # putamen
    (13, 52, (0.24, 0.05, 0.00), 0.05),    # pallidum
    (17, 53, (0.30, -0.12, -0.20), 0.07),  # hippocampus
    (18, 54, (0.28, 0.05, -0.25), 0.05),   # amygdala
)
CSF, WM_L, WM_R, VENT_L, VENT_R = 24, 2, 41, 4, 43
THIRD_VENT, FOURTH_VENT, BRAINSTEM = 14, 15, 16
CBM_WM_L, CBM_CTX_L, CBM_WM_R, CBM_CTX_R = 7, 8, 46, 47

# T1-like mean intensity per tissue class
_INTENSITY = {"csf": 0.15, "wm": 0.85, "ctx": 0.55, "deep": 0.68,
              "cbm_ctx": 0.60, "cbm_wm": 0.80, "stem": 0.75}


def _tissue(label: int) -> str:
    if label in (CSF, VENT_L, VENT_R, THIRD_VENT, FOURTH_VENT):
        return "csf"
    if label in (WM_L, WM_R):
        return "wm"
    if label >= 1000:
        return "ctx"
    if label in (CBM_CTX_L, CBM_CTX_R):
        return "cbm_ctx"
    if label in (CBM_WM_L, CBM_WM_R):
        return "cbm_wm"
    if label == BRAINSTEM:
        return "stem"
    return "deep"


def make_phantom(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels (int16) and a matching T1-like anatomy image in [0, 1] (float64)."""
    rng = np.random.default_rng(seed)
    centre = (n - 1) / 2.0 + rng.uniform(-1.0, 1.0, 3)
    semi = n * np.array([0.44, 0.46, 0.42]) * rng.uniform(0.96, 1.0, 3)
    idx = np.indices((n, n, n), dtype=np.float64)
    x, y, z = ((idx[a] - centre[a]) / semi[a] for a in range(3))
    r = np.sqrt(x * x + y * y + z * z)
    # a smooth, seeded wobble of the brain surface
    wobble = gaussian_filter(rng.standard_normal((n, n, n)), n / 8.0)
    r_brain = r * (1.0 + 0.036 * wobble / max(np.abs(wobble).max(), 1e-12))

    lab = np.zeros((n, n, n), dtype=np.int16)
    lab[r < 1.0] = CSF
    brain = r_brain < 0.88
    left = x < 0.0
    cerebellum = brain & (z < -0.40) & (y < 0.05)
    cerebrum = brain & ~cerebellum

    # cortex: azimuthal sectors per hemisphere, rotated by the seed
    phase = rng.uniform(0.0, 2.0 * np.pi)
    sector = ((np.arctan2(z, y) + phase) % (2.0 * np.pi)) / (2.0 * np.pi)
    sector = np.minimum((sector * len(CORTEX_LEFT)).astype(int), len(CORTEX_LEFT) - 1)
    ctx_left = np.asarray(CORTEX_LEFT, dtype=np.int16)[sector]
    lab[cerebrum] = np.where(left, ctx_left, ctx_left + 1000)[cerebrum]
    wm = cerebrum & (r_brain < 0.74)
    lab[wm & left] = WM_L
    lab[wm & ~left] = WM_R

    jit = rng.uniform(-0.02, 0.02, (len(DEEP_GREY), 3))
    for (l_lab, r_lab, (cx, cy, cz), rad), d in zip(DEEP_GREY, jit):
        for sign, value in ((-1.0, l_lab), (1.0, r_lab)):
            blob = (x - sign * (cx + d[0])) ** 2 + (y - cy - d[1]) ** 2 + (z - cz - d[2]) ** 2
            lab[wm & (blob < rad * rad)] = value

    vent = ((np.abs(x) - 0.09) / 0.05) ** 2 + (y / 0.22) ** 2 + ((z - 0.12) / 0.08) ** 2 < 1.0
    lab[wm & vent & left] = VENT_L
    lab[wm & vent & ~left] = VENT_R
    lab[wm & (np.abs(x) < 0.02) & (np.abs(y + 0.02) < 0.10) & (np.abs(z) < 0.10)] = THIRD_VENT

    cbm_wm = cerebellum & (((x / 0.5) ** 2 + ((y + 0.35) / 0.25) ** 2
                            + ((z + 0.62) / 0.15) ** 2) < 1.0)
    lab[cerebellum & left] = CBM_CTX_L
    lab[cerebellum & ~left] = CBM_CTX_R
    lab[cbm_wm & left] = CBM_WM_L
    lab[cbm_wm & ~left] = CBM_WM_R
    stem = brain & (np.abs(x) < 0.12) & (np.abs(y + 0.08) < 0.14) & (z < -0.15)
    lab[stem] = BRAINSTEM
    lab[stem & (np.abs(x) < 0.03) & (np.abs(y + 0.20) < 0.03) & (z < -0.4)] = FOURTH_VENT

    values = np.unique(lab)
    mean = np.array([0.0 if v == 0 else _INTENSITY[_tissue(int(v))] for v in values])
    texture = gaussian_filter(rng.standard_normal((n, n, n)), 1.5)
    texture /= max(np.abs(texture).max(), 1e-12)
    image = mean[np.searchsorted(values, lab)] + 0.08 * texture
    image[lab == 0] = 0.0
    image = np.clip(image, 0.0, None)
    return lab, image / image.max()
