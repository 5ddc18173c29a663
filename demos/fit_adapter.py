#!/usr/bin/env python
"""Map a frozen feature stack onto a target contrast with one linear layer."""
import tempfile
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

import synthbrain as sb

n = 32
rng = np.random.default_rng(9)

# pretend these came out of a frozen network: smooth random channels
features = sb.VolumeStack(tuple(
    sb.Volume(gaussian_filter(rng.standard_normal((n, n, n)), 2.0))
    for _ in range(16)))

# the target is a hidden linear combination of them, plus a little noise
w_true = rng.standard_normal(16)
data = features.as_array() @ w_true + 0.25
data += 0.01 * rng.standard_normal(data.shape)
target = sb.Volume(data)

adapter = sb.fit_adapter(features, target, ridge=1e-6)
pred = sb.apply_adapter(adapter, features)
res = sb.fit_residual(adapter, features, target)

print("weight recovery error:", float(np.abs(adapter.weights[:, 0] - w_true).max()))
print("bias:", float(adapter.bias[0]), "(true 0.25)")
print("mean |residual|:", res["residual_l1"])

# the adapter is saved as JSON, as fit-adapter writes it, and comes back bit-identical
with tempfile.TemporaryDirectory() as tmp:
    sb.save_adapter(Path(tmp) / "adapter.json", adapter, extra={"residuals": res})
    again = sb.load_adapter(Path(tmp) / "adapter.json")
assert np.array_equal(again.weights, adapter.weights)
out = pred.channels[0].data
print("round-trip ok; prediction range:",
      float(out.min()), "to", float(out.max()))
