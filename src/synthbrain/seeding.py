"""Stable, process-independent seed derivation, and the per-voxel normal draw.

Python's builtin ``hash`` is salted per process, so reproducible pipelines
derive sub-seeds by hashing a canonical byte encoding of the seed path
(e.g. ``(base_seed, subject_id, sample_index)``) with SHA-256.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "make_rng"]


# an integer part is encoded in 16 bytes: a signed 128-bit integer
_SEED_RANGE = (-(2 ** 127), 2 ** 127 - 1)


def derive_seed(*parts) -> int:
    """Collapse a tuple of ints/strings into a 63-bit seed, deterministically.

    An integer part must lie in ``_SEED_RANGE`` (the signed 128-bit integers);
    one outside is a ``ValueError`` naming it.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (int, np.integer)):
            value = int(part)
            if not _SEED_RANGE[0] <= value <= _SEED_RANGE[1]:
                raise ValueError(f"seed part {value} is outside the signed 128-bit range "
                                 f"[{_SEED_RANGE[0]}, {_SEED_RANGE[1]}]")
            h.update(b"i" + value.to_bytes(16, "little", signed=True))
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part)!r}")
    return int.from_bytes(h.digest()[:8], "little") >> 1


def make_rng(*parts) -> np.random.Generator:
    """Generator seeded from a derived seed path."""
    return np.random.default_rng(derive_seed(*parts))


# Box-Muller pairs transformed per pass, so that a pass's three float32 rows
# (32 kB each) stay in cache
_PAIRS = 8192


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` float32 standard normals by the Box-Muller transform.

    Draws ``2 * m`` float32 uniforms, ``m = ceil(n / 2)``, and turns pair
    ``i`` of the halves ``u1 = u[:m]``, ``u2 = u[m:]`` into
    ``r * cos(theta)`` (slot ``i``) and ``r * sin(theta)`` (slot ``m + i``),
    with ``r = sqrt(-2 * log1p(-u1))`` and ``theta = 2 * pi * u2``, all in
    float32; the first ``n`` are returned. ``u1 < 1``, so every value is
    finite. The uniforms' buffer is the result: the transform runs in place,
    ``_PAIRS`` pairs at a time, with one pass-sized scratch row.
    """
    m = -(-n // 2)
    z = rng.random(2 * m, dtype=np.float32)
    cos = np.empty(min(m, _PAIRS), dtype=np.float32)
    for lo in range(0, m, _PAIRS):
        hi = min(lo + _PAIRS, m)
        r, theta, c = z[lo:hi], z[m + lo:m + hi], cos[:hi - lo]
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= np.float32(-2.0)
        np.sqrt(r, out=r)
        theta *= np.float32(2.0 * np.pi)
        np.cos(theta, out=c)
        np.sin(theta, out=theta)
        theta *= r
        r *= c
    return z[:n]
