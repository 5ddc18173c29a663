"""Stable, process-independent seed derivation.

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
