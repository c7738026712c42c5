"""Signed integers embedded in a prime field.

Weights and activations are fixed-point values round(x * 2^f) held as
centered signed int64 tensors; the reference model computes on them
directly, and the protocol moves them into Z_p only at its boundary.  For a
prime p above twice the largest magnitude the embedding is injective, so
the centered lift recovers the signed value exactly.
"""

from __future__ import annotations

import numpy as np


def to_field(s, p: int) -> np.ndarray:
    """Centered signed int64 array -> uint64 field elements mod p."""
    a = np.asarray(s, dtype=np.int64).astype(object)
    return np.asarray(np.mod(a, p), dtype=np.uint64)


def to_signed(v, p: int) -> np.ndarray:
    """uint64 field elements -> centered signed int64 (requires p < 2^62)."""
    a = np.asarray(v, dtype=np.uint64).astype(np.int64)
    return np.where(a > p // 2, a - p, a)
