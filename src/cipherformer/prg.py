"""AES-128 in counter mode, `pahe`'s seed expansion: the public seeds of
its fresh ciphertexts and rotation keys, and the uniform halves those
seeds stand for.  (`gc.ot`'s OT extension keys no AES: its GGM trees and
their leaves' column streams run under one fixed-key permutation.)"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes


def aes_ctr(keys: Sequence[bytes], nbytes: int, start: int = 0) -> np.ndarray:
    """Row i is `nbytes` of AES-128-CTR keystream under the 16-byte keys[i],
    whose block j is AES_key(start + j), the counter a big-endian 128-bit
    block: a writable (len(keys), nbytes) uint8 array.

    Each key's ECB encryptor runs the counter blocks straight into one
    buffer: at 157 keys of 24,576 bytes (one core of a 2-vCPU Xeon) that
    took 4.4 ms, against 8 ms for a fresh `bytes` per key."""
    count, blocks = len(keys), -(-nbytes // 16)
    if start + blocks > 1 << 64:
        raise ValueError("counter block past 2^64")
    ctr = np.zeros((blocks, 2), dtype=">u8")
    ctr[:, 1] = np.arange(start, start + blocks, dtype=np.uint64)
    ctr = ctr.tobytes()
    # `update_into` asks for a block of slack past the whole blocks it
    # writes: row i's runs into row i + 1, written after it
    flat = np.empty(count * nbytes + 16 * blocks - nbytes + 15,
                    dtype=np.uint8)
    for i, key in enumerate(keys):
        Cipher(algorithms.AES(key), modes.ECB()).encryptor().update_into(
            ctr, flat[i * nbytes:])
    return flat[:count * nbytes].reshape(count, nbytes)
