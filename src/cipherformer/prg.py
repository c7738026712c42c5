"""AES-128 in counter mode, the one expansion behind every seed: the
column streams that the GGM tree leaves of `gc.ot`'s OT extension key, and
the seeds and uniform halves of the fresh ciphertexts and rotation keys of
`pahe`.  (The GGM trees themselves grow under fixed-key AES, not here.)"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes


class AesCtr:
    """AES-128 keystreams in counter mode, one per 16-byte key `keys[i]`,
    block j of each being AES_key(j), the counter a big-endian 128-bit
    block.  Each key is set up once, at the first read, as an ECB
    encryptor that the counter blocks of a read are fed through, so one
    object serves reads at any block, in any order, for as long as its
    keys are in use: a key takes about 18 us to set up, as long as 110 KB
    of its stream (6.3 GB/s on one core of a 2-vCPU Xeon), ECB over
    counters runs as fast as CTR, and a set-up key holds about 1.3 KB.
    ECB over whole blocks leaves no state in an encryptor between reads,
    but an encryptor refuses to be fed from two threads at once, so reads
    take turns under a lock: sessions on two threads may share one object,
    and neither pays the key set-up again."""

    def __init__(self, keys: Sequence[bytes]):
        self.keys = list(keys)
        self._encs = None
        self._lock = threading.Lock()

    def read(self, start: int, nbytes: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """`nbytes` of every stream from block `start` on, row i under
        keys[i]: a writable (len(keys), nbytes) uint8 array, the leading
        columns of `out` if one is given, whose rows must be contiguous and
        each hold the whole blocks read plus the one block of slack
        `update_into` asks for, 16 ceil(nbytes / 16) + 15 bytes.

        Every stream is written in place into one buffer: at 157 keys of
        24,576 bytes (one core of a 2-vCPU Xeon) that took 4.4 ms, against
        8 ms for a fresh `bytes` per key."""
        count, blocks = len(self.keys), -(-nbytes // 16)
        if start + blocks > 1 << 64:
            raise ValueError("counter block past 2^64")
        ctr = np.zeros((blocks, 2), dtype=">u8")
        ctr[:, 1] = np.arange(start, start + blocks, dtype=np.uint64)
        ctr = ctr.tobytes()
        if out is None:
            flat = np.empty(count * nbytes + 16 * blocks - nbytes + 15,
                            dtype=np.uint8)
            rows = [flat[i * nbytes:] for i in range(count)]
            out = flat[:count * nbytes].reshape(count, nbytes)
        else:
            rows, out = out, out[:, :nbytes]
        with self._lock:
            if self._encs is None:
                self._encs = [
                    Cipher(algorithms.AES(key), modes.ECB()).encryptor()
                    for key in self.keys]
            # row i's tail block runs into row i + 1, written after it
            for enc, row in zip(self._encs, rows):
                enc.update_into(ctr, row)
        return out


def aes_ctr(keys: Sequence[bytes], nbytes: int, start: int = 0) -> np.ndarray:
    """Row i is `nbytes` of AES-128-CTR keystream under the 16-byte keys[i],
    whose block j is AES_key(start + j): a writable (len(keys), nbytes)
    uint8 array."""
    return AesCtr(keys).read(start, nbytes)
