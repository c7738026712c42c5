"""The AES-CTR expansion behind `pahe`'s seeds (`prg.aes_ctr`)."""

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cipherformer.prg import aes_ctr


def _reference(key: bytes, start: int, nbytes: int) -> bytes:
    """`nbytes` of AES-128-CTR under `key` from counter block `start`, the
    counter a big-endian 128-bit block."""
    enc = Cipher(algorithms.AES(key), modes.CTR(start.to_bytes(16, "big"))) \
        .encryptor()
    return enc.update(bytes(nbytes))


def test_reads_are_the_ctr_keystream_at_any_block():
    rng = np.random.default_rng(1)
    keys = [rng.bytes(16) for _ in range(3)]
    for start, nbytes in ((0, 1), (5, 100), (2, 16), (1 << 40, 33)):
        got = aes_ctr(keys, nbytes, start)
        assert got.shape == (3, nbytes)
        for key, row in zip(keys, got):
            assert row.tobytes() == _reference(key, start, nbytes)
