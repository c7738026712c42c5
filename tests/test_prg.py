"""The AES-CTR expansion behind every seed (`prg.AesCtr`)."""

import sys
import threading

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cipherformer.prg import AesCtr, aes_ctr


def _reference(key: bytes, start: int, nbytes: int) -> bytes:
    """`nbytes` of AES-128-CTR under `key` from counter block `start`, the
    counter a big-endian 128-bit block."""
    enc = Cipher(algorithms.AES(key), modes.CTR(start.to_bytes(16, "big"))) \
        .encryptor()
    return enc.update(bytes(nbytes))


def test_reads_are_the_ctr_keystream_at_any_block():
    rng = np.random.default_rng(1)
    keys = [rng.bytes(16) for _ in range(3)]
    streams = AesCtr(keys)
    for start, nbytes in ((0, 1), (5, 100), (2, 16), (1 << 40, 33)):
        got = streams.read(start, nbytes)
        assert got.shape == (3, nbytes)
        for key, row in zip(keys, got):
            assert row.tobytes() == _reference(key, start, nbytes)
    assert np.array_equal(aes_ctr(keys, 100, 5), streams.read(5, 100))


def test_threads_reading_one_object_get_the_reference_bytes():
    """Sessions resumed from one base-OT outcome read its stored streams at
    once.  Four threads that each read one object 1,500 times, 8 KB of 16
    keys at their own blocks, all get the reference keystream and raise
    nothing, the first read (which sets the keys up) included.  The
    interpreter switches threads every microsecond, so reads overlap
    inside an encryptor's update, which `cryptography` refuses ("Already
    borrowed") unless the reads take turns."""
    interval = sys.getswitchinterval()
    rng = np.random.default_rng(2)
    keys = [rng.bytes(16) for _ in range(16)]
    nbytes, reads, threads = 8192, 1500, 4
    want = {(key, t): _reference(key, 1000 * t, nbytes)
            for key in keys for t in range(threads)}
    streams = AesCtr(keys)
    start, errors, wrong = threading.Barrier(threads), [], []

    def reader(t: int):
        start.wait(60)
        try:
            for _ in range(reads):
                got = streams.read(1000 * t, nbytes)
                wrong.extend(t for key, row in zip(keys, got)
                             if row.tobytes() != want[key, t])
        except Exception as exc:   # noqa: BLE001 - any failure counts
            errors.append(exc)

    pool = [threading.Thread(target=reader, args=(t,))
            for t in range(threads)]
    sys.setswitchinterval(1e-6)
    try:
        for th in pool:
            th.start()
        for th in pool:
            th.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in pool)
    assert errors == []
    assert wrong == []
