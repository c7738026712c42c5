"""Whole two-party sessions on the tiny shape: exact logits, the fixed round
count and the transcript digest pinned for fixed seeds.  The two-layer run
covers what only later layers do: the unfolded QKV product over the previous
layer's output and its (dim, 3 dim) rotation keys.

The digest hashes every frame's type, length and payload in order, so any
change to the bytes either party sends -- packing, key material, noise
sampling, garbling -- shows here.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest

from cipherformer.errors import ProtocolError
from cipherformer.helinear import ROWS, _PACKING_IDS
from cipherformer.model import ModelConfig, forward_fixed, gen_random
from cipherformer.protocol import (STAGE_OPEN, private_inference, run_client,
                                   run_pair, run_server, session)
from cipherformer.protocol.framing import (_HEADER, decode_fields,
                                           encode_fields, write_frame)

CFG = ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8, n_layers=1,
                  n_classes=2, w=20, f=9)
TOKENS = [1, 5, 0, 3]

DIGESTS = {
    "baseline": "337b7662c319b9e11b6ebdbfe1e976b7"
                "c4ee9820692d2a790f8e1e8ac0f66fd3",
    "opt1": "2f1b849dcd4a5a4ac1b6fcb229d24888"
            "8a51786b231fcfe871cec9c2cd5f87cb",
    "opt2": "bf051a0dde55363fe29f31c26fce9c7d"
            "6a5f196a41870933274499265e6ac88e",
}
TWO_LAYER_DIGEST = ("75366c9ae71c0db1a761158b23670c90"
                    "5be5e5194db4e6c44051bc9ad2a9af36")


@pytest.fixture(scope="module")
def weights():
    return gen_random(CFG, 7, scale=0.25)


@pytest.mark.parametrize("mode", list(DIGESTS))
def test_session_is_exact_and_pinned(weights, mode):
    server, client = private_inference(CFG, weights, TOKENS, mode,
                                       server_seed=11, client_seed=12)
    ref = forward_fixed(CFG, weights, TOKENS, mode)
    assert np.array_equal(client.logits, ref.logits)
    assert client.label == int(np.argmax(ref.logits))
    assert client.scale == ref.scale
    rounds = 5 + 24 * CFG.n_layers
    assert server.transcript.rounds == client.transcript.rounds == rounds
    digest = server.transcript.digest()
    assert client.transcript.digest() == digest
    assert digest == DIGESTS[mode]


def test_two_layer_session_is_exact_and_pinned():
    cfg = replace(CFG, n_layers=2)
    wts = gen_random(cfg, 7, scale=0.25)
    server, client = private_inference(cfg, wts, TOKENS, "opt2",
                                       server_seed=11, client_seed=12)
    ref = forward_fixed(cfg, wts, TOKENS, "opt2")
    assert np.array_equal(client.logits, ref.logits)
    assert server.transcript.rounds == client.transcript.rounds == 53
    digest = server.transcript.digest()
    assert client.transcript.digest() == digest
    assert digest == TWO_LAYER_DIGEST


def test_reused_client_key_blob_is_serialized_once(weights, monkeypatch):
    """A client seed that comes back reuses its cached key set and the key
    blob serialized with it; the ACCEPT frame stays byte for byte the same."""
    calls = []
    real = session.public_keys_to_bytes
    monkeypatch.setattr(session, "public_keys_to_bytes",
                        lambda km: calls.append(km) or real(km))
    session._cached_keys.cache_clear()
    for _ in range(2):
        _, client = private_inference(CFG, weights, TOKENS, "opt1",
                                      server_seed=11, client_seed=12)
        assert client.transcript.digest() == DIGESTS["opt1"]
    assert len(calls) == 1


class _EditFirstStageOpen:
    """Server end of the transport that rewrites the header of the first
    STAGE_OPEN frame's masked matrix before it leaves."""

    def __init__(self, conn, edit):
        self._conn, self._edit, self._done = conn, edit, False

    def send(self, data: bytes):
        _magic, ftype, _ln = _HEADER.unpack_from(data)
        if ftype != STAGE_OPEN or self._done:
            return self._conn.send(data)
        self._done = True
        fields = decode_fields(data[_HEADER.size:])
        head = bytearray(fields["menc"])
        self._edit(head)
        fields["menc"] = bytes(head)
        write_frame(self._conn, ftype, encode_fields(fields))

    def recv_exact(self, n: int) -> bytes:
        return self._conn.recv_exact(n)

    def close(self):
        self._conn.close()


def _caught(fn):
    def run(conn):
        try:
            return fn(conn)
        except ProtocolError as exc:
            conn.close()
            return exc
    return run


def _as_rows(head: bytearray):
    # (L x 3d colblocks in one ciphertext) -> a 1 x 3d row matrix: the same
    # ciphertext count, so it decodes, but the packing is not the plan's
    struct.pack_into("<BI", head, 0, _PACKING_IDS[ROWS], 1)
    struct.pack_into("<II", head, 13, 0, 0)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: struct.pack_into("<i", h, 9, 5), id="scale"),
    pytest.param(lambda h: struct.pack_into("<I", h, 13, 5), id="blocking"),
    pytest.param(_as_rows, id="packing"),
])
def test_client_rejects_stage_open_off_the_plan(weights, edit):
    """The first stage's masked QKV matrix arrives with a layout that still
    decodes but differs from the plan; the client refuses it with the same
    geometry check the server applies to the shares it receives."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(_EditFirstStageOpen(conn, edit), CFG,
                                        weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert "stage qkv_rescale payload has layout" in str(client_err)
    assert isinstance(server_err, ProtocolError)
