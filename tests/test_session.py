"""Whole two-party sessions on the tiny shape: exact logits, the fixed round
count and the transcript digest pinned for fixed seeds.  The two-layer run
covers what only later layers do: the unfolded QKV product over the previous
layer's output and its (dim, 3 dim) rotation keys.  One run of the larger
he-small shape covers products whose rows share ciphertexts.

The digest hashes every frame's type, length and payload in order, so any
change to the bytes either party sends -- packing, key material, noise
sampling, garbling -- shows here.
"""

import socket
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from cipherformer.errors import ParameterError, ProtocolError
from cipherformer.helinear import ROWS, _PACKING_IDS, rows_per_ct
from cipherformer.model import ModelConfig, forward_fixed, gen_random
from cipherformer.pahe import _pack_params
from cipherformer.protocol import (HELLO, MM_REPLY, STAGE_OPEN, SocketConn,
                                   memory_pair, private_inference, run_client,
                                   run_pair, run_server, session,
                                   session_geometry)
from cipherformer.protocol.framing import (_HEADER, decode_fields,
                                           encode_fields, pack_array, pack_u64,
                                           write_frame)

CFG = ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8, n_layers=1,
                  n_classes=2, w=20, f=9)
TOKENS = [1, 5, 0, 3]

DIGESTS = {
    "baseline": "3468e7e3eb72996d7138190ac8da21bb"
                "fedd5b04c3ddd33eae932d0d4625d41e",
    "opt1": "33ea7ba553a8c152d3373bdcc9fad709"
            "7c195f7e28e81913c0a19e9bd9fdffc8",
    "opt2": "9bacb6a41d344edc4f5ef49440bed137"
            "703cb9991547a05f56160b747cc0e2c7",
}
TWO_LAYER_DIGEST = ("0178c1a149671a43e0905516a4983be1"
                    "a1ffe3ec0ed9f661b226e6b042b2fee5")


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


def test_he_small_session_is_exact():
    """The HE-bound benchmark shape (two layers, n = 1024): the only session
    here whose products pack many matrix rows into one ciphertext -- the
    16 x 16 inner product's rows all share one 512-slot row."""
    cfg = ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32, n_layers=2,
                      n_classes=2)
    wts = gen_random(cfg, 5, scale=0.25)
    tokens = [3, 17, 0, 31, 8, 8, 22, 5]
    server, client = private_inference(cfg, wts, tokens, "opt2",
                                       server_seed=21, client_seed=22)
    assert rows_per_ct(server.geometry.params, cfg.dim) >= cfg.dim
    ref = forward_fixed(cfg, wts, tokens, "opt2")
    assert np.array_equal(client.logits, ref.logits)
    assert server.transcript.rounds == client.transcript.rounds == 53
    assert server.transcript.digest() == client.transcript.digest()


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


def _closing(party, conn, *args, **kwargs):
    """Run one party, then close its end, so a failure on one side ends
    the other side's reads instead of leaving them waiting."""
    try:
        return party(conn, *args, **kwargs)
    finally:
        conn.close()


def test_session_over_sockets_reproduces_the_digest(weights):
    """The transcript digest does not depend on the transport: the opt1
    session over a socket pair, both ends wrapped in SocketConn, sends
    exactly the pinned bytes."""
    ends = socket.socketpair()
    for sock in ends:
        sock.settimeout(60)  # a stuck party fails the test, never hangs it
    sconn, cconn = (SocketConn(sock) for sock in ends)
    with ThreadPoolExecutor(2) as pool:
        fs = pool.submit(_closing, run_server, sconn, CFG, weights, "opt1",
                         seed=11)
        fc = pool.submit(_closing, run_client, cconn, TOKENS, seed=12)
        server, client = fs.result(), fc.result()
    ref = forward_fixed(CFG, weights, TOKENS, "opt1")
    assert np.array_equal(client.logits, ref.logits)
    assert server.transcript.rounds == client.transcript.rounds == 29
    assert server.transcript.digest() == client.transcript.digest()
    assert client.transcript.digest() == DIGESTS["opt1"]


def test_socket_read_fails_when_the_peer_closes_mid_read():
    ours, peer = socket.socketpair()
    conn = SocketConn(ours)
    peer.sendall(b"abc")
    peer.close()
    with pytest.raises(ProtocolError, match="peer closed"):
        conn.recv_exact(8)
    conn.close()


class _EditFirstFrame:
    """One end of the transport that edits one field of the first frame of
    type `ftype` it sends, in place, before it leaves."""

    def __init__(self, conn, ftype, tag, edit):
        self._conn, self._ftype, self._tag = conn, ftype, tag
        self._edit, self._done = edit, False

    def send(self, data: bytes):
        _magic, ftype, _ln = _HEADER.unpack_from(data)
        if ftype != self._ftype or self._done:
            return self._conn.send(data)
        self._done = True
        fields = decode_fields(data[_HEADER.size:])
        blob = bytearray(fields[self._tag])
        self._edit(blob)
        fields[self._tag] = bytes(blob)
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
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, STAGE_OPEN, "menc", edit), CFG, weights,
            "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert "stage qkv_rescale payload has layout" in str(client_err)
    assert isinstance(server_err, ProtocolError)


def _reply_entries(blob: bytearray) -> list[int]:
    """Offsets of each length-prefixed ciphertext of a reply list."""
    (count,) = struct.unpack_from("<I", blob, 0)
    offs, off = [], 4
    for _ in range(count):
        offs.append(off)
        off += 4 + struct.unpack_from("<I", blob, off)[0]
    return offs


def _one_too_few(blob: bytearray):
    last = _reply_entries(blob)[-1]
    del blob[last:]
    struct.pack_into("<I", blob, 0, struct.unpack_from("<I", blob, 0)[0] - 1)


def _residue_past_its_prime(blob: bytearray):
    # the first residue of the first ciphertext's c0: past the list count,
    # the length, the magic, the parameter block, the noise estimate and
    # the polynomial length
    params = session_geometry(CFG, "opt1").params
    struct.pack_into("<Q", blob, 4 + 4 + 4 + len(_pack_params(params)) + 8 + 4,
                     params.q_primes[0])


@pytest.mark.parametrize("edit,error", [
    pytest.param(_one_too_few, "needs 9 ciphertexts, payload has 8",
                 id="one-too-few"),
    pytest.param(lambda b: b.__delitem__(slice(len(b) // 2, None)),
                 "polynomial length does not match", id="truncated"),
    pytest.param(lambda b: b.extend(b"\0"), "trailing bytes",
                 id="trailing-bytes"),
    pytest.param(_residue_past_its_prime, "residue not reduced",
                 id="residue-past-q"),
])
def test_server_rejects_malformed_mm_reply(weights, edit, error):
    """The first product reply arrives malformed; the server refuses it with
    a ProtocolError before it multiplies anything.  The count it accepts is
    the one its mask state implies (2k + 1 = 9 ciphertexts for the 4 x 4
    inner product of opt1).  A flip that still decodes to well-formed
    ciphertexts is not caught: this protocol is semi-honest, and such a
    reply only corrupts the client's own result."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, MM_REPLY, "mmrp", edit), TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert error in str(server_err)
    assert isinstance(client_err, ProtocolError)


@pytest.mark.parametrize("index,value", [
    pytest.param(1, 1 << 40, id="seq_len"),
    pytest.param(0, 1 << 12, id="vocab"),
    pytest.param(4, session.MAX_LAYERS + 1, id="n_layers"),
])
def test_client_refuses_oversized_hello_before_planning(monkeypatch, index,
                                                         value):
    """A forged hello asks for a ring past `MAX_RING_DEGREE` or more layers
    than `MAX_LAYERS`; the client refuses it in `session_geometry` before
    the plan, the ring or any key is sized."""
    monkeypatch.setattr(ModelConfig, "plan",
                        lambda *_: pytest.fail("planned a hostile hello"))
    dims = [CFG.vocab, CFG.seq_len, CFG.dim, CFG.ff_dim, CFG.n_layers,
            CFG.n_classes, CFG.w, CFG.f]
    dims[index] = value
    sconn, cconn = memory_pair()
    write_frame(sconn, HELLO, encode_fields({
        "mode": b"opt1", "dims": pack_array(np.array(dims, dtype=np.uint64)),
        "ring": pack_u64(512), "prim": pack_u64(0)}))
    with pytest.raises(ParameterError, match="limit"):
        run_client(cconn, TOKENS, seed=12)


def test_geometry_limits_admit_their_bounds():
    """A shape at exactly the ring limit and one with exactly `MAX_LAYERS`
    layers still size a session."""
    wide = replace(CFG, vocab=128, seq_len=64)
    assert session_geometry(wide, "opt1").n == session.MAX_RING_DEGREE
    deep = replace(CFG, n_layers=session.MAX_LAYERS)
    assert session_geometry(deep, "opt2").plan.encoders
