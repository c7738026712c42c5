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
from cipherformer.helinear import (COLBLOCKS, colblock_matmul,
                                   decrypt_matrix, encmatrix_from_bytes,
                                   encmatrix_to_bytes, matmul_mod,
                                   pack_colblocks, rows_per_ct)
from cipherformer.model import ModelConfig, forward_fixed, gen_random
from cipherformer.pahe import Evaluator, ct_nbytes, keygen
from cipherformer.protocol import (ACCEPT, HELLO, LOGITS, MM_OPEN, MM_REPLY,
                                   STAGE_OPEN, STAGE_SHARE, SocketConn,
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
    "baseline": "1b2389bbd6c7bf20088efa95334ba2e2"
                "d96f6be5abf12004c6fca9d55d854f20",
    "opt1": "2ec661c919ff601f2fb08509e854098a"
            "3b0c377b1849ecc559d3ca387d8f388b",
    "opt2": "4a1ab15936d300459649ba8c1abc5017"
            "c8de010d47eaad2b163d71127984e2bd",
}
TWO_LAYER_DIGEST = ("15023f02e3a9416bc9013dcd704375e1"
                    "52938e639be81c7fdcfd35ab6ff59b53")


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
    # five baby steps; giant steps -3..1 on the (8, 12) product, -2..0 on
    # (4, 8) and -1..1 on (8, 4): four keys, eight key switches
    assert server.geometry.steps == 5
    assert len(server.geometry.rotations) == 4
    assert server.transcript.counters["keyswitch"] == 8


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
    # the second layer's (4, 12) QKV product adds giant steps -3..-1
    assert len(server.geometry.rotations) == 4
    assert server.transcript.counters["keyswitch"] == 8 + 3 + 2 + 2


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
    # nine baby steps (the (32, 48) product spans 79 diagonals); giant
    # steps -6..3, each product rotating once per giant step it reaches:
    # 9 + 5 + 5 in layer 0, 7 + 5 + 5 in layer 1
    assert server.geometry.steps == 9
    assert len(server.geometry.rotations) == 9
    assert server.transcript.counters["keyswitch"] == 36


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
    type `ftype` it sends after `skip` others of that type, in place, before
    it leaves; with `tag` None the edit gets the frame's whole field dict
    instead."""

    def __init__(self, conn, ftype, tag, edit, skip=0):
        self._conn, self._ftype, self._tag = conn, ftype, tag
        self._edit, self._skip, self._done = edit, skip, False

    def send(self, data: bytes):
        _magic, ftype, _ln = _HEADER.unpack_from(data)
        if ftype != self._ftype or self._done:
            return self._conn.send(data)
        if self._skip:
            self._skip -= 1
            return self._conn.send(data)
        self._done = True
        fields = decode_fields(data[_HEADER.size:])
        if self._tag is None:
            self._edit(fields)
        else:
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


# the session parameters of every tampered session below (tiny, opt1)
PARAMS = session_geometry(CFG, "opt1").params
CT_BYTES = ct_nbytes(PARAMS)
# a ciphertext's first residue sits past its noise estimate
FIRST_RESIDUE = 8


def _one_too_few(blob: bytearray):
    del blob[-CT_BYTES:]


def _one_too_many(blob: bytearray):
    blob.extend(blob[-CT_BYTES:])


@pytest.mark.parametrize("edit", [
    pytest.param(_one_too_few, id="one-too-few"),
    pytest.param(_one_too_many, id="one-too-many"),
])
def test_client_rejects_stage_open_off_the_plan(weights, edit):
    """The first stage's masked QKV matrix arrives with one ciphertext too
    few or too many; the client refuses it, since the plan fixes exactly
    one (4 x 12 column blocks of 4 slots fit one ring row)."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, STAGE_OPEN, "menc", edit), CFG, weights,
            "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert "colblocks matrix of 4x12 needs 1 ciphertexts" in str(client_err)
    assert isinstance(server_err, ProtocolError)


def test_server_refuses_share_without_its_copies(weights):
    """attn_rescale feeds the first feed-forward product, so its share must
    carry the geometry's five baby-step copies; a client sending one copy
    is refused."""
    steps = session_geometry(CFG, "opt1").steps

    def first_copy(blob: bytearray):
        del blob[len(blob) // steps:]

    # opt1 shares in order: qkv_rescale, attn_inner, attn_rescale
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, STAGE_SHARE, "sh00", first_copy, skip=2),
            TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert "colblocks matrix of 4x4 needs 5 ciphertexts" in str(server_err)
    assert isinstance(client_err, ProtocolError)


def test_client_refuses_product_factor_off_the_plan(weights, monkeypatch):
    """The first product's masked factor K arrives with one ciphertext too
    many; the client refuses it against the layout of the K share it sent,
    before it decrypts either factor."""
    monkeypatch.setattr(session, "ctmm_client_round", lambda *_: pytest.fail(
        "decrypted a refused factor"))
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, MM_OPEN, "mmxx", _one_too_many), CFG,
            weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert "rows matrix of 4x4 needs 1 ciphertexts" in str(client_err)
    assert isinstance(server_err, ProtocolError)


def _residue_past_its_prime(blob: bytearray):
    # the first ciphertext of the list
    struct.pack_into("<Q", blob, FIRST_RESIDUE, PARAMS.q_primes[0])


@pytest.mark.parametrize("edit,error", [
    pytest.param(_one_too_few, "product reply needs 9 ciphertexts",
                 id="one-too-few"),
    pytest.param(lambda b: b.__delitem__(slice(len(b) // 2, None)),
                 "product reply needs 9 ciphertexts", id="truncated"),
    pytest.param(lambda b: b.extend(b"\0"),
                 "product reply needs 9 ciphertexts", id="trailing-bytes"),
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


@pytest.mark.parametrize("index,value,error", [
    pytest.param(1, 1 << 40, "limit", id="seq_len"),
    pytest.param(0, 1 << 12, "limit", id="vocab"),
    pytest.param(4, session.MAX_LAYERS + 1, "limit", id="n_layers"),
    pytest.param(5, 1, "two classes", id="n_classes"),
    pytest.param(5, session.MAX_CLASSES + 1, "limit",
                 id="n_classes_past_limit"),
    pytest.param(7, 40, "bad widths", id="widths"),
])
def test_client_refuses_oversized_hello_before_planning(monkeypatch, index,
                                                         value, error):
    """A forged hello asks for a ring past `MAX_RING_DEGREE`, more layers
    than `MAX_LAYERS`, more classes than the logits frame tags
    (`MAX_CLASSES`), or a shape `ModelConfig` refuses; the client refuses
    it before the plan, the ring or any key is sized.  The shape is the
    peer's, so the refusal is a ProtocolError, not a ParameterError."""
    monkeypatch.setattr(ModelConfig, "plan",
                        lambda *_: pytest.fail("planned a hostile hello"))
    dims = [CFG.vocab, CFG.seq_len, CFG.dim, CFG.ff_dim, CFG.n_layers,
            CFG.n_classes, CFG.w, CFG.f]
    dims[index] = value
    sconn, cconn = memory_pair()
    write_frame(sconn, HELLO, encode_fields({
        "mode": b"opt1", "dims": pack_array(np.array(dims, dtype=np.uint64)),
        "ring": pack_u64(512), "prim": pack_u64(0)}))
    with pytest.raises(ProtocolError, match=error):
        run_client(cconn, TOKENS, seed=12)


def test_geometry_limits_admit_their_bounds():
    """A shape at exactly the ring limit, one with exactly `MAX_LAYERS`
    layers and one with exactly `MAX_CLASSES` classes still size a
    session."""
    wide = replace(CFG, vocab=128, seq_len=64)
    assert session_geometry(wide, "opt1").n == session.MAX_RING_DEGREE
    deep = replace(CFG, n_layers=session.MAX_LAYERS)
    assert session_geometry(deep, "opt2").plan.encoders
    many = replace(CFG, n_classes=session.MAX_CLASSES)
    assert session_geometry(many, "opt1").cfg.n_classes == 99


class _NoSend:
    def send(self, data: bytes):
        pytest.fail("sent a frame")


def test_server_refuses_too_many_classes_before_hello(monkeypatch):
    """A model with more classes than the logits frame tags is the server
    caller's own error: a ParameterError before the plan and before HELLO,
    not after a whole session."""
    cfg = replace(CFG, n_classes=session.MAX_CLASSES + 1)
    wts = gen_random(cfg, 7, scale=0.25)
    monkeypatch.setattr(ModelConfig, "plan",
                        lambda *_: pytest.fail("planned a refused shape"))
    with pytest.raises(ParameterError, match="100 classes exceed the limit"):
        run_server(_NoSend(), cfg, wts, "opt1", seed=11)


def _refused(party, conn, *args, **kwargs):
    try:
        party(conn, *args, **kwargs)
    except ParameterError as exc:
        conn.close()
        return exc
    pytest.fail("party accepted a bad argument")


def test_client_bad_tokens_stay_parameter_errors(weights):
    """Tokens are the caller's own argument: a wrong count is a
    ParameterError, raised once the server's shape is known."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        lambda conn: _refused(run_client, conn, TOKENS[:3], seed=12))
    assert isinstance(client_err, ParameterError)
    assert "need 4 tokens" in str(client_err)
    assert isinstance(server_err, ProtocolError)


def _residue_past_q0(fields):
    blob = bytearray(fields["lg00"])
    struct.pack_into("<Q", blob, FIRST_RESIDUE, PARAMS.q_primes[0])
    fields["lg00"] = bytes(blob)


@pytest.mark.parametrize("edit,error", [
    pytest.param(lambda f: f.pop("lg01"), "logits frame has fields",
                 id="missing-class"),
    pytest.param(lambda f: f.__setitem__("lg02", f["lg01"]),
                 "logits frame has fields", id="extra-class"),
    pytest.param(lambda f: f.__setitem__("lg00", f["lg00"][:-9]),
                 "ciphertext has", id="truncated"),
    pytest.param(_residue_past_q0, "residue not reduced", id="residue-past-q0"),
])
def test_client_refuses_malformed_logits(weights, edit, error):
    """The logits frame must hold exactly `nlgt` and one well-formed
    ciphertext per class.  A flip that still decodes is not caught: the
    protocol is semi-honest, and such a frame only changes the client's
    own logits."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, LOGITS, None, edit), CFG, weights, "opt1",
            seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert error in str(client_err)
    assert not isinstance(server_err, Exception)


# each Galois key of a key blob is its two (k, k, n) digit stacks
KEY_BYTES = 2 * 8 * PARAMS.k * PARAMS.k * PARAMS.n


def _one_key_too_few(blob: bytearray):
    del blob[-KEY_BYTES:]


def _one_key_too_many(blob: bytearray):
    blob.extend(blob[-KEY_BYTES:])


@pytest.mark.parametrize("edit,error", [
    pytest.param(_one_key_too_few, "the session's 4 Galois keys need",
                 id="one-too-few"),
    pytest.param(_one_key_too_many, "the session's 4 Galois keys need",
                 id="one-too-many"),
])
def test_server_refuses_key_blob_off_the_geometry(weights, edit, error):
    """The server accepts a key for exactly each Galois element of the
    geometry's giant steps, no more and no fewer."""
    session._parse_public_keys.cache_clear()
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, ACCEPT, "pkey", edit), TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert error in str(server_err)
    assert isinstance(client_err, ProtocolError)


@pytest.mark.parametrize("cfg,steps,keys", [
    pytest.param(CFG, 5, 4, id="tiny"),
    pytest.param(replace(CFG, n_layers=2), 5, 4, id="tiny-two-layer"),
    pytest.param(ModelConfig(vocab=8, seq_len=16, dim=4, ff_dim=8,
                             n_layers=1, n_classes=2), 5, 4, id="gc-l16"),
    pytest.param(ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32,
                             n_layers=2, n_classes=2), 9, 9, id="he-small"),
])
def test_geometry_rotation_keys_are_exactly_the_products_use(cfg, steps,
                                                             keys):
    """Every plain-weight product shape of a session, run with a key set of
    exactly `geom.rotations` and inputs of `geom.steps` copies, is exact,
    never asks for a missing key, and between them the products use every
    key."""
    geom = session_geometry(cfg, "opt1")
    assert (geom.steps, len(geom.rotations)) == (steps, keys)
    km = keygen(geom.params, seed=3, rotations=geom.rotations)
    assert tuple(sorted(km.galois)) == geom.galois
    ev = Evaluator(km.public(), seed=4)
    used = set()
    rotate = ev.col_rotate_many

    def recording(cts, rs):
        used.update(r % geom.params.row_size for r in rs)
        return rotate(cts, rs)

    ev.col_rotate_many = recording
    rng = np.random.default_rng(5)
    L = cfg.seq_len
    for d_in, d_out in geom.products:
        X = rng.integers(0, geom.p, (L, d_in), dtype=np.uint64)
        W = rng.integers(1, geom.p, (d_in, d_out), dtype=np.uint64)
        out = colblock_matmul(ev, pack_colblocks(ev, X, L, steps=geom.steps), W)
        assert np.array_equal(decrypt_matrix(km, out), matmul_mod(X, W, geom.p))
    assert used - {0} == set(geom.rotations)


def test_geometry_check_compares_copies():
    """A product input must carry the geometry's baby-step copies and a
    stage input exactly one: the attn_rescale share and the ff_out input
    are both 4 x 4 column blocks, and each layout refuses the other's
    payload by its ciphertext count."""
    geom = session_geometry(CFG, "opt1")
    km = keygen(geom.params, seed=3)
    ev = Evaluator(km.public(), seed=4)
    X = np.zeros((CFG.seq_len, CFG.dim), dtype=np.uint64)
    one = encmatrix_to_bytes(pack_colblocks(ev, X, CFG.seq_len))
    many = encmatrix_to_bytes(pack_colblocks(ev, X, CFG.seq_len,
                                             steps=geom.steps))
    shape = (CFG.seq_len, CFG.dim)
    (share,) = geom.stage_shares(0, geom.plan.stage(0, "attn_rescale"))
    stage_in = geom.stage_input(geom.plan.stage(0, "ff_out"))
    assert share == geom.layout(COLBLOCKS, shape, geom.steps)
    assert stage_in == geom.layout(COLBLOCKS, shape)
    assert encmatrix_from_bytes(many, geom.params, share).steps == geom.steps
    assert encmatrix_from_bytes(one, geom.params, stage_in).steps == 1
    with pytest.raises(ProtocolError, match="needs 5 ciphertexts"):
        encmatrix_from_bytes(one, geom.params, share)
    with pytest.raises(ProtocolError, match="needs 1 ciphertexts"):
        encmatrix_from_bytes(many, geom.params, stage_in)
    assert [geom.share_steps(0, name) for name in
            ("qkv_rescale", "attn_rescale", "ff_hidden", "ff_out")] == \
        [1, geom.steps, geom.steps, 1]
    deep = session_geometry(replace(CFG, n_layers=2), "opt1")
    assert deep.share_steps(0, "ff_out") == deep.steps
    assert deep.share_steps(1, "ff_out") == 1
