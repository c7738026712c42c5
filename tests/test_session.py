"""Whole two-party sessions on the tiny shape: exact logits, the fixed round
count and the transcript digest pinned for fixed seeds.  The two-layer run
covers what only later layers do: the unfolded QKV product over the previous
layer's output and its (dim, 3 dim) rotation keys.  One run of the larger
he-small shape covers products whose rows share ciphertexts.

The digest is read off the connection: a tap on each party's end hashes
every frame's type, length and payload in order (`_Tap`), so any change to
the bytes either party sends -- packing, key material, noise sampling,
garbling -- shows here.
"""

import hashlib
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from cipherformer.errors import ParameterError, ProtocolError
from cipherformer.gc import garble as garble_module
from cipherformer.gc.ot import COLUMNS, LAMBDA, POINT_BYTES
from cipherformer import helinear, model, pahe
from cipherformer.helinear import (COLBLOCKS, ROWS, Layout, colblock_matmul,
                                   decrypt_matrix, encmatrix_from_bytes,
                                   encmatrix_to_bytes, layout_vectors,
                                   matmul_mod, pack_colblocks, rows_per_ct)
from cipherformer.model import (ModelConfig, forward_fixed, gen_random,
                               layer_weights)
from cipherformer.pahe import Evaluator, ct_nbytes, keygen
from cipherformer.protocol import (ACCEPT, CLIENT_SETUP, FRAME_NAMES, HELLO,
                                   LOGITS, MM_OPEN, MM_REPLY, OT_BASE,
                                   STAGE_OPEN, STAGE_OT_REQ, STAGE_OT_RESP,
                                   STAGE_SHARE, SocketConn,
                                   memory_pair, private_inference, run_client,
                                   run_pair, run_server, session,
                                   session_geometry, tcp_accept, tcp_dial,
                                   tcp_listen, transport)
from cipherformer.protocol.framing import _HEADER, write_frame
from cipherformer.stages import MODES, affine_stage_oracle

CFG = ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8, n_layers=1,
                  n_classes=2, w=20, f=9)
TOKENS = [1, 5, 0, 3]
# every session of CFG, first or resumed
ROUNDS = 5 + 24 * CFG.n_layers
# an opt1 session's accept: the SHA-256 of the key blob, point A, then, if
# the client resumes, the stream position (8) and the outcome's name (16)
_OPT1 = session_geometry(CFG, "opt1")
KEY_BLOB_BYTES = pahe.key_blob_nbytes(_OPT1.params, len(_OPT1.galois))
DIGEST_BYTES = 32
REQUEST_BYTES = 8 + 16
# ot-base: the answer byte (1 if the server wants the key blob), then, if
# the server runs base OT, the 128 points B
ANSWER = 1
POINTS_B = ANSWER + LAMBDA * POINT_BYTES

DIGESTS = {
    "baseline": "81e9ea5f1fe595d57de7b864fc228087"
                "fd99d7761a0142a3b6fee53244c5bfac",
    "opt1": "0e7f27aa6754b6859d35395d27a1c30d"
            "abbd5233bc1c8fe27410aaa6f3a9a162",
    "opt2": "aff514cc66dce77874b5394d46d4744d"
            "4d26ecf52bc0e2ac8dbedc6b4ccee07c",
}
TWO_LAYER_DIGEST = ("e74d13367049c598b2fbc96131c84471"
                    "e7bc684923965b60e6790316822e3ce3")
# the same seeds' second session, which resumes the first one's extension
RESUMED_DIGESTS = {
    "baseline": "497ed7aa9f04f3e3df2304be90c01f38"
                "789c4e1f8dca86b8817cb4ade3f819e7",
    "opt1": "1bd8a8ab455bfbd99185ae6843fa981c"
            "aa94e30f7a633604e4c4a3300fc20b9c",
    "opt2": "2ae516d9e4d6a1bdc80604e0d9afde42"
            "7dee079c13bd78619e1231856ff55529",
}


def _forget_key_sets():
    """Empty the party stores: every key set, parsed key set and base-OT
    outcome on both sides, so the next session of any seed is a first
    one."""
    for store in (session._CLIENT_KEYS, session._SERVER_KEYS,
                  session._SERVER_OT):
        store._held.clear()


@pytest.fixture(autouse=True)
def forget_key_sets():
    """Every test starts from no key set and no base-OT outcome, so each
    pinned digest is that of a first session whatever ran before it."""
    _forget_key_sets()


@pytest.fixture
def limit(monkeypatch):
    """Sets a session limit for one test.  Geometries are kept per process,
    so those sized under any other value of the limit are dropped each time
    it is set and when the test ends."""
    def set_limit(name, value):
        monkeypatch.setattr(session, name, value)
        session.session_geometry.cache_clear()
    yield set_limit
    monkeypatch.undo()
    session.session_geometry.cache_clear()


@pytest.fixture(scope="module")
def weights():
    return gen_random(CFG, 7, scale=0.25)


class _Tap:
    """One end of the transport that hashes every frame its party sends or
    receives, in the order the party does: per frame its type (one byte),
    its payload length (4 bytes, little-endian) and its payload.  Both
    parties of a session see the same frames in the same order, so their
    taps agree on the session's digest.  `frames` keeps each frame as its
    type and payload."""

    def __init__(self, conn):
        self._conn = conn
        self._hash = hashlib.sha256()
        self._unread = {"sent": bytearray(), "received": bytearray()}
        self.frames: list[tuple[int, bytes]] = []

    def send(self, data: bytes):
        self._conn.send(data)
        self._feed("sent", data)

    def recv_exact(self, n: int) -> bytes:
        data = self._conn.recv_exact(n)
        self._feed("received", data)
        return data

    def close(self):
        self._conn.close()

    def _feed(self, direction: str, data: bytes):
        buf = self._unread[direction]
        buf += data
        while len(buf) >= _HEADER.size:
            _magic, ftype, length = _HEADER.unpack_from(buf)
            end = _HEADER.size + length
            if len(buf) < end:
                return
            payload = bytes(buf[_HEADER.size:end])
            self._hash.update(bytes([ftype]) + length.to_bytes(4, "little"))
            self._hash.update(payload)
            self.frames.append((ftype, payload))
            del buf[:end]

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _tapped(server_fn, client_fn):
    """`run_pair` with a `_Tap` on each party's end: the server's and the
    client's results and the session's digest, which both taps give."""
    taps = {}

    def tapped(role, fn):
        def run(conn):
            taps[role] = _Tap(conn)
            return fn(taps[role])
        return run

    server, client = run_pair(tapped("server", server_fn),
                              tapped("client", client_fn))
    digest = taps["server"].hexdigest()
    assert taps["client"].hexdigest() == digest
    return server, client, digest


def _tapped_inference(cfg, weights, tokens, mode, *, server_seed,
                      client_seed):
    """`private_inference` with a `_Tap` on each party's end."""
    return _tapped(
        lambda conn: run_server(conn, cfg, weights, mode, seed=server_seed),
        lambda conn: run_client(conn, tokens, seed=client_seed))


@pytest.mark.parametrize("mode", list(DIGESTS))
def test_session_is_exact_and_pinned(weights, mode):
    server, client, digest = _tapped_inference(CFG, weights, TOKENS, mode,
                                               server_seed=11, client_seed=12)
    ref = forward_fixed(CFG, weights, TOKENS, mode)
    assert np.array_equal(client.logits, ref.logits)
    assert client.label == int(np.argmax(ref.logits))
    assert client.scale == ref.scale
    assert server.transcript.rounds == client.transcript.rounds == ROUNDS
    assert digest == DIGESTS[mode]
    # five baby steps; giant steps -3..1 on the (8, 12) product, -2..0 on
    # (4, 8) and -1..1 on (8, 4): four keys, eight key switches
    assert server.geometry.steps == 5
    assert len(server.geometry.rotations) == 4
    assert server.transcript.counters["keyswitch"] == 8


def test_two_layer_session_is_exact_and_pinned():
    cfg = replace(CFG, n_layers=2)
    wts = gen_random(cfg, 7, scale=0.25)
    server, client, digest = _tapped_inference(cfg, wts, TOKENS, "opt2",
                                               server_seed=11, client_seed=12)
    ref = forward_fixed(cfg, wts, TOKENS, "opt2")
    assert np.array_equal(client.logits, ref.logits)
    assert server.transcript.rounds == client.transcript.rounds == 53
    assert digest == TWO_LAYER_DIGEST
    # the second layer's (4, 12) QKV product adds giant steps -3..-1
    assert len(server.geometry.rotations) == 4
    assert server.transcript.counters["keyswitch"] == 8 + 3 + 2 + 2


def test_no_garbling_tweak_repeats_in_a_session(monkeypatch):
    """Every garbling of a session runs under the one offset the OT fixed,
    so no hash tweak may serve two of them.  Over a tiny two-layer session,
    whose layers garble the same circuits and whose QKV stage garbles one
    circuit for three groups, the garbler hashes each wire's label pair
    under its own 128-bit tweak -- AND-gate halves and B2A pads alike --
    and never under one it used before; the evaluator hashes under exactly
    the same tweaks."""
    cfg = replace(CFG, n_layers=2)
    wts = gen_random(cfg, 7, scale=0.25)
    party = threading.local()
    seen = {"server": [], "client": []}
    fixed_key_hash = garble_module._hash

    def recording(aes, doubled, tweaks):
        seen[party.role].append(tweaks.reshape(-1, 2).copy())
        return fixed_key_hash(aes, doubled, tweaks)

    def as_party(role, fn):
        def run(conn):
            party.role = role
            return fn(conn)
        return run

    monkeypatch.setattr(garble_module, "_hash", recording)
    _, client = run_pair(
        as_party("server", lambda c: run_server(c, cfg, wts, "opt2",
                                                seed=11)),
        as_party("client", lambda c: run_client(c, TOKENS, seed=12)))
    assert np.array_equal(client.logits,
                          forward_fixed(cfg, wts, TOKENS, "opt2").logits)
    garbler, evaluator = (np.concatenate(seen[r]) for r in ("server",
                                                            "client"))
    assert len(np.unique(garbler, axis=0)) == len(garbler) > 0
    assert np.array_equal(np.unique(evaluator, axis=0),
                          np.unique(garbler, axis=0))
    assert len(evaluator) == len(garbler)


def _seed_words(seeds) -> np.ndarray:
    return np.concatenate(seeds).view("<u8").ravel()


def _raw_windows(state: dict, words: int) -> np.ndarray:
    """Every 8-byte window at a 4-byte offset of the next `words` 64-bit
    outputs of a PCG64 bit generator in `state`."""
    bits = np.random.PCG64()
    bits.state = state
    half = bits.random_raw(words).view("<u4").astype(np.uint64)
    return half[:-1] | half[1:] << np.uint64(32)


def test_seeds_never_repeat_and_the_server_parses_what_the_client_holds(
        monkeypatch):
    """Every uniform half the client sends travels as a seed.  Over a tiny
    two-layer session:
      * no seed repeats across the client's fresh ciphertexts and Galois
        keys -- a repeated a would let the server subtract two c0's and
        keep the difference of two plaintexts under small noise;
      * no 8 bytes of a seed are raw output of the key set's generator,
        from where it stood when it drew the secret key or when the
        evaluator took it to draw the errors;
      * the server expands exactly the client's seeds, and every batch it
        parses equals the client's (B, 2, k, n) array bit for bit."""
    cfg = replace(CFG, n_layers=2)
    wts = gen_random(cfg, 7, scale=0.25)
    party = threading.local()
    seeds = {"server": [], "client": []}
    arrays = {"server": [], "client": []}
    gen_states = []
    real_expand, real_keygen = pahe.expand_seeds, session.keygen
    real_init, real_encrypt = Evaluator.__init__, Evaluator.encrypt_many

    def expand(params, sd, lead=()):
        seeds[party.role].append(np.array(sd))
        return real_expand(params, sd, lead)

    def keygen_(params, seed=None, rotations=()):
        gen_states.append(seed.bit_generator.state)
        return real_keygen(params, seed, rotations)

    def init(self, keys, seed=None):
        if keys.has_secret:
            gen_states.append(seed.bit_generator.state)
        real_init(self, keys, seed)

    def encrypt(self, vecs):
        out = real_encrypt(self, vecs)
        arrays["client"].append(out.data)
        return out

    def parsing(fn):
        def parse(*args, fresh):
            out = fn(*args, fresh=fresh)
            if party.role == "server":
                arrays["server"].append(out.data)
            return out
        return parse

    monkeypatch.setattr(pahe, "expand_seeds", expand)
    monkeypatch.setattr(session, "keygen", keygen_)
    monkeypatch.setattr(Evaluator, "__init__", init)
    monkeypatch.setattr(Evaluator, "encrypt_many", encrypt)
    for module in (helinear, session):
        monkeypatch.setattr(module, "cts_from_bytes",
                            parsing(module.cts_from_bytes))

    def as_party(role, fn):
        def run(conn):
            party.role = role
            return fn(conn)
        return run

    server, client = run_pair(
        as_party("server", lambda c: run_server(c, cfg, wts, "opt2",
                                                seed=11)),
        as_party("client", lambda c: run_client(c, TOKENS, seed=12)))
    assert np.array_equal(client.logits,
                          forward_fixed(cfg, wts, TOKENS, "opt2").logits)
    # four Galois keys and 47 fresh ciphertexts: per layer two 4 x 4 x 4
    # products of k + 1 = 5 reply ciphertexts, and five baby-step copies in
    # three ciphertexts for the input and each product share
    sent = np.concatenate(seeds["client"])
    assert len(sent) == (len(server.geometry.galois)
                         + client.transcript.counters["encrypt"]) == 51
    assert len(np.unique(sent, axis=0)) == len(sent)
    assert np.array_equal(np.concatenate(seeds["server"]), sent)
    assert np.array_equal(np.concatenate(arrays["server"]),
                          np.concatenate(arrays["client"]))
    assert len(gen_states) == 2
    for state in gen_states:
        assert not np.isin(_seed_words(seeds["client"]),
                           _raw_windows(state, 1 << 17)).any()


def test_he_small_session_is_exact():
    """The HE-bound benchmark shape (two layers, n = 512): the only session
    here whose products pack many matrix rows into one ciphertext -- the
    16 x 16 inner product's rows all share one 256-slot row."""
    cfg = ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32, n_layers=2,
                      n_classes=2)
    wts = gen_random(cfg, 5, scale=0.25)
    tokens = [3, 17, 0, 31, 8, 8, 22, 5]
    # both parties' taps give one digest
    server, client, _ = _tapped_inference(cfg, wts, tokens, "opt2",
                                          server_seed=21, client_seed=22)
    assert rows_per_ct(server.geometry.params, cfg.dim) >= cfg.dim
    ref = forward_fixed(cfg, wts, tokens, "opt2")
    assert np.array_equal(client.logits, ref.logits)
    assert server.transcript.rounds == client.transcript.rounds == 53
    # 8-slot column blocks, 32 to a 256-slot row: the (32, 48) product
    # spans 32 + 32 - 1 = 63 diagonals, so eight baby steps; a giant step
    # is 8 blocks, 64 slots, so the keys are 64, 128 and 192, and each
    # product rotates once per output ciphertext and nonzero amount:
    # 6 + 3 + 3 in layer 0, 6 + 3 + 3 in layer 1
    assert server.geometry.steps == 8
    assert server.geometry.rotations == (64, 128, 192)
    assert server.transcript.counters["keyswitch"] == 24


def test_reused_client_key_blob_is_serialized_once(weights, monkeypatch):
    """A client seed that comes back reuses its cached key set and the key
    blob serialized with it.  Both accepts name the key set by the same
    digest, the SHA-256 of the blob the first session's client-setup
    carries, and the second session resumes the first one's extension."""
    calls, accepts, setups = [], [], []
    real = session.public_keys_to_bytes
    monkeypatch.setattr(session, "public_keys_to_bytes",
                        lambda km: calls.append(km) or real(km))
    for pinned in (DIGESTS["opt1"], RESUMED_DIGESTS["opt1"]):
        *_, digest = _tapped(
            lambda conn: run_server(conn, CFG, weights, "opt1", seed=11),
            lambda conn: run_client(_EditFirstFrame(_EditFirstFrame(
                conn, ACCEPT, lambda b: accepts.append(bytes(b))),
                CLIENT_SETUP, lambda b: setups.append(bytes(b))),
                TOKENS, seed=12))
        assert digest == pinned
    assert len(calls) == 1
    blob = setups[0][:KEY_BLOB_BYTES]
    assert (accepts[0][:DIGEST_BYTES] == accepts[1][:DIGEST_BYTES]
            == hashlib.sha256(blob).digest())
    assert len(setups[1]) == len(setups[0]) - KEY_BLOB_BYTES - 32 * LAMBDA


def _no_base_ot(*_, **__):
    pytest.fail("ran a base OT")


@pytest.mark.parametrize("mode", list(DIGESTS))
def test_resumed_session_is_exact_and_pinned(weights, monkeypatch, mode):
    """A client's second session with its key set runs no base OT and
    sends no key blob: accept carries the blob's digest and point A and
    then a resume request, 24 bytes more, ot-base is the answer byte alone
    but still a round, and client-setup drops the key blob and the
    128 x 32 bytes of tree-level messages.  Every other frame keeps its
    size, and the logits are exact."""
    first, first_client = private_inference(CFG, weights, TOKENS, mode,
                                            server_seed=11, client_seed=12)
    monkeypatch.setattr(session.BaseOtSender, "keys", _no_base_ot)
    monkeypatch.setattr(session, "BaseOtReceiver", _no_base_ot)
    server, client, digest = _tapped_inference(CFG, weights, TOKENS, mode,
                                               server_seed=11, client_seed=12)
    assert np.array_equal(client.logits,
                          forward_fixed(CFG, weights, TOKENS, mode).logits)
    assert server.transcript.rounds == client.transcript.rounds == ROUNDS
    assert digest == RESUMED_DIGESTS[mode]
    sizes = _sizes(server)
    assert sizes == _resumed_sizes(first)
    assert sizes[1] == ("accept", DIGEST_BYTES + POINT_BYTES + REQUEST_BYTES)
    assert first.transcript.frames[2].nbytes == POINTS_B
    assert (first_client.transcript.bytes_sent
            - client.transcript.bytes_sent) == (
        KEY_BLOB_BYTES + LAMBDA * 32 - REQUEST_BYTES)
    assert (first.transcript.bytes_sent
            - server.transcript.bytes_sent) == LAMBDA * POINT_BYTES


def _position(blob: bytearray) -> int:
    return int.from_bytes(blob[:8], "little")


def _position_plus_one(blob: bytearray):
    blob[:8] = (_position(blob) + 1).to_bytes(8, "little")


def _other_outcome(blob: bytearray):
    blob[8] ^= 1


def _exact(weights, mode="opt1"):
    return forward_fixed(CFG, weights, TOKENS, mode).logits


def _ot_base_sizes(result) -> list[int]:
    return [f.nbytes for f in result.transcript.frames if f.ftype == OT_BASE]


def _sizes(result) -> list[tuple[str, int]]:
    return [(f.name, f.nbytes) for f in result.transcript.frames]


def _resumed_sizes(first) -> list[tuple[str, int]]:
    """The frame sizes of a session that resumes at a server holding its
    keys, from those of a first session: accept carries the resume request,
    ot-base is the answer byte alone and client-setup drops the key blob
    and the tree-level sums."""
    want = _sizes(first)
    want[1] = ("accept", want[1][1] + REQUEST_BYTES)
    want[2] = ("ot-base", ANSWER)
    want[3] = ("client-setup", want[3][1] - KEY_BLOB_BYTES - LEVEL_BYTES)
    return want


def _tapped_client(weights, client_seed, server_wrap=lambda conn: conn,
                   client_wrap=lambda conn: conn):
    """One tiny opt1 session at server seed 11, the client's end tapped
    (`_Tap`) under `client_wrap`, the server's end under `server_wrap`:
    the client's result, or the ProtocolError it ended in, and its tap."""
    taps = []

    def client(conn):
        taps.append(_Tap(conn))
        return run_client(client_wrap(taps[0]), TOKENS, seed=client_seed)

    _, out = run_pair(
        _caught(lambda conn: run_server(server_wrap(conn), CFG, weights,
                                        "opt1", seed=11)),
        _caught(client))
    return out, taps[0]


def _draws(tap) -> dict[str, set[bytes]]:
    """What a client's tapped frames of one session show of its draws: the
    c1 seed of every fresh ciphertext it sent (client-setup's input, every
    mm-reply and every stage-share), its base-OT point A, if its session
    ran base OT the 32 bytes of sums of each GGM tree level, and each
    stage-ot-req, the OT choice bits masking the client's stage bits (the
    same in two sessions of the same tokens, weights and server seed)."""
    draws = {"c1 seed": set(), "point A": set(), "tree level": set(),
             "ot request": set()}
    fresh = []
    for ftype, payload in tap.frames:
        if ftype == ACCEPT:
            draws["point A"].add(payload[DIGEST_BYTES:][:POINT_BYTES])
        elif ftype == OT_BASE:
            answer = payload
        elif ftype == CLIENT_SETUP:
            levels = payload[KEY_BLOB_BYTES * answer[0]:][
                :LEVEL_BYTES * (len(answer) == POINTS_B)]
            draws["tree level"].update(levels[i:i + 32]
                                       for i in range(0, len(levels), 32))
            fresh.append(payload[-_OPT1.nbytes(_OPT1.input_layout,
                                               fresh=True):])
        elif ftype in (MM_REPLY, STAGE_SHARE):
            fresh.append(payload)
        elif ftype == STAGE_OT_REQ:
            draws["ot request"].add(payload)
    cts = np.frombuffer(b"".join(fresh), np.uint8).reshape(-1, FRESH_CT_BYTES)
    draws["c1 seed"].update(bytes(ct[-pahe.SEED_BYTES:]) for ct in cts)
    return draws


def _share_no_draw(*taps):
    """No two of the tapped client sessions share a c1 seed, a point A, a
    tree level's sums or a stage's OT choice bits."""
    draws = [_draws(tap) for tap in taps]
    for kind in draws[0]:
        for a, b in combinations(draws, 2):
            shared = len(a[kind] & b[kind])
            assert shared == 0, f"two sessions share {shared} x {kind}"


@pytest.mark.parametrize("edit,forget", [
    pytest.param(lambda b: None, True, id="unknown-key-set"),
    pytest.param(_position_plus_one, False, id="off-by-one"),
    pytest.param(_other_outcome, False, id="other-outcome"),
])
def test_refused_resume_request_falls_back_to_base_ot(weights, edit,
                                                      forget):
    """A resume request for a key set the server holds no outcome for, at a
    position one past its own, or naming an outcome it does not hold, is
    answered with the 128 points B for the point A the same accept carries,
    and the session goes on as the first session did, in the same rounds
    and exact; accept is longer, by the request, and client-setup shorter,
    by the key blob the server holds.  That base OT draws on from the key
    set's generator, so the next session resumes its outcome in a resumed
    session's frame sizes, exact in the same rounds, and no two of the
    three sessions share a draw."""
    first, first_tap = _tapped_client(weights, 12)
    if forget:
        session._SERVER_OT._held.clear()
    client, fallback = _tapped_client(
        weights, 12, client_wrap=lambda conn: _EditFirstFrame(
            conn, ACCEPT, edit, slice(-REQUEST_BYTES, None)))
    assert np.array_equal(client.logits, _exact(weights))
    assert client.transcript.rounds == ROUNDS
    want = _sizes(first)
    want[1] = ("accept", want[1][1] + REQUEST_BYTES)
    want[3] = ("client-setup", want[3][1] - KEY_BLOB_BYTES)
    assert _sizes(client) == want
    resumed, resumed_tap = _tapped_client(weights, 12)
    assert np.array_equal(resumed.logits, _exact(weights))
    assert resumed.transcript.rounds == ROUNDS
    assert _sizes(resumed) == _resumed_sizes(first)
    _share_no_draw(first_tap, fallback, resumed_tap)


@pytest.mark.parametrize("point", [
    pytest.param(bytes([5]) + bytes(range(32)), id="prefix-5"),
    pytest.param(bytes(POINT_BYTES), id="all-zero"),
])
def test_server_refuses_a_resume_request_whose_point_is_off_the_curve(
        weights, point):
    """A resuming server never uses point A, but still decodes it: a
    resumed accept whose A is no compressed P-256 point is a ProtocolError
    before ot-base, and the client sees the connection close.  The client
    then forgets its outcome, so its next session runs a fresh base OT; at
    a server that holds no parsed keys either, it sends the first
    session's frame sizes, exact in the same rounds, and shares no draw
    with it."""
    first, first_tap = _tapped_client(weights, 12)

    def off_curve(blob: bytearray):
        blob[:POINT_BYTES] = point

    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, ACCEPT, off_curve,
                            slice(-REQUEST_BYTES - POINT_BYTES, None)),
            TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert "base-OT point refused" in str(server_err)
    assert isinstance(client_err, ProtocolError)
    assert "peer closed" in str(client_err)
    session._SERVER_KEYS._held.clear()
    client, tap = _tapped_client(weights, 12)
    assert np.array_equal(client.logits, _exact(weights))
    assert client.transcript.rounds == ROUNDS
    assert _sizes(client) == _sizes(first)
    _share_no_draw(first_tap, tap)


@pytest.mark.parametrize("resumed,edit", [
    pytest.param(True, lambda b: b.__delitem__(-1), id="request-short"),
    pytest.param(True, lambda b: b.append(0), id="request-long"),
    pytest.param(False, lambda b: b.extend(bytes(REQUEST_BYTES // 2)),
                 id="half-a-request"),
])
def test_accept_of_neither_length_is_refused_unread(weights, resumed, edit):
    """accept is the key set's digest and point A, with or without the
    24-byte resume request; one byte short of or past the request, or half of
    one, is refused by the server from the header alone, before it reads
    one payload byte."""
    if resumed:
        private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                          client_seed=12)
    counting = {}

    def server(conn):
        counting["conn"] = _Counting(conn)
        return run_server(counting["conn"], CFG, weights, "opt1", seed=11)

    server_err, client_err = run_pair(
        _caught(server),
        _caught(lambda conn: run_client(_EditFirstFrame(conn, ACCEPT, edit),
                                        TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert "accept frame of" in str(server_err)
    assert counting["conn"].read == _HEADER.size
    assert isinstance(client_err, ProtocolError)


def test_client_refuses_an_answer_alone_after_no_request(weights):
    """An ot-base of the answer byte alone resumes a request; after an
    accept with none, the client refuses it from the header."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, OT_BASE, lambda b: b.__delitem__(
                slice(ANSWER, None))),
            CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert f"ot-base frame of {ANSWER} bytes" in str(client_err)
    assert isinstance(server_err, ProtocolError)


def test_client_refuses_any_other_answer_to_a_resume_request(weights):
    """After a resume request, ot-base is the answer byte, alone or before
    the 128 points B; a server that answers with nothing, the byte and one
    point or one byte past the points is refused by the client from the
    header alone, having read the hello and not one byte of ot-base's
    payload."""
    private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                      client_seed=12)
    for length in (0, ANSWER + POINT_BYTES, POINTS_B + 1):
        def answer(blob: bytearray):
            blob[:] = bytes(length)

        counting = {}

        def client(conn):
            counting["conn"] = _Counting(conn)
            return run_client(counting["conn"], TOKENS, seed=12)

        server_err, client_err = run_pair(
            _caught(lambda conn: run_server(
                _EditFirstFrame(conn, OT_BASE, answer),
                CFG, weights, "opt1", seed=11)),
            _caught(client))
        assert isinstance(client_err, ProtocolError)
        assert f"ot-base frame of {length} bytes" in str(client_err)
        assert counting["conn"].read == 2 * _HEADER.size + session.HELLO_BYTES
        assert isinstance(server_err, ProtocolError)
        # the failed session made the client forget its outcome
        private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                          client_seed=12)


def test_resume_request_carries_the_client_position(weights, monkeypatch):
    """Every accept carries point A after the key set's digest; a resumed
    one then carries the stream position (little-endian) and the outcome's
    name
    (the SHA-256 of point A and the 128 points B, cut to 16 bytes), and
    both parties move the position past ceil(M / 128) blocks a session:
    the first resumed session asks for exactly the blocks the first
    session took.  Each session draws its own point A."""
    sent, points_a, base_ot = [], [], []

    class Sender(session.BaseOtSender):
        def __init__(self, rng):
            super().__init__(rng)
            points_a.append(self.msg_a)

        def keys(self, msgs_b):
            base_ot.append(self.msg_a + msgs_b)
            return super().keys(msgs_b)

    monkeypatch.setattr(session, "BaseOtSender", Sender)
    geom = session_geometry(CFG, "opt1")
    for _ in range(3):
        run_pair(
            lambda conn: run_server(conn, CFG, weights, "opt1", seed=11),
            lambda conn: run_client(_EditFirstFrame(
                conn, ACCEPT, lambda b: sent.append(bytes(b)),
                slice(DIGEST_BYTES, None)), TOKENS, seed=12))
    blocks = -(-geom.ot_total // 128)
    (transcript,) = base_ot
    assert sent[0] == points_a[0] == transcript[:POINT_BYTES]
    name = hashlib.sha256(transcript).digest()[:16]
    for i, part in enumerate(sent[1:], 1):
        assert part == points_a[i] + (i * blocks).to_bytes(8, "little") + name
    assert len(set(points_a)) == 3


class _OtherTrees(session.OtExtReceiver):
    """An OT-extension receiver whose fresh tree roots are not the ones its
    generator draws, as a client whose key set is not what fixes its base
    OT would have them."""

    def __init__(self, rng, leaves=None):
        super().__init__(np.random.default_rng(99), leaves)


def test_resume_names_the_outcome_it_extends(weights, monkeypatch):
    """Two first sessions of one key set with other tree roots, the
    client's outcome forgotten in between (as two client processes would
    have it), leave the server two outcomes at the same stream position.
    A resume request for the first extends the first; once the server
    holds only the second, the same request is answered with points B and
    the session runs a fresh base OT, in the same rounds.  The server never
    garbles under an offset or streams the client does not hold: every
    session is exact."""
    private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                      client_seed=12)
    (key_set,) = session._CLIENT_KEYS._held.values()
    kept, key_set.ext = replace(key_set.ext), None
    with monkeypatch.context() as patched:
        patched.setattr(session, "OtExtReceiver", _OtherTrees)
        private_inference(CFG, weights, TOKENS, "opt1", server_seed=13,
                          client_seed=12)
    second = key_set.ext
    assert second.outcome != kept.outcome
    assert second.position == kept.position
    assert len(session._SERVER_OT._held) == 2
    for server_holds_it, points in ((True, ANSWER), (False, POINTS_B)):
        key_set.ext = replace(kept)
        if not server_holds_it:
            (gone,) = [k for k in session._SERVER_OT._held
                       if k[1] == kept.outcome]
            del session._SERVER_OT._held[gone]
        server, client = private_inference(CFG, weights, TOKENS, "opt1",
                                           server_seed=15, client_seed=12)
        assert np.array_equal(client.logits, _exact(weights))
        assert server.transcript.rounds == client.transcript.rounds == ROUNDS
        assert _ot_base_sizes(client) == [points]


def test_key_sets_past_the_server_store_fall_back_to_base_ot(weights,
                                                             monkeypatch):
    """Three client key sets take turns at a server that keeps outcomes
    for two: each resume request finds its outcome evicted and is answered
    with a fresh base OT, and a key set that comes straight back resumes.
    No session fails, every one is exact, and every one takes the same
    rounds."""
    monkeypatch.setattr(session, "_SERVER_OT", session._Store(2))
    seeds = (12, 14, 16)
    rounds, ot_base = [], []
    for client_seed in seeds + seeds + seeds[-1:]:
        server, client = private_inference(CFG, weights, TOKENS, "opt1",
                                           server_seed=11,
                                           client_seed=client_seed)
        assert np.array_equal(client.logits, _exact(weights))
        rounds.append(client.transcript.rounds)
        ot_base += _ot_base_sizes(client)
    assert rounds == [ROUNDS] * 7
    assert ot_base == [POINTS_B] * 6 + [ANSWER]


class _HeldFrame:
    """One end of the transport that holds back its frames of type `ftype`
    until `go` is set, after setting `waiting`."""

    def __init__(self, conn, ftype, waiting, go):
        self._conn, self._ftype = conn, ftype
        self._waiting, self._go = waiting, go

    def send(self, data: bytes):
        if _HEADER.unpack_from(data)[1] == self._ftype:
            self._waiting.set()
            self._go.wait(60)
        self._conn.send(data)

    def recv_exact(self, n: int) -> bytes:
        return self._conn.recv_exact(n)

    def close(self):
        self._conn.close()


def test_resumes_that_reach_the_server_out_of_order_both_finish(weights):
    """Two resumed sessions of one key set at once: the client reserves
    the earlier stream blocks for the first, but the second's request
    reaches the server first, at a position that is not the server's, and
    runs a fresh base OT; the first then resumes where the server stands.
    Neither fails, both are exact, and both take the same rounds."""
    private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                      client_seed=12)
    waiting, go = threading.Event(), threading.Event()
    with ThreadPoolExecutor(1) as pool:
        try:
            first = pool.submit(
                run_pair,
                lambda conn: run_server(conn, CFG, weights, "opt1", seed=13),
                lambda conn: run_client(_HeldFrame(conn, ACCEPT, waiting, go),
                                        TOKENS, seed=12))
            assert waiting.wait(60)
            _, second = private_inference(CFG, weights, TOKENS, "opt1",
                                          server_seed=15, client_seed=12)
        finally:
            go.set()
        _, first = first.result()
    assert [first.transcript.rounds, second.transcript.rounds] == [ROUNDS] * 2
    assert _ot_base_sizes(first) + _ot_base_sizes(second) == [
        ANSWER, POINTS_B]
    assert np.array_equal(first.logits, _exact(weights))
    assert np.array_equal(second.logits, _exact(weights))


def test_base_ot_runs_again_once_the_session_numbers_are_spent(
        weights, monkeypatch):
    """An outcome serves `MAX_SESSIONS` sessions at most, as many as the
    tweak's session bits tell apart; with the bound at one, every session
    runs its own base OT, and at a server that holds no parsed keys either
    sends the pinned first session's frame sizes, exact in the same rounds.
    The first is the pinned first session, and the second shares no draw
    with it."""
    monkeypatch.setattr(session, "MAX_SESSIONS", 1)
    runs = []
    for _ in range(2):
        session._SERVER_KEYS._held.clear()
        client, tap = _tapped_client(weights, 12)
        assert np.array_equal(client.logits, _exact(weights))
        assert client.transcript.rounds == ROUNDS
        assert _ot_base_sizes(client) == [POINTS_B]
        runs.append((client, tap))
    (first, first_tap), (again, tap) = runs
    assert first_tap.hexdigest() == DIGESTS["opt1"]
    assert _sizes(again) == _sizes(first)
    _share_no_draw(first_tap, tap)


def test_threads_extending_from_one_stored_outcome_get_the_reference_rows(
        weights):
    """Sessions resumed from one base-OT outcome extend from its stored
    leaves at once.  Four threads that each extend 20 times from the
    leaves both parties stored, each at its own stream position, all get
    the rows one extension got alone, which hold the correlation under
    the server's s, and raise nothing.  The interpreter switches threads
    every microsecond, so their reads overlap.  Neither party's stored
    leaves take a write."""
    private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                      client_seed=12)
    (key_set,) = session._CLIENT_KEYS._held.values()
    (held,) = session._SERVER_OT._held.values()
    recv_leaves, send_leaves = key_set.ext.leaves, held.leaves
    M, threads, runs = 1500, 4, 20

    def extend(position):
        rng = np.random.default_rng(position)
        c_cols, batch = session.OtExtReceiver(rng, recv_leaves).extend(
            M, position)
        pairs = session.OtExtSender(rng, held.s_bits, send_leaves) \
            .receive_extension(c_cols, M, position)
        return batch, pairs

    want = []
    for t in range(threads):
        batch, pairs = extend(100 * t)
        b = batch.b[:, None].astype(np.uint64)
        assert np.array_equal(pairs.q, batch.t ^ b * pairs.delta)
        want.append((batch.t, pairs.q))
    start, errors, wrong = threading.Barrier(threads), [], []

    def worker(t: int):
        start.wait(60)
        try:
            for _ in range(runs):
                batch, pairs = extend(100 * t)
                if not (np.array_equal(batch.t, want[t][0])
                        and np.array_equal(pairs.q, want[t][1])):
                    wrong.append(t)
        except Exception as exc:   # noqa: BLE001 - any failure counts
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(t,))
            for t in range(threads)]
    interval = sys.getswitchinterval()
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
    for leaves in (recv_leaves, send_leaves):
        with pytest.raises(ValueError, match="read-only"):
            leaves[0, 0, 0] ^= np.uint64(1)


def test_concurrent_takes_reserve_disjoint_blocks():
    """Sessions that take one outcome at once each get their own stream
    position and session number, and the outcome moves past all of them."""
    store = session._Store(4)
    store.put("k", session._Extension((), None, b"", 10, 1))
    taken = []
    threads = [threading.Thread(target=lambda: taken.append(
        store.take("k", 7))) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(e.position for e in taken) == [10 + 7 * i for i in range(8)]
    assert sorted(e.session for e in taken) == list(range(1, 9))
    assert store.take("k", 7).position == 66


def test_concurrent_gets_make_one_entry():
    """Sessions that ask a store for one missing key at once make it once,
    and all get the one entry it keeps."""
    store = session._Store(4)
    made, got = [], []
    start = threading.Barrier(8)

    def make():
        time.sleep(0.01)    # yields, as a keygen or a key parse does
        made.append(object())
        return made[-1]

    def ask():
        start.wait(60)
        got.append(store.get("k", make))

    threads = [threading.Thread(target=ask) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(made) == 1
    assert got == made * 8
    assert list(store._held.items()) == [("k", made[0])]


def _count_key_work(monkeypatch) -> dict:
    """The positional arguments of every call of `keygen` and
    `public_keys_from_bytes` through the session module, the names the
    benchmark wraps, by name."""
    calls = {"keygen": [], "public_keys_from_bytes": []}
    for name, seen in calls.items():
        def counted(*args, _real=getattr(session, name), _seen=seen,
                    **kwargs):
            _seen.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(session, name, counted)
    return calls


def _key_work(calls: dict) -> tuple[int, int]:
    """(keygens, key parses) since the last call, which forgets them."""
    out = tuple(len(seen) for seen in calls.values())
    for seen in calls.values():
        seen.clear()
    return out


class _CountingHashlib:
    """The session module's `hashlib`, which counts the key blobs it
    hashes."""

    def __init__(self):
        self.blobs = 0

    def sha256(self, data=b""):
        self.blobs += len(data) == KEY_BLOB_BYTES
        return hashlib.sha256(data)


def _answer_2(blob: bytearray):
    blob[0] = 2


def test_key_work_per_session(weights, monkeypatch):
    """A seeded client makes its key set and hashes its blob, and the
    server hashes and parses that blob, in the key set's first session
    only.  Resumed sessions make, hash and parse none: their accept is the
    89-byte digest, point A and resume request.  A failed session drops
    the client's outcome and keeps its keys, so the next session makes no
    key and runs a base OT, and the server, which still holds the keys,
    asks for no blob.  A new seed makes and parses a new key set.  An
    unseeded client takes the same path under seed None: its first session
    makes the process's key set from OS entropy, the only one the client
    store then holds under None, and its second makes, hashes and parses
    none and resumes.  Once the stores forget it, the next unseeded
    session makes a key set of another digest."""
    calls = _count_key_work(monkeypatch)
    hashing = _CountingHashlib()
    monkeypatch.setattr(session, "hashlib", hashing)

    def run(client_seed=12):
        server, client = private_inference(CFG, weights, TOKENS, "opt1",
                                           server_seed=11,
                                           client_seed=client_seed)
        assert np.array_equal(client.logits, _exact(weights))
        assert server.transcript.rounds == client.transcript.rounds == ROUNDS
        blobs, hashing.blobs = hashing.blobs, 0
        return ((*_key_work(calls), blobs), _ot_base_sizes(client),
                server.transcript.frames[1].nbytes)

    first, resumed = DIGEST_BYTES + POINT_BYTES, 89
    assert resumed == first + REQUEST_BYTES
    assert run() == ((1, 1, 2), [POINTS_B], first)
    assert run() == run() == ((0, 0, 0), [ANSWER], resumed)

    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, OT_BASE, _answer_2),
            CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert isinstance(server_err, ProtocolError)
    assert _key_work(calls) == (0, 0)
    assert hashing.blobs == 0
    assert run() == ((0, 0, 0), [POINTS_B], first)
    assert run(client_seed=14) == ((1, 1, 2), [POINTS_B], first)

    held = list(session._CLIENT_KEYS._held)
    assert run(client_seed=None) == ((1, 1, 2), [POINTS_B], first)
    assert run(client_seed=None) == ((0, 0, 0), [ANSWER], resumed)
    unseeded = (_OPT1.params, _OPT1.rotations, None)
    assert list(session._CLIENT_KEYS._held) == [*held, unseeded]
    digest = session._CLIENT_KEYS._held[unseeded].digest
    _forget_key_sets()
    assert run(client_seed=None) == ((1, 1, 2), [POINTS_B], first)
    assert session._CLIENT_KEYS._held[unseeded].digest != digest


def test_no_two_sessions_of_a_key_set_share_a_draw(weights, monkeypatch):
    """Every session with a key set draws on from where the key set's one
    generator stands.  Four sessions of one seed -- a first, a resumed
    one, one that fails at ot-base and one that then runs base OT again --
    share no c1 seed of a fresh ciphertext, no point A, no stage's OT
    choice bits and, between the two base OTs, no tree level's sums.  The
    server seed stays fixed, so its points B and masks repeat, and the
    second base OT's sums and choice bits differ from the first's by the
    client's draws alone.  Two unseeded sessions, the second
    resuming the first's OT on the process's one key set, share none
    either, and no int seeds their keys or their evaluators: both draw
    from the generator the key set keeps."""
    def run(client_seed, ot_base):
        client, tap = _tapped_client(weights, client_seed)
        assert np.array_equal(client.logits, _exact(weights))
        assert client.transcript.rounds == ROUNDS
        assert _ot_base_sizes(client) == [ot_base]
        return tap

    first, resumed = run(12, POINTS_B), run(12, ANSWER)
    err, failed = _tapped_client(weights, 12, server_wrap=lambda conn: (
        _EditFirstFrame(conn, OT_BASE, _answer_2)))
    assert isinstance(err, ProtocolError)
    again = run(12, POINTS_B)
    draws = [_draws(tap) for tap in (first, resumed, again)]
    assert all(d["c1 seed"] and d["point A"] and d["ot request"]
               for d in draws)
    assert [len(d["tree level"]) for d in draws] == [LAMBDA, 0, LAMBDA]
    _share_no_draw(first, resumed, failed, again)

    generators = []
    real_keygen, real_init = session.keygen, Evaluator.__init__

    def keygen_(params, seed=None, rotations=()):
        generators.append(seed)
        return real_keygen(params, seed, rotations)

    def init(self, keys, seed=None):
        if keys.has_secret:
            generators.append(seed)
        real_init(self, keys, seed)

    monkeypatch.setattr(session, "keygen", keygen_)
    monkeypatch.setattr(Evaluator, "__init__", init)
    _share_no_draw(run(None, POINTS_B), run(None, ANSWER))
    assert len(generators) == 3
    assert all(isinstance(g, np.random.Generator) for g in generators)


def test_key_sets_past_the_server_key_store_send_their_blob(weights,
                                                           monkeypatch):
    """Two seeded key sets take turns at a server that keeps parsed keys
    for one.  Each resumed session finds its keys evicted: it still
    resumes its OT extension (ot-base carries no points B), the server
    asks for the key blob and parses it, and the session is exact in
    `ROUNDS`, its client sending exactly a resumed session's bytes and the
    blob.  A seeded client that reruns base OT after a failed session,
    while the server still holds its keys, sends no blob."""
    monkeypatch.setattr(session, "_SERVER_KEYS", session._Store(1))
    calls = _count_key_work(monkeypatch)

    def run(client_seed):
        server, client = private_inference(CFG, weights, TOKENS, "opt1",
                                           server_seed=11,
                                           client_seed=client_seed)
        assert np.array_equal(client.logits, _exact(weights))
        assert server.transcript.rounds == client.transcript.rounds == ROUNDS
        return (_key_work(calls)[1], _ot_base_sizes(client),
                client.transcript.bytes_sent)

    assert run(12)[:2] == (1, [POINTS_B])
    parses, ot_base, resumed = run(12)
    assert (parses, ot_base) == (0, [ANSWER])
    assert run(14)[:2] == (1, [POINTS_B])
    for client_seed in (12, 14, 12):
        assert run(client_seed) == (1, [ANSWER], resumed + KEY_BLOB_BYTES)

    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, OT_BASE, _answer_2),
            CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert isinstance(server_err, ProtocolError)
    assert run(12) == (0, [POINTS_B],
                       resumed - REQUEST_BYTES + 32 * LAMBDA)


def test_keys_the_server_found_outlive_their_eviction(weights, monkeypatch):
    """A server that answered that it holds a key set's keys keeps them
    for the session.  A resumed session's client-setup reaches a server
    with a one-entry key store only once another key set's first session
    has evicted those keys; the session still finishes, exact and in
    `ROUNDS`, and its client sends no blob."""
    monkeypatch.setattr(session, "_SERVER_KEYS", session._Store(1))
    private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                      client_seed=12)
    (held,) = session._SERVER_KEYS._held
    waiting, go = threading.Event(), threading.Event()
    with ThreadPoolExecutor(1) as pool:
        try:
            resumed = pool.submit(
                run_pair,
                lambda conn: run_server(conn, CFG, weights, "opt1", seed=13),
                lambda conn: run_client(
                    _HeldFrame(conn, CLIENT_SETUP, waiting, go), TOKENS,
                    seed=12))
            assert waiting.wait(60)
            private_inference(CFG, weights, TOKENS, "opt1", server_seed=15,
                              client_seed=14)
            assert held not in session._SERVER_KEYS._held
        finally:
            go.set()
        server, client = resumed.result()
    assert np.array_equal(client.logits, _exact(weights))
    assert server.transcript.rounds == client.transcript.rounds == ROUNDS
    assert _ot_base_sizes(client) == [ANSWER]
    assert client.transcript.frames[3].nbytes == (
        COLUMNS * COLUMN_BYTES + _OPT1.nbytes(_OPT1.input_layout, fresh=True))


@pytest.mark.parametrize("resumed", [False, True], ids=["first", "resumed"])
@pytest.mark.parametrize("answer", [2, 255])
def test_client_refuses_an_answer_byte_other_than_0_or_1(weights, resumed,
                                                          answer):
    """ot-base opens with the server's answer for the key set accept
    names: 0 if it holds those keys, 1 if it wants the blob.  The client
    refuses any other value, in a first or a resumed session, and sends no
    client-setup."""
    if resumed:
        private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                          client_seed=12)

    def answer_with(blob: bytearray):
        blob[0] = answer

    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, OT_BASE, answer_with),
            CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert f"ot-base answers {answer}" in str(client_err)
    assert isinstance(server_err, ProtocolError)
    assert "peer closed" in str(server_err)


def _flip_first(blob: bytearray):
    blob[0] ^= 1


@pytest.mark.parametrize("ftype,span", [
    pytest.param(CLIENT_SETUP, slice(0, KEY_BLOB_BYTES), id="blob"),
    pytest.param(ACCEPT, slice(0, DIGEST_BYTES), id="digest"),
])
def test_server_refuses_a_key_blob_off_its_digest(weights, monkeypatch,
                                                  ftype, span):
    """A key blob whose SHA-256 is not the digest accept named, the blob's
    byte or the digest's flipped, is refused with a ProtocolError before
    the server parses it, and the server keeps no keys."""
    monkeypatch.setattr(session, "public_keys_from_bytes", lambda *_: (
        pytest.fail("parsed a refused key blob")))
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, ftype, _flip_first, span), TOKENS,
            seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert "does not hash to the digest" in str(server_err)
    assert isinstance(client_err, ProtocolError)
    assert not session._SERVER_KEYS._held


def test_key_sets_past_the_client_store_are_made_again(weights,
                                                       monkeypatch):
    """Three seeded clients take turns at a client store of two key sets:
    each comes back to find its key set evicted, makes it again and runs a
    fresh base OT, and a key set that comes straight back resumes.  Every
    session is exact and takes the same rounds.  A key set made again is
    the one its seed made first: the server holds parsed keys under its
    blob's digest and asks for no blob, and its session sends the pinned
    first session's bytes less the blob."""
    monkeypatch.setattr(session, "_CLIENT_KEYS", session._Store(2))
    calls = _count_key_work(monkeypatch)
    seeds = (12, 14, 16)
    key_work, ot_base, sent = [], [], []
    for client_seed in seeds + seeds + seeds[-1:]:
        server, client, digest = _tapped_inference(
            CFG, weights, TOKENS, "opt1", server_seed=11,
            client_seed=client_seed)
        assert np.array_equal(client.logits, _exact(weights))
        assert server.transcript.rounds == client.transcript.rounds == ROUNDS
        if not sent:
            assert digest == DIGESTS["opt1"]
        key_work.append(_key_work(calls))
        ot_base += _ot_base_sizes(client)
        sent.append(client.transcript.bytes_sent)
    assert key_work == [(1, 1)] * 3 + [(1, 0)] * 3 + [(0, 0)]
    assert ot_base == [POINTS_B] * 6 + [ANSWER]
    assert sent[3] == sent[0] - KEY_BLOB_BYTES


def _halve(doubled: np.ndarray) -> np.ndarray:
    """The labels X, (N, 2), whose doubles 2X in GF(2^128) are `doubled`:
    2X is X shifted up a bit, with x^128 reduced to x^7 + x^2 + x + 1,
    which sets bit 0 exactly when X's top bit was set."""
    top = doubled[:, :1] & np.uint64(1)
    shifted = doubled ^ top * np.array([0x87, 0], dtype=np.uint64)
    out = shifted >> np.uint64(1)
    out[:, 0] |= shifted[:, 1] << np.uint64(63)
    out[:, 1] |= top[:, 0] << np.uint64(63)
    return out


def test_no_tweak_or_iknp_row_repeats_across_resumed_sessions(weights,
                                                              monkeypatch):
    """One garbling offset serves a fresh session and the two that resume
    it.  Over all three, the garbler queries no hash tweak with labels
    other than the two labels X and X ^ delta of one wire, and no OT row
    of one session is a row of another: each extends fresh stream
    blocks.  The hash takes each label doubled, which is one to one, so
    the queried labels are the recorded doubles halved."""
    party = threading.local()
    queries, deltas, rows = [], [], []
    fixed_key_hash, real_garble = garble_module._hash, session.garble
    real_extend = session.OtExtReceiver.extend

    def recording(aes, doubled, tweaks):
        if party.role == "server":
            lab, tw = np.broadcast_arrays(doubled, tweaks)
            queries.append(np.hstack([tw.reshape(-1, 2),
                                      _halve(lab.reshape(-1, 2))]))
        return fixed_key_hash(aes, doubled, tweaks)

    def garbling(sched, delta, *args):
        deltas.append(delta.copy())
        return real_garble(sched, delta, *args)

    def extend(self, M, start=0):
        u, batch = real_extend(self, M, start)
        rows.append(batch.t.copy())
        return u, batch

    def as_party(role, fn):
        def run(conn):
            party.role = role
            return fn(conn)
        return run

    monkeypatch.setattr(garble_module, "_hash", recording)
    monkeypatch.setattr(session, "garble", garbling)
    monkeypatch.setattr(session.OtExtReceiver, "extend", extend)
    for server_seed in (11, 13, 15):
        _, client = run_pair(
            as_party("server", lambda c: run_server(c, CFG, weights, "opt1",
                                                    seed=server_seed)),
            as_party("client", lambda c: run_client(c, TOKENS, seed=12)))
        assert np.array_equal(client.logits, forward_fixed(
            CFG, weights, TOKENS, "opt1").logits)
    delta = deltas[0]
    assert all(np.array_equal(d, delta) for d in deltas)
    q = np.concatenate(queries)
    # a label and its partner under delta share one canonical form, the
    # one of colour 0 (delta's colour bit is 1)
    canon = q[:, 2:] ^ (q[:, 2:3] & np.uint64(1)) * delta
    pairs = np.unique(np.hstack([q[:, :2], canon]), axis=0)
    assert len(np.unique(pairs[:, :2], axis=0)) == len(pairs)
    assert len(rows) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            both = np.concatenate([rows[i], rows[j]])
            assert len(np.unique(both, axis=0)) == len(both)


def test_second_session_encodes_no_weight_diagonal(weights, monkeypatch):
    """A server's second session with the same weights takes every
    plain-weight product's diagonals, and the classifier's columns, from
    the weight memo: the only encodings are the masked products' own, one
    per `ctmm_server_finalize`."""
    private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                      client_seed=12)
    encodes, finalizes = [], []
    real_encode, real_finalize = (helinear.encode_plain_many,
                                  session.ctmm_server_finalize)
    monkeypatch.setattr(helinear, "encode_plain_many", lambda *a: (
        encodes.append(a) or real_encode(*a)))
    monkeypatch.setattr(session, "ctmm_server_finalize", lambda *a: (
        finalizes.append(a) or real_finalize(*a)))
    before = helinear.weight_plan.cache_info()
    _, client = private_inference(CFG, weights, TOKENS, "opt1",
                                  server_seed=13, client_seed=12)
    after = helinear.weight_plan.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == 3 * CFG.n_layers + 1
    assert len(encodes) == len(finalizes) == 2 * CFG.n_layers
    assert np.array_equal(client.logits,
                          forward_fixed(CFG, weights, TOKENS, "opt1").logits)


def test_sessions_with_other_weights_of_the_same_shape_are_exact(weights):
    """Weights of the same shape as memoized ones get diagonals of their
    own: sessions alternating between two weight sets are each exact."""
    other = gen_random(CFG, 8, scale=0.25)
    refs = [forward_fixed(CFG, w, TOKENS, "opt1").logits
            for w in (weights, other)]
    assert not np.array_equal(*refs)
    for wts, ref in zip((weights, other, weights), refs + refs):
        _, client = private_inference(CFG, wts, TOKENS, "opt1",
                                      server_seed=11, client_seed=12)
        assert np.array_equal(client.logits, ref)


def test_weight_memo_holds_every_product_of_the_deepest_model():
    """Every layer of every mode runs three plain-weight products, and the
    logits one product by the classifier, so a memo of `WEIGHT_PLANS`
    holds all of a `MAX_LAYERS` model's."""
    for mode in MODES:
        plan = replace(CFG, n_layers=2).plan(mode)
        assert [sum(s.plain for s in enc) for enc in plan.encoders] == [3, 3]
    assert helinear.WEIGHT_PLANS >= 3 * session.MAX_LAYERS + 1
    assert helinear.weight_plan.cache_info().maxsize == helinear.WEIGHT_PLANS


def test_frame_sizes_do_not_depend_on_the_seeds(weights):
    """Every frame's size follows from the geometry alone: two sessions
    with other seeds send the same sizes in the same order, base-OT points
    included (33 bytes each), and a first session's client-setup opens
    with the key blob."""
    sizes = []
    for seeds in ((11, 12), (3, 4)):
        server, _ = private_inference(CFG, weights, TOKENS, "opt1",
                                      server_seed=seeds[0],
                                      client_seed=seeds[1])
        sizes.append([(f.direction, f.name, f.nbytes)
                      for f in server.transcript.frames])
    assert sizes[0] == sizes[1]
    by_name = {name: nbytes for _, name, nbytes in sizes[0]}
    # the blob's digest and point A; the answer byte and the points B; a
    # blob of four Galois keys of b k^2 n / 8 + 16 bytes (b = 50, k = 3,
    # n = 512), the tree-level sums, the columns and the input
    assert _OPT1.params.residue_bits == 50
    assert by_name["accept"] == 65 == DIGEST_BYTES + POINT_BYTES
    assert by_name["ot-base"] == 4_225 == 1 + LAMBDA * POINT_BYTES
    assert KEY_BLOB_BYTES == 115_264 == 4 * (50 * 9 * 512 // 8 + 16)
    assert by_name["client-setup"] == (
        KEY_BLOB_BYTES + LEVEL_BYTES + COLUMNS * COLUMN_BYTES
        + _OPT1.nbytes(_OPT1.input_layout, fresh=True))


GC_L16 = ModelConfig(vocab=8, seq_len=16, dim=4, ff_dim=8, n_layers=1,
                     n_classes=2)
HE_SMALL = ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32, n_layers=2,
                       n_classes=2)


@pytest.mark.parametrize("cfg,mode,c2s,s2c,gc", [
    pytest.param(CFG, "baseline", None, None, None, id="baseline"),
    # byte totals on the benchmark's three workloads' shapes
    pytest.param(CFG, "opt1", 371_969, 578_002, 363_176, id="opt1"),
    pytest.param(CFG, "opt2", None, None, None, id="opt2"),
    pytest.param(GC_L16, "baseline", 582_849, 5_145_554, 4_933_712,
                 id="gc-l16-baseline"),
    pytest.param(HE_SMALL, "opt2", 1_203_009, 4_494_290, 4_067_792,
                 id="he-small-opt2"),
])
def test_stage_open_carries_one_correction_word_per_output_bit(cfg, mode,
                                                               c2s, s2c, gc):
    """Each stage-open frame is the masked stage input alone.  Each
    stage-ot-resp frame is the stage's one walk over its groups with E
    instances: its tables, 32 bytes per AND and instance, and one 8-byte
    B2A correction word per output bit and instance: no bytes for the
    evaluator's labels, which the client already holds from the OT
    extension, nor for the garbler's and the constants', which are
    hardcoded into the garbling.  On the benchmark's shapes the client
    sends `c2s` payload bytes and the server `s2c`, `gc` of them
    garbled-circuit material (with the derandomization bits)."""
    tokens = (np.arange(cfg.seq_len) * 5 + 1) % cfg.vocab
    server, client = private_inference(cfg, gen_random(cfg, 7, scale=0.25),
                                       tokens, mode, server_seed=11,
                                       client_seed=12)
    geom = server.geometry
    specs = [spec for enc in geom.plan.encoders for spec in enc]
    frames = server.transcript.frames
    assert [f.nbytes for f in frames if f.ftype == STAGE_OPEN] == [
        geom.nbytes(geom.stage_input(spec), fresh=False) for spec in specs]
    walks = [(geom.walk(spec), spec.instances) for spec in specs]
    assert [f.nbytes for f in frames if f.ftype == STAGE_OT_RESP] == [
        (32 * walk.n_and + 8 * walk.outputs.size) * E for walk, E in walks]
    if s2c is not None:
        tr = server.transcript
        assert (client.transcript.bytes_sent, tr.bytes_sent,
                tr.gc_online_bytes) == (c2s, s2c, gc)


@pytest.mark.parametrize("cfg,mode,c2s,s2c,gc", [
    pytest.param(GC_L16, "baseline", 463_513, 5_141_330, 4_933_712,
                 id="gc-l16-baseline"),
    pytest.param(HE_SMALL, "opt2", 1_110_761, 4_490_066, 4_067_792,
                 id="he-small-opt2"),
])
def test_resumed_session_bytes_on_the_benchmark_shapes(cfg, mode, c2s, s2c,
                                                       gc):
    """The benchmark's reused-key workloads time resumed sessions: on their
    shapes a client's second session sends `c2s` payload bytes and the
    server `s2c`, `gc` of them garbled-circuit material.  Against the first
    session the client sends the key blob and the 128 x 32 bytes of
    tree-level messages fewer and the 24-byte resume request more, and the
    server the 128 base-OT points fewer."""
    tokens = (np.arange(cfg.seq_len) * 5 + 1) % cfg.vocab
    wts = gen_random(cfg, 7, scale=0.25)
    sent = []
    for _ in range(2):
        server, client = private_inference(cfg, wts, tokens, mode,
                                           server_seed=11, client_seed=12)
        assert np.array_equal(client.logits,
                              forward_fixed(cfg, wts, tokens, mode).logits)
        tr = server.transcript
        sent.append((client.transcript.bytes_sent, tr.bytes_sent,
                     tr.gc_online_bytes))
    geom = server.geometry
    blob = pahe.key_blob_nbytes(geom.params, len(geom.galois))
    assert sent[1] == (c2s, s2c, gc)
    assert sent[0] == (c2s + blob + LAMBDA * 32 - REQUEST_BYTES,
                       s2c + LAMBDA * POINT_BYTES, gc)


# the share of a session's affine-stage lanes that may saturate in the
# working-range sessions below
MAX_SATURATED = 0.10


def _stage_lanes(cfg, weights, tokens, mode) -> tuple[int, int, int]:
    """The plan walked as `forward_fixed` walks it, each affine group
    through `affine_stage_oracle`: its affine-stage lanes that saturate,
    all its affine-stage lanes, and its attention rows whose weights sum
    to zero (the row divider's zero-sum case)."""
    held = {"x": np.eye(cfg.vocab, dtype=np.int64)[np.asarray(tokens)]}
    saturated = lanes = zero_rows = 0
    for e, enc in enumerate(cfg.plan(mode).encoders):
        mats, offsets = layer_weights(cfg, weights, mode, e)
        held.update(mats)
        for spec in enc:
            left, right = spec.factors(held)
            raw = left @ right + offsets.get(spec.right, 0)
            if spec.kind == "rowdiv":
                weights_sum = (np.maximum(raw, 0) >> spec.shift).sum(axis=-1)
                zero_rows += int(np.count_nonzero(weights_sum == 0))
            else:
                for part in spec.split(raw):
                    clamped = affine_stage_oracle(part, spec.shift, spec.keep)
                    saturated += np.count_nonzero(
                        clamped != part >> spec.shift)
                    lanes += part.size
            held.update(zip(spec.tags, model._stage_oracle(spec, raw)))
    return saturated, lanes, zero_rows


@pytest.mark.parametrize("cfg,mode,scale", [
    # `gen_random` at scale 2^-11, or twice or four times that where every
    # logit of a session at 2^-11 rounds to zero
    pytest.param(CFG, "baseline", 2 ** -11, id="tiny-baseline"),
    pytest.param(CFG, "opt1", 2 ** -10, id="tiny-opt1"),
    pytest.param(CFG, "opt2", 2 ** -9, id="tiny-opt2"),
    pytest.param(HE_SMALL, "opt2", 2 ** -10, id="he-small-opt2"),
    pytest.param(GC_L16, "baseline", 2 ** -11, id="gc-l16-baseline"),
])
def test_sessions_in_the_working_range_are_exact(cfg, mode, scale):
    """At `scale=0.25` most affine-stage lanes saturate, so the pinned
    sessions check the path below the clamp on few lanes.  Here weights
    are drawn small enough that at most `MAX_SATURATED` of the lanes
    saturate and the logits are not all zero: the session is exact in the
    fixed rounds.  The tiny baseline case holds an attention row whose
    weights sum to zero."""
    tokens = (TOKENS if cfg is CFG
              else (np.arange(cfg.seq_len) * 5 + 1) % cfg.vocab)
    wts = gen_random(cfg, 7, scale=scale)
    saturated, lanes, zero_rows = _stage_lanes(cfg, wts, tokens, mode)
    assert saturated <= MAX_SATURATED * lanes
    if cfg is CFG and mode == "baseline":
        assert zero_rows >= 1
    ref = forward_fixed(cfg, wts, tokens, mode)
    assert np.any(ref.logits)
    server, client = private_inference(cfg, wts, tokens, mode,
                                       server_seed=11, client_seed=12)
    assert np.array_equal(client.logits, ref.logits)
    assert client.label == ref.label
    assert (server.transcript.rounds == client.transcript.rounds
            == 5 + 24 * cfg.n_layers)


# the smallest noise budget any operation of a session on each benchmark
# shape left before ring row 1 carried data (server seed 11, client seed
# 12): no shape may fall below it, nor below the floor
NOISE_FLOOR_BITS = 8.0
ONE_ROW_MIN_BUDGET = {"tiny-opt1": 9.44, "gc-l16-baseline": 8.68,
                     "he-small-opt2": 8.71}


@pytest.mark.parametrize("cfg,mode,name", [
    pytest.param(CFG, "opt1", "tiny-opt1", id="tiny-opt1"),
    pytest.param(GC_L16, "baseline", "gc-l16-baseline", id="gc-l16-baseline"),
    pytest.param(HE_SMALL, "opt2", "he-small-opt2", id="he-small-opt2"),
])
def test_sessions_keep_a_noise_floor(monkeypatch, cfg, mode, name):
    """One exact session of each benchmark shape, recording the tracked
    budget of every homomorphic result either party computes.  The wire
    carries no noise estimate, so a decrypted ciphertext's budget is the
    client's fresh estimate; the server's operations are where the budget
    is spent, so the record is `Evaluator._bump_noise`, which settles every
    result's noise before the work."""
    budgets = []
    real = Evaluator._bump_noise

    def recording(self, cts, bits):
        out = real(self, cts, bits)
        if out.size:
            budgets.append(self.params.max_budget_bits - out.max())
        return out

    monkeypatch.setattr(Evaluator, "_bump_noise", recording)
    tokens = (np.arange(cfg.seq_len) * 5 + 1) % cfg.vocab
    wts = gen_random(cfg, 7, scale=0.25)
    _, client = private_inference(cfg, wts, tokens, mode, server_seed=11,
                                  client_seed=12)
    assert np.array_equal(client.logits,
                          forward_fixed(cfg, wts, tokens, mode).logits)
    assert min(budgets) >= max(NOISE_FLOOR_BITS, ONE_ROW_MIN_BUDGET[name])


def test_logits_slots_hide_the_products(weights, monkeypatch):
    """Each slot of a class ciphertext is a product x[i, j] W[j, c] of the
    final state and the classifier plus a fresh pad, the pads of a class
    summing to zero.  Two sessions with the same tokens, weights and client
    seed but other server seeds give the same logits, and the client
    decrypts other slot vectors: bare products would be the same in
    both."""
    decrypted = []
    real = pahe.KeyMaterial.decrypt_many
    monkeypatch.setattr(pahe.KeyMaterial, "decrypt_many", lambda self, cts: (
        decrypted.append(real(self, cts)) or decrypted[-1]))
    ref = forward_fixed(CFG, weights, TOKENS, "opt1").logits
    slots = []
    for server_seed in (11, 13):
        _, client = private_inference(CFG, weights, TOKENS, "opt1",
                                      server_seed=server_seed,
                                      client_seed=12)
        assert np.array_equal(client.logits, ref)
        slots.append(decrypted[-1])  # the logits are the last decryption
    assert slots[0].shape == (CFG.n_classes, PARAMS.n)
    assert not np.array_equal(*slots)


def _counting(monkeypatch, name):
    """The calls of the session's `name` from here on, as argument tuples."""
    calls, real = [], getattr(session, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(session, name, counted)
    return calls


def test_geometry_keeps_each_walk_once_and_nothing_for_refused_shapes(
        monkeypatch, limit):
    """`session_geometry` is the one cache of stage circuits and walks.
    The deepest plan of every mode builds each stage shape's circuits and
    walk once, at most ten walks, and sizing it again builds nothing.
    Sizing three other baseline row dividers leaves gc-l16's geometry
    kept, so a gc-l16 session builds no circuit and no walk.  A shape a
    bound refuses has its circuits built, but no walk, and the cache holds
    what it held before."""
    session.session_geometry.cache_clear()
    built = _counting(monkeypatch, "stage_circuits")
    walked = _counting(monkeypatch, "schedule")
    deep = replace(CFG, n_layers=session.MAX_LAYERS)
    for mode in MODES:
        built.clear()
        walked.clear()
        geom = session_geometry(deep, mode)
        assert set(geom.walks) == {spec.shape for enc in geom.plan.encoders
                                   for spec in enc}
        assert len(built) == len(walked) == len(geom.walks) <= 10
        assert session_geometry(deep, mode) is geom
        assert len(built) == len(walked) == len(geom.walks)

    session_geometry(GC_L16, "baseline")
    for seq_len in (24, 32, 40):
        session_geometry(replace(GC_L16, seq_len=seq_len), "baseline")
    built.clear()
    walked.clear()
    tokens = (np.arange(GC_L16.seq_len) * 5 + 1) % GC_L16.vocab
    wts = gen_random(GC_L16, 7, scale=0.25)
    _, client = private_inference(GC_L16, wts, tokens, "baseline",
                                  server_seed=11, client_seed=12)
    assert np.array_equal(client.logits,
                          forward_fixed(GC_L16, wts, tokens,
                                        "baseline").logits)
    assert built == walked == []

    limit("MAX_SESSION_BYTES", max(max(_session_bytes(
        session_geometry(CFG, mode))) for mode in MODES))
    for mode in MODES:
        session_geometry(CFG, mode)
    held = session.session_geometry.cache_info().currsize
    assert held == len(MODES)
    for seq_len in (12, 16, 24):
        for mode in MODES:
            built.clear()
            walked.clear()
            with pytest.raises(ParameterError, match="above the limit"):
                session_geometry(replace(CFG, seq_len=seq_len), mode)
            assert built and not walked
            assert session.session_geometry.cache_info().currsize == held


def _closing(party, conn, *args, **kwargs):
    """Run one party, then close its end, so a failure on one side ends
    the other side's reads instead of leaving them waiting."""
    try:
        return party(conn, *args, **kwargs)
    finally:
        conn.close()


def test_session_over_sockets_reproduces_the_digest(weights):
    """The digest does not depend on the transport: the opt1 session over
    a socket pair, both ends wrapped in SocketConn and tapped, sends
    exactly the pinned bytes."""
    ends = socket.socketpair()
    for sock in ends:
        sock.settimeout(60)  # a stuck party fails the test, never hangs it
    sconn, cconn = (_Tap(SocketConn(sock)) for sock in ends)
    with ThreadPoolExecutor(2) as pool:
        fs = pool.submit(_closing, run_server, sconn, CFG, weights, "opt1",
                         seed=11)
        fc = pool.submit(_closing, run_client, cconn, TOKENS, seed=12)
        server, client = fs.result(), fc.result()
    ref = forward_fixed(CFG, weights, TOKENS, "opt1")
    assert np.array_equal(client.logits, ref.logits)
    assert server.transcript.rounds == client.transcript.rounds == ROUNDS
    assert sconn.hexdigest() == cconn.hexdigest() == DIGESTS["opt1"]


def test_resumed_session_over_tcp_reproduces_the_digest(weights):
    """A session resumed over `tcp_listen`/`tcp_dial` sends the bytes of
    the pinned in-memory resumed session: the outcome the first session
    left is the parties', not the transport's.  Both ends are tapped."""
    private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                      client_seed=12)
    srv = tcp_listen("127.0.0.1", 0)
    try:
        cconn = _Tap(tcp_dial("127.0.0.1", srv.getsockname()[1]))
        sconn = _Tap(tcp_accept(srv))
    finally:
        srv.close()
    with ThreadPoolExecutor(2) as pool:
        fs = pool.submit(_closing, run_server, sconn, CFG, weights, "opt1",
                         seed=11)
        fc = pool.submit(_closing, run_client, cconn, TOKENS, seed=12)
        server, client = fs.result(), fc.result()
    assert np.array_equal(client.logits,
                          forward_fixed(CFG, weights, TOKENS, "opt1").logits)
    assert server.transcript.frames[2].nbytes == ANSWER
    assert sconn.hexdigest() == cconn.hexdigest() == RESUMED_DIGESTS["opt1"]


def test_socket_read_fails_when_the_peer_closes_mid_read():
    ours, peer = socket.socketpair()
    conn = SocketConn(ours)
    peer.sendall(b"abc")
    peer.close()
    with pytest.raises(ProtocolError, match="peer closed"):
        conn.recv_exact(8)
    conn.close()


def test_socket_read_deadline(monkeypatch):
    """Both ends of a TCP connection give up a read that waits past the
    module's read deadline, with a ProtocolError that names it."""
    monkeypatch.setattr(transport, "READ_DEADLINE_S", 0.2)
    srv = tcp_listen("127.0.0.1", 0)
    try:
        dialled = tcp_dial("127.0.0.1", srv.getsockname()[1])
        accepted = tcp_accept(srv)
    finally:
        srv.close()
    try:
        for conn in (accepted, dialled):
            with pytest.raises(ProtocolError, match="0.2 s read deadline"):
                conn.recv_exact(8)
    finally:
        accepted.close()
        dialled.close()


class _EditFirstFrame:
    """One end of the transport that edits the byte span `span` of the
    payload of the first frame of type `ftype` it sends after `skip` others
    of that type, in place, and sends the result under a header that is
    honest about its new length, and of type `as_type` if one is given."""

    def __init__(self, conn, ftype, edit, span=slice(None), skip=0,
                 as_type=None):
        self._conn, self._ftype, self._edit = conn, ftype, edit
        self._span, self._skip, self._done = span, skip, False
        self._as_type = as_type

    def send(self, data: bytes):
        _magic, ftype, _ln = _HEADER.unpack_from(data)
        if ftype != self._ftype or self._done:
            return self._conn.send(data)
        if self._skip:
            self._skip -= 1
            return self._conn.send(data)
        self._done = True
        payload = data[_HEADER.size:]
        start, stop, _ = self._span.indices(len(payload))
        blob = bytearray(payload[start:stop])
        self._edit(blob)
        write_frame(self._conn, self._as_type or ftype,
                    payload[:start] + bytes(blob) + payload[stop:])

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


# the session parameters of every tampered session below (tiny, opt1): a
# ciphertext the server sends is its c0 and c1, one the client sends its c0
# and a 16-byte seed
PARAMS = session_geometry(CFG, "opt1").params
CT_BYTES = ct_nbytes(PARAMS, fresh=False)
FRESH_CT_BYTES = ct_nbytes(PARAMS, fresh=True)
FIRST_CT = slice(0, CT_BYTES)


def _one_too_few(blob: bytearray):
    del blob[-CT_BYTES:]


def _one_fresh_too_few(blob: bytearray):
    del blob[-FRESH_CT_BYTES:]


def _one_too_many(blob: bytearray):
    blob.extend(blob[-CT_BYTES:])


@pytest.mark.parametrize("edit", [
    pytest.param(_one_too_few, id="one-too-few"),
    pytest.param(_one_too_many, id="one-too-many"),
])
def test_client_rejects_stage_open_off_the_plan(weights, edit):
    """The first stage's masked QKV matrix arrives with one ciphertext too
    few or too many; the client refuses the frame by its length, since the
    plan fixes exactly one (4 x 12 column blocks of 4 slots fit one ring
    row)."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, STAGE_OPEN, edit, FIRST_CT), CFG, weights,
            "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert "stage-open frame of" in str(client_err)
    assert isinstance(server_err, ProtocolError)


def test_server_refuses_share_without_its_copies(weights):
    """attn_rescale feeds the first feed-forward product, so its share must
    carry the geometry's five baby-step copies, two to a ciphertext, in
    three ciphertexts; a client sending one copy is refused by the frame's
    length."""
    steps = session_geometry(CFG, "opt1").steps
    cts = -(-steps // 2)

    def first_copy(blob: bytearray):
        del blob[len(blob) // cts:]

    # opt1 shares in order: qkv_rescale, attn_inner, attn_rescale
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, STAGE_SHARE, first_copy, skip=2),
            TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert (f"stage-share frame of {FRESH_CT_BYTES} bytes, the plan's has "
            f"{cts * FRESH_CT_BYTES}") in str(server_err)
    assert isinstance(client_err, ProtocolError)


# a first session's client-setup: the key blob, the tree-level messages,
# 128 x 32 bytes, then the correction columns, COLUMNS x ceil(ot_total / 8)
LEVEL_BYTES = 32 * LAMBDA
COLUMN_BYTES = -(-_OPT1.ot_total // 8)
# client-setup's four forms, by what the server's ot-base asked for: the key
# blob, if the server wanted it, and the tree-level messages, if it sent
# points B
CLIENT_SETUP_FORMS = {
    "keys-and-base-ot": (True, True),
    "keys": (True, False),
    "base-ot": (False, True),
    "resumed": (False, False),
}


def _client_setup_form(weights, form: str) -> int:
    """Leaves the party stores so that the next session of seeds 11 and 12
    sends client-setup in `form`; returns that frame's size."""
    keys, base_ot = CLIENT_SETUP_FORMS[form]
    if not (keys and base_ot):
        private_inference(CFG, weights, TOKENS, "opt1", server_seed=11,
                          client_seed=12)
        for evict, store in ((keys, session._SERVER_KEYS),
                             (base_ot, session._SERVER_OT)):
            if evict:
                store._held.clear()
    return (KEY_BLOB_BYTES * keys + LEVEL_BYTES * base_ot
            + COLUMNS * COLUMN_BYTES
            + _OPT1.nbytes(_OPT1.input_layout, fresh=True))


def _iknp_columns(blob: bytearray):
    end = KEY_BLOB_BYTES + LEVEL_BYTES + COLUMNS * COLUMN_BYTES
    blob[end:end] = bytes((LAMBDA - COLUMNS) * COLUMN_BYTES)


def _levels_short(blob: bytearray):
    del blob[KEY_BLOB_BYTES + LEVEL_BYTES - 1]


def _levels_long(blob: bytearray):
    blob[KEY_BLOB_BYTES + LEVEL_BYTES:KEY_BLOB_BYTES + LEVEL_BYTES] = b"\0"


@pytest.mark.parametrize("form,edit,change", [
    pytest.param("keys-and-base-ot", _iknp_columns,
                 (LAMBDA - COLUMNS) * COLUMN_BYTES, id="128-columns"),
    pytest.param("keys-and-base-ot", _levels_short, -1,
                 id="levels-one-short"),
    pytest.param("keys-and-base-ot", _levels_long, 1, id="levels-one-long"),
    *(pytest.param(form, edit, change, id=f"{form}-one-byte-{name}")
      for form in CLIENT_SETUP_FORMS
      for name, edit, change in (("short", lambda b: b.__delitem__(-1), -1),
                                 ("long", lambda b: b.append(0), 1))),
])
def test_server_refuses_client_setup_off_the_plan(weights, form, edit,
                                                  change):
    """client-setup carries the key blob if the server's answer byte asked
    for it, the tree-level messages if it sent points B, then
    LAMBDA / K - 1 correction columns and the input.  In each of these
    four forms a frame one byte short or long, and in the first form a
    block of IKNP's 128 columns or level messages one byte short or long,
    is refused from the frame's header: the server has read accept and not
    one byte of client-setup's payload."""
    want = _client_setup_form(weights, form)
    accept = DIGEST_BYTES + POINT_BYTES + REQUEST_BYTES * (
        form != "keys-and-base-ot")
    counting = {}

    def server(conn):
        counting["conn"] = _Counting(conn)
        return run_server(counting["conn"], CFG, weights, "opt1", seed=11)

    server_err, client_err = run_pair(
        _caught(server),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, CLIENT_SETUP, edit), TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert (f"client-setup frame of {want + change} bytes, the plan's has "
            f"{want}") in str(server_err)
    assert counting["conn"].read == 2 * _HEADER.size + accept
    assert isinstance(client_err, ProtocolError)


def test_client_refuses_product_factor_off_the_plan(weights, monkeypatch):
    """The first product's masked factor K arrives with one ciphertext too
    many; the client refuses the frame against the layout of the K share it
    sent, before it decrypts either factor."""
    monkeypatch.setattr(session, "ctmm_client_round", lambda *_: pytest.fail(
        "decrypted a refused factor"))
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, MM_OPEN, _one_too_many, FIRST_CT), CFG,
            weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert (f"mm-open frame of {3 * CT_BYTES} bytes, the plan's has "
            f"{2 * CT_BYTES}") in str(client_err)
    assert isinstance(server_err, ProtocolError)


def test_server_refuses_a_set_pad_bit_in_the_ot_request():
    """The derandomization bits of a stage fill their last byte only in
    part: the first request of this shape carries 43 x 27 = 1,161 bits, so
    7 pad bits.  A client that sets one is refused, though the bits the
    server reads are the honest ones."""
    cfg = ModelConfig(vocab=5, seq_len=3, dim=3, ff_dim=5, n_layers=1,
                      n_classes=2)
    spec = session_geometry(cfg, "opt1").plan.stage(0, "qkv_rescale")
    assert spec.m * spec.count == 1161
    wts = gen_random(cfg, 7, scale=0.25)

    def last_pad_bit(blob: bytearray):
        blob[-1] |= 1

    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, cfg, wts, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, STAGE_OT_REQ, last_pad_bit),
            [1, 4, 0], seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert "pad bit" in str(server_err)
    assert isinstance(client_err, ProtocolError)


def test_client_refuses_a_correction_word_past_p(weights):
    """The last B2A correction word of the first stage-ot-resp frame
    arrives as itself plus p, which would fold to the same share; the
    client refuses it as not reduced before it evaluates anything."""
    def plus_p(blob: bytearray):
        (word,) = struct.unpack("<Q", blob)
        struct.pack_into("<Q", blob, 0, word + PARAMS.p)

    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, STAGE_OT_RESP, plus_p, slice(-8, None)),
            CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert "correction word not reduced" in str(client_err)
    assert isinstance(server_err, ProtocolError)


def _pad_1000(blob: bytearray):
    blob.extend(bytes(1000))


def _one_share_more(blob: bytearray):
    # the QKV stage sends three shares of the same layout
    blob.extend(blob[-len(blob) // 3:])


@pytest.mark.parametrize("server_edit,client_edit,refuser,error", [
    pytest.param((MM_OPEN, _pad_1000), None, "client",
                 "mm-open frame of", id="mm-open-flgs"),
    pytest.param(None, (STAGE_SHARE, _one_share_more), "server",
                 "stage-share frame of", id="stage-share-extra"),
])
def test_receiver_refuses_fields_it_does_not_read(weights, server_edit,
                                                  client_edit, refuser,
                                                  error):
    """A frame padded with bytes its receiver does not read is refused by
    its length, before any part is decoded: 1,000 bytes after the first
    product's factors, and a fourth share on the three-group QKV stage."""
    def wrap(conn, edit):
        return conn if edit is None else _EditFirstFrame(conn, *edit)

    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(wrap(conn, server_edit), CFG,
                                        weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(wrap(conn, client_edit), TOKENS,
                                        seed=12)))
    errs = {"server": server_err, "client": client_err}
    assert isinstance(server_err, ProtocolError)
    assert isinstance(client_err, ProtocolError)
    assert error in str(errs[refuser])


class _Counting:
    """One end of the transport that counts the bytes its reads return."""

    def __init__(self, conn):
        self._conn, self.read = conn, 0

    def send(self, data: bytes):
        return self._conn.send(data)

    def recv_exact(self, n: int) -> bytes:
        out = self._conn.recv_exact(n)
        self.read += len(out)
        return out

    def close(self):
        self._conn.close()


SERVER_SENDS = {HELLO, OT_BASE, STAGE_OPEN, STAGE_OT_RESP, MM_OPEN, LOGITS}


@pytest.fixture(scope="module")
def honest_frames(weights):
    _forget_key_sets()
    server, _ = private_inference(CFG, weights, TOKENS, "opt1",
                                  server_seed=11, client_seed=12)
    return server.transcript.frames


@pytest.mark.parametrize("ftype", sorted(FRAME_NAMES),
                         ids=[FRAME_NAMES[t] for t in sorted(FRAME_NAMES)])
@pytest.mark.parametrize("edit,retype,error", [
    pytest.param(lambda b: b.__delitem__(-1), False, "{} frame of",
                 id="one-byte-short"),
    pytest.param(lambda b: b.append(0), False, "{} frame of",
                 id="one-byte-long"),
    pytest.param(lambda b: None, True, "expected {} frame, got",
                 id="wrong-type"),
])
def test_frame_of_wrong_length_is_refused_unread(weights, honest_frames,
                                                 ftype, edit, retype, error):
    """The first frame of each type arrives one byte short, one byte long
    (under a header honest about its length) or under the next type's
    number.  The receiver refuses it from the header alone: it has read
    exactly the frames before it and this frame's header, and not one
    payload byte.  Both parties end in a ProtocolError, except that the
    server has nothing left to read after the logits frame and ends its
    session."""
    by_server = ftype in SERVER_SENDS
    as_type = ftype % len(FRAME_NAMES) + 1 if retype else None
    before = sum(_HEADER.size + f.nbytes for f in
                 honest_frames[:[f.ftype for f in honest_frames].index(ftype)]
                 if (f.direction == "sent") == by_server)
    ends = {}

    def party(role, fn):
        def run(conn):
            if (role == "server") == by_server:
                conn = _EditFirstFrame(conn, ftype, edit, as_type=as_type)
            else:
                conn = ends.setdefault("receiver", _Counting(conn))
            return fn(conn)
        return _caught(run)

    server_out, client_out = run_pair(
        party("server", lambda c: run_server(c, CFG, weights, "opt1",
                                             seed=11)),
        party("client", lambda c: run_client(c, TOKENS, seed=12)))
    refused, other = ((client_out, server_out) if by_server
                      else (server_out, client_out))
    assert isinstance(refused, ProtocolError)
    assert error.format(FRAME_NAMES[ftype]) in str(refused)
    assert ends["receiver"].read == before + _HEADER.size
    if ftype == LOGITS:
        assert not isinstance(other, Exception)
    else:
        assert isinstance(other, ProtocolError)


def _flip_prefix_to_5(blob: bytearray):
    blob[0] = 5


def _one_point_short(blob: bytearray):
    del blob[-POINT_BYTES:]


def test_server_refuses_bad_base_ot_point(weights):
    """An ACCEPT whose base-OT point A is not a compressed P-256 point is
    refused by the server before it sends any point of its own."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, ACCEPT, _flip_prefix_to_5,
                            slice(-POINT_BYTES, None)), TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert "base-OT point refused" in str(server_err)
    assert isinstance(client_err, ProtocolError)


def test_client_refuses_base_ot_list_one_point_short(weights):
    """The ot-base frame must hold the answer byte and exactly 128 points
    of 33 bytes."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, OT_BASE, _one_point_short), CFG,
            weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert "ot-base frame of 4192 bytes, the plan's has 4225" in \
        str(client_err)
    assert isinstance(server_err, ProtocolError)


def _residue_past_q0(blob: bytearray):
    # a ciphertext's first word is its first residue mod q_0
    struct.pack_into("<Q", blob, 0, PARAMS.q_primes[0])


@pytest.mark.parametrize("edit,error", [
    pytest.param(_one_fresh_too_few, "mm-reply frame of", id="one-too-few"),
    pytest.param(lambda b: b.__delitem__(slice(len(b) // 2, None)),
                 "mm-reply frame of", id="truncated"),
    pytest.param(lambda b: b.extend(b"\0"), "mm-reply frame of",
                 id="trailing-bytes"),
    pytest.param(_residue_past_q0, "residue not reduced",
                 id="residue-past-q"),
])
def test_server_rejects_malformed_mm_reply(weights, edit, error):
    """The first product reply arrives malformed; the server refuses it with
    a ProtocolError before it multiplies anything.  The length it accepts is
    the one its mask state implies (k + 1 = 5 ciphertexts for the 4 x 4
    inner product of opt1).  A flip that still decodes to well-formed
    ciphertexts is not caught: this protocol is semi-honest, and such a
    reply only corrupts the client's own result."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, MM_REPLY, edit), TOKENS, seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert error in str(server_err)
    assert isinstance(client_err, ProtocolError)


# the hello fields in wire order, as the tiny opt1 server sends them (the
# client rederives ring and prime, so the forged prime never matters)
HELLO_FIELDS = dict(mode=MODES.index("opt1"), vocab=CFG.vocab,
                    seq_len=CFG.seq_len, dim=CFG.dim, ff_dim=CFG.ff_dim,
                    n_layers=CFG.n_layers, n_classes=CFG.n_classes, w=CFG.w,
                    f=CFG.f, ring=512, prime=0)


def _hello(**changes) -> bytes:
    return struct.pack("<B10Q", *{**HELLO_FIELDS, **changes}.values())


@pytest.mark.parametrize("forge,error", [
    pytest.param(lambda: _hello(seq_len=1 << 40), "limit", id="seq_len"),
    pytest.param(lambda: _hello(vocab=session.MAX_WIDTH + 1), "limit",
                 id="vocab"),
    pytest.param(lambda: _hello(n_layers=session.MAX_LAYERS + 1), "limit",
                 id="n_layers"),
    pytest.param(lambda: _hello(n_classes=1), "two classes", id="n_classes"),
    pytest.param(lambda: _hello(n_classes=session.MAX_CLASSES + 1), "limit",
                 id="n_classes_past_limit"),
    pytest.param(lambda: _hello(f=40), "bad widths", id="widths"),
    pytest.param(lambda: _hello(mode=len(MODES)), "unknown mode index 3",
                 id="mode-out-of-range"),
    pytest.param(lambda: _hello()[:-1], "hello frame of 80 bytes",
                 id="one-byte-short"),
    pytest.param(lambda: _hello() + b"\0", "hello frame of 82 bytes",
                 id="one-byte-long"),
])
def test_client_refuses_oversized_hello_before_planning(monkeypatch, forge,
                                                         error):
    """A forged hello asks for a width past `MAX_WIDTH` (one row of the
    largest ring), more layers than `MAX_LAYERS`, a logits frame past
    `MAX_CLASSES` ciphertexts, a shape `ModelConfig` refuses or a mode
    `MODES` does not have, or is not 81 bytes long; the client refuses it
    before the plan, the ring or any key is sized.  The shape is the
    peer's, so the refusal is a ProtocolError, not a ParameterError."""
    assert len(_hello()) == session.HELLO_BYTES == 81
    monkeypatch.setattr(ModelConfig, "plan",
                        lambda *_: pytest.fail("planned a hostile hello"))
    sconn, cconn = memory_pair()
    write_frame(sconn, HELLO, forge())
    with pytest.raises(ProtocolError, match=error):
        run_client(cconn, TOKENS, seed=12)


def test_geometry_limits_admit_their_bounds():
    """A shape whose widest held row fills a row of the largest ring, one
    whose vocabulary is exactly `MAX_WIDTH`, one with exactly `MAX_LAYERS`
    layers and one with exactly `MAX_CLASSES` classes still size a
    session."""
    assert session.MAX_WIDTH == session.MAX_RING_DEGREE // 2 == 4096
    long = replace(CFG, seq_len=session.MAX_WIDTH)
    assert session_geometry(long, "opt2").n == session.MAX_RING_DEGREE
    # a vocabulary is never a held row: the one-hot input's columns are
    # seq_len-slot blocks, so the widest vocabulary keeps the floor ring
    wide = replace(CFG, vocab=session.MAX_WIDTH)
    assert session_geometry(wide, "opt1").n == session.MIN_RING_DEGREE
    deep = replace(CFG, n_layers=session.MAX_LAYERS)
    assert session_geometry(deep, "opt2").plan.encoders
    many = replace(CFG, n_classes=session.MAX_CLASSES)
    assert session_geometry(many, "opt1").cfg.n_classes == 99


def _reply_bytes(geom):
    """The mm-reply bytes of a session: per encrypted r x k by k x c
    product, k + 1 fresh batches in the rows layout of its r x c result."""
    held, total = {"x": geom.input_layout}, 0
    for e, enc in enumerate(geom.plan.encoders):
        for spec in enc:
            if not spec.plain:
                (r, k), (_, c) = (lay.shape for lay in spec.factors(held))
                total += (k + 1) * geom.nbytes(Layout(ROWS, r, c), fresh=True)
            held.update(zip(spec.tags, geom.stage_shares(e, spec)))
    return total


MATRIX_FRAMES = {"client-setup", "stage-open", "stage-share", "mm-open",
                 "mm-reply"}


@pytest.mark.parametrize("mode", MODES)
def test_session_bound_counts_every_matrix_frame(weights, mode):
    """The matrices `Geometry.sent` names, which `MAX_SESSION_BYTES`
    bounds, are byte for byte the encrypted matrices a session sends: the
    input in client-setup past a first session's key blob, tree-level
    messages and OT columns, every stage-open, stage-share and mm-open, and
    every mm-reply."""
    server, _ = private_inference(CFG, weights, TOKENS, mode,
                                  server_seed=11, client_seed=12)
    geom = server.geometry
    frames = [f for f in server.transcript.frames if f.name in MATRIX_FRAMES]
    ot_part = (pahe.key_blob_nbytes(geom.params, len(geom.galois))
               + 32 * LAMBDA + COLUMNS * -(-geom.ot_total // 8))
    assert (sum(f.nbytes for f in frames) - ot_part
            == sum(geom.nbytes(lay, fresh) for lay, fresh in geom.sent()))
    assert sum(f.nbytes for f in frames if f.name == "mm-reply") \
        == _reply_bytes(geom) > 0


def test_product_replies_alone_push_a_hello_past_the_bound(monkeypatch,
                                                           limit):
    """opt2 at seq_len `MAX_WIDTH` over two layers: every frame but
    mm-reply fits `MAX_SESSION_BYTES`, but the replies to its attention
    products, k + 1 fresh batches each, do not; the client refuses the
    hello before it makes a key."""
    long = replace(CFG, seq_len=session.MAX_WIDTH, n_layers=2)
    cap = session.MAX_SESSION_BYTES
    limit("MAX_SESSION_BYTES", 1 << 40)
    geom = session_geometry(long, "opt2")
    limit("MAX_SESSION_BYTES", cap)
    total, labels = _session_bytes(geom)
    assert labels <= total - _reply_bytes(geom) <= cap < total
    for name in ("_client_keys", "pack_colblocks"):
        monkeypatch.setattr(session, name, _sized_a_hostile_session)
    sconn, cconn = memory_pair()
    write_frame(sconn, HELLO, _hello(mode=MODES.index("opt2"),
                                     seq_len=session.MAX_WIDTH, n_layers=2))
    with pytest.raises(ProtocolError, match="bytes of encrypted matrices, "
                                            "above the limit"):
        run_client(cconn, TOKENS, seed=12)


def _session_bytes(geom):
    """(the bytes of every stage-ot-resp frame and encrypted matrix of a
    session, the largest label array one of its garblings holds: that of
    a stage, whose groups are garbled in one walk)."""
    walks = [(geom.walk(spec), spec.instances) for enc in geom.plan.encoders
             for spec in enc]
    sent = sum((32 * walk.n_and + 8 * walk.outputs.size) * E
               for walk, E in walks)
    sent += sum(geom.nbytes(lay, fresh) for lay, fresh in geom.sent())
    return sent, max(16 * E * walk.n_wires for walk, E in walks)


def test_session_limits_admit_their_bounds(limit):
    """A plan needing exactly `MAX_OTS` random OTs, or exactly
    `MAX_SESSION_BYTES` of garbled stages and encrypted matrices together,
    still sizes a session; one more than the limit is refused."""
    geom = session_geometry(CFG, "opt1")
    sent, labels = _session_bytes(geom)
    assert labels < sent
    for name, need in (("MAX_OTS", geom.ot_total),
                       ("MAX_SESSION_BYTES", sent)):
        old = getattr(session, name)
        limit(name, need)
        assert session_geometry(CFG, "opt1") == geom
        limit(name, need - 1)
        with pytest.raises(ParameterError, match="above the limit"):
            session_geometry(CFG, "opt1")
        limit(name, old)


def test_label_limit_admits_its_bound(limit):
    """gc-l16's row divider holds more label bytes than the whole session
    sends: a garbling of exactly `MAX_SESSION_BYTES` of labels still sizes
    a session, one byte more is refused."""
    geom = session_geometry(GC_L16, "baseline")
    sent, labels = _session_bytes(geom)
    assert labels > sent
    limit("MAX_SESSION_BYTES", labels)
    assert session_geometry(GC_L16, "baseline") == geom
    limit("MAX_SESSION_BYTES", labels - 1)
    with pytest.raises(ParameterError, match=f"{labels} bytes of wire labels "
                                             "at once, above the limit"):
        session_geometry(GC_L16, "baseline")


def _sized_a_hostile_session(*_, **__):
    pytest.fail("sized a hostile session")


@pytest.mark.parametrize("forge,error", [
    # 64 layers, each with a dim x dim product: about 7.8e10 random OTs
    pytest.param(lambda: _hello(mode=MODES.index("opt2"),
                                dim=session.MAX_WIDTH, w=8, f=4,
                                n_layers=session.MAX_LAYERS),
                 "random OTs, above the limit", id="dim-squared"),
    # a one-hot input of MAX_WIDTH x MAX_WIDTH: 1.9 GB of matrices
    pytest.param(lambda: _hello(mode=MODES.index("opt2"),
                                seq_len=session.MAX_WIDTH,
                                vocab=session.MAX_WIDTH),
                 "bytes of encrypted matrices, above the limit",
                 id="one-hot"),
    # the attention row divider over 512-entry rows: 11.5 GB of labels
    pytest.param(lambda: _hello(mode=MODES.index("baseline"), seq_len=512),
                 "bytes of wire labels at once, above the limit",
                 id="row-divider-labels"),
    # sixteen layers of 128-entry row dividers: 4.1 GB of tables
    pytest.param(lambda: _hello(mode=MODES.index("baseline"), seq_len=128,
                                n_layers=16),
                 "bytes of garbled stages and", id="garbled-stages"),
])
def test_client_refuses_oversized_session_before_keys(monkeypatch, forge,
                                                       error):
    """Every width of these hellos is within `MAX_WIDTH`, but the session
    planned from them would need more than `MAX_OTS` random OTs, more than
    `MAX_SESSION_BYTES` of garbled stages and encrypted matrices, or a
    garbling of more than `MAX_SESSION_BYTES` of labels: the client
    refuses it before it makes any key, extends any OT or packs its
    input."""
    for name in ("_client_keys", "pack_colblocks"):
        monkeypatch.setattr(session, name, _sized_a_hostile_session)
    monkeypatch.setattr(session.OtExtReceiver, "extend",
                        _sized_a_hostile_session)
    sconn, cconn = memory_pair()
    write_frame(sconn, HELLO, forge())
    with pytest.raises(ProtocolError, match=error):
        run_client(cconn, TOKENS, seed=12)


def test_garbled_stages_bound_a_hello_the_other_limits_admit(limit):
    """A baseline shape of seq_len 512 passes the OT and matrix limits
    (11,614,208 OTs; 140,012,160 bytes of matrices, 88,624,192 of them
    product replies), but its attention row divider, 250,890 ANDs and
    1,409,027 wires over 512 rows, would make
    the client expect a 4.1 GB stage-ot-resp and hold 11.5 GB of labels:
    `session_geometry` refuses it, and the client refuses its hello as a
    ProtocolError (`row-divider-labels` above)."""
    with pytest.raises(ParameterError, match="11542749184 bytes of wire "
                                             "labels at once"):
        session_geometry(replace(CFG, seq_len=512), "baseline")
    with pytest.raises(ProtocolError, match="server hello refused: .* wire "
                                            "labels"):
        session.hello_geometry(_hello(mode=MODES.index("baseline"),
                                      seq_len=512))
    limit("MAX_SESSION_BYTES", 1 << 40)
    geom = session_geometry(replace(CFG, seq_len=512), "baseline")
    assert geom.ot_total == 11_614_208 <= session.MAX_OTS
    assert sum(geom.nbytes(lay, fresh)
               for lay, fresh in geom.sent()) == 140_012_160
    assert _reply_bytes(geom) == 140_012_160 - 51_387_968
    assert _session_bytes(geom)[1] == 11_542_749_184


def _recording(fn, pick, seen):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen.append(pick(args, out))
        return out
    return wrapped


@pytest.mark.parametrize("mode", MODES)
def test_session_sends_only_the_layouts_the_geometry_names(monkeypatch,
                                                           mode):
    """Every matrix either party encodes or decodes in a session, and the
    product each encrypted matrix product assembles from the reply, has a
    layout `Geometry.layouts` names, so the ring sized from those layouts
    holds every row the parties send.  seq_len and dim differ, so the
    session's held rows come in both widths."""
    cfg = ModelConfig(vocab=8, seq_len=6, dim=4, ff_dim=8, n_layers=1,
                      n_classes=2)
    tokens = [1, 5, 0, 3, 7, 2]
    seen: list[Layout] = []
    for name, pick in (("encmatrix_from_bytes", lambda a, out: a[2]),
                       ("encmatrix_to_bytes", lambda a, out: a[0].layout),
                       ("ctmm_server_finalize", lambda a, out: out.layout)):
        monkeypatch.setattr(session, name,
                            _recording(getattr(session, name), pick, seen))
    wts = gen_random(cfg, 7, scale=0.25)
    server, client = private_inference(cfg, wts, tokens, mode,
                                       server_seed=11, client_seed=12)
    assert np.array_equal(client.logits,
                          forward_fixed(cfg, wts, tokens, mode).logits)
    named = set(server.geometry.layouts())
    assert set(seen) <= named
    assert {lay.held[1] for lay in seen} == {cfg.seq_len, cfg.dim}


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


@pytest.mark.parametrize("side", ["client", "server"])
def test_private_inference_raises_the_first_failure(weights, side):
    """When both parties fail, the first failure is the cause and the
    peer's "peer closed the connection" follows it: `run_pair` re-raises
    the cause, whichever side it came from -- an out-of-range token at the
    client, weights of the wrong shape at the server."""
    tokens, wts, want = TOKENS, weights, "classifier has shape"
    if side == "client":
        tokens, want = [0, 1, 2, 99], "token id out of range"
    else:
        wts = replace(weights, classifier=weights.classifier[:, :1])
    with pytest.raises(ParameterError, match=want):
        private_inference(CFG, wts, tokens, "opt1", server_seed=11,
                          client_seed=12)


@pytest.mark.parametrize("edit,span,error", [
    pytest.param(_one_too_few, slice(None), "logits frame of",
                 id="missing-class"),
    pytest.param(_one_too_many, slice(None), "logits frame of",
                 id="extra-class"),
    pytest.param(lambda b: b.__delitem__(slice(-9, None)), FIRST_CT,
                 "logits frame of", id="truncated"),
    pytest.param(_residue_past_q0, FIRST_CT, "residue not reduced",
                 id="residue-past-q0"),
])
def test_client_refuses_malformed_logits(weights, edit, span, error):
    """The logits frame must hold exactly one well-formed ciphertext per
    class.  A flip that still decodes is not caught: the protocol is
    semi-honest, and such a frame only changes the client's own logits."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(
            _EditFirstFrame(conn, LOGITS, edit, span), CFG, weights, "opt1",
            seed=11)),
        _caught(lambda conn: run_client(conn, TOKENS, seed=12)))
    assert isinstance(client_err, ProtocolError)
    assert error in str(client_err)
    assert not isinstance(server_err, Exception)


# each Galois key of a key blob is its (k, k, n) k0 digit stack, packed at
# the basis' width b, and the 16-byte seed of its k1 stack; the blob opens a
# first session's client-setup
KEY_BYTES = PARAMS.residue_bits * PARAMS.k * PARAMS.k * PARAMS.n // 8 + 16
KEY_BLOB = slice(0, KEY_BLOB_BYTES)


def _one_key_too_few(blob: bytearray):
    del blob[-KEY_BYTES:]


def _one_key_too_many(blob: bytearray):
    blob.extend(blob[-KEY_BYTES:])


@pytest.mark.parametrize("edit,error", [
    pytest.param(_one_key_too_few, "client-setup frame of", id="one-too-few"),
    pytest.param(_one_key_too_many, "client-setup frame of",
                 id="one-too-many"),
])
def test_server_refuses_key_blob_off_the_geometry(weights, edit, error):
    """The server accepts a key for exactly each Galois element of the
    geometry's giant steps, no more and no fewer: client-setup with one
    key too few or too many is refused from its header."""
    server_err, client_err = run_pair(
        _caught(lambda conn: run_server(conn, CFG, weights, "opt1", seed=11)),
        _caught(lambda conn: run_client(
            _EditFirstFrame(conn, CLIENT_SETUP, edit, KEY_BLOB), TOKENS,
            seed=12)))
    assert isinstance(server_err, ProtocolError)
    assert error in str(server_err)
    assert isinstance(client_err, ProtocolError)


@pytest.mark.parametrize("cfg,steps,keys", [
    pytest.param(CFG, 5, 4, id="tiny"),
    pytest.param(replace(CFG, n_layers=2), 5, 4, id="tiny-two-layer"),
    pytest.param(ModelConfig(vocab=8, seq_len=16, dim=4, ff_dim=8,
                             n_layers=1, n_classes=2), 5, 4, id="gc-l16"),
    pytest.param(ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32,
                             n_layers=2, n_classes=2), 8, 3, id="he-small"),
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
    ev = Evaluator(km, seed=4)
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
        out = colblock_matmul(ev, pack_colblocks(ev, X, steps=geom.steps), W)
        assert np.array_equal(decrypt_matrix(km, out), matmul_mod(X, W, geom.p))
    assert used - {0} == set(geom.rotations)


@pytest.mark.parametrize("shape", [
    pytest.param((8, 4, 4, 8, 1), id="tiny"),
    pytest.param((8, 16, 4, 8, 1), id="gc-l16"),
    pytest.param((32, 8, 16, 32, 2), id="he-small"),
    pytest.param((512, 4, 4, 8, 1), id="wide-vocab"),
    pytest.param((8, 4, 4, 600, 1), id="wide-ff"),
    pytest.param((8, 4, 300, 8, 2), id="wide-dim"),
    pytest.param((8, 4, 600, 8, 1), id="wider-dim"),
    pytest.param((8, 256, 4, 8, 1), id="seq-fills-floor"),
    pytest.param((8, 257, 4, 8, 2), id="seq-past-floor"),
    pytest.param((8, 300, 4, 8, 1), id="seq-widest"),
    pytest.param((8, 100, 4, 8, 1), id="seq-two-to-a-row"),
])
@pytest.mark.parametrize("mode", MODES)
def test_ring_is_the_smallest_that_holds_every_layout(limit, shape, mode):
    """Every layout the geometry names fits the ring, one whole-ring slot
    vector per ciphertext, with all its baby-step copies two to a
    ciphertext, and the ring is the smallest whose row holds every held
    row: above the floor, the next smaller ring's row is narrower than some
    held row.
    The ring does not depend on the session's size, so its limit is
    lifted: baseline's row dividers from seq_len 256 and opt1's at dim 600
    garble more than `MAX_SESSION_BYTES` of labels at once."""
    limit("MAX_SESSION_BYTES", 1 << 40)
    vocab, L, d, ff, layers = shape
    cfg = ModelConfig(vocab=vocab, seq_len=L, dim=d, ff_dim=ff,
                      n_layers=layers, n_classes=2)
    geom = session_geometry(cfg, mode)
    lays = geom.layouts()
    assert geom.input_layout in lays
    assert geom.n & (geom.n - 1) == 0
    assert session.MIN_RING_DEGREE <= geom.n <= session.MAX_RING_DEGREE
    for lay in lays:
        vecs = layout_vectors(geom.params, lay,
                              np.zeros(lay.shape, dtype=np.uint64))
        assert vecs.shape == (lay.ct_count(geom.params), geom.n)
    if geom.n > session.MIN_RING_DEGREE:
        assert max(lay.held[1] for lay in lays) > geom.n // 4


def test_geometry_check_compares_copies():
    """A product input must carry the geometry's baby-step copies and a
    stage input exactly one: the attn_rescale share and the ff_out input
    are both 4 x 4 column blocks, and each layout refuses the other's
    payload by its ciphertext count, five copies taking three."""
    geom = session_geometry(CFG, "opt1")
    km = keygen(geom.params, seed=3)
    ev = Evaluator(km, seed=4)
    X = np.zeros((CFG.seq_len, CFG.dim), dtype=np.uint64)
    one = encmatrix_to_bytes(pack_colblocks(ev, X))
    many = encmatrix_to_bytes(pack_colblocks(ev, X, steps=geom.steps))
    shape = (CFG.seq_len, CFG.dim)
    (share,) = geom.stage_shares(0, geom.plan.stage(0, "attn_rescale"))
    stage_in = geom.stage_input(geom.plan.stage(0, "ff_out"))
    assert share == Layout(COLBLOCKS, *shape, geom.steps)
    assert stage_in == Layout(COLBLOCKS, *shape)
    assert encmatrix_from_bytes(many, geom.params, share,
                                fresh=True).layout == share
    assert encmatrix_from_bytes(one, geom.params, stage_in,
                                fresh=True).layout == stage_in
    with pytest.raises(ProtocolError, match="needs 3 ciphertexts"):
        encmatrix_from_bytes(one, geom.params, share, fresh=True)
    with pytest.raises(ProtocolError, match="needs 1 ciphertexts"):
        encmatrix_from_bytes(many, geom.params, stage_in, fresh=True)


# The layouts as a hand-written table gave them before the plan named the
# product feeding each stage: stage -> (input packing, share packing).
_OLD_STAGE_PACKING = {
    "qkv_rescale": (COLBLOCKS, ROWS),
    "attn_weights": (ROWS, ROWS),
    "attn_inner": (ROWS, ROWS),
    "attn_rescale": (ROWS, COLBLOCKS),
    "ff_hidden": (COLBLOCKS, COLBLOCKS),
    "ff_out": (COLBLOCKS, COLBLOCKS),
}


def _old_share_steps(geom, layer, stage):
    """Copies of a stage's share: `steps` for the feed-forward input and
    hidden layer and the next layer's QKV input, else 1."""
    feeds_product = (stage in ("attn_rescale", "ff_hidden")
                     or (stage == "ff_out" and layer < geom.cfg.n_layers - 1))
    return geom.steps if feeds_product else 1


def _old_products(cfg):
    shapes = [(cfg.vocab, 3 * cfg.dim), (cfg.dim, cfg.ff_dim),
              (cfg.ff_dim, cfg.dim)]
    if cfg.n_layers > 1:
        shapes.append((cfg.dim, 3 * cfg.dim))
    return shapes


@pytest.mark.parametrize("cfg", [
    pytest.param(CFG, id="tiny"),
    pytest.param(replace(CFG, n_layers=2), id="tiny-two-layer"),
    pytest.param(ModelConfig(vocab=8, seq_len=16, dim=4, ff_dim=8,
                             n_layers=1, n_classes=2), id="gc-l16"),
    pytest.param(ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32,
                             n_layers=2, n_classes=2), id="he-small"),
])
def test_layouts_derived_from_the_plan_match_the_old_table(cfg):
    """In every mode, the stage-input and share layouts the geometry derives
    from the products reading each tensor equal the old table and copy rule,
    the plain-weight product shapes equal the old list, and every product
    reads "x", a weight or an earlier tag of its layer, with agreeing inner
    widths."""
    L, d, ff = cfg.seq_len, cfg.dim, cfg.ff_dim
    for mode in MODES:
        geom = session_geometry(cfg, mode)
        assert list(geom.products) == _old_products(cfg)
        for e, enc in enumerate(geom.plan.encoders):
            shapes = {"x": (L, cfg.vocab if e == 0 else d),
                      "wqkv": (cfg.vocab if e == 0 else d, 3 * d),
                      "ff1": (d, ff), "ff2": (ff, d)}
            for spec in enc:
                packing, share_packing = _OLD_STAGE_PACKING[spec.name]
                assert geom.stage_input(spec) == Layout(packing, spec.rows,
                                                        spec.row_len)
                steps = _old_share_steps(geom, e, spec.name)
                assert geom.stage_shares(e, spec) == [
                    Layout(share_packing, spec.rows, g.count // spec.rows,
                           steps) for g in spec.groups]
                a, b = shapes[spec.left][::-1 if spec.t_left else 1]
                c, f = shapes[spec.right][::-1 if spec.t_right else 1]
                assert b == c and (a, f) == (spec.rows, spec.row_len)
                shapes.update((g.tag, (spec.rows, g.count // spec.rows))
                              for g in spec.groups)
