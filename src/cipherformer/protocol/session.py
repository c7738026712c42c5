"""The two-party inference session.

Roles: the *server* holds the model weights; the *client* holds the token
sequence and the decryption key.  Everything the server learns is masked;
everything the client learns besides the final logits is either uniformly
random or encrypted under its own key.

One session is a fixed flight plan:

  hello          server -> client   model geometry (the client rederives the
                                    ring/modulus itself and refuses on any
                                    disagreement)
  accept         client -> server   public + rotation keys, base-OT point
  ot-base        server -> client   base-OT response points
  client-setup   client -> server   OT extension seeds + correction matrix,
                                    and the encrypted one-hot input

then per encoder layer, five garbled stages of four frames each
(stage-open / stage-ot-req / stage-ot-resp / stage-share) interleaved with
two encrypted matrix products of two frames each (mm-open / mm-reply), and a
final logits frame.  Every frame in either direction counts as one round, so
the round count is the same constant for every input of a given shape.

Share switching works on a per-stage window of m bits: the server adds
2^{m-1} + R (R fresh, below p - 2^m) onto each wire and ships the
ciphertexts; the client's decryption mod 2^m and the server's (-R) mod 2^m
are exact additive shares for the stage circuit.  The wires sit in the
slots of the stage input's packing (`helinear` decides which slot holds
which entry, many matrix rows to a ciphertext), and the offsets are laid out
by the same rule, so every other slot decrypts to zero.  Stage outputs come
back to the field through label-keyed pads: for every output bit the server
publishes a pair of corrections indexed by the label's colour bit, built so
the pad the client can recompute plus the matching correction equals
bit * weight + rho  mod p -- an additive sharing of the weighted output bit
that costs no extra gates, no extra OTs and no extra frames.  The client
sums its word shares, packs and encrypts them fresh (which also resets
ciphertext depth), and the server folds in the rho totals on its side.

The ciphertext-by-ciphertext products mask both factors, let the client
multiply in the clear, and finish the cross terms homomorphically; the
result is a plain rows matrix, so every stage input is `rows` or
`colblocks` and every stage mask is one `add_offset`.

The plain-weight products run baby-step giant-step (see `helinear`): every
matrix one of them reads -- the encrypted input and the shares of
attn_rescale, ff_hidden and of every ff_out but the last -- is a fresh
client encryption, so the client sends it as `Geometry.steps` rotated
copies inside the frame that already carries it, and the server needs
rotation keys for the giant steps only.

No payload describes itself.  A matrix, a ciphertext list or the key blob
is data only, and each receiver decodes it against the layout and count its
own `Geometry` names: the stage input and shares by `_STAGE_PACKING`, the
product factors as the shares they were made from (mm-open carries no
transpose flags; both parties' loops name the transposes), the reply by the
mask state, the key blob by the giant steps.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from math import isqrt

import numpy as np

from ..errors import ParameterError, ProtocolError
from ..fixedpoint import to_field, to_signed
from ..gc.circuit import to_bits
from ..gc.garble import active_output_pads, evaluate, garble
from ..gc.ot import (LAMBDA, BaseOtReceiver, BaseOtSender, OtExtReceiver,
                     OtExtSender, RandomOtBatch, RandomOtSenderBatch)
from ..helinear import (COLBLOCKS, ROWS, CtmmMasked, EncMatrix, Layout,
                        add_offset, colblock_diagonals, colblock_matmul,
                        colblock_rotation_amounts,
                        ct_list_from_bytes, ct_list_to_bytes,
                        ctmm_client_round, ctmm_reply_count,
                        ctmm_server_finalize, ctmm_server_mask, decrypt_matrix,
                        encmatrix_from_bytes, encmatrix_to_bytes,
                        layout_vectors, pack_colblocks, pack_rows)
from ..model import (ModelConfig, Weights, folded_first_layer,
                     validate_weights, value_projection)
from ..ntt import reduce128
from ..pahe import (Evaluator, KeyMaterial, PaheParams, ct_from_bytes,
                    ct_to_bytes, encode_plain_many, galois_elements, keygen,
                    public_keys_from_bytes, public_keys_to_bytes,
                    session_params)
from ..stages import (MODES, StagePlan, StageSpec, b2a_weights,
                      choose_plaintext_prime, client_window_share,
                      garbler_window_share, sample_stage_masks,
                      stage_circuits, stage_offsets)
from .framing import (ACCEPT, CLIENT_SETUP, HELLO, LOGITS, MM_OPEN, MM_REPLY,
                      OT_BASE, STAGE_OPEN, STAGE_OT_REQ, STAGE_OT_RESP,
                      STAGE_SHARE, decode_fields, encode_fields, need,
                      pack_array, pack_bigint, pack_u64, read_frame,
                      unpack_array, unpack_bigint, unpack_u64, write_frame)
from .transcript import Transcript
from .transport import run_pair

_OT_PROFILE = "toy"

# the largest session either party will size, checked before anything is
# allocated, so a peer's hello cannot size an arbitrarily large ring, plan
# or key set.  2^14 still holds the n = 8192 rings of standard RLWE tables.
MAX_RING_DEGREE = 1 << 14
MAX_LAYERS = 64
# the logits frame tags its classes lg00 .. lg98
MAX_CLASSES = 99


# ----------------------------------------------------------------------------
# geometry: everything both parties must agree on before any payload flows


def _pow2ceil(x: int) -> int:
    return 1 << max(x - 1, 0).bit_length()


@dataclass(frozen=True)
class Geometry:
    """Everything both parties agree on before any payload flows, and the
    layout of every matrix either one sends: the receiver decodes each
    payload against the layout named here, never against the bytes."""

    cfg: ModelConfig
    mode: str
    plan: StagePlan
    n: int                      # ring degree
    p: int                      # plaintext modulus
    sigma: float                # statistical masking slack, bits
    params: PaheParams
    products: tuple[tuple[int, int], ...]  # plain-weight (in, out) widths
    steps: int                  # baby-step copies of each product input
    rotations: tuple[int, ...]  # giant-step column-rotation key amounts
    ot_total: int               # random OTs one session consumes

    @property
    def galois(self) -> tuple[int, ...]:
        """The Galois elements of the rotation keys, in key-blob order."""
        return galois_elements(self.params, self.rotations)

    def share_steps(self, layer: int, stage: str) -> int:
        """Baby-step copies the client sends of a stage's output share:
        `steps` where a plain-weight product reads it (the feed-forward
        input and hidden layer, and the next layer's QKV input), else 1."""
        feeds_product = (stage in ("attn_rescale", "ff_hidden")
                         or (stage == "ff_out"
                             and layer < self.cfg.n_layers - 1))
        return self.steps if feeds_product else 1

    def layout(self, packing: str, shape: tuple[int, int],
               steps: int = 1) -> Layout:
        """A `packing` matrix of `shape`; column blocks are one sequence
        long."""
        block = self.cfg.seq_len if packing == COLBLOCKS else 0
        return Layout(packing, *shape, block, steps)

    @property
    def input_layout(self) -> Layout:
        """The client's encrypted one-hot input, which the first product
        reads."""
        return self.layout(COLBLOCKS, (self.cfg.seq_len, self.cfg.vocab),
                           self.steps)

    def stage_input(self, spec: StageSpec) -> Layout:
        """The masked input matrix a stage opens with."""
        return self.layout(_STAGE_PACKING[spec.name][0],
                           (spec.rows, spec.row_len))

    def stage_shares(self, layer: int, spec: StageSpec) -> list[Layout]:
        """The client's encrypted output share of each group of a stage."""
        return [self.layout(_STAGE_PACKING[spec.name][1],
                            (spec.rows, g.count // spec.rows),
                            self.share_steps(layer, spec.name))
                for g in spec.groups]


def session_geometry(cfg: ModelConfig, mode: str) -> Geometry:
    """The one place a session's sizes are decided, from the model shape and
    the mode alone.

    The plan fixes every stage window and tensor layout.  The ring is sized
    so the widest column-block tensor of the pipeline fits one ciphertext
    row; the plaintext modulus is the smallest NTT-friendly prime giving the
    widest window its masking slack, and `session_params` picks the RNS
    primes for it.  Column blocks follow `colblock_cols_per_ct`.

    The plain-weight products run baby-step giant-step with one
    session-wide g = ceil(sqrt(D_max)) baby steps, D_max the most diagonals
    any product shape spans (`colblock_diagonals`): the client sends g
    copies of every product input, and a product of D diagonals costs
    about D/g rotations.  The rotation keys are exactly the giant-step
    amounts those products use.

    Both parties run this from the hello parameters and decode what the
    peer sends against it; nothing is rebuilt from the peer's bytes.  A
    shape past `MAX_RING_DEGREE`, `MAX_LAYERS` or `MAX_CLASSES` is refused
    before anything is planned or allocated.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    widest = max(cfg.vocab, 3 * cfg.dim, cfg.ff_dim)
    n = max(512, 2 * _pow2ceil(cfg.seq_len * widest))
    if n > MAX_RING_DEGREE:
        raise ParameterError(f"model shape needs a ring of degree {n}, above "
                             f"the limit of {MAX_RING_DEGREE}")
    if cfg.n_layers > MAX_LAYERS:
        raise ParameterError(f"{cfg.n_layers} layers exceed the limit of "
                             f"{MAX_LAYERS}")
    if cfg.n_classes > MAX_CLASSES:
        raise ParameterError(f"{cfg.n_classes} classes exceed the limit of "
                             f"{MAX_CLASSES}")
    plan = cfg.plan(mode)
    p, sigma = choose_plaintext_prime(plan.m_max, n)
    params = session_params(p, n)
    shapes = [(cfg.vocab, 3 * cfg.dim), (cfg.dim, cfg.ff_dim),
              (cfg.ff_dim, cfg.dim)]
    if cfg.n_layers > 1:
        shapes.append((cfg.dim, 3 * cfg.dim))
    d_max = max(colblock_diagonals(params, d_in, cfg.seq_len, d_out)
                for d_in, d_out in shapes)
    steps = isqrt(d_max - 1) + 1
    rots: set[int] = set()
    for d_in, d_out in shapes:
        rots.update(colblock_rotation_amounts(params, d_in, cfg.seq_len,
                                              d_out, steps))
    ot_total = sum(s.m * s.count for enc in plan.encoders for s in enc)
    return Geometry(cfg, mode, plan, n, p, sigma, params, tuple(shapes),
                    steps, tuple(sorted(rots)), ot_total)


def _client_keys(params: PaheParams, rotations: tuple[int, ...],
                 seed: int | None) -> tuple[KeyMaterial, bytes]:
    """A client key set and its public key blob, serialized once.  The
    client never rotates, so its rotation keys are kept only in the blob."""
    keys = keygen(params, seed, rotations=rotations)
    return replace(keys, galois={}), public_keys_to_bytes(keys.public())


# a client reusing its seed gets the same key set and the same blob back
_cached_keys = lru_cache(maxsize=16)(_client_keys)


@lru_cache(maxsize=4)
def _parse_public_keys(blob: bytes, params: PaheParams,
                       elements: tuple[int, ...]) -> KeyMaterial:
    # rebuilding Shoup twins dominates parsing; clients reusing a key set
    # across sessions send byte-identical blobs, so memoize on the bytes
    return public_keys_from_bytes(blob, params, elements)


# ----------------------------------------------------------------------------
# framed send/recv with transcript accounting


def _send(conn, tr: Transcript, ftype: int, fields: dict[str, bytes]):
    payload = encode_fields(fields)
    write_frame(conn, ftype, payload)
    tr.record("sent", ftype, payload)


def _recv(conn, tr: Transcript, expect: int) -> dict[str, bytes]:
    _ftype, payload = read_frame(conn, expect=expect)
    tr.record("received", expect, payload)
    return decode_fields(payload)


def _pack_points(points) -> bytes:
    return b"".join(pack_bigint(int(x)) for x in points)


def _unpack_points(blob: bytes, count: int) -> list[int]:
    out, off = [], 0
    for _ in range(count):
        if off + 4 > len(blob):
            raise ProtocolError("truncated point list")
        (ln,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + ln > len(blob):
            raise ProtocolError("truncated point list")
        out.append(int.from_bytes(blob[off:off + ln], "little"))
        off += ln
    if off != len(blob):
        raise ProtocolError("trailing bytes in point list")
    return out


# ----------------------------------------------------------------------------
# stage layouts (one source of truth for both parties)

# stage -> (input packing, output packing).  Inputs come from whichever
# product precedes the stage; outputs take the form the next product wants:
# rows for ciphertext-by-ciphertext factors, column blocks for plain-weight
# products and the classifier.
_STAGE_PACKING = {
    "qkv_rescale": (COLBLOCKS, ROWS),
    "attn_weights": (ROWS, ROWS),
    "attn_inner": (ROWS, ROWS),
    "attn_rescale": (ROWS, COLBLOCKS),
    "ff_hidden": (COLBLOCKS, COLBLOCKS),
    "ff_out": (COLBLOCKS, COLBLOCKS),
}


def _lanes_to_matrix(spec: StageSpec, lanes: np.ndarray) -> np.ndarray:
    """Per-lane values (groups in order, row-major inside each) -> the stage
    input matrix, each group in its own column slice."""
    cuts = np.cumsum([g.count for g in spec.groups])[:-1]
    return np.hstack([part.reshape(spec.rows, -1)
                      for part in np.split(np.asarray(lanes, np.uint64), cuts)])


def _matrix_to_lanes(spec: StageSpec, mat: np.ndarray) -> np.ndarray:
    cuts = np.cumsum([g.count // spec.rows for g in spec.groups])[:-1]
    return np.concatenate([part.ravel() for part in np.split(mat, cuts, axis=1)])


def _fold_labels(labels: np.ndarray, p: int) -> np.ndarray:
    """128-bit labels -> field elements: (lo + 2^64 hi) mod p."""
    return reduce128(labels[..., 1], labels[..., 0], p)


# ----------------------------------------------------------------------------
# server side


@dataclass
class _ServerParty:
    conn: object
    tr: Transcript
    geom: Geometry
    ev: Evaluator
    rng: np.random.Generator
    ot: RandomOtSenderBatch


@dataclass
class ServerResult:
    transcript: Transcript
    geometry: Geometry


def _serve_stage(sp: _ServerParty, layer: int, spec: StageSpec,
                 enc: EncMatrix) -> list[EncMatrix]:
    geom, ev, rng = sp.geom, sp.ev, sp.rng
    p, m = geom.p, spec.m
    masks = sample_stage_masks(rng, p, m, spec.count)
    offs = _lanes_to_matrix(spec, stage_offsets(masks, m, p))
    menc = add_offset(ev, enc, offs)
    tshare = garbler_window_share(masks, m)

    fields = {"menc": encmatrix_to_bytes(menc)}
    gc_bytes = 0
    ot_pairs: list[tuple[np.ndarray, np.ndarray]] = []
    corr_lanes: list[np.ndarray] = []
    lpi = spec.lanes_per_instance
    pu = np.uint64(p)
    off = 0
    for gi, (g, circ, E) in enumerate(stage_circuits(spec)):
        gb = garble(circ, E, rng)
        words = tshare[off:off + g.count].reshape(E, lpi)
        off += g.count
        glab = gb.garbler_labels(to_bits(words, m).reshape(E, lpi * m))

        # bit -> field corrections, one pair per output bit, keyed by colour
        pads0, pads1 = gb.output_pads()
        f0 = _fold_labels(pads0, p)
        f1 = _fold_labels(pads1, p)
        colour = gb.output_zero_labels()[..., 0] & np.uint64(1)
        wvec = np.tile(b2a_weights(spec.keep, p), lpi)[:, None]
        rho = rng.integers(0, p, size=f0.shape, dtype=np.uint64)
        cpair = np.empty(f0.shape + (2,), dtype=np.uint64)
        for chi in (0, 1):
            b = colour ^ np.uint64(chi)
            fb = np.where(b == 1, f1, f0)
            cpair[..., chi] = (b * wvec + rho + (pu - fb)) % pu
        rho_words = rho.astype(object).reshape(lpi, spec.keep, E).sum(axis=1) % p
        corr_lanes.append(
            ((p - rho_words) % p).T.ravel().astype(np.uint64))

        zero, one = gb.evaluator_label_pairs()
        ot_pairs.append((zero.transpose(1, 0, 2).reshape(-1, 2),
                         one.transpose(1, 0, 2).reshape(-1, 2)))
        fields[f"tb{gi:02d}"] = pack_array(gb.tables)
        fields[f"gl{gi:02d}"] = pack_array(glab)
        fields[f"pd{gi:02d}"] = pack_array(cpair)
        gc_bytes += gb.tables.nbytes + glab.nbytes + cpair.nbytes
    _send(sp.conn, sp.tr, STAGE_OPEN, fields)

    req = _recv(sp.conn, sp.tr, STAGE_OT_REQ)
    bd, bn = need(req, "drnd", "nbit")
    nbits = unpack_u64(bn)
    if nbits != m * spec.count:
        raise ProtocolError("derandomization bit count mismatch")
    packed = unpack_array(bd)
    if packed.size != -(-nbits // 8):
        raise ProtocolError("derandomization payload has wrong size")
    dbits = np.unpackbits(packed)[:nbits]
    f_parts = []
    doff = 0
    for m0, m1 in ot_pairs:
        cnt = m0.shape[0]
        f_parts.append(sp.ot.derand_respond(dbits[doff:doff + cnt], m0, m1))
        doff += cnt
    fmsg = np.concatenate(f_parts)
    _send(sp.conn, sp.tr, STAGE_OT_RESP, {"otfr": pack_array(fmsg)})
    gc_bytes += packed.nbytes + fmsg.nbytes

    sfields = _recv(sp.conn, sp.tr, STAGE_SHARE)
    outs = []
    for oi, lay in enumerate(geom.stage_shares(layer, spec)):
        (blob,) = need(sfields, f"sh{oi:02d}")
        se = encmatrix_from_bytes(blob, geom.params, lay)
        outs.append(add_offset(ev, se, corr_lanes[oi].reshape(lay.rows,
                                                               lay.cols)))

    sp.tr.add_gc_bytes(gc_bytes)
    sp.tr.add_event(kind="stage", layer=layer, name=spec.name,
                    lanes=spec.count, ot_bits=nbits, gc_bytes=gc_bytes)
    return outs


def _serve_ctmm(sp: _ServerParty, layer: int, label: str, X: EncMatrix,
                Y: EncMatrix, *, tx: bool = False, ty: bool = False) -> EncMatrix:
    ev = sp.ev
    msg, st = ctmm_server_mask(ev, X, Y, sp.rng, transpose_x=tx, transpose_y=ty)
    _send(sp.conn, sp.tr, MM_OPEN, {"mmxx": encmatrix_to_bytes(msg.x),
                                    "mmyy": encmatrix_to_bytes(msg.y)})
    (blob,) = need(_recv(sp.conn, sp.tr, MM_REPLY), "mmrp")
    reply = ct_list_from_bytes(blob, sp.geom.params,
                               ctmm_reply_count(sp.geom.params, st),
                               "product reply")
    out = ctmm_server_finalize(ev, reply, st)
    sp.tr.add_event(kind="ctmm", layer=layer, label=label, rows=out.rows,
                    frames=2)
    return out


def _send_logits(sp: _ServerParty, x_enc: EncMatrix, weights: Weights):
    """One ciphertext per class: the classifier column laid out against the
    column-block slots, so the client recovers each logit as a plain slot sum
    -- no rotations, hence no extra key material or frames."""
    geom, ev = sp.geom, sp.ev
    cfg, p = geom.cfg, geom.p
    cls = to_field(weights.classifier, p)
    G = len(x_enc.cts)
    vecs = [v for c in range(cfg.n_classes)
            for v in layout_vectors(geom.params, x_enc,
                                    np.tile(cls[:, c], (x_enc.rows, 1)))]
    terms = ev.simd_scmult_many(list(x_enc.cts) * cfg.n_classes,
                                encode_plain_many(geom.params, vecs))
    fields = {"nlgt": pack_u64(cfg.n_classes)}
    for c in range(cfg.n_classes):
        acc = terms[c * G]
        for term in terms[c * G + 1:(c + 1) * G]:
            acc = ev.add_ct(acc, term)
        fields[f"lg{c:02d}"] = ct_to_bytes(acc)
    _send(sp.conn, sp.tr, LOGITS, fields)


def run_server(conn, cfg: ModelConfig, weights: Weights, mode: str, *,
               seed: int | None = None) -> ServerResult:
    """Drive the weight-holder side of one inference session."""
    validate_weights(cfg, weights)
    geom = session_geometry(cfg, mode)
    rng = np.random.default_rng(seed)
    tr = Transcript("server")
    p = geom.p

    _send(conn, tr, HELLO, {
        "mode": mode.encode("ascii"),
        "dims": pack_array(np.array(
            [cfg.vocab, cfg.seq_len, cfg.dim, cfg.ff_dim, cfg.n_layers,
             cfg.n_classes, cfg.w, cfg.f], dtype=np.uint64)),
        "ring": pack_u64(geom.n),
        "prim": pack_u64(p)})

    fields = _recv(conn, tr, ACCEPT)
    bpk, bpt = need(fields, "pkey", "bota")
    pub = _parse_public_keys(bpk, geom.params, geom.galois)
    ev = Evaluator(pub, seed=int(rng.integers(1 << 62)))

    ext = OtExtSender(rng)
    base = BaseOtReceiver(rng, ext.s_bits, unpack_bigint(bpt),
                          profile=_OT_PROFILE)
    _send(conn, tr, OT_BASE, {"botb": _pack_points(base.msgs_b)})

    fields = _recv(conn, tr, CLIENT_SETUP)
    bseed, bucol, bx = need(fields, "seed", "ucol", "xcts")
    seed_msgs = unpack_array(bseed)
    if seed_msgs.shape != (LAMBDA, 2, 2):
        raise ProtocolError("seed message block has the wrong shape")
    ext.recover_seeds(seed_msgs, base.keys())
    u_cols = unpack_array(bucol)
    mb = -(-geom.ot_total // 8)
    if u_cols.shape != (LAMBDA, mb):
        raise ProtocolError("extension matrix has the wrong shape")
    pairs = ext.receive_extension(u_cols, geom.ot_total)

    x_enc = encmatrix_from_bytes(bx, geom.params, geom.input_layout)

    sp = _ServerParty(conn, tr, geom, ev, rng, pairs)
    plan = geom.plan
    for e in range(cfg.n_layers):
        lw = weights.layers[e]
        spec = plan.stage(e, "qkv_rescale")
        if e == 0:
            ew, pw = folded_first_layer(cfg, weights, mode)
            qkv = colblock_matmul(ev, x_enc, to_field(ew, p))
            qkv = add_offset(ev, qkv, to_field(pw, p))
        else:
            wqkv = np.hstack([lw.wq, lw.wk,
                              value_projection(lw.wv, cfg.dim, mode)])
            qkv = colblock_matmul(ev, x_enc, to_field(wqkv, p))
        q_enc, k_enc, v_enc = _serve_stage(sp, e, spec, qkv)
        if mode == "baseline":
            scores = _serve_ctmm(sp, e, "scores", q_enc, k_enc, ty=True)
            (w_enc,) = _serve_stage(sp, e, plan.stage(e, "attn_weights"), scores)
            attnv = _serve_ctmm(sp, e, "attnv", w_enc, v_enc)
        else:
            inner = _serve_ctmm(sp, e, "inner", k_enc, v_enc, tx=True)
            (kv_enc,) = _serve_stage(sp, e, plan.stage(e, "attn_inner"), inner)
            attnv = _serve_ctmm(sp, e, "outer", q_enc, kv_enc)
        (attn_cb,) = _serve_stage(sp, e, plan.stage(e, "attn_rescale"), attnv)
        h_raw = colblock_matmul(ev, attn_cb, to_field(lw.ff1, p))
        (h_cb,) = _serve_stage(sp, e, plan.stage(e, "ff_hidden"), h_raw)
        o_raw = colblock_matmul(ev, h_cb, to_field(lw.ff2, p))
        (x_enc,) = _serve_stage(sp, e, plan.stage(e, "ff_out"), o_raw)

    _send_logits(sp, x_enc, weights)
    tr.counters = dict(ev.counters)
    return ServerResult(transcript=tr, geometry=geom)


# ----------------------------------------------------------------------------
# client side


@dataclass
class _ClientParty:
    conn: object
    tr: Transcript
    geom: Geometry
    ev: Evaluator
    keys: KeyMaterial
    batch: RandomOtBatch


@dataclass
class ClientResult:
    label: int
    logits: np.ndarray  # int64, fraction act_f + f
    scale: int
    transcript: Transcript
    geometry: Geometry


def _client_stage(cp: _ClientParty, layer: int,
                  spec: StageSpec) -> list[Layout]:
    """One garbled stage on the evaluator's side; returns the layouts of the
    output shares it sent, which the server's products keep."""
    geom = cp.geom
    p, m = geom.p, spec.m
    ofields = _recv(cp.conn, cp.tr, STAGE_OPEN)
    (bm,) = need(ofields, "menc")
    menc = encmatrix_from_bytes(bm, geom.params, geom.stage_input(spec))
    lanes = _matrix_to_lanes(spec, decrypt_matrix(cp.keys, menc))
    cshare = client_window_share(lanes, m)

    groups = stage_circuits(spec)
    lpi = spec.lanes_per_instance
    gbits = []
    off = 0
    for g, _circ, E in groups:
        words = cshare[off:off + g.count].reshape(E, lpi)
        off += g.count
        gbits.append(to_bits(words, m).reshape(E, lpi * m))
    dbits = cp.batch.derand_request(
        np.concatenate([b.ravel() for b in gbits]))
    nbits = int(dbits.size)
    packed = np.packbits(dbits)
    _send(cp.conn, cp.tr, STAGE_OT_REQ,
          {"drnd": pack_array(packed), "nbit": pack_u64(nbits)})
    rfields = _recv(cp.conn, cp.tr, STAGE_OT_RESP)
    (bf,) = need(rfields, "otfr")
    fmsg = unpack_array(bf)
    if fmsg.shape != (nbits, 2, 2):
        raise ProtocolError("label response has the wrong shape")

    gc_bytes = packed.nbytes + fmsg.nbytes
    shares = []
    foff = 0
    pu = np.uint64(p)
    for gi, (g, circ, E) in enumerate(groups):
        bits = gbits[gi]
        cnt = bits.size
        chosen = cp.batch.derand_finish(bits.ravel(), fmsg[foff:foff + cnt])
        foff += cnt
        n_ein = circ.evaluator_inputs.size
        eact = chosen.reshape(E, n_ein, 2).transpose(1, 0, 2)
        btb, bgl, bpd = need(ofields, f"tb{gi:02d}", f"gl{gi:02d}",
                             f"pd{gi:02d}")
        tables = unpack_array(btb)
        glab = unpack_array(bgl)
        cpair = unpack_array(bpd)
        n_out = circ.outputs.size
        if tables.shape != (circ.n_and, E, 2, 2):
            raise ProtocolError("garbled tables have the wrong shape")
        if glab.shape != (circ.garbler_inputs.size + 2, E, 2):
            raise ProtocolError("garbler labels have the wrong shape")
        if cpair.shape != (n_out, E, 2):
            raise ProtocolError("output corrections have the wrong shape")
        gc_bytes += tables.nbytes + glab.nbytes + cpair.nbytes

        act_out = evaluate(circ, tables, glab, eact)
        fold = _fold_labels(active_output_pads(circ, act_out), p)
        colour = (act_out[..., 0] & np.uint64(1)).astype(np.int64)
        csel = np.take_along_axis(cpair, colour[..., None], axis=2)[..., 0]
        sigma = (fold + csel) % pu
        words = sigma.astype(object).reshape(lpi, spec.keep, E).sum(axis=1) % p
        shares.append(words.T.ravel().astype(np.uint64))

    sfields = {}
    layouts = geom.stage_shares(layer, spec)
    for oi, (share, lay) in enumerate(zip(shares, layouts)):
        mat = share.reshape(lay.rows, lay.cols)
        if lay.packing == ROWS:
            se = pack_rows(cp.ev, mat)
        else:
            se = pack_colblocks(cp.ev, mat, lay.block, steps=lay.steps)
        sfields[f"sh{oi:02d}"] = encmatrix_to_bytes(se)
    _send(cp.conn, cp.tr, STAGE_SHARE, sfields)
    cp.tr.add_gc_bytes(gc_bytes)
    cp.tr.add_event(kind="stage", layer=layer, name=spec.name,
                    lanes=spec.count, ot_bits=nbits, gc_bytes=gc_bytes)
    return layouts


def _client_ctmm(cp: _ClientParty, layer: int, label: str, x: Layout,
                 y: Layout, *, tx: bool = False, ty: bool = False):
    """The key holder's half of X @ Y: both masked factors arrive in the
    layouts of the shares they were made from, `x` and `y`, and the
    transposes are the flight plan's, as in the server's loop."""
    fields = _recv(cp.conn, cp.tr, MM_OPEN)
    bx, by = need(fields, "mmxx", "mmyy")
    msg = CtmmMasked(encmatrix_from_bytes(bx, cp.geom.params, x),
                     encmatrix_from_bytes(by, cp.geom.params, y), tx, ty)
    reply = ctmm_client_round(cp.ev, cp.keys, msg)
    _send(cp.conn, cp.tr, MM_REPLY, {"mmrp": ct_list_to_bytes(reply)})
    rows = msg.x.cols if msg.transpose_x else msg.x.rows
    cp.tr.add_event(kind="ctmm", layer=layer, label=label, rows=rows,
                    frames=2)


def _recv_logits(conn, tr: Transcript, geom: Geometry) -> list:
    """The one ciphertext per class of the logits frame.  The frame must hold
    exactly the fields `nlgt` and lg00 .. lg{nc-1}, each a well-formed
    ciphertext under the session's parameters; anything else is a
    ProtocolError.  A flip that still decodes cannot be detected: this
    protocol is semi-honest, and such a frame only changes the logits."""
    fields = _recv(conn, tr, LOGITS)
    nc = geom.cfg.n_classes
    tags = [f"lg{c:02d}" for c in range(nc)]
    if set(fields) != {"nlgt", *tags}:
        raise ProtocolError(f"logits frame has fields {sorted(fields)}, "
                            f"expected nlgt and {nc} classes")
    if unpack_u64(fields["nlgt"]) != nc:
        raise ProtocolError("logits frame disagrees on class count")
    return [ct_from_bytes(fields[t], geom.params) for t in tags]


def run_client(conn, tokens, *, seed: int | None = None) -> ClientResult:
    """Drive the input-holder side of one inference session."""
    rng = np.random.default_rng(seed)
    key_seed = int(rng.integers(1 << 62))
    enc_seed = int(rng.integers(1 << 62))
    tr = Transcript("client")

    fields = _recv(conn, tr, HELLO)
    bmode, bdims, bring, bprim = need(fields, "mode", "dims", "ring", "prim")
    try:
        mode = bmode.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("unreadable mode name") from None
    if mode not in MODES:
        raise ProtocolError(f"server offered unknown mode {mode!r}")
    dims = unpack_array(bdims)
    if dims.shape != (8,):
        raise ProtocolError("bad dimension list")
    vocab, L, d, ff, nl, nc, w, f = (int(x) for x in dims)
    try:
        cfg = ModelConfig(vocab=vocab, seq_len=L, dim=d, ff_dim=ff,
                          n_layers=nl, n_classes=nc, w=w, f=f)
        geom = session_geometry(cfg, mode)
    except ParameterError as exc:
        # the shape is the peer's, not this caller's
        raise ProtocolError(f"server hello refused: {exc}") from None
    if geom.n != unpack_u64(bring) or geom.p != unpack_u64(bprim):
        raise ProtocolError("parameter derivation disagrees with the server")

    toks = np.asarray(tokens, dtype=np.int64)
    if toks.shape != (L,):
        raise ParameterError(f"need {L} tokens, got shape {toks.shape}")
    if toks.size and (toks.min() < 0 or toks.max() >= vocab):
        raise ParameterError("token id out of range")

    if seed is None:
        keys, pkey = _client_keys(geom.params, geom.rotations, None)
    else:
        keys, pkey = _cached_keys(geom.params, geom.rotations, key_seed)
    ev = Evaluator(keys, seed=enc_seed)

    base = BaseOtSender(rng, profile=_OT_PROFILE)
    _send(conn, tr, ACCEPT, {"pkey": pkey,
                             "bota": pack_bigint(base.msg_a)})
    fields = _recv(conn, tr, OT_BASE)
    (bpts,) = need(fields, "botb")
    k0, k1 = base.keys(_unpack_points(bpts, LAMBDA))
    ext = OtExtReceiver(rng)
    seed_msgs = ext.seed_messages(k0, k1)
    u_cols, batch = ext.extend(geom.ot_total)

    onehot = np.zeros((L, vocab), dtype=np.uint64)
    onehot[np.arange(L), toks] = 1
    x_cb = pack_colblocks(ev, onehot, L, steps=geom.steps)
    _send(conn, tr, CLIENT_SETUP, {"seed": pack_array(seed_msgs),
                                   "ucol": pack_array(u_cols),
                                   "xcts": encmatrix_to_bytes(x_cb)})

    cp = _ClientParty(conn, tr, geom, ev, keys, batch)
    plan = geom.plan
    for e in range(nl):
        q_lay, k_lay, v_lay = _client_stage(cp, e,
                                            plan.stage(e, "qkv_rescale"))
        if mode == "baseline":
            _client_ctmm(cp, e, "scores", q_lay, k_lay, ty=True)
            (w_lay,) = _client_stage(cp, e, plan.stage(e, "attn_weights"))
            _client_ctmm(cp, e, "attnv", w_lay, v_lay)
        else:
            _client_ctmm(cp, e, "inner", k_lay, v_lay, tx=True)
            (kv_lay,) = _client_stage(cp, e, plan.stage(e, "attn_inner"))
            _client_ctmm(cp, e, "outer", q_lay, kv_lay)
        _client_stage(cp, e, plan.stage(e, "attn_rescale"))
        _client_stage(cp, e, plan.stage(e, "ff_hidden"))
        _client_stage(cp, e, plan.stage(e, "ff_out"))

    cts = _recv_logits(conn, tr, geom)
    slots = keys.decrypt_many(cts)
    p = geom.p
    totals = np.array([sum(int(v) for v in row) % p for row in slots],
                      dtype=np.uint64)
    logits = to_signed(totals, p)
    tr.counters = dict(ev.counters)
    return ClientResult(label=int(np.argmax(logits)), logits=logits,
                        scale=plan.act_f + cfg.f, transcript=tr, geometry=geom)


def private_inference(cfg: ModelConfig, weights: Weights, tokens, mode: str, *,
                      server_seed: int | None = None,
                      client_seed: int | None = None) \
        -> tuple[ServerResult, ClientResult]:
    """Run a whole session over an in-memory transport (both parties on
    threads); returns (server, client) results."""
    return run_pair(
        lambda conn: run_server(conn, cfg, weights, mode, seed=server_seed),
        lambda conn: run_client(conn, tokens, seed=client_seed))
