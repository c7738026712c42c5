"""Linear algebra over packed ciphertexts.

Everything in this module keeps its data in the leading slots of hypercolumn
row 0, so the only slot movement ever needed is a column rotation -- a single
key switch, with no row-crossing masks.  Plain-weight products over
column-block inputs (``colblock_matmul``) use the diagonal method with the
multiply *before* the rotation::

    Y = sum_d  rot( X * roll(diag_d, d * block), d * block )

Pre-rolling the plaintext diagonal keeps every ciphertext at product depth
one, and because each diagonal zeroes every slot it does not own, cyclic
wraparound never smears garbage into the result, so no input tiling is
required.

Packings
--------
rows       T = rows_per_ct(cols) = row_size // cols consecutive rows per
           ciphertext: ct g holds row g*T + i in slots i*cols + s
colblocks  columns laid out in fixed-size blocks, slot j*block + i holds
           M[i, j]; the layout for batched per-position products

`rows_per_ct` and `colblock_cols_per_ct` are the two blocking rules; every
packer, product, offset and the wire decoder follow them, so a ciphertext
count is never chosen anywhere else.  Every slot a layout does not name
holds zero, and stays zero: offsets and masks are laid out by the same rule,
and every plaintext multiplied in is zero outside the layout.  That keeps
the diagonal sweeps free of wraparound garbage, and it means nothing the key
holder decrypts carries an unmasked value in a slot no mask covers.

The ciphertext-by-ciphertext product X @ Y (r x k times k x c) runs in two
message flights: the masking side sends [X - R1], [Y - R2]; the key holder
decrypts, multiplies in the clear, and replies with the product and the k
shifted terms of each masked factor, all in the rows layout of the r x c
result.  The shifted terms follow the diagonal decomposition of Halevi and
Shoup::

    (A @ B)[i, s] = sum_t  A[i, (s+t) % k] * B[(s+t) % k, s]

so the masking side finishes both cross terms with one plaintext product
per term and output ciphertext, summed slotwise into the product, with no
rotations, and adds R1*R2 itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, ProtocolError
from .pahe import (Ciphertext, Evaluator, KeyMaterial, PaheParams,
                   ct_from_bytes, ct_to_bytes, encode_plain_many)

ROWS = "rows"
COLBLOCKS = "colblocks"

_PACKING_IDS = {ROWS: 1, COLBLOCKS: 3}
_PACKING_BY_ID = {v: k for k, v in _PACKING_IDS.items()}


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (A @ B) mod p for uint64 operands (object arithmetic inside)."""
    aa = np.asarray(a, dtype=np.uint64).astype(object)
    bb = np.asarray(b, dtype=np.uint64).astype(object)
    out = (aa @ bb) % p
    return out.astype(np.uint64)


def _entries(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.uint64)
    if arr.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


@dataclass
class EncMatrix:
    """An encrypted matrix plus the layout needed to interpret its slots."""

    packing: str
    cts: list
    rows: int
    cols: int
    scale: int = 0
    block: int = 0          # colblocks: slots per column block
    cols_per_ct: int = 0    # colblocks: columns carried by each ciphertext

    def __post_init__(self):
        if self.packing not in _PACKING_IDS:
            raise ParameterError(f"unknown packing {self.packing!r}")


# ----------------------------------------------------------------------------
# layout <-> slot vectors


def rows_per_ct(params: PaheParams, cols: int) -> int:
    """Matrix rows each ciphertext of a `rows` layout carries, one every
    `cols` slots: as many as fit one ring row.  The row-blocking rule -- row
    packing, the masked product's terms and the wire decoder all follow
    it."""
    return params.row_size // cols


def _rows_ct_count(params: PaheParams, rows: int, cols: int) -> int:
    return -(-rows // rows_per_ct(params, cols))


def _rows_vectors(M: np.ndarray, per_ct: int) -> list[np.ndarray]:
    """Slot vectors of a `rows` layout; a (..., r, c) stack gives each
    matrix's vectors in turn."""
    *lead, r, c = M.shape
    buf = np.zeros((*lead, -(-r // per_ct) * per_ct, c), dtype=np.uint64)
    buf[..., :r, :] = M
    return list(buf.reshape(-1, per_ct * c))


def _rows_matrix(slots: np.ndarray, rows: int, cols: int,
                 per_ct: int) -> np.ndarray:
    """The (rows, cols) matrix a `rows` layout keeps in decrypted slots."""
    return slots[:, :per_ct * cols].reshape(-1, cols)[:rows].copy()


def _colblock_vectors(M: np.ndarray, block: int, cols_per_ct: int,
                      width: int) -> list[np.ndarray]:
    r, c = M.shape
    out = []
    for j0 in range(0, c, cols_per_ct):
        vec = np.zeros(width, dtype=np.uint64)
        for j in range(j0, min(c, j0 + cols_per_ct)):
            off = (j - j0) * block
            vec[off:off + r] = M[:, j]
        out.append(vec)
    return out


def layout_vectors(params: PaheParams, enc: EncMatrix, M,
                   transpose: bool = False) -> list[np.ndarray]:
    """Slot vectors that place M's entries exactly where `enc` keeps its own.

    Used to add plaintext offsets (masks, folded constants) onto an encrypted
    matrix without caring about its packing.  `transpose` interprets M as the
    transpose of what the ciphertexts hold.
    """
    A = _entries(M)
    if transpose:
        A = A.T.copy()
    if A.shape != (enc.rows, enc.cols):
        raise ParameterError(
            f"offset shape {A.shape} != matrix shape {(enc.rows, enc.cols)}")
    if enc.packing == ROWS:
        return _rows_vectors(A, rows_per_ct(params, enc.cols))
    return _colblock_vectors(A, enc.block, enc.cols_per_ct,
                             enc.block * enc.cols_per_ct)


# ----------------------------------------------------------------------------
# packing / unpacking


def _check_capacity(params: PaheParams, need: int, what: str) -> None:
    if not 0 < need <= params.row_size:
        raise ParameterError(
            f"{what} needs {need} slots but row capacity is {params.row_size}")


def pack_rows(ev: Evaluator, M, scale: int = 0) -> EncMatrix:
    """`rows_per_ct` consecutive rows per ciphertext, one every cols slots."""
    A = _entries(M)
    _check_capacity(ev.params, A.shape[1], "row packing")
    cts = ev.encrypt_many(_rows_vectors(A, rows_per_ct(ev.params, A.shape[1])))
    return EncMatrix(ROWS, cts, A.shape[0], A.shape[1], scale)


def colblock_cols_per_ct(params: PaheParams, cols: int, block: int) -> int:
    """Columns each ciphertext of a column-block packing carries: as many
    blocks of `block` slots as fit one ring row, never more than `cols`.
    The column-blocking rule -- packing, products, rotation keys and the
    wire decoder all follow it, so no layout ever names its own."""
    return min(cols, params.row_size // block)


def pack_colblocks(ev: Evaluator, M, block: int, scale: int = 0) -> EncMatrix:
    A = _entries(M)
    r, c = A.shape
    if block < r:
        raise ParameterError(f"block {block} shorter than column height {r}")
    if block > ev.params.row_size:
        raise ParameterError(f"block {block} exceeds row capacity")
    cpc = colblock_cols_per_ct(ev.params, c, block)
    cts = ev.encrypt_many(_colblock_vectors(A, block, cpc, cpc * block))
    return EncMatrix(COLBLOCKS, cts, r, c, scale, block=block, cols_per_ct=cpc)


def decrypt_matrix(keys: KeyMaterial, enc: EncMatrix) -> np.ndarray:
    """Decrypt any packing back to a (rows, cols) uint64 array."""
    par = keys.params
    dec = keys.decrypt_many(enc.cts)
    r, c = enc.rows, enc.cols
    if enc.packing == ROWS:
        return _rows_matrix(dec, r, c, rows_per_ct(par, c))
    M = np.zeros((r, c), dtype=np.uint64)
    for g in range(dec.shape[0]):
        for j in range(g * enc.cols_per_ct, min(c, (g + 1) * enc.cols_per_ct)):
            off = (j - g * enc.cols_per_ct) * enc.block
            M[:, j] = dec[g, off:off + r]
    return M


def add_offset(ev: Evaluator, enc: EncMatrix, M, transpose: bool = False) -> EncMatrix:
    """enc + M with M in the clear, laid out to match enc's packing."""
    vecs = layout_vectors(ev.params, enc, M, transpose)
    cts = ev.add_plain_many(enc.cts, vecs)
    return EncMatrix(enc.packing, cts, enc.rows, enc.cols, enc.scale,
                     block=enc.block, cols_per_ct=enc.cols_per_ct)


# ----------------------------------------------------------------------------
# plain-matrix by encrypted-matrix products (diagonal method)


def colblock_rotation_amounts(params: PaheParams, in_cols: int, block: int,
                              out_cols: int) -> list[int]:
    """Column-rotation key amounts colblock_matmul will use on an
    (rows x in_cols) @ (in_cols x out_cols) product with blocks of `block`."""
    nin = colblock_cols_per_ct(params, in_cols, block)
    nout = colblock_cols_per_ct(params, out_cols, block)
    return sorted({(d * block) % params.row_size
                   for d in range(-(nout - 1), nin)} - {0})


def colblock_matmul(ev: Evaluator, X: EncMatrix, W, w_scale: int = 0) -> EncMatrix:
    """Y = X @ W for X in colblocks packing; output in colblocks packing.

    Every row of X is processed simultaneously: one diagonal sweep per
    (input ct, output ct) pair, sharing rotation amounts d * block.
    """
    A = _entries(W)
    par = ev.params
    half = par.row_size
    if X.packing != COLBLOCKS:
        raise ParameterError(f"colblock_matmul needs colblocks input, got {X.packing!r}")
    if A.shape[0] != X.cols:
        raise ParameterError(
            f"inner dims disagree: X is {X.rows}x{X.cols}, W is {A.shape[0]}x{A.shape[1]}")
    d_out = A.shape[1]
    B = X.block
    C = colblock_cols_per_ct(par, d_out, B)
    n_groups = -(-d_out // C)
    vecs, plan = [], []
    for og in range(n_groups):
        j0, j1 = og * C, min(d_out, (og + 1) * C)
        for gi, xct in enumerate(X.cts):
            v0 = gi * X.cols_per_ct
            nin = min(X.cols, v0 + X.cols_per_ct) - v0
            for d in range(-(j1 - j0 - 1), nin):
                vec = np.zeros(half, dtype=np.uint64)
                any_entry = False
                for jl in range(j1 - j0):
                    src = jl + d
                    if 0 <= src < nin:
                        w = A[v0 + src, j0 + jl]
                        if w:
                            vec[jl * B:jl * B + X.rows] = w
                            any_entry = True
                if not any_entry:
                    continue
                vecs.append(np.roll(vec, d * B))
                plan.append((og, gi, (d * B) % half))
    encs = encode_plain_many(par, vecs)
    terms = ev.simd_scmult_many([X.cts[gi] for _, gi, _ in plan], encs)
    rot = [i for i, (_, _, sh) in enumerate(plan) if sh]
    for i, term in zip(rot, ev.col_rotate_many([terms[i] for i in rot],
                                               [plan[i][2] for i in rot])):
        terms[i] = term
    accs: list[Ciphertext | None] = [None] * n_groups
    for term, (og, _, _) in zip(terms, plan):
        accs[og] = term if accs[og] is None else ev.add_ct(accs[og], term)
    for og, acc in enumerate(accs):
        if acc is None:  # an all-zero block of W
            zero = encode_plain_many(par, [np.zeros(half, dtype=np.uint64)])
            accs[og] = ev.simd_scmult_many([X.cts[0]], zero)[0]
    ev.counters["colblock_matmul"] = ev.counters.get("colblock_matmul", 0) + 1
    return EncMatrix(COLBLOCKS, accs, X.rows, d_out, X.scale + w_scale,
                     block=B, cols_per_ct=C)


# ----------------------------------------------------------------------------
# ciphertext-by-ciphertext products (two flights, masked)


@dataclass
class CtmmMasked:
    """Flight one: both factors with fresh additive masks folded in."""

    x: EncMatrix
    y: EncMatrix
    transpose_x: bool
    transpose_y: bool


@dataclass
class MaskState:
    """Server-side secrets for one product; single use enforced."""

    r1: np.ndarray      # (rows, k)
    r2: np.ndarray      # (k, cols)
    scale: int
    used: bool = False

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.r1.shape[0], self.r1.shape[1], self.r2.shape[1]


def _mult_shape(enc: EncMatrix, transpose: bool) -> tuple[int, int]:
    return (enc.cols, enc.rows) if transpose else (enc.rows, enc.cols)


def _shifted_terms(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k shifted terms of A (r x k) and of B (k x c), each r x c:
    a_t[i, s] = A[i, (s+t) % k] and b_t[i, s] = B[(s+t) % k, s], so that
    sum_t a_t * b_t, slotwise, is A @ B.  Returned as two (k, r, c) stacks;
    every row of b_t is the same diagonal of B."""
    r, k = A.shape
    c = B.shape[1]
    idx = (np.arange(c) + np.arange(k)[:, None]) % k   # idx[t, s]
    return (A[:, idx].transpose(1, 0, 2),
            np.broadcast_to(B[idx, np.arange(c)][:, None, :], (k, r, c)))


def ctmm_server_mask(ev: Evaluator, X: EncMatrix, Y: EncMatrix,
                     rng: np.random.Generator, *, transpose_x: bool = False,
                     transpose_y: bool = False) -> tuple[CtmmMasked, MaskState]:
    """Mask both factors of X @ Y with fresh uniform matrices.

    The transpose flags say the multiplication should use the transpose of
    what the ciphertexts hold (the factors stay in whatever layout the
    pipeline produced them in; only the mask is reoriented).
    """
    p = ev.params.p
    r, k = _mult_shape(X, transpose_x)
    k2, c = _mult_shape(Y, transpose_y)
    if k != k2:
        raise ParameterError(f"inner dims disagree: {r}x{k} times {k2}x{c}")
    r1 = rng.integers(0, p, size=(r, k), dtype=np.uint64)
    r2 = rng.integers(0, p, size=(k, c), dtype=np.uint64)
    xm = add_offset(ev, X, (p - r1) % p, transpose=transpose_x)
    ym = add_offset(ev, Y, (p - r2) % p, transpose=transpose_y)
    st = MaskState(r1, r2, X.scale + Y.scale)
    return CtmmMasked(xm, ym, transpose_x, transpose_y), st


def ctmm_reply_count(params: PaheParams, st: MaskState) -> int:
    """Ciphertexts in the key holder's reply to the product `st` masks: the
    product and the k shifted terms of each masked factor, each a rows
    layout of the r x c result."""
    r, k, c = st.shape
    return (2 * k + 1) * _rows_ct_count(params, r, c)


def ctmm_client_round(ev: Evaluator, keys: KeyMaterial,
                      msg: CtmmMasked) -> list[Ciphertext]:
    """Decrypt the masked factors, multiply in the clear, re-encrypt.

    The reply is one ciphertext list: the product, then the k shifted terms
    of X - R1, then those of Y - R2, each in the rows layout of the product,
    so the other party can finish both cross terms without any rotations.
    """
    p = keys.params.p
    r, k = _mult_shape(msg.x, msg.transpose_x)
    k2, c = _mult_shape(msg.y, msg.transpose_y)
    if k != k2:
        raise ProtocolError(f"masked factors do not chain: {r}x{k} times {k2}x{c}")
    xt = decrypt_matrix(keys, msg.x)
    if msg.transpose_x:
        xt = xt.T.copy()
    yt = decrypt_matrix(keys, msg.y)
    if msg.transpose_y:
        yt = yt.T.copy()
    prod = pack_rows(ev, matmul_mod(xt, yt, p))
    T = rows_per_ct(keys.params, c)
    return prod.cts + [ct for terms in _shifted_terms(xt, yt)
                       for ct in ev.encrypt_many(_rows_vectors(terms, T))]


def ctmm_server_finalize(ev: Evaluator, reply: Sequence[Ciphertext],
                         st: MaskState) -> EncMatrix:
    """Assemble X @ Y = P + (X-R1)*R2 + R1*(Y-R2) + R1*R2 in rows packing.

    Term t of X - R1 meets term t of R2 and term t of Y - R2 meets term t of
    R1, one plaintext product per term and output ciphertext; all of them
    sum into the product's ciphertexts.  The running per-row product counter
    advances by the number of output rows.
    """
    if st.used:
        raise ProtocolError("matrix-product mask state used twice")
    st.used = True
    par = ev.params
    r, k, c = st.shape
    want = ctmm_reply_count(par, st)
    if len(reply) != want:
        raise ProtocolError(f"product reply has {len(reply)} ciphertexts, "
                            f"expected {want}")
    G = want // (2 * k + 1)
    T = rows_per_ct(par, c)
    acc = list(reply[:G])
    a1, b2 = _shifted_terms(st.r1, st.r2)
    for cts, mask in ((reply[G:(k + 1) * G], b2), (reply[(k + 1) * G:], a1)):
        terms = ev.simd_scmult_many(
            cts, encode_plain_many(par, _rows_vectors(mask, T)))
        for i, term in enumerate(terms):
            acc[i % G] = ev.add_ct(acc[i % G], term)
    out = ev.add_plain_many(
        acc, _rows_vectors(matmul_mod(st.r1, st.r2, par.p), T))
    ev.counters["ctmm_rows"] = ev.counters.get("ctmm_rows", 0) + r
    return EncMatrix(ROWS, out, r, c, st.scale)


# ----------------------------------------------------------------------------
# wire form


def ct_list_to_bytes(cts: Sequence[Ciphertext]) -> bytes:
    """A ciphertext count, then each ciphertext behind its length."""
    parts = [struct.pack("<I", len(cts))]
    for ct in cts:
        blob = ct_to_bytes(ct)
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
    return b"".join(parts)


def ct_list_from_bytes(data, params: PaheParams, count: int,
                       what: str) -> list[Ciphertext]:
    """Parse a ciphertext list from the peer that must hold exactly `count`
    ciphertexts, and nothing after them; `what` names it in errors."""
    try:
        (got,) = struct.unpack_from("<I", data, 0)
        if got != count:
            raise ProtocolError(f"{what} needs {count} ciphertexts, "
                                f"payload has {got}")
        off, cts = 4, []
        for _ in range(count):
            (ln,) = struct.unpack_from("<I", data, off)
            off += 4
            cts.append(ct_from_bytes(data[off:off + ln], params))
            off += ln
    except struct.error as exc:
        raise ProtocolError(f"truncated {what}: {exc}") from None
    if off != len(data):
        raise ProtocolError(f"trailing bytes after {what}")
    return cts


_MATRIX_HEAD = struct.Struct("<BIIiII")


def encmatrix_to_bytes(enc: EncMatrix) -> bytes:
    return _MATRIX_HEAD.pack(_PACKING_IDS[enc.packing], enc.rows, enc.cols,
                             enc.scale, enc.block,
                             enc.cols_per_ct) + ct_list_to_bytes(enc.cts)


def _layout_ct_count(params: PaheParams, packing: str, rows: int, cols: int,
                     block: int, cpc: int) -> int:
    """How many ciphertexts a layout holds; ProtocolError when no matrix of
    this package could have it (data past a ring row, blocking off the rule,
    block fields on a packing without blocks)."""
    half = params.row_size
    if packing == COLBLOCKS:
        if not (0 < rows <= block <= half and cols > 0
                and cpc == colblock_cols_per_ct(params, cols, block)):
            raise ProtocolError(f"column blocks of {rows}x{cols}, block {block}, "
                                f"{cpc} per ciphertext do not fit the ring")
        return -(-cols // cpc)
    if block or cpc:
        raise ProtocolError(f"{packing} packing carries block fields")
    if cols > half:
        raise ProtocolError(f"{cols} columns exceed the {half}-slot ring row")
    if cols == 0:
        raise ProtocolError(f"{packing} matrix has no columns")
    return _rows_ct_count(params, rows, cols)


def encmatrix_from_bytes(data: bytes, params: PaheParams) -> EncMatrix:
    """Parse an encrypted matrix from the peer.  The layout must be one this
    package could have produced under `params`, and the ciphertext count
    must be exactly the one it implies."""
    try:
        pid, rows, cols, scale, block, cpc = _MATRIX_HEAD.unpack_from(data, 0)
    except struct.error as exc:
        raise ProtocolError(f"truncated matrix payload: {exc}") from None
    if pid not in _PACKING_BY_ID:
        raise ProtocolError(f"unknown packing id {pid}")
    packing = _PACKING_BY_ID[pid]
    want = _layout_ct_count(params, packing, rows, cols, block, cpc)
    cts = ct_list_from_bytes(memoryview(data)[_MATRIX_HEAD.size:], params,
                             want, f"{packing} matrix of {rows}x{cols}")
    return EncMatrix(packing, cts, rows, cols, scale, block=block, cols_per_ct=cpc)
