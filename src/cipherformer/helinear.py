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
rows            one ciphertext per matrix row, entries in slots 0..cols-1
diag            one ciphertext per generalized diagonal: ct t holds
                M[(s+t) % rows, s] in slot s
colblocks       columns laid out in fixed-size blocks, slot j*block + i
                holds M[i, j]; the layout for batched per-position products
sum_rows_colsT  the split form produced by the masked ciphertext-by-
                ciphertext product: a row-packed part plus a column-packed
                part of the transpose, summed slotwise on decryption

The ciphertext-by-ciphertext product runs in two message flights: the
masking side sends [X - R1], [Y - R2]; the key holder decrypts, multiplies
in the clear, and replies with the product re-encrypted row-wise plus
diagonal repackings of both masked factors; the masking side then finishes
the cross terms homomorphically (plain-by-diagonal products, no rotations)
and adds R1*R2 itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ProtocolError
from .ntt import addmod
from .pahe import (Ciphertext, Evaluator, KeyMaterial, PaheParams,
                   ct_from_bytes, ct_to_bytes, encode_plain_many)

ROWS = "rows"
DIAG = "diag"
COLBLOCKS = "colblocks"
SUM_ROWS_COLST = "sum_rows_colsT"

_PACKING_IDS = {ROWS: 1, DIAG: 2, COLBLOCKS: 3, SUM_ROWS_COLST: 4}
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


def _rows_vectors(M: np.ndarray) -> list[np.ndarray]:
    return [M[i] for i in range(M.shape[0])]


def _diag_vectors(M: np.ndarray) -> list[np.ndarray]:
    k, c = M.shape
    s = np.arange(c)
    return [M[(s + t) % k, s] for t in range(k)]


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


def layout_vectors(enc: EncMatrix, M, transpose: bool = False) -> list[np.ndarray]:
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
        return _rows_vectors(A)
    if enc.packing == DIAG:
        return _diag_vectors(A)
    if enc.packing == COLBLOCKS:
        return _colblock_vectors(A, enc.block, enc.cols_per_ct,
                                 enc.block * enc.cols_per_ct)
    raise ParameterError(f"cannot lay out offsets for packing {enc.packing!r}")


# ----------------------------------------------------------------------------
# packing / unpacking


def _check_capacity(params: PaheParams, need: int, what: str) -> None:
    if need > params.row_size:
        raise ParameterError(
            f"{what} needs {need} slots but row capacity is {params.row_size}")


def pack_rows(ev: Evaluator, M, scale: int = 0) -> EncMatrix:
    A = _entries(M)
    _check_capacity(ev.params, A.shape[1], "row packing")
    cts = ev.encrypt_many(_rows_vectors(A))
    return EncMatrix(ROWS, cts, A.shape[0], A.shape[1], scale)


def pack_diagonal(ev: Evaluator, M, scale: int = 0) -> EncMatrix:
    """One ciphertext per generalized diagonal: ct t slot s = M[(s+t)%r, s]."""
    A = _entries(M)
    _check_capacity(ev.params, A.shape[1], "diagonal packing")
    cts = ev.encrypt_many(_diag_vectors(A))
    return EncMatrix(DIAG, cts, A.shape[0], A.shape[1], scale)


def colblock_cols_per_ct(params: PaheParams, cols: int, block: int) -> int:
    """Columns each ciphertext of a column-block packing carries: as many
    blocks of `block` slots as fit one ring row, never more than `cols`.
    The one blocking rule -- packing, products, rotation keys and the wire
    decoder all follow it, so no layout ever names its own."""
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
    p = keys.params.p
    dec = keys.decrypt_many(enc.cts)
    r, c = enc.rows, enc.cols
    if enc.packing == ROWS:
        return dec[:, :c].copy()
    if enc.packing == DIAG:
        M = np.zeros((r, c), dtype=np.uint64)
        s = np.arange(c)
        for t in range(dec.shape[0]):
            M[(s + t) % r, s] = dec[t, :c]
        return M
    if enc.packing == COLBLOCKS:
        M = np.zeros((r, c), dtype=np.uint64)
        for g in range(dec.shape[0]):
            for j in range(g * enc.cols_per_ct, min(c, (g + 1) * enc.cols_per_ct)):
                off = (j - g * enc.cols_per_ct) * enc.block
                M[:, j] = dec[g, off:off + r]
        return M
    if enc.packing == SUM_ROWS_COLST:
        rows_part = dec[:r, :c]
        cols_part = dec[r:r + c, :r]
        return addmod(rows_part, cols_part.T, p)
    raise ParameterError(f"unknown packing {enc.packing!r}")


def add_offset(ev: Evaluator, enc: EncMatrix, M, transpose: bool = False) -> EncMatrix:
    """enc + M with M in the clear, laid out to match enc's packing."""
    vecs = layout_vectors(enc, M, transpose)
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
    ev.counters["matvec"] = ev.counters.get("matvec", 0) + 1
    return EncMatrix(COLBLOCKS, accs, X.rows, d_out, X.scale + w_scale,
                     block=B, cols_per_ct=C)


def plain_times_diag(ev: Evaluator, R, D: EncMatrix) -> list[Ciphertext]:
    """Rows of R @ M where M (k x c) is held diagonally packed.

    Row i is assembled as sum_t D_t * pt with pt[s] = R[i, (s+t) % k]: one
    scalar multiply per diagonal, no rotations at all.
    """
    A = _entries(R)
    k, c = D.rows, D.cols
    if A.shape[1] != k:
        raise ParameterError(
            f"inner dims disagree: R is {A.shape[0]}x{A.shape[1]}, packed matrix {k}x{c}")
    s = np.arange(c)
    vecs = [A[i, (s + t) % k] for i in range(A.shape[0]) for t in range(k)]
    encs = encode_plain_many(ev.params, vecs)
    terms = ev.simd_scmult_many(list(D.cts) * A.shape[0], encs)
    out = []
    for i in range(A.shape[0]):
        acc = None
        for t in range(k):
            term = terms[i * k + t]
            acc = term if acc is None else ev.add_ct(acc, term)
        out.append(acc)
    return out


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
class CtmmReply:
    """Flight two: the clear product re-encrypted, plus diagonal repackings."""

    prod: EncMatrix     # rows packing, (rows x cols)
    x_diag: EncMatrix   # diagonals of (X - R1)^T, k cts of length rows
    y_diag: EncMatrix   # diagonals of (Y - R2), k cts of length cols


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


def ctmm_client_round(ev: Evaluator, keys: KeyMaterial, msg: CtmmMasked) -> CtmmReply:
    """Decrypt the masked factors, multiply in the clear, re-encrypt.

    Three payloads in one flight: the product (row packing) and diagonal
    repackings of both masked factors, the X side transposed so the other
    party can finish both cross terms without any rotations.
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
    prod = matmul_mod(xt, yt, p)
    sx, sy = msg.x.scale, msg.y.scale
    return CtmmReply(prod=pack_rows(ev, prod, sx + sy),
                     x_diag=pack_diagonal(ev, xt.T.copy(), sx),
                     y_diag=pack_diagonal(ev, yt, sy))


def ctmm_server_finalize(ev: Evaluator, reply: CtmmReply, st: MaskState) -> EncMatrix:
    """Assemble X @ Y = P + R1*(Y-R2) + (X-R1)*R2 + R1*R2.

    The first cross term lands row-packed, the second column-packed (rows of
    the transpose); the caller reads the result as the slotwise sum of the
    two parts.  The running per-row product counter advances by the number
    of output rows.
    """
    if st.used:
        raise ProtocolError("matrix-product mask state used twice")
    st.used = True
    p = ev.params.p
    r, k, c = st.shape
    for what, enc, want in (("product", reply.prod, (ROWS, r, c)),
                            ("first-factor repacking", reply.x_diag, (DIAG, k, r)),
                            ("second-factor repacking", reply.y_diag, (DIAG, k, c))):
        if (enc.packing, enc.rows, enc.cols) != want:
            raise ProtocolError(f"{what} reply is {enc.packing} "
                                f"{enc.rows}x{enc.cols}, expected {want}")
    r1r2 = matmul_mod(st.r1, st.r2, p)
    rows_cross = plain_times_diag(ev, st.r1, reply.y_diag)
    rows_cts = ev.add_plain_many(
        [ev.add_ct(reply.prod.cts[i], rows_cross[i]) for i in range(r)],
        [r1r2[i] for i in range(r)])
    cols_cts = plain_times_diag(ev, st.r2.T.copy(), reply.x_diag)
    ev.counters["hybrid_matvec"] = ev.counters.get("hybrid_matvec", 0) + r
    return EncMatrix(SUM_ROWS_COLST, rows_cts + cols_cts, r, c, st.scale)


# ----------------------------------------------------------------------------
# wire form


def encmatrix_to_bytes(enc: EncMatrix) -> bytes:
    head = struct.pack("<BIIiII", _PACKING_IDS[enc.packing], enc.rows, enc.cols,
                       enc.scale, enc.block, enc.cols_per_ct)
    parts = [head, struct.pack("<I", len(enc.cts))]
    for ct in enc.cts:
        blob = ct_to_bytes(ct)
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
    return b"".join(parts)


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
    if packing == SUM_ROWS_COLST:
        if max(rows, cols) > half:
            raise ProtocolError(f"{rows}x{cols} split product exceeds a ring row")
        return rows + cols
    if cols > half:
        raise ProtocolError(f"{cols} columns exceed the {half}-slot ring row")
    return rows


def encmatrix_from_bytes(data: bytes, params: PaheParams) -> EncMatrix:
    """Parse an encrypted matrix from the peer.  The layout must be one this
    package could have produced under `params`, and the ciphertext count
    must be exactly the one it implies."""
    head = struct.Struct("<BIIiIII")
    try:
        pid, rows, cols, scale, block, cpc, count = head.unpack_from(data, 0)
    except struct.error as exc:
        raise ProtocolError(f"truncated matrix payload: {exc}") from None
    if pid not in _PACKING_BY_ID:
        raise ProtocolError(f"unknown packing id {pid}")
    packing = _PACKING_BY_ID[pid]
    want = _layout_ct_count(params, packing, rows, cols, block, cpc)
    if count != want:
        raise ProtocolError(f"{packing} matrix of {rows}x{cols} needs {want} "
                            f"ciphertexts, payload has {count}")
    off = head.size
    cts = []
    try:
        for _ in range(count):
            (ln,) = struct.unpack_from("<I", data, off)
            off += 4
            cts.append(ct_from_bytes(data[off:off + ln], params))
            off += ln
    except struct.error as exc:
        raise ProtocolError(f"truncated matrix payload: {exc}") from None
    if off != len(data):
        raise ProtocolError("trailing bytes after matrix payload")
    return EncMatrix(packing, cts, rows, cols, scale, block=block, cols_per_ct=cpc)
