"""Linear algebra over packed ciphertexts.

Everything in this module keeps its data in the leading slots of hypercolumn
row 0, so the only slot movement ever needed is a column rotation -- a single
key switch, with no row-crossing masks.  Plain-weight products over
column-block inputs (``colblock_matmul``) use the diagonal method with the
multiply *before* the rotation::

    Y = sum_d  rot( X * roll(diag_d, d * r), d * r )

for inputs of r rows, whose column j fills block j, r slots long.
Pre-rolling the plaintext diagonal keeps every ciphertext at product depth
one, and because each diagonal zeroes every slot it does not own, cyclic
wraparound never smears garbage into the result, so no input tiling is
required.

The sum runs baby-step giant-step (Halevi and Shoup, "Faster Homomorphic
Linear Transformations in HElib", CRYPTO 2018).  Write each diagonal offset
as d = g*j + i with 0 <= i < g.  A rotation distributes over the slotwise
product, so::

    rot(X * roll(v_d, dr), dr) = rot(rot(X, ir) * roll(v_d, gjr), gjr)

and all terms that share a giant step j and an output ciphertext sum before
one rotation by gjr: about D/g key switches for D diagonals instead of D.
The baby steps rot(X, ir) are never rotated here.  A colblocks matrix with
`steps` = g carries them as g copies, copy i the layout rotated left by i
blocks, and the key holder encrypts every copy fresh.  A rotation on this
side would not fit the budget: the key switch adds about 70 bits of noise,
and a full-range weight plaintext multiplies that by about 2^71 (61 bits of
coefficient, 10 of ring degree at n = 1024), about 141 bits against a
budget of about 100.  A fresh copy times the same weight stays far inside
it, so multiply-before-rotate still holds.  With one copy the schedule is
the plain one, a rotation per diagonal.

Packings
--------
rows       T = rows_per_ct(cols) = row_size // cols consecutive rows per
           ciphertext: ct g holds row g*T + i in slots i*cols + s
colblocks  the rows packing of the transpose: ct g holds column g*T + j,
           T = rows_per_ct(rows), in slots j*rows + i, so every column is
           one block of `rows` slots; the layout for batched per-position
           products

Both packings of a shape lay out the same `held` matrix, so a matrix and its
transpose are the same ciphertexts: `Layout.T` swaps the packing and the
shape and keeps everything else, baby-step copies included.

A layout with `steps` = s > 1 holds s copies, copy-major: ciphertext t*G + c
is copy t of ciphertext c, its ring row rotated left by t held rows (G =
ciphertexts per copy); on column blocks, t blocks.  Only column blocks
carry copies in a session: the baby steps of the products.

`rows_per_ct` is the one blocking rule; every packer, product, offset and
the wire decoder follow it, so a ciphertext count is never chosen anywhere
else.  A `Layout` names a packing, a shape and a copy count; with the rule
it fixes how many ciphertexts a matrix holds.  Every
slot a layout does not name holds zero, and stays zero: offsets and masks
are laid out by the same rule, and every plaintext multiplied in is zero
outside the layout.  That keeps the diagonal sweeps free of wraparound
garbage, and it means nothing the key holder decrypts carries an unmasked
value in a slot no mask covers.

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

Wire form
---------
A matrix, and a product reply, is its ciphertext batch back to back and
nothing else (`pahe.cts_to_bytes`).  Everything the key holder sends is a
fresh encryption, each ciphertext its c0 and the 16-byte seed of its c1;
everything the other side sends is computed, each ciphertext its c0 and
c1.  The receiver takes the layout, hence the count, from its own session
plan, and the form from the direction, and refuses a payload of any other
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ProtocolError
from .pahe import (Ciphertexts, Evaluator, KeyMaterial, PaheParams, PlainVecs,
                   cts_from_bytes, cts_to_bytes, encode_plain_many)

ROWS = "rows"
COLBLOCKS = "colblocks"


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


@dataclass(frozen=True)
class Layout:
    """What an encrypted matrix holds, without its ciphertexts: the packing,
    the shape and the baby-step copy count.  The session plan names one for
    every matrix on the wire."""

    packing: str
    rows: int
    cols: int
    steps: int = 1          # baby-step copies, copy-major

    def __post_init__(self):
        if self.packing not in (ROWS, COLBLOCKS):
            raise ParameterError(f"unknown packing {self.packing!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def held(self) -> tuple[int, int]:
        """The shape the rows packing lays out: the matrix itself, or on
        column blocks its transpose."""
        if self.packing == ROWS:
            return self.rows, self.cols
        return self.cols, self.rows

    @property
    def T(self) -> Layout:
        """The transpose: the other packing of the transposed shape, which
        lays out the same `held` matrix, copies included."""
        return Layout(COLBLOCKS if self.packing == ROWS else ROWS,
                      self.cols, self.rows, self.steps)

    def ct_count(self, params: PaheParams) -> int:
        """Ciphertexts a matrix of this layout holds, by the blocking rule."""
        return self.steps * _rows_ct_count(params, *self.held)


@dataclass
class EncMatrix:
    """An encrypted matrix: its layout and its ciphertexts."""

    layout: Layout
    cts: Ciphertexts

    @property
    def T(self) -> EncMatrix:
        """The transpose, over the same ciphertexts."""
        return EncMatrix(self.layout.T, self.cts)


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


def _rows_vectors(M: np.ndarray, per_ct: int) -> np.ndarray:
    """Slot vectors of a `rows` layout, one per row; a (..., r, c) stack
    gives each matrix's vectors in turn."""
    *lead, r, c = M.shape
    buf = np.zeros((*lead, -(-r // per_ct) * per_ct, c), dtype=np.uint64)
    buf[..., :r, :] = M
    return buf.reshape(-1, per_ct * c)


def _rows_matrix(slots: np.ndarray, rows: int, cols: int,
                 per_ct: int) -> np.ndarray:
    """The (rows, cols) matrix a `rows` layout keeps in decrypted slots."""
    return slots[:, :per_ct * cols].reshape(-1, cols)[:rows].copy()


def _copies(params: PaheParams, vecs: np.ndarray, shift: int,
            steps: int) -> np.ndarray:
    """`steps` copies of ring-row slot vectors, copy-major: copy t is every
    vector rotated left by t * shift slots."""
    base = np.zeros((len(vecs), params.row_size), dtype=np.uint64)
    base[:, :vecs.shape[1]] = vecs
    return np.concatenate([np.roll(base, -t * shift, axis=1)
                           for t in range(steps)])


def layout_vectors(params: PaheParams, layout: Layout, M) -> np.ndarray:
    """Slot vectors that place M's entries exactly where a matrix of
    `layout` keeps its own.

    Used to add plaintext offsets (masks, folded constants) onto an encrypted
    matrix without caring about its packing.
    """
    A = _entries(M)
    if A.shape != layout.shape:
        raise ParameterError(f"offset shape {A.shape} != matrix shape "
                             f"{layout.shape}")
    held = A if layout.packing == ROWS else A.T
    width, half = held.shape[1], params.row_size
    if not 0 < width <= half:
        raise ParameterError(f"{layout.packing} packing needs {width} slots "
                             f"but row capacity is {half}")
    if not 0 < layout.steps <= half // width:
        raise ParameterError(f"{layout.steps} copies of {width}-slot rows "
                             f"do not fit a {half}-slot ring row")
    return _copies(params, _rows_vectors(held, rows_per_ct(params, width)),
                   width, layout.steps)


# ----------------------------------------------------------------------------
# packing / unpacking


def pack_rows(ev: Evaluator, M) -> EncMatrix:
    """`rows_per_ct` consecutive rows per ciphertext, one every cols slots."""
    A = _entries(M)
    lay = Layout(ROWS, *A.shape)
    return EncMatrix(lay, ev.encrypt_many(layout_vectors(ev.params, lay, A)))


def colblock_cols_per_ct(params: PaheParams, cols: int, rows: int) -> int:
    """Columns each ciphertext of a column-block packing carries: the rows
    packing's `rows_per_ct` of the transpose, never more than `cols`."""
    return min(cols, rows_per_ct(params, rows))


def pack_colblocks(ev: Evaluator, M, steps: int = 1) -> EncMatrix:
    """The rows packing of M's transpose, in `steps` copies, copy t rotated
    left by t column blocks, all encrypted in one batch (the baby steps of
    `colblock_matmul`)."""
    A = _entries(M)
    lay = Layout(COLBLOCKS, *A.shape, steps)
    return EncMatrix(lay, ev.encrypt_many(layout_vectors(ev.params, lay, A)))


def decrypt_matrix(keys: KeyMaterial, enc: EncMatrix) -> np.ndarray:
    """Decrypt any packing back to a (rows, cols) uint64 array; of a
    colblocks matrix with baby-step copies, only copy 0."""
    lay = enc.layout
    r, c = lay.held
    dec = keys.decrypt_many(enc.cts[:len(enc.cts) // lay.steps])
    M = _rows_matrix(dec, r, c, rows_per_ct(keys.params, c))
    return M if lay.packing == ROWS else M.T.copy()


def add_offset(ev: Evaluator, enc: EncMatrix, M) -> EncMatrix:
    """enc + M with M in the clear, laid out to match enc's packing."""
    vecs = layout_vectors(ev.params, enc.layout, M)
    return EncMatrix(enc.layout, ev.add_plain_many(enc.cts, vecs))


# ----------------------------------------------------------------------------
# plain-matrix by encrypted-matrix products (diagonal method)


def colblock_diagonals(params: PaheParams, in_cols: int, rows: int,
                       out_cols: int) -> int:
    """Diagonal offsets one (input ct, output ct) sweep of colblock_matmul
    spans on a (rows x in_cols) @ (in_cols x out_cols) product: nin + nout
    - 1, each counted by `colblock_cols_per_ct`."""
    return (colblock_cols_per_ct(params, in_cols, rows)
            + colblock_cols_per_ct(params, out_cols, rows) - 1)


def colblock_rotation_amounts(params: PaheParams, in_cols: int, rows: int,
                              out_cols: int, steps: int) -> list[int]:
    """Column-rotation key amounts colblock_matmul uses on a
    (rows x in_cols) @ (in_cols x out_cols) product with `steps` baby-step
    copies of the input: only the giant steps g*j*rows, for every j some
    diagonal d = g*j + i reaches."""
    nin = colblock_cols_per_ct(params, in_cols, rows)
    nout = colblock_cols_per_ct(params, out_cols, rows)
    return sorted({(d - d % steps) * rows % params.row_size
                   for d in range(-(nout - 1), nin)} - {0})


@dataclass(frozen=True)
class WeightPlan:
    """The weight-only half of a product by plain weights, every array
    read-only: for each term, the input ciphertext it multiplies
    (`which`), its encoding with Shoup twins (`diags`) and the partial sum
    it joins (`dest`); for each partial sum, its rotation (`shifts`) and
    its output ciphertext (`out`); and the output ciphertext count."""

    which: np.ndarray
    diags: PlainVecs
    dest: np.ndarray
    shifts: tuple[int, ...]
    out: np.ndarray
    n_groups: int


# weight plans kept per process.  A server holds three plain-weight products
# per layer (wqkv, ff1, ff2) and the classifier, so this keeps every plan of
# a model of `protocol.session.MAX_LAYERS` = 64 layers, and a server that
# walks its layers in the same order every session never evicts a plan it
# needs again
WEIGHT_PLANS = 3 * 64 + 1


@lru_cache(maxsize=WEIGHT_PLANS)
def weight_plan(build, params: PaheParams, lay: Layout, n_cts: int,
                shape: tuple[int, int], data: bytes) -> WeightPlan:
    """The `WeightPlan` that `build` (`diagonal_plan` or `class_plan`)
    makes for an input of layout `lay` held in `n_cts` ciphertexts and the
    uint64 weight matrix of `shape` whose C-order bytes are `data`.
    Memoized: the weights and the layout are the key, so a server encodes
    each product's weights once, in its first session, and only the
    ciphertexts change after that."""
    plan = build(params, lay, n_cts,
                 np.frombuffer(data, dtype=np.uint64).reshape(shape))
    for a in (plan.which, plan.dest, plan.out, *plan.diags._arrays()):
        a.setflags(write=False)
    return plan


def _apply_weights(build, ev: Evaluator, X: EncMatrix, W) -> Ciphertexts:
    """X's ciphertexts through the memoized plan `build` makes of the plain
    weights W, whose rows are X's columns: every term's multiply, then each
    partial sum, rotated, into its output ciphertext."""
    A = _entries(W)
    lay = X.layout
    if A.shape[0] != lay.cols:
        raise ParameterError(f"inner dims disagree: X is {lay.rows}x{lay.cols}, "
                             f"W is {A.shape[0]}x{A.shape[1]}")
    plan = weight_plan(build, ev.params, lay, len(X.cts), A.shape, A.tobytes())
    terms = ev.simd_scmult_many(X.cts[plan.which], plan.diags)
    rotated = ev.col_rotate_many(
        ev.sum_groups(terms, plan.dest, len(plan.shifts)), plan.shifts)
    return ev.sum_groups(rotated, plan.out, plan.n_groups)


def diagonal_plan(params: PaheParams, lay: Layout, n_cts: int,
                  A: np.ndarray) -> WeightPlan:
    """The plan of `colblock_matmul`'s (rows x cols) @ A product: one term
    per live diagonal of each (input ciphertext, output ciphertext) pair,
    one partial sum per output ciphertext and giant step."""
    half = params.row_size
    d_out = A.shape[1]
    r, g = lay.rows, lay.steps
    G_in = n_cts // g
    cpc = colblock_cols_per_ct(params, lay.cols, r)
    C = colblock_cols_per_ct(params, d_out, r)
    n_groups = -(-d_out // C)
    vecs, which, dest = [], [], []
    for og in range(n_groups):
        j0, j1 = og * C, min(d_out, (og + 1) * C)
        nout = j1 - j0
        for gi in range(G_in):
            v0 = gi * cpc
            nin = min(lay.cols, v0 + cpc) - v0
            # w[d, jl]: the weight diagonal d puts in output block jl
            ds = np.arange(-(nout - 1), nin)
            src = ds[:, None] + np.arange(nout)
            ok = (src >= 0) & (src < nin)
            w = np.where(ok, A[v0 + np.clip(src, 0, nin - 1),
                               j0 + np.arange(nout)], np.uint64(0))
            live = w.any(axis=1)
            ds, w = ds[live], w[live]
            diag = np.zeros((len(ds), half), dtype=np.uint64)
            diag[:, :nout * r] = np.repeat(w, r, axis=1)
            shifts = (ds - ds % g) * r
            idx = (np.arange(half) - shifts[:, None]) % half
            vecs.append(np.take_along_axis(diag, idx, axis=1))
            which.append(ds % g * G_in + gi)
            dest.extend((og, int(sh) % half) for sh in shifts)
    # one partial sum per (output ciphertext, giant step), numbered by first
    # appearance; an output ciphertext no weight reaches sums to zero
    keys: dict[tuple[int, int], int] = {}
    ids = [keys.setdefault(key, len(keys)) for key in dest]
    return WeightPlan(np.concatenate(which),
                      encode_plain_many(params, np.concatenate(vecs)),
                      np.array(ids, dtype=np.int64), tuple(sh for _, sh in keys),
                      np.array([og for og, _ in keys], dtype=np.int64), n_groups)


def class_plan(params: PaheParams, lay: Layout, n_cts: int,
               A: np.ndarray) -> WeightPlan:
    """The plan of `class_sums` by the (cols x classes) classifier A: per
    class, column c of A in every row, laid out against `lay`, times each
    input ciphertext, all summed into one ciphertext, never rotated."""
    classes = A.shape[1]
    vecs = np.concatenate([layout_vectors(params, lay,
                                          np.tile(A[:, c], (lay.rows, 1)))
                           for c in range(classes)])
    terms = np.arange(classes * n_cts)
    return WeightPlan(terms % n_cts, encode_plain_many(params, vecs),
                      terms // n_cts, (0,) * classes,
                      np.arange(classes), classes)


def colblock_matmul(ev: Evaluator, X: EncMatrix, W) -> EncMatrix:
    """Y = X @ W for X in colblocks packing; output in colblocks packing,
    one copy.

    Every row of X is processed simultaneously.  Diagonal d of an (input
    ct, output ct) pair, split d = g*j + i by X's g = `steps`, multiplies
    copy i by the diagonal pre-rolled by g*j blocks; every product that
    shares an output ciphertext and a giant step, over all input
    ciphertexts, sums before one rotation by g*j*rows.  The diagonals come
    from `weight_plan`, encoded once per weight matrix and layout.
    """
    lay = X.layout
    if lay.packing != COLBLOCKS:
        raise ParameterError(f"colblock_matmul needs colblocks input, got {lay.packing!r}")
    out = _apply_weights(diagonal_plan, ev, X, W)
    return EncMatrix(Layout(COLBLOCKS, lay.rows, np.shape(W)[1]), out)


def class_sums(ev: Evaluator, X: EncMatrix, W) -> Ciphertexts:
    """One ciphertext per column c of the (cols x classes) matrix W whose
    slots sum to sum_ij X[i, j] W[j, c]: each of X's ciphertexts times
    column c laid out against X's slots, summed.  The key holder recovers
    each sum as a plain slot sum, so no rotation or key is needed.  The
    encodings come from `weight_plan`, like `colblock_matmul`'s."""
    return _apply_weights(class_plan, ev, X, W)


# ----------------------------------------------------------------------------
# ciphertext-by-ciphertext products (two flights, masked)


@dataclass
class MaskState:
    """Server-side secrets for one product; single use enforced."""

    r1: np.ndarray      # (rows, k)
    r2: np.ndarray      # (k, cols)
    used: bool = False

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.r1.shape[0], self.r1.shape[1], self.r2.shape[1]


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
                     rng: np.random.Generator) \
        -> tuple[EncMatrix, EncMatrix, MaskState]:
    """Flight one of X @ Y: both factors with fresh uniform masks folded
    in, each in its own layout, and the masks kept for the finish.  A factor
    the product reads transposed is passed as its `.T`, so the mask is laid
    out against the transpose while the ciphertexts stay as they are.
    """
    p = ev.params.p
    (r, k), (k2, c) = X.layout.shape, Y.layout.shape
    if k != k2:
        raise ParameterError(f"inner dims disagree: {r}x{k} times {k2}x{c}")
    r1 = rng.integers(0, p, size=(r, k), dtype=np.uint64)
    r2 = rng.integers(0, p, size=(k, c), dtype=np.uint64)
    return (add_offset(ev, X, (p - r1) % p), add_offset(ev, Y, (p - r2) % p),
            MaskState(r1, r2))


def ctmm_reply_count(params: PaheParams, st: MaskState) -> int:
    """Ciphertexts in the key holder's reply to the product `st` masks: the
    product and the k shifted terms of each masked factor, each a rows
    layout of the r x c result."""
    r, k, c = st.shape
    return (2 * k + 1) * _rows_ct_count(params, r, c)


def ctmm_client_round(ev: Evaluator, keys: KeyMaterial, X: EncMatrix,
                      Y: EncMatrix) -> Ciphertexts:
    """Decrypt the masked factors X - R1 and Y - R2, multiply in the clear,
    re-encrypt.  Each factor is read in its layout, so one the product reads
    transposed arrives as the `.T` of the layout it was sent in.

    The reply is one ciphertext batch: the product, then the k shifted terms
    of X - R1, then those of Y - R2, each in the rows layout of the product,
    so the other party can finish both cross terms without any rotations.
    """
    p = keys.params.p
    (r, k), (k2, c) = X.layout.shape, Y.layout.shape
    if k != k2:
        raise ProtocolError(f"masked factors do not chain: {r}x{k} times {k2}x{c}")
    xt = decrypt_matrix(keys, X)
    yt = decrypt_matrix(keys, Y)
    prod = pack_rows(ev, matmul_mod(xt, yt, p))
    T = rows_per_ct(keys.params, c)
    return Ciphertexts.concat(
        [prod.cts, *(ev.encrypt_many(_rows_vectors(terms, T))
                     for terms in _shifted_terms(xt, yt))])


def ctmm_server_finalize(ev: Evaluator, reply: Ciphertexts,
                         st: MaskState) -> EncMatrix:
    """Assemble X @ Y = P + (X-R1)*R2 + R1*(Y-R2) + R1*R2 in rows packing.

    Term t of X - R1 meets term t of R2 and term t of Y - R2 meets term t of
    R1, one plaintext product per term and output ciphertext; all of them
    sum into the product's ciphertexts.
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
    a1, b2 = _shifted_terms(st.r1, st.r2)
    terms = ev.simd_scmult_many(reply[G:], encode_plain_many(
        par, _rows_vectors(np.concatenate([b2, a1]), T)))
    acc = ev.sum_groups(Ciphertexts.concat([reply[:G], terms]),
                        np.arange(want) % G, G)
    out = ev.add_plain_many(
        acc, _rows_vectors(matmul_mod(st.r1, st.r2, par.p), T))
    return EncMatrix(Layout(ROWS, r, c), out)


# ----------------------------------------------------------------------------
# wire form


def encmatrix_to_bytes(enc: EncMatrix) -> bytes:
    return cts_to_bytes(enc.cts)


def encmatrix_from_bytes(data, params: PaheParams, layout: Layout, *,
                         fresh: bool) -> EncMatrix:
    """Parse an encrypted matrix from the peer: exactly the ciphertexts
    `layout`, taken from the session plan, holds under `params`, `fresh`
    (each its c0 and seed, from the key holder) or in full."""
    return EncMatrix(layout, cts_from_bytes(
        data, params, layout.ct_count(params),
        f"{layout.packing} matrix of {layout.rows}x{layout.cols}",
        fresh=fresh))
