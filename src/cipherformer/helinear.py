"""Linear algebra over packed ciphertexts.

A ciphertext has two ring rows of n/2 slots, and a column rotation turns
both rows left together (Halevi and Shoup, CRYPTO 2018), so the only slot
movement ever needed is a column rotation -- a single key switch, with no
row-crossing masks.  Every layout keeps its data in the leading slots of a
ring row, and ring row 1 carries data wherever no slot has to cross rows:

* a matrix with baby-step copies holds two copies to a ciphertext, one in
  each row (see Packings);
* the masked product's reply holds a term of each masked factor in each
  ciphertext, one in each row;
* the result of every product is a *split sum*: its value is row 0 plus
  row 1, slot by slot.  The plaintexts multiplied in carry both rows (two
  weight diagonals, or a term of each mask), and a column rotation keeps
  the sum.

A split sum never reaches the key holder with its rows as they are, for
each row alone is a partial sum of weight products.  The masking side
splits its offset across the rows (`add_offset` with a generator): row 1
gets a fresh pad u, uniform mod p on the layout's slots, and row 0 gets the
offset minus u.  `decrypt_matrix` reads a one-copy matrix as its split sum
(row 1 of a fresh encryption is zero) and a copied one from copy 0.

Plain-weight products over column-block inputs (``colblock_matmul``) use
the diagonal method with the multiply *before* the rotation::

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
blocks, and the key holder encrypts every copy fresh.  Copies i and
i + ceil(g/2) share a ciphertext, so one plaintext carries the diagonals of
both for a giant step, and one multiply serves two diagonals.  A rotation
on this side would not fit the budget: at n = 512, with three 50-bit
primes and a 61-bit p (a budget of 88 bits), the key switch adds about 65
bits of noise, and a full-range weight plaintext multiplies that by about
2^69 (60 bits of centred coefficient, 9 of ring degree), about 134 bits.  A
fresh copy times the same weight, about 73 bits, stays inside the budget,
so multiply-before-rotate still holds.  With one copy the schedule is the
plain one, a rotation per diagonal.

Packings
--------
rows       T = rows_per_ct(cols) = row_size // cols consecutive rows per
           ciphertext: ct g holds row g*T + i in slots i*cols + s of ring
           row 0
colblocks  the rows packing of the transpose: ct g holds column g*T + j,
           T = rows_per_ct(rows), in slots j*rows + i, so every column is
           one block of `rows` slots; the layout for batched per-position
           products

Both packings of a shape lay out the same `held` matrix, so a matrix and its
transpose are the same ciphertexts: `Layout.T` swaps the packing and the
shape and keeps everything else, baby-step copies included.

A layout with `steps` = s > 1 holds s copies, two to a ciphertext: with
h = ceil(s/2) (`Layout.copy_cts`) and G ciphertexts per copy, ciphertext
t*G + c holds copy t of ciphertext c in ring row 0 and copy t + h, where
there is one, in ring row 1.  Copy t is the ring row rotated left by t held
rows; on column blocks, t blocks.  Only column blocks carry copies in a
session: the baby steps of the products.

`rows_per_ct` is the one blocking rule; every packer, product, offset and
the wire decoder follow it, so a ciphertext count is never chosen anywhere
else.  A `Layout` names a packing, a shape and a copy count; with the rule
it fixes how many ciphertexts a matrix holds (`Layout.ct_count`).  Every
slot a layout does not name holds zero in both rows, and stays zero:
offsets, pads and masks are laid out by the same rule, and every plaintext
multiplied in is zero outside the layout.  That keeps the diagonal sweeps
free of wraparound garbage, and it means nothing the key holder decrypts
carries an unmasked value in a slot no mask covers.

The ciphertext-by-ciphertext product X @ Y (r x k times k x c) runs in two
message flights: the masking side sends [X - R1], [Y - R2]; the key holder
decrypts, multiplies in the clear, and replies with the product, then k
ciphertext groups, group t holding term t of X - R1 in row 0 and term t of
Y - R2 in row 1, all in the rows layout of the r x c result: (k + 1) G
ciphertexts for G = ct_count of that layout.  The terms follow the diagonal
decomposition of Halevi and Shoup::

    (A @ B)[i, s] = sum_t  A[i, (s+t) % k] * B[(s+t) % k, s]

so the masking side finishes both cross terms with one plaintext product
per term group and output ciphertext -- term t of R2 in row 0, of R1 in
row 1 -- summed slotwise into the product, with no rotations, and adds
R1*R2 itself.  The result is a split sum.

Wire form
---------
A matrix, and a product reply, is its ciphertext batch back to back and
nothing else (`pahe.cts_to_bytes`), copies two to a ciphertext.  Everything
the key holder sends is a fresh encryption, each ciphertext its c0 and the
16-byte seed of its c1; everything the other side sends is computed, each
ciphertext its c0 and c1; every residue at the basis' width.  The receiver
takes the layout, hence the count, from its own session plan, and the form
from the direction, and refuses a payload of any other length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ProtocolError
from .ntt import addmod, submod
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

    @property
    def copy_cts(self) -> int:
        """Ciphertexts the copies of one ciphertext take, two to each:
        copy t sits in ring row t // copy_cts of copy ciphertext
        t % copy_cts."""
        return -(-self.steps // 2)

    def ct_count(self, params: PaheParams) -> int:
        """Ciphertexts a matrix of this layout holds, by the blocking rule."""
        return self.copy_cts * _rows_ct_count(params, *self.held)


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


def _copies(params: PaheParams, vecs: np.ndarray, lay: Layout,
            shift: int) -> np.ndarray:
    """Whole-ring slot vectors of `lay.steps` copies of ring-row slot
    vectors, copy t every vector rotated left by t * shift slots: with
    h = `lay.copy_cts`, vector t * len(vecs) + c holds copy t of vector c in
    ring row 0 and copy t + h, where there is one, in ring row 1."""
    half, h = params.row_size, lay.copy_cts
    base = np.zeros((len(vecs), half), dtype=np.uint64)
    base[:, :vecs.shape[1]] = vecs
    out = np.zeros((h, len(vecs), 2, half), dtype=np.uint64)
    for t in range(lay.steps):
        out[t % h, :, t // h] = np.roll(base, -t * shift, axis=1)
    return out.reshape(-1, 2 * half)


def _two_rows(params: PaheParams, row0: np.ndarray,
              row1: np.ndarray) -> np.ndarray:
    """Whole-ring slot vectors with `row0`'s in ring row 0 and `row1`'s in
    ring row 1, pairwise."""
    half = params.row_size
    out = np.zeros((len(row0), 2 * half), dtype=np.uint64)
    out[:, :row0.shape[1]] = row0
    out[:, half:half + row1.shape[1]] = row1
    return out


def layout_vectors(params: PaheParams, layout: Layout, M) -> np.ndarray:
    """Whole-ring slot vectors, one per ciphertext, that place M's entries
    exactly where a matrix of `layout` keeps its own: ring row 0 of a
    one-copy layout, both rows of a copied one.

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
                   layout, width)


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
    left by t column blocks, two to a ciphertext, all encrypted in one batch
    (the baby steps of `colblock_matmul`)."""
    A = _entries(M)
    lay = Layout(COLBLOCKS, *A.shape, steps)
    return EncMatrix(lay, ev.encrypt_many(layout_vectors(ev.params, lay, A)))


def decrypt_matrix(keys: KeyMaterial, enc: EncMatrix) -> np.ndarray:
    """Decrypt any packing back to a (rows, cols) uint64 array: a one-copy
    matrix as its split sum, ring row 0 plus ring row 1; a colblocks matrix
    with baby-step copies as copy 0, ring row 0 of its first ciphertexts."""
    lay = enc.layout
    par = keys.params
    r, c = lay.held
    half = par.row_size
    dec = keys.decrypt_many(enc.cts[:_rows_ct_count(par, r, c)])
    slots = (dec[:, :half] if lay.steps > 1 else
             addmod(dec[:, :half], dec[:, half:], par.p))
    M = _rows_matrix(slots, r, c, rows_per_ct(par, c))
    return M if lay.packing == ROWS else M.T.copy()


def add_offset(ev: Evaluator, enc: EncMatrix, M,
               rng: np.random.Generator | None = None) -> EncMatrix:
    """enc + M with M in the clear, laid out to match enc's packing.

    Given `rng`, M is split across the two ring rows of a one-copy matrix:
    row 1 gets a fresh pad U, uniform mod p on the layout's slots, and row
    0 gets M - U.  A split sum then decrypts to enc + M, and its rows, each
    uniform on its own, show nothing more."""
    par, lay = ev.params, enc.layout
    vecs = layout_vectors(par, lay, M)
    if rng is not None:
        if lay.steps != 1:
            raise ParameterError("a matrix with copies has no free ring row "
                                 "to split an offset over")
        half = par.row_size
        pad = layout_vectors(par, lay, rng.integers(
            0, par.p, size=lay.shape, dtype=np.uint64))[:, :half]
        vecs = _two_rows(par, submod(vecs[:, :half], pad, par.p), pad)
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
    """The plan of `colblock_matmul`'s (rows x cols) @ A product: over each
    (input ciphertext, output ciphertext) pair, one term per copy
    ciphertext and giant step that a live diagonal reaches, its plaintext
    holding that diagonal of each copy in the copy's ring row; one partial
    sum per output ciphertext and giant step."""
    half = params.row_size
    d_out = A.shape[1]
    r, g, h = lay.rows, lay.steps, lay.copy_cts
    G_in = n_cts // h
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
            rolled = np.take_along_axis(diag, idx, axis=1)
            # copy i sits in ring row i // h of copy ciphertext i % h; the
            # diagonals of one giant step on the two rows share a term
            i = ds % g
            terms, at = np.unique(np.stack([i % h, shifts]), axis=1,
                                  return_inverse=True)
            vec = np.zeros((terms.shape[1], 2, half), dtype=np.uint64)
            vec[at.ravel(), i // h] = rolled
            vecs.append(vec.reshape(-1, 2 * half))
            which.append(terms[0] * G_in + gi)
            dest.extend((og, int(sh) % half) for sh in terms[1])
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
    class, column c of A in every row, laid out against the one-copy
    `lay`, times each input ciphertext, all summed into one ciphertext,
    never rotated."""
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
    one copy, as a split sum.

    Every row of X is processed simultaneously.  Diagonal d of an (input
    ct, output ct) pair, split d = g*j + i by X's g = `steps`, multiplies
    copy i by the diagonal pre-rolled by g*j blocks, in copy i's ring row,
    so the copies sharing a ciphertext take one multiply between them;
    every product that shares an output ciphertext and a giant step, over
    all input ciphertexts, sums before one rotation by g*j*rows.  The
    diagonals come from `weight_plan`, encoded once per weight matrix and
    layout.  The module notes give the noise arithmetic of this order.
    """
    lay = X.layout
    if lay.packing != COLBLOCKS:
        raise ParameterError(f"colblock_matmul needs colblocks input, got {lay.packing!r}")
    out = _apply_weights(diagonal_plan, ev, X, W)
    return EncMatrix(Layout(COLBLOCKS, lay.rows, np.shape(W)[1]), out)


def class_sums(ev: Evaluator, X: EncMatrix, W,
               rng: np.random.Generator) -> Ciphertexts:
    """One ciphertext per column c of the (cols x classes) matrix W whose
    slots sum to sum_ij X[i, j] W[j, c]: each of X's ciphertexts times
    column c laid out against X's slots, summed.  The key holder recovers
    each sum as a plain slot sum, so no rotation or key is needed.  The
    encodings come from `weight_plan`, like `colblock_matmul`'s.

    Each ciphertext then gets a fresh pad from `rng`, uniform on the slots
    X's layout uses but for a zero sum mod p, so its slots show the sum and
    nothing of the products X[i, j] W[j, c] it sums."""
    par = ev.params
    out = _apply_weights(class_plan, ev, X, W)
    used = np.flatnonzero(layout_vectors(
        par, X.layout, np.ones(X.layout.shape, dtype=np.uint64)).any(axis=0))
    free = rng.integers(0, par.p, size=(len(out), len(used) - 1),
                        dtype=np.uint64)
    last = -free.astype(object).sum(axis=1) % par.p
    pads = np.zeros((len(out), par.n), dtype=np.uint64)
    pads[:, used] = np.column_stack([free, last.astype(np.uint64)])
    return ev.add_plain_many(out, pads)


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
    product and the k shifted terms of the masked factors, a term of each
    to a ciphertext, each a rows layout of the r x c result."""
    r, k, c = st.shape
    return (k + 1) * Layout(ROWS, r, c).ct_count(params)


def ctmm_client_round(ev: Evaluator, keys: KeyMaterial, X: EncMatrix,
                      Y: EncMatrix) -> Ciphertexts:
    """Decrypt the masked factors X - R1 and Y - R2, multiply in the clear,
    re-encrypt.  Each factor is read in its layout, so one the product reads
    transposed arrives as the `.T` of the layout it was sent in.

    The reply is one batch of fresh ciphertexts, each in the rows layout
    of the product: the product, then for each t term t of X - R1 in ring
    row 0 and term t of Y - R2 in ring row 1, so the other party can finish
    both cross terms without any rotations.
    """
    par = keys.params
    (r, k), (k2, c) = X.layout.shape, Y.layout.shape
    if k != k2:
        raise ProtocolError(f"masked factors do not chain: {r}x{k} times {k2}x{c}")
    xt = decrypt_matrix(keys, X)
    yt = decrypt_matrix(keys, Y)
    T = rows_per_ct(par, c)
    xs, ys = _shifted_terms(xt, yt)
    return ev.encrypt_many(np.concatenate([
        layout_vectors(par, Layout(ROWS, r, c), matmul_mod(xt, yt, par.p)),
        _two_rows(par, _rows_vectors(xs, T), _rows_vectors(ys, T))]))


def ctmm_server_finalize(ev: Evaluator, reply: Ciphertexts,
                         st: MaskState) -> EncMatrix:
    """Assemble X @ Y = P + (X-R1)*R2 + R1*(Y-R2) + R1*R2 in rows packing,
    as a split sum.

    Term t of X - R1 (ring row 0) meets term t of R2 and term t of Y - R2
    (ring row 1) meets term t of R1, one two-row plaintext product per
    term and output ciphertext; all of them sum into the product's
    ciphertexts, whose row 0 then holds P, the first cross term and R1*R2,
    and row 1 the second cross term.
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
    G = want // (k + 1)
    T = rows_per_ct(par, c)
    a1, b2 = _shifted_terms(st.r1, st.r2)
    terms = ev.simd_scmult_many(reply[G:], encode_plain_many(
        par, _two_rows(par, _rows_vectors(b2, T), _rows_vectors(a1, T))))
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
