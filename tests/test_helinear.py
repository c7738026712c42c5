"""Packed-ciphertext linear algebra: packings, diagonal products, masked
ciphertext-by-ciphertext products."""

from math import isqrt

import numpy as np
import pytest

from cipherformer import pahe
from cipherformer.errors import ParameterError, ProtocolError
from cipherformer.helinear import (COLBLOCKS, ROWS, EncMatrix, Layout, MaskState, _shifted_terms,
                                   add_offset, class_plan, class_sums,
                                   colblock_cols_per_ct,
                                   colblock_diagonals, colblock_matmul,
                                   colblock_rotation_amounts, diagonal_plan,
                                   ctmm_client_round, ctmm_reply_count,
                                   ctmm_server_finalize, ctmm_server_mask,
                                   decrypt_matrix, encmatrix_from_bytes,
                                   encmatrix_to_bytes, layout_vectors,
                                   matmul_mod, pack_colblocks, pack_rows,
                                   rows_per_ct, weight_plan)
from cipherformer.model import ModelConfig
from cipherformer.primes import next_prime
from cipherformer.protocol import session_geometry
from cipherformer.stages import MODES


P20 = next_prime(1 << 20, congruent=(1, 2048))


@pytest.fixture(scope="module")
def setup():
    par = pahe.session_params(P20, 512)
    amounts = set(colblock_rotation_amounts(par, 4, 8, 16, 1))
    keys = pahe.keygen(par, seed=11, rotations=sorted(amounts))
    ev = pahe.Evaluator(keys, seed=5)
    ev_c = pahe.Evaluator(keys, seed=6)
    return par, keys, ev, ev_c


@pytest.fixture(scope="module")
def small():
    """A 64-slot ring (32 per row): columns of 8 rows fit 4 to a
    ciphertext, so wider matrices spill column blocks across ciphertexts."""
    par = pahe.session_params(P20, 64)
    amounts = set(colblock_rotation_amounts(par, 4, 8, 16, 1))
    amounts |= set(colblock_rotation_amounts(par, 8, 8, 3, 1))
    keys = pahe.keygen(par, seed=12, rotations=sorted(amounts))
    return par, keys, pahe.Evaluator(keys, seed=7)


def _rand(rng, r, c, p):
    return rng.integers(0, p, size=(r, c), dtype=np.uint64)


class _ZeroRng:
    def integers(self, low, high=None, size=None, dtype=None):
        return np.zeros(size, dtype=dtype)


# ----------------------------------------------------------------------------
# packings


def _check_rows_diag_roundtrip(par, keys, ev, shape, n_row_cts):
    """The rows layout decrypts back to the matrix, also after the wire,
    with every slot it does not name still zero: rows sit T = row_size //
    cols to a ciphertext.  A full ciphertext of M's diagonal terms (the
    shifted terms of a product's second factor) holds diagonal t tiled T
    times across the ring row."""
    rng = np.random.default_rng(101)
    M = _rand(rng, *shape, par.p)
    r, c = shape
    T = rows_per_ct(par, c)
    assert T == par.row_size // c
    want_rows = np.zeros((n_row_cts, par.n), dtype=np.uint64)
    for i in range(r):
        want_rows[i // T, (i % T) * c:(i % T + 1) * c] = M[i]
    enc = pack_rows(ev, M)
    assert enc.layout == Layout(ROWS, r, c)
    assert len(enc.cts) == n_row_cts
    assert np.array_equal(keys.decrypt_many(enc.cts), want_rows)
    assert np.array_equal(decrypt_matrix(keys, enc), M)
    back = encmatrix_from_bytes(encmatrix_to_bytes(enc), par,
                                Layout(ROWS, r, c), fresh=True)
    assert np.array_equal(decrypt_matrix(keys, back), M)
    _, diags = _shifted_terms(np.zeros((T, r), dtype=np.uint64), M)
    for t in range(r):
        diag = pack_rows(ev, diags[t])
        want = np.zeros(par.n, dtype=np.uint64)
        want[:T * c] = np.tile([M[(s + t) % r, s] for s in range(c)], T)
        assert len(diag.cts) == 1
        assert np.array_equal(keys.decrypt_many(diag.cts)[0], want)


@pytest.mark.parametrize("shape", [(5, 7), (7, 5), (1, 9), (6, 1)])
def test_pack_rows_diag_roundtrip(setup, shape):
    par, keys, ev, _ = setup
    _check_rows_diag_roundtrip(par, keys, ev, shape, 1)


@pytest.mark.parametrize("shape,n_row_cts", [
    ((11, 7), 3),   # 4 rows of 7 to a 32-slot row, the last holding 3
    ((3, 32), 3),   # a full ring row per matrix row
])
def test_pack_rows_diag_roundtrip_spans_ciphertexts(small, shape, n_row_cts):
    par, keys, ev = small
    _check_rows_diag_roundtrip(par, keys, ev, shape, n_row_cts)


def test_pack_colblocks_roundtrip(setup, small):
    par, keys, ev, _ = setup
    rng = np.random.default_rng(102)
    M = _rand(rng, 8, 16, par.p)
    enc = pack_colblocks(ev, M)
    assert enc.layout == Layout(COLBLOCKS, 8, 16)
    assert len(enc.cts) == 1 and colblock_cols_per_ct(par, 16, 8) == 16
    assert np.array_equal(decrypt_matrix(keys, enc), M)
    spar, skeys, sev = small
    enc2 = pack_colblocks(sev, M)
    assert len(enc2.cts) == 4 and colblock_cols_per_ct(spar, 16, 8) == 4
    assert np.array_equal(decrypt_matrix(skeys, enc2), M)
    for steps in (1, 3):  # several ciphertexts per copy, like the old map
        assert np.array_equal(
            layout_vectors(spar, Layout(COLBLOCKS, 8, 16, steps), M),
            _two_to_a_ct(_colblock_vectors(M, 8, 4, spar.row_size, steps),
                         steps))
    # a column taller than a ring row
    with pytest.raises(ParameterError, match="row capacity is 32"):
        pack_colblocks(sev, _rand(rng, 33, 2, spar.p))


# the column-block slot map as it stood when column blocks had a block
# length of their own: the reference the rows packing of the transpose must
# reproduce with block = rows
def _colblock_vectors(M: np.ndarray, block: int, cols_per_ct: int,
                      width: int, steps: int) -> np.ndarray:
    """Ring-row slot vectors of a colblocks layout, one per row, copy-major:
    slot j*block + i of vector g holds M[i, g*cols_per_ct + j], and copy t
    is every vector rotated left by t blocks."""
    r, c = M.shape
    G = -(-c // cols_per_ct)
    blocks = np.zeros((G * cols_per_ct, block), dtype=np.uint64)
    blocks[:c, :r] = M.T
    base = np.zeros((G, width), dtype=np.uint64)
    base[:, :cols_per_ct * block] = blocks.reshape(G, -1)
    return np.concatenate([np.roll(base, -t * block, axis=1)
                           for t in range(steps)])


def _two_to_a_ct(vecs: np.ndarray, steps: int) -> np.ndarray:
    """Copy-major ring-row vectors (`_colblock_vectors`) as whole-ring
    vectors with copies two to a ciphertext: with h = ceil(steps / 2) and
    G vectors per copy, copy t of vector c goes to ring row t // h of
    vector (t % h) * G + c."""
    G, width = len(vecs) // steps, vecs.shape[1]
    h = -(-steps // 2)
    out = np.zeros((h * G, 2 * width), dtype=np.uint64)
    for t in range(steps):
        row = slice(t // h * width, (t // h + 1) * width)
        out[t % h * G:(t % h + 1) * G, row] = vecs[t * G:(t + 1) * G]
    return out


def _session_colblock_layouts(geom):
    """Every column-block layout a session of `geom` sends: the input, the
    products' masked factors, the stage inputs and the stage shares with
    their copies."""
    return {lay for lay in geom.layouts() if lay.packing == COLBLOCKS}


@pytest.mark.parametrize("cfg", [
    pytest.param(ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8,
                             n_layers=1, n_classes=2), id="tiny"),
    pytest.param(ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8,
                             n_layers=2, n_classes=2), id="tiny-two-layer"),
    pytest.param(ModelConfig(vocab=8, seq_len=16, dim=4, ff_dim=8,
                             n_layers=1, n_classes=2), id="gc-l16"),
    pytest.param(ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32,
                             n_layers=2, n_classes=2), id="he-small"),
])
def test_colblocks_are_the_old_block_slot_map(cfg):
    """For every column-block layout a session names, in every mode, the
    rows packing of the transpose puts each entry where the block slot map
    with block = rows put it, its copies two to a ciphertext, and the
    layout counts those ciphertexts."""
    rng = np.random.default_rng(107)
    for mode in MODES:
        geom = session_geometry(cfg, mode)
        par = geom.params
        lays = _session_colblock_layouts(geom)
        assert geom.input_layout in lays
        assert any(lay.steps == geom.steps > 1 for lay in lays)
        for lay in lays:
            M = _rand(rng, lay.rows, lay.cols, par.p)
            cpc = min(lay.cols, par.row_size // lay.rows)
            want = _two_to_a_ct(_colblock_vectors(M, lay.rows, cpc,
                                                  par.row_size, lay.steps),
                                lay.steps)
            got = layout_vectors(par, lay, M)
            assert np.array_equal(got, want), (mode, lay)
            assert lay.ct_count(par) == len(want)


def test_add_offset_layouts(setup, small):
    par, keys, ev, _ = setup
    spar, skeys, sev = small
    rng = np.random.default_rng(103)
    M = _rand(rng, 4, 6, par.p)
    off = _rand(rng, 4, 6, par.p)
    for ev_, keys_, enc in ((ev, keys, pack_rows(ev, M)),
                            (sev, skeys, pack_colblocks(sev, M))):
        out = add_offset(ev_, enc, off)
        want = (M.astype(object) + off) % par.p
        assert np.array_equal(decrypt_matrix(keys_, out).astype(object), want)
    # an offset on the transpose: stored matrix is M, read as M^T
    out = add_offset(ev, pack_rows(ev, M).T, off.T)
    want = (M.astype(object) + off) % par.p
    assert np.array_equal(decrypt_matrix(keys, out.T).astype(object), want)


def test_split_offset_pads_ring_row_one(small):
    """An offset split across the ring rows of a product's split sum: the
    matrix decrypts to the product plus the offset, ring row 1 holds a
    fresh pad on the layout's slots only, and another generator moves both
    rows but not their sum.  A matrix with copies has no free row."""
    par, keys, ev = small
    rng = np.random.default_rng(109)
    X = _rand(rng, 8, 6, par.p)
    W = _rand(rng, 6, 5, par.p)
    off = _rand(rng, 8, 5, par.p)
    prod = colblock_matmul(ev, pack_colblocks(ev, X), W)
    want = (matmul_mod(X, W, par.p).astype(object) + off) % par.p
    half = par.row_size
    live = layout_vectors(par, prod.layout, np.ones_like(off))[:, :half] > 0
    pads = []
    for seed in (1, 2):
        out = add_offset(ev, prod, off, np.random.default_rng(seed))
        assert np.array_equal(decrypt_matrix(keys, out).astype(object), want)
        dec = keys.decrypt_many(out.cts)
        for row in (dec[:, :half], dec[:, half:]):
            assert not row[~live].any()
        pads.append(dec[:, half:][live])
    assert (pads[0] != pads[1]).all()
    with pytest.raises(ParameterError, match="no free ring row"):
        add_offset(ev, pack_colblocks(ev, X, steps=2), X, rng)


@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("packing", [ROWS, COLBLOCKS])
def test_layout_transpose_is_a_relabel(small, packing, steps):
    """`.T` swaps the packing and the shape over the same ciphertexts: the
    transposed layout puts the transposed matrix in the same slots, baby-step
    copies included, and decrypts to the transpose.  A 4 x 9 matrix takes
    two ciphertexts per pair of copies on the 32-slot ring in either
    packing."""
    par, keys, ev = small
    M = _rand(np.random.default_rng(108), 4, 9, par.p)
    lay = Layout(packing, 4, 9, steps)
    assert lay.T.T == lay
    assert (lay.T.shape, lay.T.steps) == ((9, 4), steps)
    assert lay.T.packing != packing and lay.T.held == lay.held
    assert lay.T.ct_count(par) == lay.ct_count(par) == 2 * -(-steps // 2)
    vecs = layout_vectors(par, lay, M)
    assert np.array_equal(layout_vectors(par, lay.T, M.T), vecs)
    enc = EncMatrix(lay, ev.encrypt_many(vecs))
    assert enc.T.layout == lay.T and enc.T.cts is enc.cts
    assert np.array_equal(decrypt_matrix(keys, enc), M)
    assert np.array_equal(decrypt_matrix(keys, enc.T),
                          decrypt_matrix(keys, enc).T)


# ----------------------------------------------------------------------------
# diagonal-method products


def test_colblock_matmul_matches_plain(setup, small):
    rng = np.random.default_rng(104)
    X = _rand(rng, 8, 4, P20)
    W = _rand(rng, 4, 16, P20)
    # one output ciphertext on the wide ring, four on the small one
    for (par, keys, ev, *_), n_out in ((setup, 1), (small, 4)):
        enc = pack_colblocks(ev, X)
        out = colblock_matmul(ev, enc, W)
        assert out.layout == Layout(COLBLOCKS, 8, 16)
        assert len(out.cts) == n_out
        got = decrypt_matrix(keys, out)
        assert np.array_equal(got, matmul_mod(X, W, par.p))
    par, keys, ev = small
    W = W[:, :8].copy()
    W[:, 4:] = 0  # the second output group has no weights at all
    out = colblock_matmul(ev, pack_colblocks(ev, X), W)
    assert len(out.cts) == 2
    assert np.array_equal(decrypt_matrix(keys, out), matmul_mod(X, W, par.p))


def test_colblock_matmul_multi_ct_input(small):
    par, keys, ev = small
    rng = np.random.default_rng(105)
    X = _rand(rng, 8, 8, par.p)
    W = _rand(rng, 8, 3, par.p)
    enc = pack_colblocks(ev, X)
    assert len(enc.cts) == 2
    out = colblock_matmul(ev, enc, W)
    assert np.array_equal(decrypt_matrix(keys, out), matmul_mod(X, W, par.p))


def test_weight_plan_is_kept_and_refuses_writes(small):
    """A second product by the same weights and input layout reuses the
    memoized plan, and every array the memo keeps is read-only, so no
    caller can change the diagonals a later session multiplies by."""
    par, keys, ev = small
    rng = np.random.default_rng(106)
    X = _rand(rng, 8, 8, par.p)
    W = _rand(rng, 8, 3, par.p)
    enc = pack_colblocks(ev, X)
    colblock_matmul(ev, enc, W)
    before = weight_plan.cache_info()
    out = colblock_matmul(ev, enc, W)
    after = weight_plan.cache_info()
    assert (after.hits - before.hits, after.misses) == (1, before.misses)
    assert np.array_equal(decrypt_matrix(keys, out), matmul_mod(X, W, par.p))
    plan = weight_plan(diagonal_plan, par, enc.layout, len(enc.cts), W.shape,
                       W.tobytes())
    kept = (plan.which, plan.diags.poly, plan.diags.twin,
            plan.diags.coeff_norm_bits, plan.dest, plan.out)
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
    assert plan.diags.poly.shape[0] == len(plan.which) == len(plan.dest)


def test_class_sums_are_slot_sums_of_the_product(small):
    """Each class ciphertext's slots sum to the sum over rows of X @ W's
    column, for an input spread over two ciphertexts; the classifier's
    encodings are a read-only weight plan, kept for the next call.  Each
    ciphertext carries a zero-sum pad on the input layout's slots, so two
    generators give the same sums in other slots, and no slot holds a bare
    product X[i, j] W[j, c]."""
    par, keys, ev = small
    rng = np.random.default_rng(107)
    X = _rand(rng, 8, 6, par.p)
    W = _rand(rng, 6, 3, par.p)
    enc = pack_colblocks(ev, X)
    assert len(enc.cts) == 2
    out = class_sums(ev, enc, W, np.random.default_rng(1))
    assert len(out) == 3
    slots = keys.decrypt_many(out)
    sums = [sum(int(v) for v in row) % par.p for row in slots]
    assert sums == [int(v) % par.p for v in
                    matmul_mod(X, W, par.p).astype(object).sum(axis=0)]
    xs = layout_vectors(par, enc.layout, X).astype(object)
    bare = np.array([(xs * layout_vectors(par, enc.layout,
                                          np.tile(W[:, c], (8, 1)))).sum(axis=0)
                     % par.p for c in range(3)])
    used = layout_vectors(par, enc.layout, np.ones_like(X)).any(axis=0)
    assert not slots[:, ~used].any()
    assert (slots[:, used] != bare[:, used]).all()
    before = weight_plan.cache_info()
    again = keys.decrypt_many(class_sums(ev, enc, W, np.random.default_rng(2)))
    assert weight_plan.cache_info().hits == before.hits + 1
    assert [sum(int(v) for v in row) % par.p for row in again] == sums
    assert (again[:, used] != slots[:, used]).all()
    plan = weight_plan(class_plan, par, enc.layout, 2, W.shape, W.tobytes())
    with pytest.raises(ValueError, match="read-only"):
        plan.diags.poly.flat[0] = 0
    with pytest.raises(ParameterError, match="inner dims"):
        class_sums(ev, enc, W[:5], np.random.default_rng(3))


def _bsgs_steps(par, in_cols, rows, out_cols):
    """1, 2, ceil(sqrt(D)) and D baby steps, D the product's diagonals."""
    D = colblock_diagonals(par, in_cols, rows, out_cols)
    return sorted({1, 2, isqrt(D - 1) + 1, D})


@pytest.mark.parametrize("in_cols,out_cols", [
    (20, 1),    # two input ciphertexts (16 + 4 columns) into one
    (1, 20),    # one input ciphertext into two output ciphertexts
    (20, 20),   # both: D = 31 exceeds the 16 blocks of a ring row
])
def test_colblock_matmul_baby_steps(small, in_cols, out_cols):
    """Baby-step giant-step products on the 32-slot ring with columns of 2
    rows (16 to a ring row): for every copy count the product equals the plain
    one, with a key set of exactly the giant-step amounts, one key switch
    per giant step and ciphertext pair, and the server's offset landing on
    every copy.  Copies go two to a ciphertext: copy t in ring row
    t // h of the (t % h)-th G ciphertexts, h = ceil(steps / 2)."""
    par = small[0]
    rng = np.random.default_rng(106 + in_cols + out_cols)
    X = _rand(rng, 2, in_cols, par.p)
    W = rng.integers(1, par.p, size=(in_cols, out_cols), dtype=np.uint64)
    off = _rand(rng, 2, in_cols, par.p)
    want = matmul_mod((X.astype(object) + off) % par.p, W, par.p)
    cap = par.row_size // 2
    for steps in _bsgs_steps(par, in_cols, 2, out_cols):
        if steps > cap:
            continue
        amounts = colblock_rotation_amounts(par, in_cols, 2, out_cols, steps)
        keys = pahe.keygen(par, seed=13, rotations=amounts)
        ev = pahe.Evaluator(keys, seed=8)
        enc = pack_colblocks(ev, X, steps=steps)
        G = -(-in_cols // colblock_cols_per_ct(par, in_cols, 2))
        h = -(-steps // 2)
        assert enc.layout.steps == steps and len(enc.cts) == h * G
        dec = keys.decrypt_many(enc.cts).reshape(h, G, 2, par.row_size)
        for t in range(steps):  # copy t is the ring row rotated by t blocks
            assert np.array_equal(dec[t % h, :, t // h],
                                  np.roll(dec[0, :, 0], -2 * t, axis=1))
        if steps % 2:  # an odd count leaves the last ring row 1 empty
            assert not dec[h - 1, :, 1].any()
        out = colblock_matmul(ev, add_offset(ev, enc, off), W)
        assert out.layout == Layout(COLBLOCKS, 2, out_cols)
        assert np.array_equal(decrypt_matrix(keys, out), want), steps
        assert len(out.cts) == -(-out_cols // colblock_cols_per_ct(
            par, out_cols, 2))
        # one key switch per output ciphertext and nonzero giant step any
        # input ciphertext reaches
        ins = [min(cap, in_cols - v0) for v0 in range(0, in_cols, cap)]
        outs = [min(cap, out_cols - j0) for j0 in range(0, out_cols, cap)]
        giant = sum(len({(d - d % steps) * 2 % par.row_size
                         for nin in ins for d in range(1 - nout, nin)} - {0})
                    for nout in outs)
        assert ev.counters["keyswitch"] == giant
    with pytest.raises(ParameterError, match="do not fit"):
        pack_colblocks(ev, X, steps=cap + 1)


# ----------------------------------------------------------------------------
# masked ciphertext-by-ciphertext products


@pytest.mark.parametrize("r,k,c", [
    (3, 1, 4),   # k = 1: one term each, the plain outer product
    (4, 5, 2),   # c < k: each diagonal wraps only partly
    (2, 3, 7),   # c > k: each diagonal wraps more than once
    (5, 4, 4),
])
def test_shifted_terms_sum_to_the_product(r, k, c):
    """Pure numpy: sum_t a_t * b_t, slotwise, is A @ B mod p, with
    a_t[i, s] = A[i, (s+t) % k] and b_t[i, s] = B[(s+t) % k, s]."""
    rng = np.random.default_rng(600 + r * 31 + k * 7 + c)
    A, B = _rand(rng, r, k, P20), _rand(rng, k, c, P20)
    a, b = _shifted_terms(A, B)
    assert a.shape == b.shape == (k, r, c)
    total = (a.astype(object) * b.astype(object)).sum(axis=0) % P20
    assert np.array_equal(total.astype(np.uint64), matmul_mod(A, B, P20))
    for t in range(k):
        for s in range(c):
            assert np.array_equal(a[t, :, s], A[:, (s + t) % k])
            assert (b[t, :, s] == B[(s + t) % k, s]).all()


def test_ctmm_cross_term_small_exhaustive(setup):
    """The cross term R1 @ (Y - R2) alone, on corner values: with the
    product, the other cross term and R2 all zero, the finished product is
    R @ M for every 2x2 R over {0, 1, p-1, 7}, both rows in one
    ciphertext.  The terms of Y - R2 travel in ring row 1, beside the zero
    terms of X - R1."""
    par, keys, ev, _ = setup
    rng = np.random.default_rng(106)
    M = _rand(rng, 2, 5, par.p)
    zero = np.zeros((2, 5), dtype=np.uint64)
    _, m_terms = _shifted_terms(zero[:, :2], M)
    in_row1 = [np.roll(layout_vectors(par, Layout(ROWS, 2, 5), m),
                       par.row_size, axis=1) for m in m_terms]
    reply = pahe.Ciphertexts.concat([pack_rows(ev, zero).cts,
                                     ev.encrypt_many(np.concatenate(in_row1))])
    vals = [0, 1, par.p - 1, 7]
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    R = np.array([[a, b], [c, d]], dtype=np.uint64)
                    out = ctmm_server_finalize(ev, reply, MaskState(R, zero))
                    assert out.layout == Layout(ROWS, 2, 5)
                    assert len(out.cts) == 1
                    got = decrypt_matrix(keys, out)
                    assert np.array_equal(got, matmul_mod(R, M, par.p)), R


def _run_ctmm(setup, r, k, c, seed, pack_x="rows", pack_y="rows",
              tx=False, ty=False):
    par, keys, ev, ev_c = setup
    rng = np.random.default_rng(seed)
    X = _rand(rng, r, k, par.p)
    Y = _rand(rng, k, c, par.p)

    def factor(M, how, transposed):
        """M packed `how`, or its transpose packed `how` and read as `.T`."""
        pack = pack_rows if how == "rows" else pack_colblocks
        return pack(ev, M.T.copy()).T if transposed else pack(ev, M)

    xm, ym, st = ctmm_server_mask(ev, factor(X, pack_x, tx),
                                  factor(Y, pack_y, ty), rng)
    reply = ctmm_client_round(ev_c, keys, xm, ym)
    out = ctmm_server_finalize(ev, reply, st)
    return X, Y, (xm, ym), st, reply, out, keys, ev


def _check_ctmm_exact(fixture, dims, packs):
    par, keys = fixture[:2]
    r, k, c = dims
    pack_x, pack_y, tx, ty = packs
    X, Y, msg, st, reply, out, keys, ev = _run_ctmm(
        fixture, r, k, c, seed=200 + r * 31 + k * 7 + c, pack_x=pack_x,
        pack_y=pack_y, tx=tx, ty=ty)
    T = rows_per_ct(par, c)
    G = -(-r // T)
    want = matmul_mod(X, Y, keys.params.p)
    # the reply: the product, then k terms of both factors, G cts apiece
    assert len(reply) == ctmm_reply_count(par, st) == (k + 1) * G
    assert out.layout == Layout(ROWS, r, c)
    assert len(out.cts) == G
    assert np.array_equal(decrypt_matrix(keys, out), want)
    assert out.cts.noise_budget_bits > 0
    # a split sum: row 0 plus row 1 is the rows layout, and every slot
    # outside it is zero in both rows
    rows = np.zeros((G * T, c), dtype=np.uint64)
    rows[:r] = want
    slots = np.zeros((G, par.row_size), dtype=np.uint64)
    slots[:, :T * c] = rows.reshape(G, T * c)
    dec = keys.decrypt_many(out.cts)
    half = par.row_size
    assert np.array_equal((dec[:, :half] + dec[:, half:]) % par.p, slots)
    assert not dec[:, T * c:half].any() and not dec[:, half + T * c:].any()


@pytest.mark.parametrize("dims,packs", [
    ((4, 3, 5), ("rows", "rows", False, False)),
    ((8, 8, 8), ("rows", "rows", False, False)),
    ((5, 2, 2), ("colblocks", "rows", False, True)),
    ((3, 6, 4), ("rows", "colblocks", True, False)),
    ((1, 1, 1), ("rows", "rows", False, False)),
])
def test_ctmm_product_exact(setup, dims, packs):
    _check_ctmm_exact(setup, dims, packs)


@pytest.mark.parametrize("dims", [
    # r*c > 32 with r off the blocking: 4 rows of 7 to a ciphertext
    # (5 = 4 + 1), then 6 rows of 5 (7 = 6 + 1)
    (5, 3, 7), (7, 2, 5),
    # a full ring row of columns, one row per ciphertext; then 10 rows of 3
    # to a ciphertext (32 = 3 * 10 + 2); read transposed, the 32-row factor
    # takes two ciphertexts in either packing
    (3, 2, 32), (32, 2, 3),
    # both factors span ciphertexts read transposed, in either packing:
    # X^T 9 x 7 takes 3 and Y^T 4 x 9 takes 2, then X^T 9 x 4 takes 2 and
    # Y^T 7 x 9 takes 3
    (7, 9, 4), (4, 9, 7),
])
def test_ctmm_product_exact_spans_ciphertexts(small, dims):
    """The 32-slot ring, where the product and every term of the reply need
    several ciphertexts, with each factor held as itself or read as the `.T`
    of its transpose, in either packing."""
    par, keys, ev = small
    for packs in [("rows", "rows", False, False),
                  ("rows", "colblocks", True, False),
                  ("colblocks", "rows", False, True),
                  ("colblocks", "colblocks", True, True)]:
        _check_ctmm_exact((par, keys, ev, ev), dims, packs)


def test_ctmm_mask_state_single_use(setup):
    X, Y, msg, st, reply, out, keys, ev = _run_ctmm(setup, 3, 3, 3, seed=300)
    with pytest.raises(ProtocolError):
        ctmm_server_finalize(ev, reply, st)


def test_ctmm_zero_mask_reveals_structure(setup):
    """With the masks forced to zero, every intermediate is the bare value."""
    par, keys, ev, ev_c = setup
    rng = np.random.default_rng(301)
    X = _rand(rng, 4, 3, par.p)
    Y = _rand(rng, 3, 2, par.p)
    xm, ym, st = ctmm_server_mask(ev, pack_rows(ev, X), pack_rows(ev, Y),
                                  _ZeroRng())
    assert np.array_equal(decrypt_matrix(keys, xm), X)
    assert np.array_equal(decrypt_matrix(keys, ym), Y)
    reply = ctmm_client_round(ev_c, keys, xm, ym)
    x_terms, y_terms = _shifted_terms(X, Y)
    lay = Layout(ROWS, 4, 2)
    row0 = [matmul_mod(X, Y, par.p), *x_terms]
    row1 = [np.zeros((4, 2), dtype=np.uint64), *y_terms]
    assert len(reply) == len(row0) == 4
    for ct, a, b in zip(reply, row0, row1):
        want = layout_vectors(par, lay, a)
        want[:, par.row_size:] = layout_vectors(par, lay, b)[:, :par.row_size]
        assert np.array_equal(keys.decrypt_many(ct), want)
    out = ctmm_server_finalize(ev, reply, st)
    assert np.array_equal(decrypt_matrix(keys, out), matmul_mod(X, Y, par.p))


def test_ctmm_masked_values_look_uniform(setup):
    """Chi-squared on the masked plaintext of a fixed input; seeded, so the
    statistic is deterministic.  8 bins, 1024 draws: the 0.999 quantile of
    chi2(7) is 24.32."""
    par, keys, ev, _ = setup
    rng = np.random.default_rng(424242)
    X = pack_rows(ev, np.zeros((1, 1), dtype=np.uint64))
    Y = pack_rows(ev, np.zeros((1, 1), dtype=np.uint64))
    samples = []
    for _ in range(1024):
        *_, st = ctmm_server_mask(ev, X, Y, rng)
        samples.append((par.p - int(st.r1[0, 0])) % par.p)
    counts = np.bincount((np.array(samples) * 8) // par.p, minlength=8)
    expected = len(samples) / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 24.32, chi2
    # one end-to-end confirmation that the wire value really is x - r1
    rng2 = np.random.default_rng(77)
    Xv = _rand(rng2, 2, 2, par.p)
    enc = pack_rows(ev, Xv)
    xm, _, st = ctmm_server_mask(ev, enc, pack_rows(ev, Xv), rng2)
    want = (Xv.astype(object) - st.r1 + par.p) % par.p
    assert np.array_equal(decrypt_matrix(keys, xm).astype(object), want)


def test_ctmm_client_rejects_factors_that_do_not_chain(setup):
    par, keys, ev, ev_c = setup
    rng = np.random.default_rng(302)
    X = pack_rows(ev, _rand(rng, 3, 4, par.p))
    Y = pack_rows(ev, _rand(rng, 3, 2, par.p))
    with pytest.raises(ProtocolError, match="do not chain"):
        ctmm_client_round(ev_c, keys, X, Y)


def test_ctmm_row_counter_tracks_output_rows(setup):
    """Each product's output layout has its output rows, which the session
    records with every ctmm event: an attention block at (L, d) totals 2L
    in the quadratic order and L + d reordered."""
    L, d = 4, 2

    def rows(r, k, c, seed):
        out = _run_ctmm(setup, r, k, c, seed=seed)[5]
        assert out.layout == Layout(ROWS, r, c)
        return out.layout.rows

    # scores, L x L, then weights times values, L x d
    assert rows(L, d, L, 400) + rows(L, L, d, 401) == 2 * L
    # reordered inner, d x d, then outer, L x d
    assert rows(d, L, d, 402) + rows(L, d, d, 403) == L + d


# ----------------------------------------------------------------------------
# wire form


def test_encmatrix_wire_roundtrip(setup, small):
    """A matrix on the wire is its ciphertexts and nothing else; it decodes
    against the layout it was packed in.  A freshly packed matrix sends
    each ciphertext as its c0, packed at the basis' width b, and a 16-byte
    seed; one computed from it (a plaintext offset added) sends each as
    its c0 and c1."""
    par, keys, ev, _ = setup
    spar, skeys, sev = small
    rng = np.random.default_rng(500)
    M = _rand(rng, 8, 5, par.p)
    # columns of 8 rows fit 4 to a 32-slot row: two ciphertexts per copy
    for params, keys_, enc, layout in (
            (par, keys, pack_rows(ev, M), Layout(ROWS, 8, 5)),
            (spar, skeys, pack_colblocks(sev, M), Layout(COLBLOCKS, 8, 5)),
            (spar, skeys, pack_colblocks(sev, M, steps=3),
             Layout(COLBLOCKS, 8, 5, 3))):
        blob = encmatrix_to_bytes(enc)
        assert len(blob) == len(enc.cts) * pahe.ct_nbytes(params, fresh=True)
        assert pahe.ct_nbytes(params, fresh=True) == \
            params.residue_bits * params.k * params.n // 8 + 16
        assert layout.ct_count(params) == len(enc.cts)
        back = encmatrix_from_bytes(blob, params, layout, fresh=True)
        assert back.layout == enc.layout == layout
        assert np.array_equal(back.cts.data, enc.cts.data)
        assert np.array_equal(decrypt_matrix(keys_, back), M)
        ev_ = ev if params is par else sev
        zero = np.zeros(layout.shape, dtype=np.uint64)
        computed = encmatrix_to_bytes(add_offset(ev_, enc, zero))
        assert len(computed) == len(enc.cts) * pahe.ct_nbytes(params,
                                                              fresh=False)
        back = encmatrix_from_bytes(computed, params, layout, fresh=False)
        assert np.array_equal(back.cts.data, enc.cts.data)
    blob = encmatrix_to_bytes(pack_rows(ev, M))
    for fresh in (True, False):
        with pytest.raises(ProtocolError):
            encmatrix_from_bytes(blob[:10], par, Layout(ROWS, 8, 5),
                                 fresh=fresh)
        with pytest.raises(ProtocolError):
            encmatrix_from_bytes(blob + b"x", par, Layout(ROWS, 8, 5),
                                 fresh=fresh)


def test_encmatrix_layout_must_match_payload(setup, small):
    """A payload is refused unless it holds exactly the ciphertexts of the
    layout it is decoded against, before anything is decrypted: more rows
    than were sent, rows that fit fewer ciphertexts, and column blocks of
    another width or height."""
    par, keys, ev, _ = setup
    spar, skeys, sev = small
    rng = np.random.default_rng(501)
    rows = encmatrix_to_bytes(pack_rows(ev, _rand(rng, 3, 4, par.p)))
    # 64 rows of 4 fit one 256-slot row
    with pytest.raises(ProtocolError, match="rows matrix of 65x4 needs 2"):
        encmatrix_from_bytes(rows, par, Layout(ROWS, 65, 4), fresh=True)
    # one 32-column row per ciphertext, or two 16-column rows to one
    rows = encmatrix_to_bytes(pack_rows(sev, _rand(rng, 2, 32, spar.p)))
    with pytest.raises(ProtocolError, match="rows matrix of 2x16 needs 1"):
        encmatrix_from_bytes(rows, spar, Layout(ROWS, 2, 16), fresh=True)
    # 8 columns of 8 rows, four to a ciphertext: two ciphertexts; 4 columns
    # of 8 rows, or 8 of 4, fit one
    blocks = encmatrix_to_bytes(pack_colblocks(sev, _rand(rng, 8, 8, spar.p)))
    for rows, cols in ((8, 4), (4, 8)):
        with pytest.raises(ProtocolError, match="needs 1 ciphertexts"):
            encmatrix_from_bytes(blocks, spar,
                                 Layout(COLBLOCKS, rows, cols), fresh=True)


def test_encmatrix_copy_count_must_fit(small):
    """The baby-step copy count is the layout's: four copies of column
    blocks, two to a ciphertext, decode only against a layout of two
    ciphertexts' worth of copies (three or four), and never as rows."""
    spar, skeys, sev = small
    rng = np.random.default_rng(502)
    M = _rand(rng, 8, 3, spar.p)
    blob = encmatrix_to_bytes(pack_colblocks(sev, M, steps=4))
    back = encmatrix_from_bytes(blob, spar, Layout(COLBLOCKS, 8, 3, 4),
                                fresh=True)
    assert back.layout.steps == 4 and len(back.cts) == 2
    assert np.array_equal(decrypt_matrix(skeys, back), M)
    for steps in (1, 2, 5, 6):
        with pytest.raises(ProtocolError,
                           match=f"needs {-(-steps // 2)} ciphertexts"):
            encmatrix_from_bytes(blob, spar, Layout(COLBLOCKS, 8, 3, steps),
                                 fresh=True)
    with pytest.raises(ProtocolError, match="rows matrix of 8x3 needs 1"):
        encmatrix_from_bytes(blob, spar, Layout(ROWS, 8, 3), fresh=True)
