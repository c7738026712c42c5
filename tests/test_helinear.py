"""Packed-ciphertext linear algebra: packings, diagonal products, masked
ciphertext-by-ciphertext products."""

import numpy as np
import pytest

from cipherformer import pahe
from cipherformer.errors import ParameterError, ProtocolError
from cipherformer.helinear import (COLBLOCKS, DIAG, ROWS, SUM_ROWS_COLST,
                                   CtmmMasked, CtmmReply, EncMatrix,
                                   add_offset, colblock_matmul,
                                   colblock_rotation_amounts,
                                   ctmm_client_round, ctmm_server_finalize,
                                   ctmm_server_mask, decrypt_matrix,
                                   encmatrix_from_bytes, encmatrix_to_bytes,
                                   matmul_mod, pack_colblocks, pack_diagonal,
                                   pack_rows, plain_times_diag, rows_per_ct)
from cipherformer.primes import next_prime


P20 = next_prime(1 << 20, congruent=(1, 2048))


@pytest.fixture(scope="module")
def setup():
    par = pahe.session_params(P20, 512)
    amounts = set(colblock_rotation_amounts(par, 4, 8, 16))
    keys = pahe.keygen(par, seed=11, rotations=sorted(amounts))
    ev = pahe.Evaluator(keys.public(), seed=5)
    ev_c = pahe.Evaluator(keys.public(), seed=6)
    return par, keys, ev, ev_c


@pytest.fixture(scope="module")
def small():
    """A 64-slot ring (32 per row): blocks of 8 slots fit 4 columns to a
    ciphertext, so wider matrices spill column blocks across ciphertexts."""
    par = pahe.session_params(P20, 64)
    amounts = set(colblock_rotation_amounts(par, 4, 8, 16))
    amounts |= set(colblock_rotation_amounts(par, 8, 8, 3))
    keys = pahe.keygen(par, seed=12, rotations=sorted(amounts))
    return par, keys, pahe.Evaluator(keys.public(), seed=7)


def _rand(rng, r, c, p):
    return rng.integers(0, p, size=(r, c), dtype=np.uint64)


class _ZeroRng:
    def integers(self, low, high=None, size=None, dtype=None):
        return np.zeros(size, dtype=dtype)


# ----------------------------------------------------------------------------
# packings


def _check_rows_diag_roundtrip(par, keys, ev, shape, n_row_cts):
    """Each layout decrypts back to the matrix, also after the wire, with
    every slot it does not name still zero: rows sit T = row_size // cols to
    a ciphertext, and each diagonal is tiled T times across the ring row."""
    rng = np.random.default_rng(101)
    M = _rand(rng, *shape, par.p)
    r, c = shape
    T = rows_per_ct(par, c)
    assert T == par.row_size // c
    want_rows = np.zeros((n_row_cts, par.n), dtype=np.uint64)
    for i in range(r):
        want_rows[i // T, (i % T) * c:(i % T + 1) * c] = M[i]
    want_diag = np.zeros((r, par.n), dtype=np.uint64)
    for t in range(r):
        diag = [M[(s + t) % r, s] for s in range(c)]
        want_diag[t, :T * c] = np.tile(diag, T)
    for packer, tag, want in ((pack_rows, ROWS, want_rows),
                              (pack_diagonal, DIAG, want_diag)):
        enc = packer(ev, M, scale=9)
        assert enc.packing == tag and enc.scale == 9
        assert len(enc.cts) == want.shape[0]
        assert np.array_equal(keys.decrypt_many(enc.cts), want)
        assert np.array_equal(decrypt_matrix(keys, enc), M)
        back = encmatrix_from_bytes(encmatrix_to_bytes(enc), par)
        assert np.array_equal(decrypt_matrix(keys, back), M)


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
    enc = pack_colblocks(ev, M, block=8)
    assert len(enc.cts) == 1 and enc.cols_per_ct == 16
    assert np.array_equal(decrypt_matrix(keys, enc), M)
    spar, skeys, sev = small
    enc2 = pack_colblocks(sev, M, block=8)
    assert len(enc2.cts) == 4 and enc2.cols_per_ct == 4
    assert np.array_equal(decrypt_matrix(skeys, enc2), M)
    with pytest.raises(ParameterError):
        pack_colblocks(ev, M, block=4)  # block shorter than the columns
    with pytest.raises(ParameterError):
        pack_colblocks(sev, M, block=64)  # block longer than a ring row


def test_add_offset_layouts(setup, small):
    par, keys, ev, _ = setup
    spar, skeys, sev = small
    rng = np.random.default_rng(103)
    M = _rand(rng, 4, 6, par.p)
    off = _rand(rng, 4, 6, par.p)
    for ev_, keys_, enc in ((ev, keys, pack_rows(ev, M)),
                            (ev, keys, pack_diagonal(ev, M)),
                            (sev, skeys, pack_colblocks(sev, M, block=8))):
        out = add_offset(ev_, enc, off)
        want = (M.astype(object) + off) % par.p
        assert np.array_equal(decrypt_matrix(keys_, out).astype(object), want)
    # transposed offset: stored matrix is M, logical matrix is M^T
    enc = pack_rows(ev, M)
    out = add_offset(ev, enc, off.T, transpose=True)
    want = (M.astype(object) + off) % par.p
    assert np.array_equal(decrypt_matrix(keys, out).astype(object), want)


# ----------------------------------------------------------------------------
# diagonal-method products


def test_colblock_matmul_matches_plain(setup, small):
    rng = np.random.default_rng(104)
    X = _rand(rng, 8, 4, P20)
    W = _rand(rng, 4, 16, P20)
    # one output ciphertext on the wide ring, four on the small one
    for (par, keys, ev, *_), n_out in ((setup, 1), (small, 4)):
        enc = pack_colblocks(ev, X, block=8)
        out = colblock_matmul(ev, enc, W, w_scale=9)
        assert out.packing == COLBLOCKS and out.scale == 9
        assert len(out.cts) == n_out
        got = decrypt_matrix(keys, out)
        assert np.array_equal(got, matmul_mod(X, W, par.p))
    par, keys, ev = small
    W = W[:, :8].copy()
    W[:, 4:] = 0  # the second output group has no weights at all
    out = colblock_matmul(ev, pack_colblocks(ev, X, block=8), W)
    assert len(out.cts) == 2
    assert np.array_equal(decrypt_matrix(keys, out), matmul_mod(X, W, par.p))


def test_colblock_matmul_multi_ct_input(small):
    par, keys, ev = small
    rng = np.random.default_rng(105)
    X = _rand(rng, 4, 8, par.p)
    W = _rand(rng, 8, 3, par.p)
    enc = pack_colblocks(ev, X, block=8)
    assert len(enc.cts) == 2
    out = colblock_matmul(ev, enc, W)
    assert np.array_equal(decrypt_matrix(keys, out), matmul_mod(X, W, par.p))


def test_plain_times_diag_small_exhaustive(setup):
    par, keys, ev, _ = setup
    rng = np.random.default_rng(106)
    M = _rand(rng, 2, 5, par.p)
    D = pack_diagonal(ev, M)
    vals = [0, 1, par.p - 1, 7]
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    R = np.array([[a, b], [c, d]], dtype=np.uint64)
                    out = plain_times_diag(ev, R, D)
                    # both rows of the product share one ciphertext
                    assert out.packing == ROWS and len(out.cts) == 1
                    got = decrypt_matrix(keys, out)
                    assert np.array_equal(got, matmul_mod(R, M, par.p)), R


# ----------------------------------------------------------------------------
# masked ciphertext-by-ciphertext products


def _run_ctmm(setup, r, k, c, seed, pack_x="rows", pack_y="rows",
              tx=False, ty=False, sx=0, sy=0):
    par, keys, ev, ev_c = setup
    rng = np.random.default_rng(seed)
    X = _rand(rng, r, k, par.p)
    Y = _rand(rng, k, c, par.p)
    stored_x = X.T.copy() if tx else X
    stored_y = Y.T.copy() if ty else Y

    def pack(ev_, M, how, scale):
        if how == "rows":
            return pack_rows(ev_, M, scale)
        return pack_colblocks(ev_, M, block=8, scale=scale)

    enc_x = pack(ev, stored_x, pack_x, sx)
    enc_y = pack(ev, stored_y, pack_y, sy)
    msg, st = ctmm_server_mask(ev, enc_x, enc_y, rng, transpose_x=tx,
                               transpose_y=ty)
    reply = ctmm_client_round(ev_c, keys, msg)
    out = ctmm_server_finalize(ev, reply, st)
    return X, Y, msg, st, reply, out, keys, ev


def _check_ctmm_exact(fixture, dims, packs):
    par, keys = fixture[:2]
    r, k, c = dims
    pack_x, pack_y, tx, ty = packs
    X, Y, msg, st, reply, out, keys, ev = _run_ctmm(
        fixture, r, k, c, seed=200 + r * 31 + k * 7 + c, pack_x=pack_x,
        pack_y=pack_y, tx=tx, ty=ty, sx=9, sy=9)
    row_cts = -(-r // rows_per_ct(par, c))
    col_cts = -(-c // rows_per_ct(par, r))
    assert out.packing == SUM_ROWS_COLST
    assert out.scale == 18
    assert len(out.cts) == row_cts + col_cts
    got = decrypt_matrix(keys, out)
    assert np.array_equal(got, matmul_mod(X, Y, keys.params.p))
    # the reply is exactly three payloads
    assert isinstance(reply, CtmmReply)
    assert len(reply.prod.cts) == row_cts
    assert len(reply.x_diag.cts) == k and len(reply.y_diag.cts) == k
    for ct in out.cts:
        assert ct.noise_budget_bits > 0
    # every slot outside the two parts' layouts is still zero
    slots = keys.decrypt_many(out.cts)
    assert not slots[:row_cts, rows_per_ct(par, c) * c:].any()
    assert not slots[row_cts:, rows_per_ct(par, r) * r:].any()


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
    # r*c > 32 with r and c both off the blocking: the row part puts 4 rows
    # of 7 to a ciphertext (5 = 4 + 1), the column part 6 rows of 5
    # (7 = 6 + 1); then 6 + 1 and 4 + 1 the other way round
    (5, 3, 7), (7, 2, 5),
    # a full ring row of columns, one row per ciphertext, in either part
    (3, 2, 32), (32, 2, 3),
])
def test_ctmm_product_exact_spans_ciphertexts(small, dims):
    """The 32-slot ring, where both parts of the product and the product
    reply need several ciphertexts."""
    par, keys, ev = small
    _check_ctmm_exact((par, keys, ev, ev), dims, ("rows", "rows", False, False))


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
    msg, st = ctmm_server_mask(ev, pack_rows(ev, X), pack_rows(ev, Y),
                               _ZeroRng())
    assert np.array_equal(decrypt_matrix(keys, msg.x), X)
    assert np.array_equal(decrypt_matrix(keys, msg.y), Y)
    reply = ctmm_client_round(ev_c, keys, msg)
    assert np.array_equal(decrypt_matrix(keys, reply.prod),
                          matmul_mod(X, Y, par.p))
    assert np.array_equal(decrypt_matrix(keys, reply.x_diag), X.T)
    assert np.array_equal(decrypt_matrix(keys, reply.y_diag), Y)
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
        _, st = ctmm_server_mask(ev, X, Y, rng)
        samples.append((par.p - int(st.r1[0, 0])) % par.p)
    counts = np.bincount((np.array(samples) * 8) // par.p, minlength=8)
    expected = len(samples) / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 24.32, chi2
    # one end-to-end confirmation that the wire value really is x - r1
    rng2 = np.random.default_rng(77)
    Xv = _rand(rng2, 2, 2, par.p)
    enc = pack_rows(ev, Xv)
    msg, st = ctmm_server_mask(ev, enc, pack_rows(ev, Xv), rng2)
    want = (Xv.astype(object) - st.r1 + par.p) % par.p
    assert np.array_equal(decrypt_matrix(keys, msg.x).astype(object), want)


def test_ctmm_client_rejects_factors_that_do_not_chain(setup):
    par, keys, ev, ev_c = setup
    rng = np.random.default_rng(302)
    msg = CtmmMasked(pack_rows(ev, _rand(rng, 3, 4, par.p)),
                     pack_rows(ev, _rand(rng, 3, 2, par.p)), False, False)
    with pytest.raises(ProtocolError, match="do not chain"):
        ctmm_client_round(ev_c, keys, msg)


def test_ctmm_row_counter_tracks_output_rows(setup):
    """The live counter advances by output rows: an attention block at
    (L, d) totals 2L in the quadratic order and L + d reordered."""
    par, keys, ev, ev_c = setup
    L, d = 4, 2
    start = ev.counters.get("ctmm_rows", 0)
    _run_ctmm(setup, L, d, L, seed=400)           # scores: L x L
    _run_ctmm(setup, L, L, d, seed=401)           # weights times values: L x d
    assert ev.counters["ctmm_rows"] - start == 2 * L
    start = ev.counters["ctmm_rows"]
    _run_ctmm(setup, d, L, d, seed=402)           # reordered inner: d x d
    _run_ctmm(setup, L, d, d, seed=403)           # reordered outer: L x d
    assert ev.counters["ctmm_rows"] - start == L + d


# ----------------------------------------------------------------------------
# wire form


def test_encmatrix_wire_roundtrip(setup, small):
    par, keys, ev, _ = setup
    spar, skeys, sev = small
    rng = np.random.default_rng(500)
    M = _rand(rng, 3, 5, par.p)
    for params, keys_, enc in (
            (par, keys, pack_rows(ev, M, scale=9)),
            (par, keys, pack_diagonal(ev, M)),
            (spar, skeys, pack_colblocks(sev, M, block=8))):
        blob = encmatrix_to_bytes(enc)
        back = encmatrix_from_bytes(blob, params)
        assert (back.packing, back.rows, back.cols, back.scale,
                back.block, back.cols_per_ct) == \
               (enc.packing, enc.rows, enc.cols, enc.scale,
                enc.block, enc.cols_per_ct)
        assert np.array_equal(decrypt_matrix(keys_, back), M)
    blob = encmatrix_to_bytes(pack_rows(ev, M))
    with pytest.raises(ProtocolError):
        encmatrix_from_bytes(blob[:10], par)
    with pytest.raises(ProtocolError):
        encmatrix_from_bytes(blob + b"x", par)
    with pytest.raises(ProtocolError):
        encmatrix_from_bytes(b"\xff" + blob[1:], par)



def test_encmatrix_layout_must_match_payload(setup, small):
    """A header the ciphertexts cannot back is rejected before anything is
    decrypted: rows that need more ciphertexts than were sent, a split
    product with its column part missing, no columns, columns past the ring
    row, column blocks off the blocking rule."""
    par, keys, ev, _ = setup
    spar, skeys, sev = small
    rng = np.random.default_rng(501)
    rows = pack_rows(ev, _rand(rng, 3, 4, par.p))
    assert len(rows.cts) == 1  # 64 rows of 4 fit one 256-slot row
    forged = EncMatrix(ROWS, rows.cts, 65, 4)
    with pytest.raises(ProtocolError, match="needs 2 ciphertexts"):
        encmatrix_from_bytes(encmatrix_to_bytes(forged), par)
    split = EncMatrix(SUM_ROWS_COLST, rows.cts, 3, 4)
    with pytest.raises(ProtocolError, match="needs 2 ciphertexts"):
        encmatrix_from_bytes(encmatrix_to_bytes(split), par)
    for bad in (EncMatrix(ROWS, rows.cts, 3, 0),
                EncMatrix(SUM_ROWS_COLST, rows.cts, 0, 4)):
        with pytest.raises(ProtocolError):
            encmatrix_from_bytes(encmatrix_to_bytes(bad), par)
    rows = pack_rows(sev, _rand(rng, 2, 32, spar.p))
    forged = EncMatrix(ROWS, rows.cts, 2, 40)
    with pytest.raises(ProtocolError, match="exceed the 32-slot ring row"):
        encmatrix_from_bytes(encmatrix_to_bytes(forged), spar)
    blocks = pack_colblocks(sev, _rand(rng, 8, 8, spar.p), block=8)
    for block, cpc in ((8, 2), (8, 8), (4, 4), (64, 4)):
        forged = EncMatrix(COLBLOCKS, blocks.cts, 8, 8, block=block,
                           cols_per_ct=cpc)
        with pytest.raises(ProtocolError, match="do not fit the ring"):
            encmatrix_from_bytes(encmatrix_to_bytes(forged), spar)
    forged = EncMatrix(ROWS, rows.cts, 2, 32, block=8)
    with pytest.raises(ProtocolError, match="block fields"):
        encmatrix_from_bytes(encmatrix_to_bytes(forged), spar)
