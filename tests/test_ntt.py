import random

import numpy as np
import pytest

from cipherformer.errors import ParameterError
from cipherformer.model import ModelConfig
from cipherformer.ntt import (
    _bitrev_indices,
    _bitrev_powers,
    _mulhi,
    addmod,
    get_stacked,
    mulmod_shoup,
    mulmod_vec,
    negacyclic_convolve_naive,
    reduce128,
    shoup,
    submod,
)
from cipherformer.primes import next_prime
from cipherformer.protocol.session import session_geometry

P61 = next_prime(1 << 60, congruent=(1, 1 << 14))  # worst-case wide modulus


def _session_primes(n: int):
    """(q stack, plaintext prime) of the benchmark shape on ring n."""
    shape = {1024: (32, 8, 16, 32, 2), 512: (8, 4, 4, 8, 1)}[n]
    vocab, L, d, ff, layers = shape
    geom = session_geometry(ModelConfig(vocab=vocab, seq_len=L, dim=d,
                                        ff_dim=ff, n_layers=layers,
                                        n_classes=2), "opt2")
    assert geom.n == n
    return geom.params.q_primes, geom.p


SESSION_PRIMES = {n: _session_primes(n) for n in (512, 1024)}


def _check_column_helpers(a, b, primes):
    """Each modular helper called once with the (k, 1) column of primes on
    (..., k, n) operands equals the scalar-prime call row by row and the
    python-int formula."""
    col = np.array(primes, dtype=np.uint64)[:, None]
    ao, bo, po = a.astype(object), b.astype(object), col.astype(object)
    cases = [
        (lambda x, y, p: mulmod_shoup(x, y, shoup(y, p), p), ao * bo % po),
        (mulmod_vec, ao * bo % po),
        (addmod, (ao + bo) % po),
        (submod, (ao - bo) % po),
        (reduce128, ((ao << 64) + bo) % po),
    ]
    for fn, want in cases:
        got = fn(a, b, col)
        assert got.dtype == np.uint64 and got.shape == a.shape
        assert np.array_equal(got.astype(object), want)
        for i, p in enumerate(primes):
            assert np.array_equal(got[..., i, :], fn(a[..., i, :], b[..., i, :], p))


class _ReferenceNtt:
    """The textbook in-place butterfly loop (Cooley-Tukey forward,
    Gentleman-Sande inverse, np.where reductions, twins from python ints)
    that `StackedNtt` must match element for element."""

    def __init__(self, primes, n):
        ctx = get_stacked(primes, n)
        self.n, self.k = n, len(primes)
        rev = _bitrev_indices(n)

        def tables(roots):
            w = np.stack([_bitrev_powers(r, p, rev)
                          for r, p in zip(roots, primes)])
            sh = np.array([[(int(x) << 64) // p for x in row]
                           for row, p in zip(w, primes)], dtype=np.uint64)
            return w, sh

        self.psi, self.psi_sh = tables(ctx.psi)
        self.ipsi, self.ipsi_sh = tables([pow(r, -1, p)
                                          for r, p in zip(ctx.psi, primes)])
        self.ninv = np.array([[pow(n, -1, p)] for p in primes], dtype=np.uint64)
        self.ninv_sh = np.array([[(int(v) << 64) // p]
                                 for v, p in zip(self.ninv[:, 0], primes)],
                                dtype=np.uint64)
        self.p = np.array(primes, dtype=np.uint64)[:, None]

    def _mulmod(self, a, w, w_sh, pp):
        q = _mulhi(a, w_sh)
        r = a * w - q * pp
        return np.where(r >= pp, r - pp, r)

    def forward(self, a):
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64).copy()
        flat = a.reshape(-1, self.k, n)
        pp = self.p[:, :, None]
        t, m = n, 1
        while m < n:
            t //= 2
            blk = flat.reshape(flat.shape[0], self.k, m, 2 * t)
            u, v = blk[..., :t], blk[..., t:]
            vw = self._mulmod(v, self.psi[:, m:2 * m, None],
                              self.psi_sh[:, m:2 * m, None], pp)
            lo = u + vw
            lo = np.where(lo >= pp, lo - pp, lo)
            hi = np.where(u < vw, u - vw + pp, u - vw)
            blk[..., :t] = lo
            blk[..., t:] = hi
            m *= 2
        return a

    def inverse(self, a):
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64).copy()
        flat = a.reshape(-1, self.k, n)
        pp = self.p[:, :, None]
        t, m = 1, n
        while m > 1:
            h = m // 2
            blk = flat.reshape(flat.shape[0], self.k, h, 2 * t)
            u, v = blk[..., :t], blk[..., t:]
            lo = u + v
            lo = np.where(lo >= pp, lo - pp, lo)
            d = np.where(u < v, u - v + pp, u - v)
            blk[..., :t] = lo
            blk[..., t:] = self._mulmod(d, self.ipsi[:, h:2 * h, None],
                                        self.ipsi_sh[:, h:2 * h, None], pp)
            t *= 2
            m = h
        return self._mulmod(flat, self.ninv, self.ninv_sh,
                            self.p).reshape(a.shape)


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("k", [1, 3])
def test_kernel_matches_reference_loop(n, k):
    qs, p = SESSION_PRIMES[n]
    primes = qs if k == 3 else (p,)
    ctx, ref = get_stacked(primes, n), _ReferenceNtt(primes, n)
    pr = np.array(primes, dtype=np.uint64)[:, None]
    rng = np.random.default_rng(n + k)
    batches = [
        rng.integers(0, 1 << 63, (4, k, n), dtype=np.uint64) % pr,
        np.zeros((2, k, n), dtype=np.uint64),
        np.broadcast_to(pr - np.uint64(1), (2, k, n)).copy(),
        rng.integers(0, 1 << 63, (k, n), dtype=np.uint64) % pr,  # no batch axis
    ]
    for a in batches:
        before = a.copy()
        fwd, inv = ctx.forward(a), ctx.inverse(a)
        assert np.array_equal(a, before)  # the argument is never written
        assert fwd.shape == inv.shape == a.shape
        assert np.array_equal(fwd, ref.forward(a))
        assert np.array_equal(inv, ref.inverse(a))
        assert np.array_equal(ctx.inverse(fwd), a)
        _check_column_helpers(a, fwd, primes)


@pytest.mark.parametrize("n", [512, 1024])
def test_shoup_matches_big_int_formula(n):
    qs, p = SESSION_PRIMES[n]
    rng = random.Random(n)
    for m in qs + (p,):
        vals = [0, 1, m - 1] + [rng.randrange(m) for _ in range(500)]
        got = shoup(np.array(vals, dtype=np.uint64), m)
        want = np.array([(v << 64) // m for v in vals], dtype=np.uint64)
        assert np.array_equal(got, want)
        assert got.dtype == np.uint64
        assert np.array_equal(shoup(np.array(vals, dtype=np.uint64).reshape(-1, 1), m),
                              want.reshape(-1, 1))
        assert all(int(shoup(v, m)) == (v << 64) // m for v in vals[:3])
    # the q stack as one (k, 1) column against (B, k, n) values
    col = np.array(qs, dtype=np.uint64)[:, None]
    vals = np.array([[[0, 1, q - 1] + [rng.randrange(q) for _ in range(61)]
                      for q in qs] for _ in range(2)], dtype=np.uint64)
    got = shoup(vals, col)
    assert got.shape == vals.shape
    for i, q in enumerate(qs):
        assert np.array_equal(got[:, i], shoup(vals[:, i], q))
        assert got[:, i].tolist() == [[(int(v) << 64) // q for v in row]
                                      for row in vals[:, i]]
    # scalar and 0-d operands against the column, and full 64-bit halves
    assert shoup(1, col).tolist() == [[(1 << 64) // q] for q in qs]
    top = np.uint64(2**64 - 1)
    for hi, lo in [(0, 0), (top, top), (top, 0), (0, top),
                   (np.array(top), np.array(1, dtype=np.uint64))]:
        want = [[((int(hi) << 64) + int(lo)) % q] for q in qs]
        assert reduce128(hi, lo, col).tolist() == want
        assert [[int(reduce128(hi, lo, q))] for q in qs] == want
        assert [[int(mulmod_vec(hi, lo, q))] for q in qs] == [
            [int(hi) * int(lo) % q] for q in qs]


def test_mulmod_shoup_against_python_ints():
    rng = random.Random(1)
    for p in (257, 65537, next_prime(1 << 40, congruent=(1, 2048)), P61):
        a = np.array([rng.randrange(p) for _ in range(256)], dtype=np.uint64)
        w = rng.randrange(p)
        got = mulmod_shoup(a, w, shoup(w, p), p)
        want = np.array([int(x) * w % p for x in a], dtype=np.uint64)
        assert np.array_equal(got, want)
        # vector-valued fixed operand, broadcast as a column
        wv = np.array([rng.randrange(p) for _ in range(4)], dtype=np.uint64)
        a2 = a.reshape(4, 64)
        got2 = mulmod_shoup(a2, wv[:, None], shoup(wv, p)[:, None], p)
        for i in range(4):
            assert np.array_equal(got2[i],
                                  np.array([int(x) * int(wv[i]) % p for x in a2[i]], dtype=np.uint64))


def test_modular_helpers():
    p = 101
    a = np.array([0, 1, 50, 100], dtype=np.uint64)
    b = np.array([0, 100, 52, 100], dtype=np.uint64)
    assert np.array_equal(addmod(a, b, p), (a.astype(int) + b.astype(int)) % p)
    assert np.array_equal(submod(a, b, p), (a.astype(int) - b.astype(int)) % p)
    assert np.array_equal(mulmod_vec(a, b, p), (a.astype(int) * b.astype(int)) % p)


@pytest.mark.parametrize("p,n", [
    (next_prime(1 << 20, congruent=(1, 2048)), 8),
    (next_prime(1 << 20, congruent=(1, 2048)), 512),
    (next_prime(1 << 45, congruent=(1, 1 << 12)), 64),
    (P61, 32),
])
def test_roundtrip_and_convolution(p, n):
    rng = random.Random(n)
    ctx = get_stacked((p,), n)
    a = np.array([rng.randrange(p) for _ in range(n)], dtype=np.uint64)
    b = np.array([rng.randrange(p) for _ in range(n)], dtype=np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)
    assert np.array_equal(ctx.forward(ctx.inverse(a)), a)
    prod = ctx.inverse(mulmod_vec(ctx.forward(a), ctx.forward(b), p))
    want = np.array(negacyclic_convolve_naive(a, b, p), dtype=np.uint64)
    assert np.array_equal(prod, want)


def test_negacyclic_wraparound_sign():
    # (x^(n-1))^2 = x^(2n-2) = -x^(n-2) mod x^n+1
    p = next_prime(1 << 20, congruent=(1, 2048))
    n = 16
    ctx = get_stacked((p,), n)
    a = np.zeros(n, dtype=np.uint64)
    a[n - 1] = 1
    sq = ctx.inverse(mulmod_vec(ctx.forward(a), ctx.forward(a), p))
    want = np.zeros(n, dtype=np.uint64)
    want[n - 2] = p - 1
    assert np.array_equal(sq, want)


def test_eval_exponents_are_odd_unique_and_prime_independent():
    n = 64
    p1 = next_prime(1 << 20, congruent=(1, 2048))
    p2 = next_prime(1 << 21, congruent=(1, 2048))
    e1 = get_stacked((p1,), n).eval_exponents
    e2 = get_stacked((p2,), n).eval_exponents
    assert np.array_equal(e1, e2)  # ordering depends only on n
    assert np.all(e1 % 2 == 1)
    assert len(set(e1.tolist())) == n
    # spot-check: forward really evaluates at psi^exps, on every prime row
    ctx = get_stacked((p1, p2), n)
    rng = random.Random(7)
    a = [rng.randrange(p1) for _ in range(n)]
    pts = ctx.forward(np.array([a, a], dtype=np.uint64))
    for row, (p, psi) in enumerate(zip(ctx.primes, ctx.psi)):
        for k in (0, 1, n // 2, n - 1):
            e = int(e1[k])
            want = sum(c * pow(psi, e * j, p) for j, c in enumerate(a)) % p
            assert int(pts[row, k]) == want


def test_context_validation():
    with pytest.raises(ParameterError):
        get_stacked((17,), 3)  # not a power of two
    with pytest.raises(ParameterError):
        get_stacked((12289,), 8192)  # 12289 != 1 mod 16384
    with pytest.raises(ParameterError):
        get_stacked(((1 << 20) + 2048 + 1,), 1024)  # composite
    with pytest.raises(ParameterError):
        get_stacked((next_prime(1 << 62, congruent=(1, 16)),), 8)  # too wide
