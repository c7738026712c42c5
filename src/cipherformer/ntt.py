"""Negacyclic number-theoretic transforms over word-sized primes.

All hot arithmetic runs on numpy uint64 with Shoup's trick: for a fixed
multiplicand w mod p, precompute w' = floor(w * 2^64 / p); then

    q = mulhi_64(a, w')            # off by at most one from floor(a*w/p)
    r = (a*w - q*p) mod 2^64       # lands in [0, 2p)
    r -= p if r >= p

which needs only wrapping 64-bit multiplies (the high half is assembled from
32-bit limbs, since numpy has no 128-bit type).  Correct for any p < 2^63 and
fully reduced operands.  Twiddle factors and key material are known in
advance, so their precompute amortises; a plaintext that multiplies a single
ciphertext goes through `mulmod_vec` instead, which needs no twin.

`StackedNtt` is the one transform class: a stack of k primes (an RNS basis),
or a single prime with k=1.  The transform pair is the standard in-place
iterative one: Cooley-Tukey butterflies with bit-reversed powers of psi (a
primitive 2n-th root of unity) forward, Gentleman-Sande with psi^-1
backward.  Nobody here ever needs the
forward output in "natural" order, because the slot machinery works purely in
terms of which evaluation point lives at which position (`eval_exponents`,
recovered once by a discrete log over the 2n-th roots -- cheap, and immune to
off-by-one conventions in the table layout).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError
from .primes import is_prime, root_of_unity

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of a*b for uint64 arrays, via 32-bit limbs."""
    a0 = a & _MASK32
    a1 = a >> _SHIFT32
    b0 = b & _MASK32
    b1 = b >> _SHIFT32
    m00 = a0 * b0
    m01 = a0 * b1
    m10 = a1 * b0
    mid = (m00 >> _SHIFT32) + (m01 & _MASK32) + (m10 & _MASK32)
    return a1 * b1 + (m01 >> _SHIFT32) + (m10 >> _SHIFT32) + (mid >> _SHIFT32)


def shoup(w, p: int) -> np.ndarray:
    """Precompute floor(w * 2^64 / p) for scalar or vector w (reduced mod p)."""
    if np.isscalar(w) or isinstance(w, int):
        return np.uint64(((int(w) % p) << 64) // p)
    return np.array([((int(x) % p) << 64) // p for x in np.asarray(w).ravel()],
                    dtype=np.uint64).reshape(np.shape(w))


def mulmod_shoup(a, w, w_sh, p: int) -> np.ndarray:
    """(a * w) mod p with precomputed Shoup constant; operands fully reduced.

    Shapes broadcast: w may be a scalar, a column of per-row twiddles, or a
    full array matching a.
    """
    pp = np.uint64(p)
    a = np.asarray(a, dtype=np.uint64)
    w = np.asarray(w, dtype=np.uint64)
    w_sh = np.asarray(w_sh, dtype=np.uint64)
    q = _mulhi(a, w_sh)
    r = a * w - q * pp
    return np.where(r >= pp, r - pp, r)


def mulmod_vec(a, b, p: int) -> np.ndarray:
    """(a * b) mod p elementwise without a precomputed twin (p < 2^62).

    Splits the 128-bit product into hi*2^64 + lo and folds the hi part back
    with a Shoup multiply by the constant 2^64 mod p.  Slower than
    mulmod_shoup, but usable when the \"constant\" side is single-use and
    precomputing twins would cost more than it saves.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    hi = _mulhi(a, b)
    lo = a * b
    c = (1 << 64) % p
    t = mulmod_shoup(hi, np.uint64(c), shoup(c, p), p)
    return addmod(t, lo % np.uint64(p), p)


def addmod(a, b, p: int):
    pp = np.uint64(p)
    r = a + b
    return np.where(r >= pp, r - pp, r)


def submod(a, b, p: int):
    pp = np.uint64(p)
    r = a - b
    return np.where(a < b, r + pp, r)


def _bitrev_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _bitrev_powers(w: int, p: int, rev: np.ndarray) -> np.ndarray:
    """Powers w^0 .. w^(n-1) mod p, in bit-reversed order."""
    pw = [1] * len(rev)
    for i in range(1, len(rev)):
        pw[i] = pw[i - 1] * w % p
    return np.array([pw[i] for i in rev], dtype=np.uint64)


class StackedNtt:
    """Batched transforms over a fixed stack of k primes (an RNS basis).

    Operates on arrays of shape (..., k, n): row i of the trailing two axes
    is the residue polynomial mod primes[i].  One vectorised butterfly pass
    covers every prime and every leading batch element at once, which is
    where the throughput comes from -- numpy call overhead dominates at
    n <= 1024, so fusing the k transforms (and any batch of polynomials)
    into one set of array ops beats looping over the primes.  k=1 is the
    single-prime transform (the plaintext modulus, the slot map's probe).
    """

    def __init__(self, primes: tuple[int, ...], n: int):
        if n < 4 or n & (n - 1):
            raise ParameterError(f"transform length {n} must be a power of two >= 4")
        if len(set(primes)) != len(primes):
            raise ParameterError("RNS primes must be distinct")
        self.primes = tuple(int(p) for p in primes)
        for p in self.primes:
            if p.bit_length() > 62:
                raise ParameterError(f"modulus {p} too wide for 64-bit butterflies")
            if p % (2 * n) != 1:
                raise ParameterError(f"p={p} is not 1 mod 2n (n={n})")
            if not is_prime(p):
                raise ParameterError(f"p={p} is not prime")
        self.n = n
        self.k = len(self.primes)
        self.psi = tuple(root_of_unity(2 * n, p) for p in self.primes)
        rev = _bitrev_indices(n)
        # twiddles stacked as (k, n); butterflies slice columns, broadcast rows
        self._psi = np.stack([_bitrev_powers(w, p, rev)
                              for w, p in zip(self.psi, self.primes)])
        self._ipsi = np.stack([_bitrev_powers(pow(w, -1, p), p, rev)
                               for w, p in zip(self.psi, self.primes)])
        self._psi_sh = np.stack([shoup(r, p) for r, p in zip(self._psi, self.primes)])
        self._ipsi_sh = np.stack([shoup(r, p) for r, p in zip(self._ipsi, self.primes)])
        ninv = [pow(n, -1, p) for p in self.primes]
        self._ninv = np.array(ninv, dtype=np.uint64)[:, None]
        self._ninv_sh = np.array([int(shoup(v, p)) for v, p in zip(ninv, self.primes)],
                                 dtype=np.uint64)[:, None]
        self._p = np.array(self.primes, dtype=np.uint64)[:, None]

    def _mulmod(self, a, w, w_sh):
        q = _mulhi(a, w_sh)
        r = a * w - q * self._p
        return np.where(r >= self._p, r - self._p, r)

    def forward(self, a: np.ndarray) -> np.ndarray:
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64).copy()
        flat = a.reshape(-1, self.k, n)
        t = n
        m = 1
        while m < n:
            t //= 2
            blk = flat.reshape(flat.shape[0], self.k, m, 2 * t)
            u = blk[..., :t]
            v = blk[..., t:]
            w = self._psi[:, m:2 * m, None]
            wsh = self._psi_sh[:, m:2 * m, None]
            q = _mulhi(v, wsh)
            pp = self._p[:, :, None]
            vw = v * w - q * pp
            vw = np.where(vw >= pp, vw - pp, vw)
            lo = u + vw
            lo = np.where(lo >= pp, lo - pp, lo)
            hi = np.where(u < vw, u - vw + pp, u - vw)
            blk[..., :t] = lo
            blk[..., t:] = hi
            m *= 2
        return a

    def inverse(self, a: np.ndarray) -> np.ndarray:
        n = self.n
        a = np.ascontiguousarray(a, dtype=np.uint64).copy()
        flat = a.reshape(-1, self.k, n)
        t = 1
        m = n
        while m > 1:
            h = m // 2
            blk = flat.reshape(flat.shape[0], self.k, h, 2 * t)
            u = blk[..., :t]
            v = blk[..., t:]
            pp = self._p[:, :, None]
            w = self._ipsi[:, h:2 * h, None]
            wsh = self._ipsi_sh[:, h:2 * h, None]
            lo = u + v
            lo = np.where(lo >= pp, lo - pp, lo)
            d = np.where(u < v, u - v + pp, u - v)
            q = _mulhi(d, wsh)
            hi = d * w - q * pp
            hi = np.where(hi >= pp, hi - pp, hi)
            blk[..., :t] = lo
            blk[..., t:] = hi
            t *= 2
            m = h
        out = self._mulmod(flat, self._ninv, self._ninv_sh)
        return out.reshape(a.shape)

    @cached_property
    def eval_exponents(self) -> np.ndarray:
        """exps[j] = e such that forward(a)[j] == a(psi^e); e odd, unique.

        Computed on the first prime; the map depends only on n (asserted in
        tests), so it holds for every row.
        """
        p, psi = self.primes[0], self.psi[0]
        x = np.zeros((self.k, self.n), dtype=np.uint64)
        x[:, 1] = 1  # the monomial X evaluates to the point itself
        points = self.forward(x)[0]
        dlog = {}
        acc = 1
        for j in range(2 * self.n):
            dlog[acc] = j
            acc = acc * psi % p
        return np.array([dlog[int(v)] for v in points], dtype=np.int64)


@lru_cache(maxsize=None)
def get_stacked(primes: tuple[int, ...], n: int) -> StackedNtt:
    return StackedNtt(primes, n)


def negacyclic_convolve_naive(a, b, p: int) -> list[int]:
    """Reference O(n^2) product of a*b mod (x^n + 1, p), exact python ints."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        ai = int(ai)
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            k = i + j
            t = ai * int(bj)
            if k >= n:
                out[k - n] = (out[k - n] - t) % p
            else:
                out[k] = (out[k] + t) % p
    return [v % p for v in out]
