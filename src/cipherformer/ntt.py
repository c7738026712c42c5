"""Negacyclic number-theoretic transforms over word-sized primes.

All hot arithmetic runs on numpy uint64 with Shoup's trick: for a fixed
multiplicand w mod p, precompute the twin w' = floor(w * 2^64 / p); then

    q = mulhi_64(a, w')            # floor(a*w/p), or one less
    r = (a*w - q*p) mod 2^64       # lands in [0, 2p)

which needs only wrapping 64-bit multiplies (the high half is assembled from
32-bit limbs, since numpy has no 128-bit type).  The one multiply kernel,
behind `mulmod_shoup` and every butterfly, takes the twin as two 32-bit limbs
and skips the low limb product and the middle carries, so its quotient can
fall short by two and its remainder lies in [0, 4p): that fits in 64 bits
because every prime is at most 62 bits wide, and two branch-free
subtractions finish the reduction.  Twiddle factors and key material are
known in advance, so their twins amortise; a plaintext that multiplies a
single ciphertext goes through `mulmod_vec` instead, which needs no twin.
`shoup` builds twins in numpy too: with 2^64 = Q*p + c, the twin of w is
w*Q + floor(w*c/p), and the second term is one Shoup quotient by the
constant c, corrected by its remainder.

Reductions are branch-free: a value x in [0, 2p) reduces as min(x, x - p),
because x - p wraps to something above x exactly when x < p; a wrapped
difference d = a - b of reduced operands reduces as min(d, d + p) for the
same reason.

Every modular helper (`shoup`, `mulmod_shoup`, `mulmod_vec`, `reduce128`,
`addmod`, `submod`) takes p as one prime or as an array of primes that
broadcasts against the operands.  In practice that array is the (k, 1)
column of an RNS basis against (..., k, n) residue stacks, so arithmetic
modulo every prime of a basis is one call, and no caller loops over the
primes.

`StackedNtt` is the one transform class: a stack of k primes (an RNS basis),
or a single prime with k=1.  Forward is Cooley-Tukey with bit-reversed powers
of psi (a primitive 2n-th root of unity), inverse is Gentleman-Sande with
psi^-1 and 1/n folded into its last stage.  Both run in constant geometry:
every forward stage reads its butterfly pairs from the two contiguous halves
of one buffer and writes them interleaved into another, and the inverse
moves data the opposite way.  Before forward stage s, the value the textbook
in-place loop keeps at index i sits at i rotated left by s bits, so after
all log2(n) stages every output is exactly where that loop leaves it, and no
stage works on short strided runs.  Each stage has a table of its twiddles
laid out along the half it multiplies, with their Shoup twins already split
into 32-bit limbs, built on first use and kept with the transform; the
stages work in preallocated scratch through in-place ufuncs.

Nobody here ever needs the forward output in "natural" order, because the
slot machinery works purely in terms of which evaluation point lives at
which position (`eval_exponents`, recovered once by a discrete log over the
2n-th roots -- cheap, and immune to off-by-one conventions in the layout).
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


@lru_cache(maxsize=None)
def _wide(p: int) -> tuple[int, int, int]:
    """2^64 = quot * p + c, and the Shoup twin of c, for one prime."""
    quot, c = divmod(1 << 64, p)
    return quot, c, (c << 64) // p


def _wide_consts(pp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_wide` of every prime in pp, each as an array shaped like pp."""
    cols = zip(*map(_wide, pp.ravel().tolist()))
    return tuple(np.array(c, dtype=np.uint64).reshape(pp.shape) for c in cols)


def shoup(w, p) -> np.ndarray:
    """floor(w * 2^64 / p) for a scalar or an array of non-negative w,
    reduced mod p first; p is a prime or an array of primes (p < 2^63)."""
    pp = np.asarray(p, dtype=np.uint64)
    shape = np.broadcast_shapes(np.shape(w), pp.shape)
    # at least 1-d: the correction below wraps on purpose, which numpy
    # allows silently in arrays but warns about in scalars
    w = np.array(w, dtype=np.uint64, ndmin=1) % pp
    quot, c, c_sh = _wide_consts(pp)
    # floor(w*c/p): the Shoup quotient by c is exact or one short, and its
    # remainder (in [0, 2p)) says which
    q = _mulhi(w, c_sh)
    q += w * c - q * pp >= pp
    return (w * quot + q).reshape(shape)


def _mulmod_into(x, w, w_lo, w_hi, p, p2, out, s1, s2):
    """out = (x * w) mod p, for w reduced and w's Shoup twin given as its
    32-bit limbs w_lo, w_hi; s1 and s2 are scratch of the broadcast shape,
    and out may be x itself or a strided view.

    The quotient leaves out x_lo*w_lo and the carries out of the middle limb
    products, so it is short by at most two and the remainder lies in
    [0, 4p); 4p < 2^64 because p has at most 62 bits.
    """
    np.right_shift(x, _SHIFT32, out=s1)
    np.multiply(s1, w_lo, out=s2)
    np.right_shift(s2, _SHIFT32, out=s2)
    np.multiply(s1, w_hi, out=s1)
    s1 += s2
    np.bitwise_and(x, _MASK32, out=s2)
    np.multiply(s2, w_hi, out=s2)
    np.right_shift(s2, _SHIFT32, out=s2)
    s1 += s2
    s1 *= p
    np.multiply(x, w, out=s2)
    s2 -= s1
    np.subtract(s2, p2, out=s1)
    np.minimum(s2, s1, out=s2)
    np.subtract(s2, p, out=s1)
    np.minimum(s2, s1, out=out)


def mulmod_shoup(a, w, w_sh, p) -> np.ndarray:
    """(a * w) mod p with precomputed Shoup constant; w reduced, p < 2^62.

    Shapes broadcast: w may be a scalar, a column of per-row twiddles, or a
    full array matching a, and p a prime or a column of primes.
    """
    pp = np.asarray(p, dtype=np.uint64)
    a = np.asarray(a, dtype=np.uint64)
    w = np.asarray(w, dtype=np.uint64)
    w_sh = np.asarray(w_sh, dtype=np.uint64)
    out, s1, s2 = (np.empty(np.broadcast_shapes(a.shape, w.shape, w_sh.shape,
                                                pp.shape), dtype=np.uint64)
                   for _ in range(3))
    _mulmod_into(a, w, w_sh & _MASK32, w_sh >> _SHIFT32, pp, pp * np.uint64(2),
                 out, s1, s2)
    return out


def reduce128(hi, lo, p) -> np.ndarray:
    """(hi * 2^64 + lo) mod p for any 64-bit halves hi and lo (p < 2^62).

    Folds hi back with a Shoup multiply by the constant 2^64 mod p.
    """
    pp = np.asarray(p, dtype=np.uint64)
    _, c, c_sh = _wide_consts(pp)
    return addmod(mulmod_shoup(hi, c, c_sh, pp), np.remainder(lo, pp), pp)


def mulmod_vec(a, b, p) -> np.ndarray:
    """(a * b) mod p elementwise without a precomputed twin (p < 2^62).

    Splits the 128-bit product into hi*2^64 + lo for `reduce128`.  Slower
    than mulmod_shoup, but usable when the \"constant\" side is single-use
    and precomputing twins would cost more than it saves.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return reduce128(_mulhi(a, b), np.multiply(a, b), p)


def addmod(a, b, p) -> np.ndarray:
    """(a + b) mod p for reduced a and b."""
    r = np.add(a, b, dtype=np.uint64)
    return np.minimum(r, np.subtract(r, np.asarray(p, dtype=np.uint64)))


def submod(a, b, p) -> np.ndarray:
    """(a - b) mod p for reduced a and b."""
    r = np.subtract(a, b, dtype=np.uint64)
    return np.minimum(r, np.add(r, np.asarray(p, dtype=np.uint64)))


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
    Inputs must be reduced mod their row's prime; neither transform writes
    to its argument.
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
        self._p = np.array(self.primes, dtype=np.uint64)[:, None]
        self._p2 = self._p * np.uint64(2)

    def _twiddles(self, w: np.ndarray) -> tuple[np.ndarray, ...]:
        """(w, low limb of its twin, high limb of its twin), rows per prime."""
        sh = shoup(w, self._p)
        return w, sh & _MASK32, sh >> _SHIFT32

    def _stage_tables(self, roots) -> list[tuple[np.ndarray, ...]]:
        """Per stage, bit-reversed powers of each root laid out along the
        half the stage multiplies: stage s holds 2^s blocks, and position r
        of a half belongs to block r mod 2^s."""
        rev = _bitrev_indices(self.n)
        pw = np.stack([_bitrev_powers(w, p, rev)
                       for w, p in zip(roots, self.primes)])
        r = np.arange(self.n // 2)
        return [self._twiddles(pw[:, m + r % m])
                for m in (1 << s for s in range(self.n.bit_length() - 1))]

    @cached_property
    def _forward_tables(self) -> list[tuple[np.ndarray, ...]]:
        return self._stage_tables(self.psi)

    @cached_property
    def _inverse_tables(self):
        """The inverse's stage tables in the order it runs them, with 1/n
        folded into the last stage's twiddles, and the 1/n table that scales
        that stage's sums."""
        stages = self._stage_tables([pow(w, -1, p) for w, p in
                                     zip(self.psi, self.primes)])[::-1]
        ninv = np.array([[pow(self.n, -1, p)] for p in self.primes],
                        dtype=np.uint64)
        stages[-1] = self._twiddles(mulmod_vec(stages[-1][0], ninv, self._p))
        return stages, self._twiddles(ninv)

    def _buffers(self, a: np.ndarray):
        x = np.asarray(a, dtype=np.uint64).reshape(-1, self.k, self.n)
        shape = (x.shape[0], self.k, self.n // 2)
        return (x, np.empty(x.shape, dtype=np.uint64),
                np.empty(x.shape, dtype=np.uint64),
                [np.empty(shape, dtype=np.uint64) for _ in range(3)])

    def forward(self, a: np.ndarray) -> np.ndarray:
        x, buf0, buf1, (s1, s2, s3) = self._buffers(a)
        h = self.n // 2
        p, p2 = self._p, self._p2
        src = x
        for i, (w, w_lo, w_hi) in enumerate(self._forward_tables):
            dst = (buf0, buf1)[i % 2]
            u = src[..., :h]
            _mulmod_into(src[..., h:], w, w_lo, w_hi, p, p2, s3, s1, s2)
            np.add(u, s3, out=s1)
            np.subtract(s1, p, out=s2)
            np.minimum(s1, s2, out=dst[..., 0::2])
            np.subtract(u, s3, out=s1)
            np.add(s1, p, out=s2)
            np.minimum(s1, s2, out=dst[..., 1::2])
            src = dst
        return src.reshape(np.shape(a))

    def inverse(self, a: np.ndarray) -> np.ndarray:
        x, buf0, buf1, (s1, s2, s3) = self._buffers(a)
        h = self.n // 2
        p, p2 = self._p, self._p2
        stages, scale = self._inverse_tables
        src = x
        for i, (w, w_lo, w_hi) in enumerate(stages):
            dst = (buf0, buf1)[i % 2]
            u, v = src[..., 0::2], src[..., 1::2]
            np.add(u, v, out=s1)
            np.subtract(s1, p, out=s2)
            if i < len(stages) - 1:
                np.minimum(s1, s2, out=dst[..., :h])
            else:
                np.minimum(s1, s2, out=s3)
                _mulmod_into(s3, *scale, p, p2, dst[..., :h], s1, s2)
            np.subtract(u, v, out=s1)
            np.add(s1, p, out=s2)
            np.minimum(s1, s2, out=s3)
            _mulmod_into(s3, w, w_lo, w_hi, p, p2, dst[..., h:], s1, s2)
            src = dst
        return src.reshape(np.shape(a))

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
