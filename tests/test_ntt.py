import random

import numpy as np
import pytest

from cipherformer.errors import ParameterError
from cipherformer.ntt import (
    addmod,
    get_stacked,
    mulmod_shoup,
    mulmod_vec,
    negacyclic_convolve_naive,
    shoup,
    submod,
)
from cipherformer.primes import next_prime

P61 = next_prime(1 << 60, congruent=(1, 1 << 14))  # worst-case wide modulus


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
