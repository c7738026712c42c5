import random

import numpy as np
import pytest

from cipherformer.fixedpoint import to_field, to_signed
from cipherformer.primes import is_prime, next_prime, root_of_unity

P20 = next_prime(1 << 20, congruent=(1, 2048))


def test_default_modulus_properties():
    # the smallest prime >= 2^20 that is 1 mod 2048 (slots up to n = 1024)
    p = P20
    assert is_prime(p)
    assert p >= 1 << 20
    assert p % 2048 == 1
    q = 1 << 20
    q += (1 - q) % 2048
    while q < p:
        assert not is_prime(q)
        q += 2048


def test_next_prime_plain_and_congruent():
    assert next_prime(10) == 11
    assert next_prime(11) == 11
    assert next_prime(100, congruent=(1, 6)) == 103
    with pytest.raises(ValueError):
        next_prime(10, congruent=(7, 6))


def test_root_of_unity_orders():
    p = P20
    for order in (2, 8, 2048):
        w = root_of_unity(order, p)
        assert pow(w, order, p) == 1
        assert pow(w, order // 2, p) == p - 1  # exact order


def test_exhaustive_bijection_small_layout():
    # every 6-bit two's-complement value embeds into Z_67 and lifts back
    p = 67
    s = np.arange(-32, 32)
    v = to_field(s, p)
    assert len(set(v.tolist())) == 64 and int(v.max()) < p
    assert np.array_equal(to_signed(v, p), s)


def test_random_round_trips():
    rng = random.Random(0xF1DE)
    for _ in range(500):
        w = rng.randrange(6, 60)
        p = next_prime(1 << w)
        s = rng.randrange(-(1 << (w - 1)), 1 << (w - 1))
        assert int(to_signed(to_field([s], p), p)[0]) == s


def test_array_helpers_match_scalar():
    p = P20
    rng = np.random.default_rng(11)
    s = rng.integers(-(1 << 19), 1 << 19, size=(17, 5))
    v = to_field(s, p)
    assert v.dtype == np.uint64
    for idx in np.ndindex(s.shape):
        assert int(v[idx]) == int(s[idx]) % p
    back = to_signed(v, p)
    assert back.dtype == np.int64 and np.array_equal(back, s)
