"""Packed-AHE unit tests: algebra, rotations, noise accounting, wire format."""

from math import inf, log2

import numpy as np
import pytest

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cipherformer import pahe
from cipherformer.errors import NoiseBudgetError, ParameterError, ProtocolError
from cipherformer.gc import ot
from cipherformer.helinear import (COLBLOCKS, Layout, encmatrix_from_bytes,
                                   encmatrix_to_bytes, pack_colblocks)
from cipherformer.model import ModelConfig
from cipherformer.ntt import addmod, get_stacked, mulmod_vec, shoup
from cipherformer.primes import next_prime
from cipherformer.protocol import (HELLO, memory_pair, read_frame, session,
                                   session_geometry, write_frame)
from test_ntt import eval_exponents

P20 = next_prime(1 << 20, congruent=(1, 2048))


@pytest.fixture(scope="module")
def setup():
    par = pahe.session_params(P20, 256)
    km = pahe.keygen(par, seed=11, rotations=(1, 2, 5, par.row_size - 5))
    ev = pahe.Evaluator(km, seed=12)
    rng = np.random.default_rng(13)
    return par, km, ev, rng


def rand_vec(par, rng):
    return rng.integers(0, par.p, par.n, dtype=np.uint64)


def const(par, w):
    """The slot vector with every slot w, encoded for multiplication."""
    return pahe.encode_plain_many(par, [np.full(par.n, w % par.p, dtype=np.uint64)])


def enc(ev, v):
    """A batch of one."""
    return ev.encrypt_many([v])


def dec(km, ct):
    return km.decrypt_many(ct)[0]


def mul(ev, ct, w):
    return ev.simd_scmult_many(ct, w)


def rot(ev, ct, r):
    return ev.col_rotate_many(ct, [r])


def add(ev, a, b):
    return ev.sum_groups(pahe.Ciphertexts.concat([a, b]), [0, 0], 1)


class TestParams:
    def test_plain_modulus_must_match_ring(self):
        # 65521 is prime but not 1 mod 512, so it has no slot structure
        with pytest.raises(ParameterError):
            pahe.PaheParams(n=256, p=65521, q_primes=(576460752303439873,))

    def test_q_primes_must_be_ntt_friendly(self):
        p = next_prime(1 << 20, congruent=(1, 512))
        with pytest.raises(ParameterError):
            pahe.PaheParams(n=256, p=p, q_primes=(p + 2, p + 4))

    def test_toy_sizing_leaves_budget(self, setup):
        # the small ring these tests run on: a full-range multiply into a
        # fresh ciphertext, then a key switch, still decrypts
        par, km, ev, rng = setup
        assert par.max_budget_bits > par.keyswitch_noise_bits + 8
        v, w = rand_vec(par, rng), rand_vec(par, rng)
        pw = pahe.encode_plain_many(par, [w])
        ct = rot(ev, mul(ev, enc(ev, v), pw), 1)
        assert ct.noise_budget_bits > 0
        half = par.row_size
        prod = (v.astype(object) * w.astype(object) % par.p).astype(np.uint64)
        want = np.concatenate([np.roll(prod[:half], -1), np.roll(prod[half:], -1)])
        assert np.array_equal(dec(km, ct), want)

    def test_session_sizing_leaves_budget(self):
        p = next_prime(1 << 60, congruent=(1, 8192))
        par = pahe.session_params(p, 1024)
        assert par.max_budget_bits > par.keyswitch_noise_bits + 8
        assert par.max_budget_bits > par.fresh_noise_bits + p.bit_length() + 10
        assert len(set(par.q_primes)) == par.k

    def test_plain_prime_is_never_an_rns_prime(self):
        """A 39-bit p at n=512 is exactly where the ciphertext prime search
        starts: session_params must skip it, PaheParams must refuse it (p has
        no inverse mod itself), and encrypt -> add_plain -> decrypt stays
        exact under the primes it picks instead."""
        n = 512
        p = next_prime(1 << 38, congruent=(1, 2 * n))
        par = pahe.session_params(p, n)
        assert p not in par.q_primes
        with pytest.raises(ParameterError, match="must not be a ciphertext prime"):
            pahe.PaheParams(n=n, p=p, q_primes=(p,) + par.q_primes)
        km = pahe.keygen(par, seed=1)
        ev = pahe.Evaluator(km, seed=2)
        rng = np.random.default_rng(3)
        vs = np.stack([rand_vec(par, rng) for _ in range(3)])
        ws = np.stack([rand_vec(par, rng) for _ in range(3)])
        got = km.decrypt_many(ev.add_plain_many(ev.encrypt_many(list(vs)), list(ws)))
        assert np.array_equal(got.astype(object), (vs.astype(object) + ws) % p)

    def test_slot_exponents_prime_independent(self):
        # The slot map's closed form holds for every RNS prime's transform
        # and the plaintext prime's alike.
        par = pahe.session_params(P20, 256)
        for q in par.q_primes + (par.p,):
            assert np.array_equal(eval_exponents(get_stacked((q,), par.n)),
                                  par.slots().exps)


class TestRoundTrip:
    def test_encrypt_decrypt(self, setup):
        par, km, ev, rng = setup
        for _ in range(5):
            v = rand_vec(par, rng)
            assert np.array_equal(dec(km, enc(ev, v)), v)

    def test_short_vector_pads(self, setup):
        par, km, ev, rng = setup
        v = np.array([5, 6, 7], dtype=np.uint64)
        out = dec(km, enc(ev, v))
        assert np.array_equal(out[:3], v) and not out[3:].any()

    def test_batched_matches_single(self, setup):
        par, km, ev, rng = setup
        vs = [rand_vec(par, rng) for _ in range(4)]
        outs = km.decrypt_many(ev.encrypt_many(vs))
        for v, o in zip(vs, outs):
            assert np.array_equal(o, v)

    def test_unreduced_slots_rejected(self, setup):
        par, km, ev, rng = setup
        with pytest.raises(ParameterError):
            enc(ev, np.array([par.p], dtype=np.uint64))

    def test_encrypt_matches_secret_key_reference(self, setup):
        """The evaluator's generator gives its seed key K, then the errors
        e; ciphertext i's seed is AES_K(i), and its c1 = a is that seed's
        expansion.  c0 + c1*s, taken back to coefficients, must be exactly
        round(q m / p) + e, computed in python ints."""
        par, km, ev, rng = setup
        vs = [rand_vec(par, rng) for _ in range(3)]
        got = pahe.Evaluator(km, seed=31).encrypt_many(vs)
        gen, B, n = np.random.default_rng(31), len(vs), par.n
        assert [sd.tobytes() for sd in got.seeds] == aes_blocks(gen.bytes(16), B)
        a = pahe.expand_seeds(par, got.seeds)
        e = pahe._sample_error(gen, (B, n)).astype(object)
        m = pahe._slots_to_coeffs_many(par, np.stack(vs)).astype(object)
        q, p = par.q, par.p
        want = ((q * m + p // 2) // p + e) % q                  # (B, n)
        qi = np.array(par.q_primes, dtype=object)[:, None]
        sk = km._sk.astype(object)
        assert np.array_equal(got.noise_bits, [par.fresh_noise_bits] * B)
        for b, (c0, c1) in enumerate(got.data):
            assert np.array_equal(c1, a[b])
            res = (c0.astype(object) + c1.astype(object) * sk) % qi
            coeffs = par.rns().inverse(res.astype(np.uint64)[None])[0]
            assert np.array_equal(coeffs.astype(object), want[b] % qi)

    def test_only_the_secret_key_encrypts(self, setup):
        """An evaluator over the peer's keys has no secret key: it draws
        nothing and refuses to encrypt."""
        par, km, ev, rng = setup
        pub = pahe.Evaluator(km.public())
        assert pub.rng is None
        with pytest.raises(ParameterError, match="secret key"):
            pub.encrypt_many([rand_vec(par, rng)])

    def test_keygen_deterministic(self, setup):
        par, km, ev, rng = setup
        a = pahe.keygen(par, seed=99, rotations=(1,))
        b = pahe.keygen(par, seed=99, rotations=(1,))
        assert np.array_equal(a._sk, b._sk)
        assert list(a.galois) == list(b.galois) == [3]
        assert np.array_equal(a.galois[3].parts, b.galois[3].parts)


def aes_blocks(key: bytes, count: int) -> list[bytes]:
    """AES_key(0), ..., AES_key(count - 1), each counter a big-endian
    128-bit block."""
    aes = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return [aes.update(i.to_bytes(16, "big")) for i in range(count)]


class TestSeeds:
    def test_expansion_matches_python_int_reference(self, setup):
        """Residue j of prime i of a seed's (k, n) expansion is the 16
        keystream bytes at 16 (i n + j), read as a little-endian integer
        hi 2^64 + lo, mod q_i; every residue is reduced.  A stack of k
        digits is the same keystream read on, so its first digit is the
        ciphertext expansion of the same seed."""
        par, km, ev, rng = setup
        k, n = par.k, par.n
        seeds = np.random.default_rng(40).integers(
            0, 256, (3, pahe.SEED_BYTES), dtype=np.uint8)
        seeds[0] = 255
        got = pahe.expand_seeds(par, seeds)
        assert got.shape == (3, k, n) and got.dtype == np.uint64
        assert np.all(got < par.q_col)
        for b, seed in enumerate(seeds):
            stream = Cipher(algorithms.AES(seed.tobytes()),
                            modes.CTR(bytes(16))).encryptor().update(
                                bytes(16 * k * n))
            for i, q in enumerate(par.q_primes):
                want = [int.from_bytes(stream[16 * (i * n + j):
                                              16 * (i * n + j + 1)],
                                       "little") % q for j in range(n)]
                assert got[b, i].tolist() == want
        digits = pahe.expand_seeds(par, seeds, (k,))
        assert digits.shape == (3, k, k, n)
        assert np.all(digits < par.q_col)
        assert np.array_equal(digits[:, 0], got)

    def test_flipping_a_seed_byte_changes_a(self, setup):
        """Any one flipped bit of a seed gives an unrelated expansion: no
        residue of the 16 flipped seeds' expansions keeps its value, up to
        chance."""
        par, km, ev, rng = setup
        seed = ev.encrypt_many([rand_vec(par, rng)]).seeds
        a = pahe.expand_seeds(par, seed)[0]
        flips = np.repeat(seed, pahe.SEED_BYTES, axis=0)
        flips[np.arange(pahe.SEED_BYTES), np.arange(pahe.SEED_BYTES)] ^= 1
        other = pahe.expand_seeds(par, flips)
        assert np.count_nonzero(other == a) < 8

    def test_encryption_seeds_count_on_across_calls(self, setup):
        """An evaluator's seeds are AES_K(0), AES_K(1), ... under the one
        key K its generator gives first, counted across `encrypt_many`
        calls, so two calls never share a seed."""
        par, km, ev, rng = setup
        ev2 = pahe.Evaluator(km, seed=41)
        first = ev2.encrypt_many([rand_vec(par, rng) for _ in range(2)])
        second = ev2.encrypt_many([rand_vec(par, rng) for _ in range(3)])
        seeds = [sd.tobytes() for sd in np.concatenate([first.seeds,
                                                        second.seeds])]
        assert seeds == aes_blocks(np.random.default_rng(41).bytes(16), 5)
        assert len(set(seeds)) == 5
        for cts in (first, second):
            assert np.array_equal(cts.data[:, 1],
                                  pahe.expand_seeds(par, cts.seeds))

    def test_galois_key_seeds_follow_the_secret_key(self, setup):
        """keygen's generator draws the secret key, then its seed key K;
        the Galois key of the i-th element, in element order, has seed
        AES_K(i), and its k1 digits are that seed's expansion."""
        par, km, ev, rng = setup
        gen = np.random.default_rng(11)
        pahe._sample_ternary(gen, par.n)
        elements = sorted(km.galois)
        want = aes_blocks(gen.bytes(16), len(elements))
        for t, seed in zip(elements, want):
            key = km.galois[t]
            assert key.seed.tobytes() == seed
            assert np.array_equal(key.k1, pahe.expand_seeds(
                par, key.seed[None], (par.k,))[0])


class TestHomomorphisms:
    def test_add_ct(self, setup):
        par, km, ev, rng = setup
        a, b = rand_vec(par, rng), rand_vec(par, rng)
        got = dec(km, add(ev, enc(ev, a), enc(ev, b)))
        assert np.array_equal(got, (a + b) % np.uint64(par.p))

    def test_add_plain_full_range(self, setup):
        par, km, ev, rng = setup
        a, b = rand_vec(par, rng), rand_vec(par, rng)
        got = dec(km, ev.add_plain_many(enc(ev, a), [b]))
        assert np.array_equal(got, (a + b) % np.uint64(par.p))

    def test_scalar_scmult(self, setup):
        par, km, ev, rng = setup
        a = rand_vec(par, rng)
        w = int(rng.integers(1, 1 << 18))
        got = dec(km, mul(ev, enc(ev, a), const(par, w)))
        assert np.array_equal(got.astype(object), (a.astype(object) * w) % par.p)

    def test_vector_scmult(self, setup):
        par, km, ev, rng = setup
        a = rand_vec(par, rng)
        w = rng.integers(0, 1 << 18, par.n, dtype=np.uint64)
        got = dec(km, mul(ev, enc(ev, a), pahe.encode_plain_many(par, [w])))
        want = (a.astype(object) * w.astype(object)) % par.p
        assert np.array_equal(got.astype(object), want)

    def test_scmult_by_zero_and_one(self, setup):
        par, km, ev, rng = setup
        a = rand_vec(par, rng)
        assert not dec(km, mul(ev, enc(ev, a), const(par, 0))).any()
        assert np.array_equal(dec(km, mul(ev, enc(ev, a), const(par, 1))), a)


class TestRotations:
    def test_col_rotate_is_left_cyclic_per_row(self, setup):
        par, km, ev, rng = setup
        half = par.row_size
        v = rand_vec(par, rng)
        for r in (1, 5):
            got = dec(km, rot(ev, enc(ev, v), r))
            want = np.concatenate([np.roll(v[:half], -r), np.roll(v[half:], -r)])
            assert np.array_equal(got, want)

    def test_rotate_zero_is_identity(self, setup):
        """No key switch: the same residues and the same noise estimate."""
        par, km, ev, rng = setup
        v = rand_vec(par, rng)
        ct = enc(ev, v)
        out = rot(ev, ct, 0)
        assert np.array_equal(out.data, ct.data)
        assert np.array_equal(out.noise_bits, ct.noise_bits)
        assert np.array_equal(dec(km, out), v)

    def test_missing_rotation_key(self, setup):
        par, km, ev, rng = setup
        with pytest.raises(ParameterError, match="rotation key"):
            rot(ev, enc(ev, rand_vec(par, rng)), 7)

    def test_galois_key_uses_the_slot_permutation(self):
        """keygen takes sigma_t(s) as a permutation of the NTT-domain secret;
        it must equal X -> X^t applied to the coefficients (negacyclic)."""
        par = pahe.session_params(P20, 64)
        km = pahe.keygen(par, seed=3)
        rns = par.rns()
        coeffs = rns.inverse(km._sk[None])[0]  # (k, n), residues of s
        n = par.n
        for t in (3, 9, 2 * n - 1):
            ref = np.zeros_like(coeffs)
            for i, qi in enumerate(par.q_primes):
                for j in range(n):
                    e = j * t % (2 * n)
                    c = int(coeffs[i, j])
                    if e < n:
                        ref[i, e] = (int(ref[i, e]) + c) % qi
                    else:
                        ref[i, e - n] = (int(ref[i, e - n]) - c) % qi
            want = rns.forward(ref[None])[0]
            assert np.array_equal(km._sk[:, par.slots().perm(t)], want)

    @pytest.mark.parametrize("k", [2, 3])
    def test_keyswitch_matches_full_lift_reference(self, k):
        """col_rotate_many transforms only the k(k-1) off-diagonal digit
        lifts and reuses the permuted c1 rows as the diagonal ones; the
        residues must equal the full k x k lift, accumulated in python ints."""
        p = P20 if k == 2 else next_prime(1 << 52, congruent=(1, 512))
        par = pahe.session_params(p, 256)
        assert par.k == k
        rs = (1, 2, 5)
        km = pahe.keygen(par, seed=21, rotations=rs)
        ev = pahe.Evaluator(km, seed=22)
        rng = np.random.default_rng(23)
        cts = ev.encrypt_many([rand_vec(par, rng) for _ in rs])
        got = ev.col_rotate_many(cts, rs)
        rns = par.rns()
        pr = np.array(par.q_primes, dtype=np.uint64)[:, None]
        q = pr.astype(object)
        for (ct0, ct1), r, out in zip(cts.data, rs, got.data):
            t = pow(3, r, 2 * par.n)
            perm = par.slots().perm(t)
            dig = rns.inverse(ct1[:, perm])
            lifts = rns.forward(np.stack([dig[j] % pr for j in range(k)]))
            ksk = km.galois[t]
            c0 = ct0[:, perm].astype(object)
            c1 = np.zeros_like(c0)
            for j in range(k):
                c0 = (c0 + lifts[j].astype(object) * ksk.k0[j].astype(object)) % q
                c1 = (c1 + lifts[j].astype(object) * ksk.k1[j].astype(object)) % q
            assert np.array_equal(out[0], c0.astype(np.uint64))
            assert np.array_equal(out[1], c1.astype(np.uint64))

    def test_composition(self, setup):
        par, km, ev, rng = setup
        v = rand_vec(par, rng)
        got = dec(km, rot(ev, rot(ev, enc(ev, v), 2), 5))
        half = par.row_size
        want = np.concatenate([np.roll(v[:half], -7), np.roll(v[half:], -7)])
        assert np.array_equal(got, want)


def crt_consts(params) -> np.ndarray:
    """The CRT basis (q/q_i) * ((q/q_i)^-1 mod q_i) as a (k, 1) column of
    Python ints."""
    q = params.q
    return np.array([[q // qi * pow(q // qi, -1, qi)]
                     for qi in params.q_primes], dtype=object)


def measured_noise_bits(km, ct, slots) -> float:
    """log2 of the largest centered |v - q m / p| over all coefficients of
    a batch of one, where v = c0 + c1 s lifted to Z_q and m is the
    coefficient polynomial of the expected `slots`, in python ints.
    Decryption is exact while it stays below q / 2p, the budget
    `max_budget_bits` measures."""
    par = km.params
    q, p = par.q, par.p
    col = par.q_col
    c0, c1 = ct.data[0]
    res = addmod(c0, mulmod_vec(c1, km._sk, col), col)
    v = par.rns().inverse(res[None])[0].astype(object)
    v = (v * crt_consts(par)).sum(axis=0) % q
    m = pahe._slots_to_coeffs_many(par, slots[None])[0].astype(object)
    d = (p * v - q * m) % (p * q)
    worst = max(min(x, p * q - x) for x in d)
    return log2(worst / p) if worst else -inf


class TestNoise:
    @pytest.mark.parametrize("ring", ["toy", "he-small", "he-small-1024"])
    def test_tracked_noise_bounds_the_measured_noise(self, setup, ring):
        """The running estimate is an upper bound on the real noise after
        every op a session runs, in session order: a fresh encryption, a
        multiply by a full-range plaintext, a rotation, a ciphertext
        addition and a plaintext addition.  he-small is the n = 512 ring
        with its 62-bit plaintext prime; with 512 positions its held rows
        are 512 slots wide, which takes the n = 1024 ring, again with a
        62-bit prime."""
        par, km, ev, rng = setup
        if ring != "toy":
            seq_len, n = {"he-small": (8, 512),
                          "he-small-1024": (512, 1024)}[ring]
            par = session_geometry(ModelConfig(
                vocab=32, seq_len=seq_len, dim=16, ff_dim=32, n_layers=2,
                n_classes=2), "opt2").params
            assert (par.n, par.p.bit_length()) == (n, 62)
            km = pahe.keygen(par, seed=41, rotations=(1,))
            ev = pahe.Evaluator(km, seed=42)
        half, p = par.row_size, par.p

        def u64(x):
            return (x % p).astype(np.uint64)

        v, w, b, c = (rand_vec(par, rng).astype(object) for _ in range(4))
        fresh = enc(ev, u64(v))
        prod = mul(ev, fresh, pahe.encode_plain_many(par, [u64(w)]))
        turned = rot(ev, prod, 1)
        summed = add(ev, turned, enc(ev, u64(b)))
        shifted = ev.add_plain_many(summed, [u64(c)])
        vw = v * w
        rolled = np.concatenate([np.roll(vw[:half], -1), np.roll(vw[half:], -1)])
        for ct, want in [(fresh, v), (prod, vw), (turned, rolled),
                         (summed, rolled + b), (shifted, rolled + b + c)]:
            want = u64(want)
            assert measured_noise_bits(km, ct, want) <= ct.noise_bits[0]
            assert np.array_equal(dec(km, ct), want)

    def test_ops_strictly_increase_noise(self, setup):
        par, km, ev, rng = setup
        ct = enc(ev, rand_vec(par, rng))
        seq = [lambda c: ev.add_plain_many(c, [rand_vec(par, rng)]),
               lambda c: mul(ev, c, const(par, 3)),
               lambda c: rot(ev, c, 1),
               lambda c: add(ev, c, enc(ev, rand_vec(par, rng)))]
        last = ct.noise_bits[0]
        for f in seq:
            ct = f(ct)
            assert ct.noise_bits[0] > last
            last = ct.noise_bits[0]
        dec(km, ct)  # still decryptable

    def test_budget_exhaustion_raises(self, setup):
        par, km, ev, rng = setup
        ct = enc(ev, rand_vec(par, rng))
        w = const(par, (par.p - 1) // 2)
        with pytest.raises(NoiseBudgetError):
            for _ in range(100):
                ct = mul(ev, ct, w)


def reference_scale_round(par, coeffs) -> np.ndarray:
    """round(p x / q) mod p of the coefficients x whose residues are
    `coeffs`, (..., k, n), by the CRT in Python ints."""
    q, p = par.q, par.p
    x = (coeffs.astype(object) * crt_consts(par)).sum(axis=-2) % q
    return ((x * p + (q >> 1)) // q % p).astype(np.uint64)


def reference_decrypt(km, cts) -> np.ndarray:
    """`decrypt_many` with the scale and round in Python ints."""
    par = km.params
    col = par.q_col
    c1 = mulmod_vec(cts.data[:, 1], km._sk, col)
    coeffs = par.rns().inverse(addmod(cts.data[:, 0], c1, col))
    m = reference_scale_round(par, coeffs)
    slots = get_stacked((par.p,), par.n).forward(m[:, None, :])
    return slots[:, 0, par.slots().pos_of_flat]


def he_small_params():
    """The he-small session's basis: a 62-bit plaintext prime over three
    51-bit primes at n = 512."""
    return session_geometry(ModelConfig(
        vocab=32, seq_len=8, dim=16, ff_dim=32, n_layers=2, n_classes=2),
        "opt2").params


def as_residues(par, xs) -> np.ndarray:
    """Python ints below q as their (k, len(xs)) residues."""
    return np.array([[x % qi for x in xs] for qi in par.q_primes],
                    dtype=np.uint64)


class TestScaleRound:
    """`decrypt_many` scales and rounds in the RNS basis; the CRT in Python
    ints is its reference, at the toy basis and at he-small's."""

    @pytest.fixture(params=["toy", "he-small"])
    def keys(self, request, setup):
        if request.param == "toy":
            return setup[1]
        return pahe.keygen(he_small_params(), seed=41)

    def test_uniform_residues_match_the_python_crt(self, keys):
        """Ciphertexts of uniformly random residues, more than 10^5
        coefficients in all, decrypt as the Python-int CRT says."""
        par = keys.params
        rng = np.random.default_rng(51)
        count = -(-100_000 // par.n)
        data = (rng.integers(0, 1 << 63, (count, 2, par.k, par.n),
                             dtype=np.uint64) % par.q_col)
        cts = pahe.Ciphertexts(par, data,
                               np.full(count, par.fresh_noise_bits))
        assert np.array_equal(keys.decrypt_many(cts),
                              reference_decrypt(keys, cts))

    def test_rounding_next_to_one_half_is_exact(self, keys):
        """For x_lo = floor((2j + 1) q / 2p) and x_hi = x_lo + 1, p x / q
        lies within p / q of j + 1/2, below it and above it, closer than
        the float64 fraction sum can tell: they round to j and j + 1, as
        in Python ints."""
        par = keys.params
        q, p = par.q, par.p
        js = [0, 1, p // 2, p - 2] + np.random.default_rng(52).integers(
            0, p - 1, 60).tolist()
        lo = [(2 * j + 1) * q // (2 * p) for j in js]
        coeffs = as_residues(par, lo + [x + 1 for x in lo])[None]
        want = np.array(js + [j + 1 for j in js], dtype=np.uint64)
        assert np.array_equal(reference_scale_round(par, coeffs)[0], want)
        assert np.array_equal(pahe._scale_round(par, coeffs)[0], want)

    def test_basis_too_wide_for_one_word_is_refused(self):
        """k terms below p and a rounded sum up to k take one 64-bit word
        only while (k + 1) p < 2^64: a 63-bit p over three primes is
        refused, not summed with a wrap."""
        p = next_prime(1 << 62, congruent=(1, 512))
        par = pahe.session_params(p, 256)
        assert par.k == 3
        with pytest.raises(ParameterError, match="too wide"):
            pahe._scale_round(par, np.zeros((1, 3, 256), dtype=np.uint64))

    def test_noise_at_the_edge_of_the_budget_decrypts_exactly(self, keys):
        """c0 = floor(q/p) m + e and c1 = 0, with e = +-(floor(q/2p) - p),
        noise just inside the largest that still decodes: the slots of m,
        as in Python ints."""
        par = keys.params
        q, p, n = par.q, par.p, par.n
        rng = np.random.default_rng(53)
        m = rng.integers(0, p, (2, n), dtype=np.uint64)
        m[:, :2] = [0, p - 1]
        edge = q // (2 * p) - p
        xs = [(q // p * int(v) + sign * edge) % q
              for sign, row in zip((1, -1), m) for v in row]
        c0 = par.rns().forward(as_residues(par, xs).reshape(
            par.k, 2, n).swapaxes(0, 1))
        data = np.stack([c0, np.zeros_like(c0)], axis=1)
        cts = pahe.Ciphertexts(par, data, np.full(2, par.fresh_noise_bits))
        slots = get_stacked((p,), n).forward(m[:, None, :])[
            :, 0, par.slots().pos_of_flat]
        assert np.array_equal(reference_decrypt(keys, cts), slots)
        assert np.array_equal(keys.decrypt_many(cts), slots)


B = 19  # two full blocks of `_KS_BATCH` ciphertexts and a ragged one


@pytest.fixture(scope="module")
def batch(setup):
    """B fresh encryptions, each given its own (looser) noise estimate,
    with B plaintext vectors, B encoded weights and B rotation amounts,
    0 among them, so that no two key-switch blocks use the same keys."""
    par, km, ev, rng = setup
    assert 2 * pahe._KS_BATCH < B < 3 * pahe._KS_BATCH
    fresh = ev.encrypt_many([rand_vec(par, rng) for _ in range(B)])
    cts = pahe.Ciphertexts(par, fresh.data, fresh.noise_bits + np.arange(B))
    vecs = np.stack([rand_vec(par, rng) for _ in range(B)])
    ws = pahe.encode_plain_many(par, [rand_vec(par, rng) for _ in range(B)])
    amounts = (0, 1, 2, 5, par.row_size - 5)
    rs = np.array([amounts[b // 3 % len(amounts)] for b in range(B)])
    return cts, vecs, ws, rs


class TestBatches:
    def test_batch_indexing(self, setup, batch):
        """len, an int (a batch of one), a slice, an index array and
        concat; the budget is the batch's smallest, as a float."""
        par, km, ev, rng = setup
        cts = batch[0]
        assert len(cts) == B and cts.data.shape == (B, 2, par.k, par.n)
        assert np.array_equal(cts[-1].data, cts.data[B - 1:])
        assert np.array_equal(cts[3:5].noise_bits, cts.noise_bits[3:5])
        picked = cts[np.array([4, 0, 4])]
        assert np.array_equal(picked.data, cts.data[[4, 0, 4]])
        joined = pahe.Ciphertexts.concat([cts[:7], cts[7:]])
        assert np.array_equal(joined.data, cts.data)
        assert np.array_equal(joined.noise_bits, cts.noise_bits)
        budget = cts.noise_budget_bits
        assert type(budget) is float
        assert budget == min(cts[i].noise_budget_bits for i in range(B))
        with pytest.raises(IndexError):
            cts[B]
        other = pahe.session_params(P20, 512)
        with pytest.raises(ParameterError, match="different parameters"):
            pahe.Ciphertexts.concat([cts, pahe.Ciphertexts(
                other, cts.data, cts.noise_bits)])

    @pytest.mark.parametrize("op", ["add_plain_many", "simd_scmult_many",
                                    "col_rotate_many", "sum_groups",
                                    "decrypt_many"])
    def test_batch_equals_its_slices(self, setup, batch, op):
        """The batch's output equals, row by row in residues and in noise,
        the same operation on each one-element slice."""
        par, km, ev, rng = setup
        cts, vecs, ws, rs = batch
        run = {
            "add_plain_many": lambda s: ev.add_plain_many(cts[s], vecs[s]),
            "simd_scmult_many": lambda s: ev.simd_scmult_many(cts[s], ws[s]),
            "col_rotate_many": lambda s: ev.col_rotate_many(cts[s], rs[s]),
            "sum_groups": lambda s: ev.sum_groups(
                cts[s], np.arange(len(cts[s])), len(cts[s])),
            "decrypt_many": lambda s: km.decrypt_many(cts[s]),
        }[op]
        whole = run(slice(None))
        for b in range(B):
            one = run(slice(b, b + 1))
            if op == "decrypt_many":
                assert np.array_equal(whole[b], one[0])
            else:
                assert np.array_equal(whole.data[b], one.data[0])
                assert whole.noise_bits[b] == one.noise_bits[0]

    def test_sum_groups_is_a_left_fold(self, setup, batch):
        """Each group is the sequential addmod fold of its members in batch
        order, with the ciphertext-addition noise rule at each step; an
        empty group is the all-zero ciphertext, which decrypts to zero."""
        par, km, ev, rng = setup
        cts = batch[0]
        dest = np.random.default_rng(7).integers(0, 5, B)
        dest[dest == 3] = 4
        before = ev.counters["add_ct"]
        out = ev.sum_groups(cts, dest, 6)
        assert len(out) == 6
        assert ev.counters["add_ct"] - before == B - len(set(dest))
        col = par.q_col
        for j in range(6):
            members = np.flatnonzero(dest == j)
            if not members.size:
                assert not out.data[j].any() and out.noise_bits[j] == 0
                assert not dec(km, out[j]).any()
                continue
            data, noise = cts.data[members[0]], cts.noise_bits[members[0]]
            for i in members[1:]:
                data = addmod(data, cts.data[i], col)
                noise = float(np.logaddexp2(noise, cts.noise_bits[i])) + 1e-3
            assert np.array_equal(out.data[j], data)
            assert out.noise_bits[j] == noise
        with pytest.raises(ParameterError, match="group ids"):
            ev.sum_groups(cts, dest, 4)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scmult_equals_the_twinless_product(self, setup, seed):
        """Each encoding carries the Shoup twin of its polynomial, and
        simd_scmult_many (one Shoup multiply per residue) equals the
        twin-less `mulmod_vec` on a random batch of full-range residues,
        the largest residue of each prime among them."""
        par, km, ev, rng = setup
        r = np.random.default_rng(seed)
        col = par.q_col
        data = np.stack([r.integers(0, q, (B, 2, par.n), dtype=np.uint64)
                         for q in par.q_primes], axis=2)
        data[0, :, :, :3] = col - np.uint64(1)
        cts = pahe.Ciphertexts(par, data, np.full(B, par.fresh_noise_bits))
        ws = pahe.encode_plain_many(par, [rand_vec(par, r) for _ in range(B)])
        assert np.array_equal(ws.twin, shoup(ws.poly, col))
        got = ev.simd_scmult_many(cts, ws)
        assert np.array_equal(got.data, mulmod_vec(data, ws.poly[:, None], col))


def computed(cts):
    """The same ciphertexts as a computed batch, which travels in full."""
    return pahe.Ciphertexts(cts.params, cts.data, cts.noise_bits)


def packed(par, arr) -> bytes:
    """The wire form of `arr`'s residues, worked out in Python ints: in C
    order, each in the basis' b bits of one little-endian bit stream."""
    b, out = par.residue_bits, 0
    for i, v in enumerate(np.ravel(arr)):
        out |= int(v) << (b * i)
    return out.to_bytes(b * np.size(arr) // 8, "little")


def with_residue(par, blob: bytes, start: int, index: int, value: int) -> bytes:
    """`blob` with residue `index` of the packed stream that begins at
    byte `start` set to `value`, which may be any b-bit value."""
    b = par.residue_bits
    lo, hi = start + b * index // 8, start + -(-b * (index + 1) // 8)
    shift = b * index % 8
    word = int.from_bytes(blob[lo:hi], "little")
    word = word & ~(((1 << b) - 1) << shift) | value << shift
    return blob[:lo] + word.to_bytes(hi - lo, "little") + blob[hi:]


def sixty_bit_params():
    """A basis of two 60-bit primes on the smallest ring, n = 16: a
    polynomial is 16 k = 32 residues, half a packing group."""
    n = 16
    q0 = next_prime(1 << 59, congruent=(1, 2 * n))
    return pahe.PaheParams(n=n, p=next_prime(1 << 20, congruent=(1, 2 * n)),
                           q_primes=(q0, next_prime(q0 + 1,
                                                    congruent=(1, 2 * n))))


def wire_bases():
    """Every basis width the wire carries: the session bases (tiny opt1
    at 50 bits, he-small opt2 at 51), the P20-sized test base (47) and
    60-bit primes."""
    tiny = ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8, n_layers=1,
                       n_classes=2, w=20, f=9)
    he_small = ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32,
                           n_layers=2, n_classes=2)
    return [session_geometry(tiny, "opt1").params,
            session_geometry(he_small, "opt2").params,
            pahe.session_params(P20, 256), sixty_bit_params()]


class TestWireFormat:
    def test_ciphertext_roundtrip(self, setup):
        """A batch on the wire is its ciphertexts back to back: a fresh
        one's each its c0 then the seed of its c1, a computed one's each
        its c0 then its c1.  Either parses back to the same (B, 2, k, n)
        array."""
        par, km, ev, rng = setup
        vs = np.stack([rand_vec(par, rng) for _ in range(3)])
        cts = ev.encrypt_many(vs)
        assert cts.fresh and cts.seeds.shape == (3, pahe.SEED_BYTES)
        blob = pahe.cts_to_bytes(cts)
        assert blob == b"".join(packed(par, cts.data[b, 0])
                                + cts.seeds[b].tobytes() for b in range(3))
        full = pahe.cts_to_bytes(computed(cts))
        assert full == b"".join(packed(par, cts.data[b, c])
                                for b in range(3) for c in range(2))
        for data, fresh in ((blob, True), (full, False)):
            back = pahe.cts_from_bytes(data, par, 3, "test batch",
                                       fresh=fresh)
            assert not back.fresh
            assert np.array_equal(back.data, cts.data)
            assert np.array_equal(km.decrypt_many(back), vs)

    def test_params_mismatch(self, setup):
        """A ciphertext or key blob made on another ring is the peer's
        error: the session's parameters fix its size, and it has another.
        At the basis' width b, a fresh ciphertext is b k n / 8 + 16 bytes,
        a computed one 2 b k n / 8, and a key b k^2 n / 8 + 16."""
        par, km, ev, rng = setup
        b = par.residue_bits
        assert b == 47
        ct = enc(ev, rand_vec(par, rng))
        blob = pahe.cts_to_bytes(ct)
        assert len(blob) == pahe.ct_nbytes(par, fresh=True) == \
            b * par.k * par.n // 8 + 16
        assert len(pahe.cts_to_bytes(computed(ct))) == \
            pahe.ct_nbytes(par, fresh=False) == 2 * b * par.k * par.n // 8
        keys = pahe.public_keys_to_bytes(km.public())
        assert len(keys) == pahe.key_blob_nbytes(par, len(km.galois)) == \
            len(km.galois) * (b * par.k * par.k * par.n // 8 + 16)
        other = pahe.session_params(P20, 512)
        with pytest.raises(ProtocolError, match="ciphertext needs 1 ciphertexts"):
            pahe.cts_from_bytes(blob, other, 1, "ciphertext", fresh=True)
        with pytest.raises(ProtocolError, match="key blob has"):
            pahe.public_keys_from_bytes(keys, other, sorted(km.galois))

    def test_public_keys_roundtrip_and_work(self, setup):
        par, km, ev, rng = setup
        km2 = pahe.public_keys_from_bytes(pahe.public_keys_to_bytes(km.public()),
                                          par, sorted(km.galois))
        assert list(km2.galois) == sorted(km.galois)
        assert not km2.has_secret
        ev2 = pahe.Evaluator(km2)
        v = rand_vec(par, rng)
        half = par.row_size
        got = dec(km, rot(ev2, enc(ev, v), 5))
        assert np.array_equal(
            got, np.concatenate([np.roll(v[:half], -5), np.roll(v[half:], -5)]))

    def test_crafted_ciphertexts_rejected(self, setup):
        """In either form, a batch one byte short, padded by a word or by a
        whole ciphertext, or with an unreduced residue, is refused: the
        last c0 residue of the first or the last prime, or in a computed
        ciphertext the last c1 residue, set to its prime or to 2^b - 1,
        the largest value its b bits hold."""
        par, km, ev, rng = setup
        ct = enc(ev, rand_vec(par, rng))
        for fresh in (True, False):
            blob = pahe.cts_to_bytes(ct if fresh else computed(ct))
            for bad in (blob[:-1], blob + bytes(8), blob + blob):
                with pytest.raises(ProtocolError, match="needs 1 ciphertexts"):
                    pahe.cts_from_bytes(bad, par, 1, "ciphertext",
                                        fresh=fresh)
            halves = (0,) if fresh else (0, 1)
            for half, i in ((c, i) for c in halves for i in (0, par.k - 1)):
                for value in (par.q_primes[i], (1 << par.residue_bits) - 1):
                    big = with_residue(par, blob, 0,
                                       (half * par.k + i + 1) * par.n - 1,
                                       value)
                    with pytest.raises(ProtocolError, match="residue"):
                        pahe.cts_from_bytes(big, par, 1, "ciphertext",
                                            fresh=fresh)
        # the wire carries no noise estimate: a parsed ciphertext counts as
        # fresh, whatever its sender's estimate was
        worn = pahe.Ciphertexts(par, ct.data, np.array([par.max_budget_bits - 1]))
        assert pahe.cts_from_bytes(pahe.cts_to_bytes(worn), par, 1,
                                   "ciphertext",
                                   fresh=False).noise_bits[0] == \
            par.fresh_noise_bits

    def test_crafted_key_blobs_rejected(self, setup, monkeypatch):
        """The blob must hold a key for exactly the expected Galois
        elements, and every residue reduced; anything else is refused
        before a single Shoup twin is built.  The wire names no element:
        the keys are read in the order `elements` gives."""
        par, km, ev, rng = setup
        pub = km.public()
        want = pahe.galois_elements(par, (1, 2, 5, par.row_size - 5))
        assert want == tuple(sorted(pub.galois)) and len(want) == 4
        blob = pahe.public_keys_to_bytes(pub)
        extra = pahe.keygen(par, seed=11, rotations=(1, 2, 3, 5,
                                                     par.row_size - 5))
        monkeypatch.setattr(pahe.KeySwitchKey, "from_digits", lambda *_: (
            pytest.fail("built a key from a refused blob")))
        monkeypatch.setattr(pahe, "expand_seeds", lambda *_: (
            pytest.fail("expanded a seed of a refused blob")))
        for bad in (blob + bytes(2), blob[:-1], blob[:-pahe.SEED_BYTES]):
            with pytest.raises(ProtocolError, match="key blob has"):
                pahe.public_keys_from_bytes(bad, par, want)
        for galois in (extra.galois, {t: pub.galois[t] for t in want[1:]}):
            forged = pahe.KeyMaterial(par, galois)
            with pytest.raises(ProtocolError,
                               match="the session's 4 Galois keys need"):
                pahe.public_keys_from_bytes(
                    pahe.public_keys_to_bytes(forged), par, want)
        # the last k0 stack's last residue, just before the last seed, at
        # its prime or at 2^b - 1, and the first stack's first residue at
        # the first prime
        stack = pahe.key_blob_nbytes(par, 1) - pahe.SEED_BYTES
        last = len(blob) - pahe.SEED_BYTES - stack
        for start, index, q in ((last, par.k * par.k * par.n - 1,
                                 par.q_primes[-1]),
                                (0, 0, par.q_primes[0])):
            for value in (q, (1 << par.residue_bits) - 1):
                with pytest.raises(ProtocolError, match="residue"):
                    pahe.public_keys_from_bytes(
                        with_residue(par, blob, start, index, value), par,
                        want)

    @pytest.mark.parametrize("par", wire_bases(),
                             ids=lambda par: f"b{par.residue_bits}")
    def test_packer_round_trips_at_every_basis_width(self, par):
        """Residues travel at the basis' width, in C order, value i of a
        stream in its bits [i b, (i + 1) b), and parse back exactly: random
        residues, and every residue at 0 or at q_i - 1, in both ciphertext
        forms.  `_pack` and `_unpack` also carry every b-bit value,
        2^b - 1 included."""
        rng = np.random.default_rng(par.residue_bits)
        k, n, B = par.k, par.n, 3
        assert par.residue_bits == max(par.q_primes).bit_length()
        top = par.q_col - np.uint64(1)
        uniform = np.stack([rng.integers(0, q, (B, 2, n), dtype=np.uint64)
                            for q in par.q_primes], axis=2)
        for c0 in (uniform[:, 0], np.zeros((B, k, n), np.uint64),
                   np.broadcast_to(top, (B, k, n))):
            seeds = rng.integers(0, 256, (B, pahe.SEED_BYTES), dtype=np.uint8)
            data = np.stack([c0, pahe.expand_seeds(par, seeds)], axis=1)
            cts = pahe.Ciphertexts(par, data, np.zeros(B), seeds)
            for fresh, batch, want in (
                    (True, cts, b"".join(packed(par, c0[j]) + seeds[j].tobytes()
                                         for j in range(B))),
                    (False, computed(cts), packed(par, data))):
                blob = pahe.cts_to_bytes(batch)
                assert blob == want
                assert len(blob) == B * pahe.ct_nbytes(par, fresh)
                back = pahe.cts_from_bytes(blob, par, B, "batch", fresh=fresh)
                assert np.array_equal(back.data, data)
        b = par.residue_bits
        ones = np.full((2, k * n), (1 << b) - 1, dtype=np.uint64)
        stream = pahe._pack(ones, b)
        assert stream.shape == (2, k * n * b // 8) and (stream == 255).all()
        assert np.array_equal(pahe._unpack(stream, b), ones)

    @pytest.mark.parametrize("width", range(8, 63))
    def test_packer_matches_python_ints_at_every_width(self, width):
        """At every width a basis can have (8 to 62 bits), rows of any
        multiple of 8 values pack to the bit stream Python ints give, and
        back: past 57 bits some values reach into a ninth byte."""
        rng = np.random.default_rng(width)
        for count in (8, 24, 64, 72, 200):
            vals = rng.integers(0, 1 << width, (2, count), dtype=np.uint64)
            stream = pahe._pack(vals, width)
            assert stream.shape == (2, count * width // 8)
            for row, got in zip(vals, stream):
                want = sum(int(v) << (width * i) for i, v in enumerate(row))
                assert got.tobytes() == want.to_bytes(count * width // 8,
                                                      "little")
            assert np.array_equal(pahe._unpack(stream, width), vals)

    def test_packer_refuses_rows_off_a_byte(self):
        """A row of values must end on a byte, so no pad bit ever arises:
        a count that is no multiple of 8, or a stream that is no whole
        number of 8-value runs, is refused, and so is a width under 8 bits,
        which no basis has."""
        for count, width in ((12, 51), (16, 7)):
            with pytest.raises(ParameterError, match="whole bytes"):
                pahe._pack(np.zeros(count, np.uint64), width)
        for nbytes, width in ((50, 51), (14, 7)):
            with pytest.raises(ParameterError, match="8-value runs"):
                pahe._unpack(np.zeros(nbytes, np.uint8), width)

    @pytest.mark.parametrize("decoder", ["ciphertext", "public_keys",
                                         "encmatrix", "reply_list", "hello",
                                         "points"])
    def test_decoder_fuzz_raises_only_package_errors(self, setup, decoder):
        """Seeded mutations of an honest blob: flipped, truncated or inserted
        bytes, mostly in its head.  The decoder may accept a mutant (a
        flipped residue is still a residue, and any 16 bytes are a seed) but
        must never leak anything but a ProtocolError.  The head of a seeded
        blob -- fresh ciphertexts, or a key blob -- also takes in the first
        seed, which the decoder expands."""
        par, km, ev, rng = setup
        fresh_ct = pahe.ct_nbytes(par, fresh=True)
        if decoder == "ciphertext":
            # one computed ciphertext, in full, as the client parses logits
            blob = pahe.cts_to_bytes(computed(enc(ev, rand_vec(par, rng))))
            parse = lambda data, par_: pahe.cts_from_bytes(  # noqa: E731
                data, par_, 1, "ciphertext", fresh=False)
        elif decoder == "public_keys":
            blob = pahe.public_keys_to_bytes(km.public())
            record = pahe.key_blob_nbytes(par, 1)
            parse = lambda data, par_: pahe.public_keys_from_bytes(  # noqa: E731
                data, par_, sorted(km.galois))
        elif decoder == "encmatrix":
            # fresh column blocks with three baby-step copies
            M = rng.integers(0, par.p, (2, 5), dtype=np.uint64)
            blob = encmatrix_to_bytes(pack_colblocks(ev, M, steps=3))
            record = fresh_ct
            parse = lambda data, par_: encmatrix_from_bytes(  # noqa: E731
                data, par_, Layout(COLBLOCKS, 2, 5, 3), fresh=True)
        elif decoder == "reply_list":
            # a product reply with k = 1: the product and one term of each
            # factor, one batch of three fresh ciphertexts
            blob = pahe.cts_to_bytes(
                ev.encrypt_many([rand_vec(par, rng) for _ in range(3)]))
            record = fresh_ct
            parse = lambda data, par_: pahe.cts_from_bytes(  # noqa: E731
                data, par_, 3, "product reply", fresh=True)
        if decoder in ("ciphertext", "public_keys", "encmatrix",
                       "reply_list"):
            # the first ciphertext's (or key blob's) leading residues, and
            # the first seed
            head = np.arange(8 * 8)
            if decoder != "ciphertext":
                head = np.r_[head, record - pahe.SEED_BYTES:record]
        elif decoder == "hello":
            # the tiny opt1 hello, framed under an honest header and read
            # as the client reads it; the head is all 81 bytes
            blob = session._hello(session_geometry(
                ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8, n_layers=1,
                            n_classes=2), "opt1"))
            head = np.arange(len(blob))

            def parse(data, _par):
                sconn, cconn = memory_pair()
                write_frame(sconn, HELLO, data)
                return session.hello_geometry(
                    read_frame(cconn, HELLO, session.HELLO_BYTES))
        else:
            # six base-OT points, each checked on the curve; the head is
            # the first point
            blob = b"".join(ot.BaseOtSender(np.random.default_rng(s)).msg_a
                            for s in range(6))
            head = np.arange(ot.POINT_BYTES)
            parse = lambda data, _par: ot.decode_points(data, 6)  # noqa: E731
        fuzz = np.random.default_rng(2024)
        rejected = 0
        for case in range(300):
            data = bytearray(blob)
            span = head if case % 4 else np.arange(len(data))
            kind = case % 3
            if kind == 0:
                picks = fuzz.integers(0, len(span), int(fuzz.integers(1, 4)))
                for pos in span[picks]:
                    data[pos] ^= int(fuzz.integers(1, 256))
            elif kind == 1:
                del data[int(fuzz.integers(0, len(data))):]
            else:
                pos = int(span[fuzz.integers(0, len(span))])
                data[pos:pos] = fuzz.integers(0, 256, int(fuzz.integers(1, 9)),
                                              dtype=np.uint8).tobytes()
            try:
                parse(bytes(data), par)
            except ProtocolError:
                rejected += 1
        assert rejected > 200
