"""Packed-AHE unit tests: algebra, rotations, noise accounting, wire format."""

import struct

import numpy as np
import pytest

from cipherformer import pahe
from cipherformer.errors import NoiseBudgetError, ParameterError, ProtocolError
from cipherformer.helinear import (ct_list_from_bytes, ct_list_to_bytes,
                                   encmatrix_from_bytes, encmatrix_to_bytes,
                                   pack_rows)
from cipherformer.ntt import get_stacked
from cipherformer.primes import next_prime
from cipherformer.protocol import session
from cipherformer.protocol.framing import pack_array, unpack_array

P20 = next_prime(1 << 20, congruent=(1, 2048))


@pytest.fixture(scope="module")
def setup():
    par = pahe.session_params(P20, 256)
    km = pahe.keygen(par, seed=11, rotations=(1, 2, 5, par.row_size - 5))
    ev = pahe.Evaluator(km.public(), seed=12)
    rng = np.random.default_rng(13)
    return par, km, ev, rng


def rand_vec(par, rng):
    return rng.integers(0, par.p, par.n, dtype=np.uint64)


def const(par, w):
    """The slot vector with every slot w, encoded for multiplication."""
    return pahe.encode_plain_many(par, [np.full(par.n, w % par.p, dtype=np.uint64)])[0]


def enc(ev, v):
    return ev.encrypt_many([v])[0]


def dec(km, ct):
    return km.decrypt_many([ct])[0]


def mul(ev, ct, w):
    return ev.simd_scmult_many([ct], [w])[0]


def rot(ev, ct, r):
    return ev.col_rotate_many([ct], [r])[0]


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
        pw = pahe.encode_plain_many(par, [w])[0]
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
        ev = pahe.Evaluator(km.public(), seed=2)
        rng = np.random.default_rng(3)
        vs = np.stack([rand_vec(par, rng) for _ in range(3)])
        ws = np.stack([rand_vec(par, rng) for _ in range(3)])
        got = km.decrypt_many(ev.add_plain_many(ev.encrypt_many(list(vs)), list(ws)))
        assert np.array_equal(got.astype(object), (vs.astype(object) + ws) % p)

    def test_slot_exponents_prime_independent(self):
        # The slot map is built once from a probe prime; every RNS prime's
        # transform must place evaluation points at the same exponents.
        par = pahe.session_params(P20, 256)
        probe_exps = par.slots().exps
        for q in par.q_primes + (par.p,):
            assert np.array_equal(get_stacked((q,), par.n).eval_exponents,
                                  probe_exps)


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

    def test_encrypt_matches_four_stack_reference(self, setup):
        """encrypt_many folds e0 into the message before its one transform;
        the bytes must equal c0 = u*pk0 + e0 + m, c1 = u*pk1 + e1 with all
        four polynomials transformed, drawn from the same generator state."""
        par, km, ev, rng = setup
        vs = [rand_vec(par, rng) for _ in range(3)]
        pub = km.public()
        got = pahe.Evaluator(pub, seed=31).encrypt_many(vs)
        gen, rns, B = np.random.default_rng(31), par.rns(), len(vs)
        stacked = rns.forward(np.concatenate([
            pahe._scaled_plain_rows_many(par, np.stack(vs)),
            pahe._signed_to_rns(par, pahe._sample_ternary(gen, (B, par.n))),
            pahe._signed_to_rns(par, pahe._sample_error(gen, (2 * B, par.n)))]))
        m, u, e0, e1 = (stacked[i * B:(i + 1) * B].astype(object)
                        for i in range(4))
        q = np.array(par.q_primes, dtype=object)[:, None]
        c0 = (u * pub.pk0.astype(object) + e0 + m) % q
        c1 = (u * pub.pk1.astype(object) + e1) % q
        for b, ct in enumerate(got):
            want = pahe.Ciphertext(par, c0[b].astype(np.uint64),
                                   c1[b].astype(np.uint64), par.fresh_noise_bits)
            assert pahe.ct_to_bytes(ct) == pahe.ct_to_bytes(want)

    def test_keygen_deterministic(self, setup):
        par, km, ev, rng = setup
        a = pahe.keygen(par, seed=99, rotations=(1,))
        b = pahe.keygen(par, seed=99, rotations=(1,))
        assert np.array_equal(a.pk0, b.pk0) and np.array_equal(a.pk1, b.pk1)


class TestHomomorphisms:
    def test_add_ct(self, setup):
        par, km, ev, rng = setup
        a, b = rand_vec(par, rng), rand_vec(par, rng)
        got = dec(km, ev.add_ct(enc(ev, a), enc(ev, b)))
        assert np.array_equal(got, (a + b) % np.uint64(par.p))

    def test_add_plain_full_range(self, setup):
        par, km, ev, rng = setup
        a, b = rand_vec(par, rng), rand_vec(par, rng)
        got = dec(km, ev.add_plain_many([enc(ev, a)], [b])[0])
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
        got = dec(km, mul(ev, enc(ev, a), pahe.encode_plain_many(par, [w])[0]))
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
        par, km, ev, rng = setup
        v = rand_vec(par, rng)
        assert np.array_equal(dec(km, rot(ev, enc(ev, v), 0)), v)

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
        ev = pahe.Evaluator(km.public(), seed=22)
        rng = np.random.default_rng(23)
        cts = ev.encrypt_many([rand_vec(par, rng) for _ in rs])
        got = ev.col_rotate_many(cts, rs)
        rns = par.rns()
        pr = np.array(par.q_primes, dtype=np.uint64)[:, None]
        q = pr.astype(object)
        for ct, r, out in zip(cts, rs, got):
            t = pow(3, r, 2 * par.n)
            perm = par.slots().perm(t)
            dig = rns.inverse(ct.c1[:, perm])
            lifts = rns.forward(np.stack([dig[j] % pr for j in range(k)]))
            ksk = km.galois[t]
            c0 = ct.c0[:, perm].astype(object)
            c1 = np.zeros_like(c0)
            for j in range(k):
                c0 = (c0 + lifts[j].astype(object) * ksk.k0[j].astype(object)) % q
                c1 = (c1 + lifts[j].astype(object) * ksk.k1[j].astype(object)) % q
            assert np.array_equal(out.c0, c0.astype(np.uint64))
            assert np.array_equal(out.c1, c1.astype(np.uint64))

    def test_composition(self, setup):
        par, km, ev, rng = setup
        v = rand_vec(par, rng)
        got = dec(km, rot(ev, rot(ev, enc(ev, v), 2), 5))
        half = par.row_size
        want = np.concatenate([np.roll(v[:half], -7), np.roll(v[half:], -7)])
        assert np.array_equal(got, want)


class TestNoise:
    def test_ops_strictly_increase_noise(self, setup):
        par, km, ev, rng = setup
        ct = enc(ev, rand_vec(par, rng))
        seq = [lambda c: ev.add_plain_many([c], [rand_vec(par, rng)])[0],
               lambda c: mul(ev, c, const(par, 3)),
               lambda c: rot(ev, c, 1),
               lambda c: ev.add_ct(c, enc(ev, rand_vec(par, rng)))]
        last = ct.noise_bits
        for f in seq:
            ct = f(ct)
            assert ct.noise_bits > last
            last = ct.noise_bits
        dec(km, ct)  # still decryptable

    def test_budget_exhaustion_raises(self, setup):
        par, km, ev, rng = setup
        ct = enc(ev, rand_vec(par, rng))
        w = const(par, (par.p - 1) // 2)
        with pytest.raises(NoiseBudgetError):
            for _ in range(100):
                ct = mul(ev, ct, w)


class TestWireFormat:
    def test_ciphertext_roundtrip(self, setup):
        par, km, ev, rng = setup
        v = rand_vec(par, rng)
        ct2 = pahe.ct_from_bytes(pahe.ct_to_bytes(enc(ev, v)), par)
        assert np.array_equal(dec(km, ct2), v)

    def test_bad_magic(self, setup):
        par, km, ev, rng = setup
        blob = bytearray(pahe.ct_to_bytes(enc(ev, rand_vec(par, rng))))
        blob[0] ^= 0xFF
        with pytest.raises(ProtocolError):
            pahe.ct_from_bytes(bytes(blob), par)

    def test_params_mismatch(self, setup):
        """A ciphertext or key blob made under other parameters is the
        peer's error: its parameter block is compared with the session's."""
        par, km, ev, rng = setup
        blob = pahe.ct_to_bytes(enc(ev, rand_vec(par, rng)))
        keys = pahe.public_keys_to_bytes(km.public())
        other_p = next_prime(P20 + 1, congruent=(1, 2048))
        for other in (pahe.session_params(P20, 512),
                      pahe.session_params(other_p, 256)):
            with pytest.raises(ProtocolError, match="different parameters"):
                pahe.ct_from_bytes(blob, other)
            with pytest.raises(ProtocolError, match="different parameters"):
                pahe.public_keys_from_bytes(keys, other)

    def test_public_keys_roundtrip_and_work(self, setup):
        par, km, ev, rng = setup
        km2 = pahe.public_keys_from_bytes(pahe.public_keys_to_bytes(km.public()),
                                          par)
        assert not km2.has_secret
        ev2 = pahe.Evaluator(km2, seed=6)
        v = rand_vec(par, rng)
        half = par.row_size
        got = dec(km, rot(ev2, enc(ev2, v), 5))
        assert np.array_equal(
            got, np.concatenate([np.roll(v[:half], -5), np.roll(v[half:], -5)]))

    def test_crafted_ciphertexts_rejected(self, setup):
        par, km, ev, rng = setup
        ct = enc(ev, rand_vec(par, rng))
        blob = pahe.ct_to_bytes(ct)
        with pytest.raises(ProtocolError, match="trailing"):
            pahe.ct_from_bytes(blob + bytes(8), par)
        big = ct.copy()
        big.c0[0, 0] = par.q_primes[0] + 5
        with pytest.raises(ProtocolError, match="residue"):
            pahe.ct_from_bytes(pahe.ct_to_bytes(big), par)
        # the wire noise estimate must not be able to switch off the budget
        # check: below fresh, non-finite, or no budget left
        for noise in (-1e9, par.fresh_noise_bits - 1, float("nan"),
                      float("inf"), par.max_budget_bits):
            forged = ct.copy()
            forged.noise_bits = noise
            with pytest.raises(ProtocolError, match="noise"):
                pahe.ct_from_bytes(pahe.ct_to_bytes(forged), par)

    def test_crafted_key_blobs_rejected(self, setup):
        par, km, ev, rng = setup
        pub = km.public()
        blob = pahe.public_keys_to_bytes(pub)
        with pytest.raises(ProtocolError, match="trailing"):
            pahe.public_keys_from_bytes(blob + bytes(2), par)
        ksk = next(iter(pub.galois.values()))
        for t in (2, 2 * par.n + 1):  # even, or past the group
            forged = pahe.KeyMaterial(par, pub.pk0, pub.pk1, {t: ksk})
            with pytest.raises(ProtocolError, match="Galois element"):
                pahe.public_keys_from_bytes(
                    pahe.public_keys_to_bytes(forged), par)

    def test_array_shape_cannot_wrap_the_count(self):
        """Four dims of 65,536 multiply to 2^64, which wraps to 0 in int64
        and would match an empty payload."""
        head = struct.pack("<BB4I", 1, 4, *[65536] * 4)
        with pytest.raises(ProtocolError, match="length"):
            unpack_array(head)
        with pytest.raises(ProtocolError, match="length"):
            unpack_array(head + bytes(8))
        empty = np.zeros((0, 3, 2, 2), dtype=np.uint64)
        assert unpack_array(pack_array(empty)).shape == empty.shape

    @pytest.mark.parametrize("decoder", ["ciphertext", "public_keys",
                                         "encmatrix", "reply_list", "array",
                                         "points"])
    def test_decoder_fuzz_raises_only_package_errors(self, setup, decoder):
        """Seeded mutations of an honest blob: flipped, truncated or inserted
        bytes, mostly in the header where the lengths live.  The decoder may
        accept a mutant (a flipped residue is still a residue) but must never
        leak anything but a ProtocolError."""
        par, km, ev, rng = setup
        if decoder == "ciphertext":
            blob = pahe.ct_to_bytes(enc(ev, rand_vec(par, rng)))
            parse = pahe.ct_from_bytes
        elif decoder == "public_keys":
            blob = pahe.public_keys_to_bytes(km.public())
            parse = pahe.public_keys_from_bytes
        elif decoder == "encmatrix":
            M = rng.integers(0, par.p, (2, 5), dtype=np.uint64)
            blob = encmatrix_to_bytes(pack_rows(ev, M))
            parse = encmatrix_from_bytes
        elif decoder == "reply_list":
            # a product reply with k = 2: the product and two terms of
            # each factor, one list of five ciphertexts
            blob = ct_list_to_bytes(
                ev.encrypt_many([rand_vec(par, rng) for _ in range(5)]))
            parse = lambda data, par_: ct_list_from_bytes(  # noqa: E731
                data, par_, 5, "product reply")
        if decoder in ("ciphertext", "public_keys", "encmatrix",
                       "reply_list"):
            # the first parameter block and the lengths just past it
            head = blob.index(b"toy") + 3 + 8 + 4
        elif decoder == "array":
            # garbled tables: the dtype, rank and shape header
            blob = pack_array(rng.integers(0, 1 << 64, (5, 3, 2, 2),
                                           dtype=np.uint64))
            head = 2 + 4 * 4
            parse = lambda data, _par: unpack_array(data)  # noqa: E731
        else:
            # base-OT points: the first length prefix
            points = [int(x) for x in rng.integers(1, 1 << 62, 6)]
            blob = session._pack_points([x << 700 for x in points])
            head = 4
            parse = lambda data, _par: session._unpack_points(data, 6)  # noqa: E731
        fuzz = np.random.default_rng(2024)
        rejected = 0
        for case in range(300):
            data = bytearray(blob)
            span = head if case % 4 else len(data)
            kind = case % 3
            if kind == 0:
                for pos in fuzz.integers(0, span, int(fuzz.integers(1, 4))):
                    data[pos] ^= int(fuzz.integers(1, 256))
            elif kind == 1:
                del data[int(fuzz.integers(0, len(data))):]
            else:
                pos = int(fuzz.integers(0, span))
                data[pos:pos] = fuzz.integers(0, 256, int(fuzz.integers(1, 9)),
                                              dtype=np.uint8).tobytes()
            try:
                parse(bytes(data), par)
            except ProtocolError:
                rejected += 1
        assert rejected > 200
