"""Packed additively homomorphic encryption over power-of-two cyclotomics.

An RLWE scheme in the BFV style, pared down to exactly the operations the
inference protocol consumes: encrypt, decrypt, ciphertext addition, plaintext
addition, SIMD multiplication by an encoded vector, and column rotation.
Everything but ciphertext addition has one batched form (the `_many`
methods); a single operation is a batch of one.  There is no
ciphertext-ciphertext multiplication anywhere -- the protocol gets products
via masked decryption round-trips instead, so the ciphertext modulus only has
to absorb one plaintext-sized multiplicative factor plus rotations.

Representation choices, all load-bearing:

  * The ciphertext modulus q is a product of word-sized NTT primes (an RNS
    basis); every polynomial is stored as its (k, n) residue matrix in the
    NTT domain.  Additions and multiplications are pointwise; only rotations
    and (de/en)cryption touch the coefficient domain.
  * Plaintexts live in Z_p for a prime p = 1 mod 2n, giving n SIMD slots
    arranged as two hypercolumns of n/2.  The flat slot order is
    [row0 | row1]; row0 column c sits at evaluation point psi^(3^c), row1 at
    the negated exponent.  Galois maps X -> X^t act as pure slot permutations
    in the NTT domain, so a rotation is one permutation plus one key switch.
  * Key-switching uses the RNS-prime gadget: digit j of a polynomial is its
    residue mod q_j lifted back to the full basis; its row j is the input's
    own row j, so only the other k(k-1) lifts need a forward transform.  Keys
    store Shoup twins so the hot loop is all uint64 mulmods.

Noise is tracked as a running upper-bound estimate in bits; the remaining
budget is (log2 q - log2 p - 1) minus that estimate, and operations raise
NoiseBudgetError rather than silently producing garbage.  In tests, an
evaluator can additionally carry a plaintext shadow of every ciphertext and
`decrypt_many(verify=True)` cross-checks the result, which catches real (not
just estimated) decryption failures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite, log2
from typing import Iterable, Sequence

import numpy as np

from .errors import DecryptionError, NoiseBudgetError, ParameterError, ProtocolError
from .ntt import (StackedNtt, addmod, get_stacked, mulmod_shoup, mulmod_vec,
                  shoup, submod)
from .primes import is_prime, next_prime

_CT_MAGIC = b"CFC1"
_PK_MAGIC = b"CFK1"

_ERR_STD = 3.2
_ERR_BOUND = 6.0 * _ERR_STD  # high-probability per-coefficient bound


# ----------------------------------------------------------------------------
# slot bookkeeping (independent of any particular prime)


class SlotMap:
    """Maps flat slot indices <-> NTT positions, and Galois maps -> perms.

    The evaluation-point exponent living at each NTT position depends only on
    the transform length, not on the prime (asserted in tests), so one map per
    n serves the plaintext prime and every RNS prime alike.
    """

    def __init__(self, n: int):
        self.n = n
        probe = next_prime(2 * n + 1, congruent=(1, 2 * n))
        exps = get_stacked((probe,), n).eval_exponents
        self.exps = exps
        pos_of_exp = np.full(2 * n, -1, dtype=np.int64)
        pos_of_exp[exps] = np.arange(n)
        self._pos_of_exp = pos_of_exp
        half = n // 2
        flat_exp = np.empty(n, dtype=np.int64)
        e = 1
        for c in range(half):
            flat_exp[c] = e
            flat_exp[half + c] = 2 * n - e
            e = e * 3 % (2 * n)
        self.pos_of_flat = pos_of_exp[flat_exp]
        if np.any(self.pos_of_flat < 0):
            raise ParameterError("slot exponent table is inconsistent")
        self.flat_of_pos = np.empty(n, dtype=np.int64)
        self.flat_of_pos[self.pos_of_flat] = np.arange(n)
        self._perms: dict[int, np.ndarray] = {}

    def perm(self, t: int) -> np.ndarray:
        """Permutation so that (sigma_t a)-hat [j] = a-hat [perm[j]]."""
        t %= 2 * self.n
        got = self._perms.get(t)
        if got is None:
            if t % 2 == 0:
                raise ParameterError("Galois element must be odd")
            target = (self.exps * t) % (2 * self.n)
            got = self._pos_of_exp[target]
            self._perms[t] = got
        return got


@lru_cache(maxsize=None)
def get_slotmap(n: int) -> SlotMap:
    return SlotMap(n)


# ----------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class PaheParams:
    """Scheme parameters; q is the product of `q_primes`.

    `security_note` is "toy" (small ring, fast tests, **no security claim**)
    or "standard" (ring/modulus sized per conventional RLWE tables).
    """

    n: int
    p: int
    q_primes: tuple[int, ...]
    security_note: str = "toy"

    def __post_init__(self):
        if self.n < 16 or self.n & (self.n - 1):
            raise ParameterError("ring degree must be a power of two >= 16")
        if self.p % (2 * self.n) != 1:
            raise ParameterError(
                f"plaintext modulus {self.p} is not 1 mod 2n; slots unavailable")
        if not is_prime(self.p):
            raise ParameterError("plaintext modulus must be prime")
        for q in self.q_primes:
            if q % (2 * self.n) != 1 or not is_prime(q) or q.bit_length() > 62:
                raise ParameterError(f"bad ciphertext prime {q}")
        if len(set(self.q_primes)) != len(self.q_primes):
            raise ParameterError("ciphertext primes must be distinct")
        if self.q <= 4 * self.p * self.p:
            raise ParameterError("ciphertext modulus too small for plaintext")
        if self.security_note not in ("toy", "standard"):
            raise ParameterError("security_note must be 'toy' or 'standard'")

    @property
    def q(self) -> int:
        out = 1
        for v in self.q_primes:
            out *= v
        return out

    @property
    def k(self) -> int:
        return len(self.q_primes)

    @property
    def row_size(self) -> int:
        return self.n // 2

    @property
    def fresh_noise_bits(self) -> float:
        return log2(_ERR_BOUND * (2 * self.n + 1))

    @property
    def keyswitch_noise_bits(self) -> float:
        return log2(self.k * self.n * _ERR_BOUND * max(self.q_primes))

    @property
    def max_budget_bits(self) -> float:
        return log2(self.q) - log2(self.p) - 1.0

    def rns(self) -> StackedNtt:
        return get_stacked(self.q_primes, self.n)

    def slots(self) -> SlotMap:
        return get_slotmap(self.n)


def _pick_q_primes(n: int, q_bits: int) -> tuple[int, ...]:
    count = max(2, -(-q_bits // 54))
    per = -(-q_bits // count)
    if per > 61:
        raise ParameterError("requested ciphertext modulus too wide")
    primes: list[int] = []
    lower = 1 << per
    while len(primes) < count:
        q = next_prime(lower, congruent=(1, 2 * n))
        primes.append(q)
        lower = q + 1
    return tuple(primes)


def session_params(p: int, n: int) -> PaheParams:
    """Parameters for protocol sessions.

    Sessions only ever multiply into *fresh* ciphertexts (mask/weight first,
    rotate after), so the budget rule is max(keyswitch, fresh+multiply) plus
    accumulation slack, not the sum of the two -- which matters because
    session plaintext moduli are ~60 bits wide.
    """
    lg_p, lg_n = p.bit_length(), log2(n)
    for q_bits in range(max(lg_p + 30, 2 * lg_p + 4), 62 * 8, 4):
        par = PaheParams(n=n, p=p, q_primes=_pick_q_primes(n, q_bits),
                         security_note="toy")
        chain = max(par.keyswitch_noise_bits,
                    par.fresh_noise_bits + lg_p + lg_n) + 10
        if par.max_budget_bits > chain:
            return par
    raise ParameterError("could not size a session modulus for this plaintext")


# ----------------------------------------------------------------------------
# ciphertexts and plaintext encodings


@dataclass
class Ciphertext:
    params: PaheParams
    c0: np.ndarray  # (k, n) uint64, NTT domain
    c1: np.ndarray
    noise_bits: float
    _ref: np.ndarray | None = None  # plaintext shadow, test builds only

    @property
    def noise_budget_bits(self) -> float:
        return self.params.max_budget_bits - self.noise_bits

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.params, self.c0.copy(), self.c1.copy(),
                          self.noise_bits,
                          None if self._ref is None else self._ref.copy())


@dataclass
class PlainVec:
    """A slot vector pre-encoded for multiplication (NTT-domain polynomial).

    `coeff_norm_bits` is the log2 of the largest centered *coefficient* of
    the encoded polynomial -- that, not the slot magnitude, is what drives
    multiplicative noise growth (a 0/1 slot mask still has ~p coefficients).
    """

    params: PaheParams
    slots: np.ndarray          # (n,) uint64 mod p
    poly: np.ndarray           # (k, n) uint64, NTT domain
    coeff_norm_bits: float


def _slots_to_coeffs_many(params: PaheParams, mat: np.ndarray) -> np.ndarray:
    """(B, n) slot matrix -> (B, n) coefficient matrix, one stacked pass."""
    sm = params.slots()
    ev = np.zeros((mat.shape[0], 1, params.n), dtype=np.uint64)
    ev[:, 0, sm.pos_of_flat] = mat
    return get_stacked((params.p,), params.n).inverse(ev)[:, 0, :]


def _as_slot_vector(params: PaheParams, vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.uint64).ravel()
    if arr.size > params.n:
        raise ParameterError(f"{arr.size} values exceed {params.n} slots")
    if np.any(arr >= params.p):
        raise ParameterError("slot values must be reduced mod p")
    if arr.size < params.n:
        arr = np.concatenate([arr, np.zeros(params.n - arr.size, dtype=np.uint64)])
    return arr


def _centered_norm_bits(params: PaheParams, vec: np.ndarray) -> float:
    if vec.size == 0:
        return 0.0
    v = vec.astype(np.int64, copy=False)
    c = np.where(v * 2 > params.p, params.p - v, v)
    m = int(np.max(np.abs(c))) if c.size else 0
    return log2(max(m, 1))


def encode_plain_many(params: PaheParams, vecs: Sequence) -> list[PlainVec]:
    """Batch-encode slot vectors for simd_scmult_many.

    No Shoup twins: each encoding multiplies exactly one ciphertext, where
    precomputing twins would cost more than it saves.  Transforms run
    stacked, so encoding B vectors costs roughly one vector's worth of
    Python overhead.
    """
    if not vecs:
        return []
    arr = np.stack([_as_slot_vector(params, v) for v in vecs])
    coeffs = _slots_to_coeffs_many(params, arr)
    rns = params.rns()
    pr = np.array(rns.primes, dtype=np.uint64)[None, :, None]
    poly = rns.forward(coeffs[:, None, :] % pr)
    return [PlainVec(params, arr[b], poly[b],
                     _centered_norm_bits(params, coeffs[b]))
            for b in range(len(vecs))]


def shoup_rows(poly: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    out = np.empty_like(poly)
    for i, p in enumerate(primes):
        out[i] = shoup(poly[i], p)
    return out


def _scaled_plain_rows_many(params: PaheParams, mats: np.ndarray) -> np.ndarray:
    """round(q * m / p) per coefficient of a (B, n) batch of slot vectors,
    reduced into the RNS basis -> (B, k, n).

    Scaling by the exact rational q/p (instead of floor(q/p)) keeps the
    additive-plaintext error at half a unit per coefficient even when slot
    sums wrap mod p, so masking values can be full-range.
    """
    coeffs = _slots_to_coeffs_many(params, mats)
    q, p = params.q, params.p
    B = coeffs.shape[0]
    out = np.empty((B, params.k, params.n), dtype=np.uint64)
    consts = _plain_scale_consts(p, params.q_primes)
    if consts is None:  # p collides with an RNS prime; take the big-int road
        for b in range(B):
            scaled = [(q * int(c) + (p >> 1)) // p for c in coeffs[b]]
            for i, qi in enumerate(params.q_primes):
                out[b, i] = np.array([s % qi for s in scaled], dtype=np.uint64)
        return out
    # s = (q*c + h) // p residue-wise, no big ints: with r = (q*c + h) mod p,
    # exactly s = (q*c + h - r) / p, so s mod qi is one modular multiply by
    # p^-1 once c and r are reduced mod qi.
    qp, qp_sh, h, per = consts
    r = addmod(mulmod_shoup(coeffs, qp, qp_sh, p), np.uint64(h), p)
    for i, (qi, qm, qm_sh, hm, pinv, pinv_sh) in enumerate(per):
        t = addmod(mulmod_shoup(coeffs % qi, qm, qm_sh, qi), hm, qi)
        t = submod(t, r % qi, qi)
        out[:, i, :] = mulmod_shoup(t, pinv, pinv_sh, qi)
    return out


@lru_cache(maxsize=None)
def _plain_scale_consts(p: int, q_primes: tuple[int, ...]):
    if p in q_primes:
        return None
    q = 1
    for qi in q_primes:
        q *= qi
    h = p >> 1
    qp = q % p
    per = tuple((np.uint64(qi), np.uint64(q % qi), shoup(q % qi, qi),
                 np.uint64(h % qi), np.uint64(pow(p, -1, qi)),
                 shoup(pow(p, -1, qi), qi)) for qi in q_primes)
    return np.uint64(qp), shoup(qp, p), np.uint64(h), per


# ----------------------------------------------------------------------------
# keys


@dataclass
class KeySwitchKey:
    # per digit j: (k0, k1) with Shoup twins, each (k, n) NTT domain
    k0: np.ndarray      # (digits, k, n)
    k1: np.ndarray
    k0_sh: np.ndarray
    k1_sh: np.ndarray


@dataclass
class KeyMaterial:
    """Secret + public key material.  The secret key never serializes."""

    params: PaheParams
    pk0: np.ndarray
    pk1: np.ndarray
    galois: dict[int, KeySwitchKey] = field(default_factory=dict)
    _sk: np.ndarray | None = None      # (k, n) NTT domain
    _sk_sh: np.ndarray | None = None

    @property
    def has_secret(self) -> bool:
        return self._sk is not None

    def public(self) -> "KeyMaterial":
        return KeyMaterial(self.params, self.pk0, self.pk1, self.galois)

    # -- decryption ---------------------------------------------------------

    def decrypt_many(self, cts: Sequence[Ciphertext], verify: bool = False) -> np.ndarray:
        if self._sk is None:
            raise ParameterError("this key material has no secret key")
        if not cts:
            return np.zeros((0, self.params.n), dtype=np.uint64)
        par = self.params
        for ct in cts:
            if ct.params is not par and ct.params != par:
                raise ParameterError("ciphertext/key parameter mismatch")
            if ct.noise_budget_bits <= 0:
                raise NoiseBudgetError(
                    f"noise budget exhausted ({ct.noise_budget_bits:.1f} bits)")
        rns = par.rns()
        stack = np.stack([
            addmod_rows(ct.c0,
                        mulmod_shoup_rows(ct.c1, self._sk, self._sk_sh, par.q_primes),
                        par.q_primes)
            for ct in cts
        ])
        coeffs = rns.inverse(stack)  # (B, k, n)
        q, p = par.q, par.p
        crt = _crt_consts(par.q_primes)
        half_q = q >> 1
        v = coeffs.astype(object)
        acc = v[:, 0, :] * crt[0]
        for i in range(1, par.k):
            acc = acc + v[:, i, :] * crt[i]
        m = ((acc % q) * p + half_q) // q % p
        sm = par.slots()
        ev = get_stacked((p,), par.n).forward(
            m.astype(np.uint64)[:, None, :])
        out = ev[:, 0, sm.pos_of_flat]
        if verify:
            for b, ct in enumerate(cts):
                if ct._ref is not None and not np.array_equal(out[b], ct._ref):
                    raise DecryptionError("decrypted slots differ from shadow")
        return out


@lru_cache(maxsize=None)
def _crt_consts(q_primes: tuple[int, ...]) -> tuple[int, ...]:
    q = 1
    for v in q_primes:
        q *= v
    out = []
    for qi in q_primes:
        m = q // qi
        out.append(m * pow(m, -1, qi) % q)
    return tuple(out)


def mulmod_shoup_rows(a: np.ndarray, w: np.ndarray, w_sh: np.ndarray,
                      primes: Sequence[int]) -> np.ndarray:
    out = np.empty_like(a)
    for i, p in enumerate(primes):
        out[i] = mulmod_shoup(a[i], w[i], w_sh[i], p)
    return out


def addmod_rows(a: np.ndarray, b: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    pr = np.array(primes, dtype=np.uint64).reshape((-1,) + (1,) * (a.ndim - 1))
    r = a + b
    return np.where(r >= pr, r - pr, r)


def negmod_rows(a: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    pr = np.array(primes, dtype=np.uint64).reshape((-1,) + (1,) * (a.ndim - 1))
    return np.where(a == 0, a, pr - a)


def _sample_ternary(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(-1, 2, shape).astype(np.int64)


def _sample_error(rng: np.random.Generator, shape) -> np.ndarray:
    e = np.rint(rng.normal(0.0, _ERR_STD, shape)).astype(np.int64)
    return np.clip(e, -int(_ERR_BOUND), int(_ERR_BOUND))


def _signed_to_rns(rns: StackedNtt, signed: np.ndarray) -> np.ndarray:
    out = np.empty(signed.shape[:-1] + (rns.k, signed.shape[-1]), dtype=np.uint64)
    for i, qi in enumerate(rns.primes):
        out[..., i, :] = np.mod(signed, qi).astype(np.uint64)
    return out


def keygen(params: PaheParams, seed: int | None = None,
           rotations: Iterable[int] = ()) -> KeyMaterial:
    """Generate secret/public/Galois keys.

    `rotations` lists the column-rotation amounts (0 < r < n/2) the evaluator
    will need; each gets one Galois key.
    """
    rng = np.random.default_rng(seed)
    rns = params.rns()
    n = params.n
    sk = rns.forward(_signed_to_rns(rns, _sample_ternary(rng, n)))
    sk_sh = shoup_rows(sk, params.q_primes)

    a = np.stack([rng.integers(0, qi, n, dtype=np.uint64) for qi in params.q_primes])
    e = rns.forward(_signed_to_rns(rns, _sample_error(rng, n)))
    pk0 = addmod_rows(negmod_rows(mulmod_shoup_rows(a, sk, sk_sh, params.q_primes),
                                  params.q_primes), e, params.q_primes)
    km = KeyMaterial(params, pk0, a, {}, sk, sk_sh)

    wanted: set[int] = set()
    for r in rotations:
        r %= params.row_size
        if r:
            wanted.add(pow(3, r, 2 * n))
    for t in sorted(wanted):
        km.galois[t] = _make_kswitch(params, rng, sk, sk_sh, t)
    return km


def _make_kswitch(params: PaheParams, rng: np.random.Generator, sk, sk_sh,
                  t: int) -> KeySwitchKey:
    rns = params.rns()
    n, k = params.n, params.k
    k0 = np.empty((k, k, n), dtype=np.uint64)
    k1 = np.empty((k, k, n), dtype=np.uint64)
    sig = sk[:, params.slots().perm(t)]  # sigma_t(s), a slot permutation
    for j in range(k):
        a_j = np.stack([rng.integers(0, qi, n, dtype=np.uint64)
                        for qi in params.q_primes])
        e_j = rns.forward(_signed_to_rns(rns, _sample_error(rng, n)))
        body = addmod_rows(
            negmod_rows(mulmod_shoup_rows(a_j, sk, sk_sh, params.q_primes),
                        params.q_primes),
            e_j, params.q_primes)
        body[j] = addmod_rows(body[j][None], sig[j][None],
                              (params.q_primes[j],))[0]
        k0[j] = body
        k1[j] = a_j
    return KeySwitchKey(k0, k1,
                        np.stack([shoup_rows(k0[j], params.q_primes) for j in range(k)]),
                        np.stack([shoup_rows(k1[j], params.q_primes) for j in range(k)]))


# ----------------------------------------------------------------------------
# the evaluator


class Evaluator:
    """Homomorphic operations under a (public) key set, with op counters."""

    def __init__(self, keys: KeyMaterial, seed: int | None = None,
                 track_plain: bool = False):
        self.keys = keys
        self.params = keys.params
        self.rng = np.random.default_rng(seed)
        self.track_plain = track_plain
        self.counters: dict[str, int] = {
            "encrypt": 0, "add_ct": 0, "add_plain": 0, "scmult": 0,
            "rotate": 0, "keyswitch": 0,
        }
        self._pk0_sh = shoup_rows(keys.pk0, self.params.q_primes)
        self._pk1_sh = shoup_rows(keys.pk1, self.params.q_primes)
        self._slot_perms: dict[int, np.ndarray] = {}

    # -- helpers -------------------------------------------------------------

    def _check(self, ct: Ciphertext):
        if ct.params != self.params:
            raise ParameterError("ciphertext parameter mismatch")

    def _bump_noise(self, bits: float) -> float:
        if self.params.max_budget_bits - bits <= 0:
            raise NoiseBudgetError(
                f"operation would exhaust noise budget ({bits:.1f} bits of "
                f"{self.params.max_budget_bits:.1f})")
        return bits

    # -- encryption ----------------------------------------------------------

    def encrypt_many(self, vecs: Sequence) -> list[Ciphertext]:
        """Encrypt each slot vector: c0 = u*pk0 + e0 + m, c1 = u*pk1 + e1.

        e0 is added to the scaled message in the coefficient domain, so one
        forward pass transforms 3B polynomials (m + e0, u, e1), not 4B.  The
        generator still draws u first and then all 2B errors, e0 before e1.
        """
        par = self.params
        rns = par.rns()
        B = len(vecs)
        if B == 0:
            return []
        slots = [_as_slot_vector(par, v) for v in vecs]
        m = _scaled_plain_rows_many(par, np.stack(slots))
        u = _signed_to_rns(rns, _sample_ternary(self.rng, (B, par.n)))
        e = _signed_to_rns(rns, _sample_error(self.rng, (2 * B, par.n)))
        pr = np.array(par.q_primes, dtype=np.uint64)[:, None]
        m += e[:B]
        np.minimum(m, m - pr, out=m)
        stacked = rns.forward(np.concatenate([m, u, e[B:]]))
        m_ntt, u, e1 = (stacked[i * B:(i + 1) * B] for i in range(3))
        c0 = np.empty_like(u)
        c1 = np.empty_like(u)
        for i, qi in enumerate(par.q_primes):
            qi = np.uint64(qi)
            t = mulmod_shoup(u[:, i], self.keys.pk0[i], self._pk0_sh[i], qi)
            c0[:, i] = addmod(t, m_ntt[:, i], qi)
            t = mulmod_shoup(u[:, i], self.keys.pk1[i], self._pk1_sh[i], qi)
            c1[:, i] = addmod(t, e1[:, i], qi)
        out = []
        for b in range(B):
            ct = Ciphertext(par, c0[b], c1[b], self._bump_noise(par.fresh_noise_bits))
            if self.track_plain:
                ct._ref = slots[b].copy()
            out.append(ct)
        self.counters["encrypt"] += B
        return out

    # -- arithmetic ----------------------------------------------------------

    def add_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check(a)
        self._check(b)
        par = self.params
        noise = self._bump_noise(float(np.logaddexp2(a.noise_bits, b.noise_bits)))
        out = Ciphertext(par, addmod_rows(a.c0, b.c0, par.q_primes),
                         addmod_rows(a.c1, b.c1, par.q_primes), noise)
        if a._ref is not None and b._ref is not None:
            out._ref = (a._ref + b._ref) % par.p
        self.counters["add_ct"] += 1
        return out

    def add_plain_many(self, cts: Sequence[Ciphertext],
                       vecs: Sequence) -> list[Ciphertext]:
        """Slotwise plaintext additions, one stacked transform pass for all."""
        if len(cts) != len(vecs):
            raise ParameterError("ciphertext/vector count mismatch")
        if not cts:
            return []
        par = self.params
        for ct in cts:
            self._check(ct)
        slots = np.stack([_as_slot_vector(par, v) for v in vecs])
        rows = par.rns().forward(_scaled_plain_rows_many(par, slots))
        out = []
        for b, ct in enumerate(cts):
            noise = self._bump_noise(
                float(np.logaddexp2(ct.noise_bits, 1.0)) + 1e-3)
            nc = Ciphertext(par, addmod_rows(ct.c0, rows[b], par.q_primes),
                            ct.c1.copy(), noise)
            if ct._ref is not None:
                nc._ref = (ct._ref + slots[b]) % par.p
            out.append(nc)
        self.counters["add_plain"] += len(cts)
        return out

    def simd_scmult_many(self, cts: Sequence[Ciphertext],
                         ws: Sequence[PlainVec]) -> list[Ciphertext]:
        """Pairwise slotwise multiplies by encoded vectors."""
        if len(cts) != len(ws):
            raise ParameterError("ciphertext/weight count mismatch")
        par = self.params
        out = []
        for ct, pv in zip(cts, ws):
            self._check(ct)
            noise = self._bump_noise(
                ct.noise_bits + pv.coeff_norm_bits + log2(par.n) + 1e-3)
            c0 = np.stack([mulmod_vec(ct.c0[i], pv.poly[i], qi)
                           for i, qi in enumerate(par.q_primes)])
            c1 = np.stack([mulmod_vec(ct.c1[i], pv.poly[i], qi)
                           for i, qi in enumerate(par.q_primes)])
            nc = Ciphertext(par, c0, c1, noise)
            if ct._ref is not None:
                ref = (ct._ref.astype(object) * pv.slots.astype(object)) % par.p
                nc._ref = np.array([int(x) for x in ref], dtype=np.uint64)
            out.append(nc)
        self.counters["scmult"] += len(cts)
        return out

    # -- rotations -----------------------------------------------------------

    def _slot_perm(self, t: int) -> np.ndarray:
        """Flat-slot permutation induced by Galois element t."""
        got = self._slot_perms.get(t)
        if got is None:
            sm = self.params.slots()
            pos_perm = sm.perm(t)
            # out_flat[i] = in_flat[g(i)]:  out position = pos_of_flat[i],
            # source position = pos_perm[that], then back to flat.
            got = sm.flat_of_pos[pos_perm[sm.pos_of_flat]]
            self._slot_perms[t] = got
        return got

    def col_rotate_many(self, cts: Sequence[Ciphertext],
                        rs: Sequence[int]) -> list[Ciphertext]:
        """Rotate both hypercolumn rows of each ciphertext left by its r
        (cyclic within n/2), with one transform pass for the whole batch.

        The per-rotation key-switch needs an inverse and a forward NTT; on a
        diagonal sweep those dominate, so stack every ciphertext's digits and
        transform them together, then apply each rotation's own switch key.
        Digit j lifted back to prime j is the permuted c1 row j itself, so
        only the k(k-1) lifts into the other primes are transformed.
        """
        if len(cts) != len(rs):
            raise ParameterError("ciphertext/shift count mismatch")
        par = self.params
        results: list[Ciphertext | None] = [None] * len(cts)
        work = []
        for i, (ct, r) in enumerate(zip(cts, rs)):
            self._check(ct)
            r %= par.row_size
            if r == 0:
                results[i] = ct.copy()
            else:
                work.append((i, ct, pow(3, r, 2 * par.n)))
        if not work:
            return results
        for _, _, t in work:
            if t not in self.keys.galois:
                raise ParameterError(f"missing rotation key for Galois element {t}")
        sm = par.slots()
        rns = par.rns()
        R, k = len(work), par.k
        perms = np.stack([sm.perm(t) for _, _, t in work])[:, None, :]
        a0 = np.take_along_axis(np.stack([ct.c0 for _, ct, _ in work]), perms, axis=2)
        a1 = np.take_along_axis(np.stack([ct.c1 for _, ct, _ in work]), perms, axis=2)
        dig = rns.inverse(a1)
        # lifts[:, o - 1, i] is digit (i + o) mod k reduced mod q_i
        pr = np.array(par.q_primes, dtype=np.uint64)[:, None]
        rows = np.arange(k)
        lifts = rns.forward(np.stack([dig[:, (rows + o) % k] % pr
                                      for o in range(1, k)], axis=1))
        K0 = np.stack([self.keys.galois[t].k0 for _, _, t in work])
        K0sh = np.stack([self.keys.galois[t].k0_sh for _, _, t in work])
        K1 = np.stack([self.keys.galois[t].k1 for _, _, t in work])
        K1sh = np.stack([self.keys.galois[t].k1_sh for _, _, t in work])
        c0, c1 = a0, np.zeros_like(a0)
        for j in range(k):
            for i, qi in enumerate(par.q_primes):
                d = a1[:, i] if i == j else lifts[:, (j - i) % k - 1, i]
                qi = np.uint64(qi)
                c0[:, i] = addmod(c0[:, i], mulmod_shoup(
                    d, K0[:, j, i], K0sh[:, j, i], qi), qi)
                c1[:, i] = addmod(c1[:, i], mulmod_shoup(
                    d, K1[:, j, i], K1sh[:, j, i], qi), qi)
        for b, (i, ct, t) in enumerate(work):
            noise = self._bump_noise(
                float(np.logaddexp2(ct.noise_bits, par.keyswitch_noise_bits)) + 1e-3)
            nc = Ciphertext(par, c0[b], c1[b], noise)
            if ct._ref is not None:
                nc._ref = ct._ref[self._slot_perm(t)]
            results[i] = nc
        self.counters["keyswitch"] += R
        self.counters["rotate"] += R
        return results

# ----------------------------------------------------------------------------
# serialization


@lru_cache(maxsize=None)
def _pack_params(par: PaheParams) -> bytes:
    out = struct.pack("<IBQ", par.n, par.k, par.p)
    for q in par.q_primes:
        out += struct.pack("<Q", q)
    note = par.security_note.encode()
    return out + struct.pack("<B", len(note)) + note


def _expect_params(buf: memoryview, magic: bytes, params: PaheParams,
                   what: str) -> int:
    """Check the magic and the parameter block of a blob against the
    session's parameters, byte for byte; returns the offset past them."""
    packed = _pack_params(params)
    if bytes(buf[:4]) != magic:
        raise ProtocolError(f"bad {what} magic/version")
    if bytes(buf[4:4 + len(packed)]) != packed:
        raise ProtocolError(f"{what} was made under different parameters")
    return 4 + len(packed)


def _pack_poly(arr: np.ndarray) -> bytes:
    raw = np.ascontiguousarray(arr, dtype="<u8").tobytes()
    return struct.pack("<I", len(raw)) + raw


def _unpack_poly(buf: memoryview, off: int, shape: tuple[int, ...],
                 primes: Sequence[int]) -> tuple[np.ndarray, int]:
    """One residue array of exactly `shape`; the second-to-last axis runs
    over the primes, and every residue must be reduced mod its prime."""
    try:
        (ln,) = struct.unpack_from("<I", buf, off)
    except struct.error:
        raise ProtocolError("truncated polynomial") from None
    off += 4
    count = int(np.prod(shape))
    if ln != 8 * count or off + ln > len(buf):
        raise ProtocolError("polynomial length does not match the parameters")
    arr = np.frombuffer(buf, dtype="<u8", count=count,
                        offset=off).reshape(shape).astype(np.uint64)
    if np.any(arr >= np.array(primes, dtype=np.uint64)[:, None]):
        raise ProtocolError("residue not reduced mod its prime")
    return arr, off + ln


def ct_to_bytes(ct: Ciphertext) -> bytes:
    return (_CT_MAGIC + _pack_params(ct.params)
            + struct.pack("<d", ct.noise_bits)
            + _pack_poly(ct.c0) + _pack_poly(ct.c1))


def ct_from_bytes(data: bytes, params: PaheParams) -> Ciphertext:
    """Parse a ciphertext received from the peer under the session's `params`.

    The parameter block on the wire must equal `params` byte for byte; it is
    compared, never parsed into parameters of its own.  The noise estimate
    travels with the ciphertext, so it is checked too: it must be finite, no
    smaller than a fresh encryption's and leave some budget, or a peer could
    switch off the budget check for that ciphertext.
    """
    buf = memoryview(data)
    off = _expect_params(buf, _CT_MAGIC, params, "ciphertext")
    try:
        (noise,) = struct.unpack_from("<d", buf, off)
    except struct.error:
        raise ProtocolError("truncated ciphertext") from None
    off += 8
    if not (isfinite(noise) and noise >= params.fresh_noise_bits
            and params.max_budget_bits - noise > 0):
        raise ProtocolError(f"implausible ciphertext noise estimate {noise!r}")
    shape = (params.k, params.n)
    c0, off = _unpack_poly(buf, off, shape, params.q_primes)
    c1, off = _unpack_poly(buf, off, shape, params.q_primes)
    if off != len(buf):
        raise ProtocolError("trailing bytes after ciphertext")
    return Ciphertext(params, c0, c1, noise)


def public_keys_to_bytes(km: KeyMaterial) -> bytes:
    par = km.params
    out = _PK_MAGIC + _pack_params(par)
    out += _pack_poly(km.pk0) + _pack_poly(km.pk1)
    out += struct.pack("<H", len(km.galois))
    for t in sorted(km.galois):
        ksk = km.galois[t]
        out += struct.pack("<I", t)
        out += _pack_poly(ksk.k0) + _pack_poly(ksk.k1)
    return out


def public_keys_from_bytes(data: bytes, params: PaheParams) -> KeyMaterial:
    """Parse the peer's public and rotation keys under the session's `params`
    (compared byte for byte with the wire's parameter block, as in
    `ct_from_bytes`).  Each Galois element must be odd, below 2n and listed
    once."""
    buf = memoryview(data)
    off = _expect_params(buf, _PK_MAGIC, params, "key blob")
    shape = (params.k, params.n)
    pk0, off = _unpack_poly(buf, off, shape, params.q_primes)
    pk1, off = _unpack_poly(buf, off, shape, params.q_primes)
    galois = {}
    try:
        (ng,) = struct.unpack_from("<H", buf, off)
        off += 2
        for _ in range(ng):
            (t,) = struct.unpack_from("<I", buf, off)
            off += 4
            if t % 2 == 0 or t >= 2 * params.n or t in galois:
                raise ProtocolError(f"bad Galois element {t} in key blob")
            k0, off = _unpack_poly(buf, off, (params.k,) + shape, params.q_primes)
            k1, off = _unpack_poly(buf, off, (params.k,) + shape, params.q_primes)
            galois[t] = KeySwitchKey(
                k0, k1,
                np.stack([shoup_rows(k0[j], params.q_primes) for j in range(params.k)]),
                np.stack([shoup_rows(k1[j], params.q_primes) for j in range(params.k)]))
    except struct.error:
        raise ProtocolError("truncated key blob") from None
    if off != len(buf):
        raise ProtocolError("trailing bytes after key blob")
    return KeyMaterial(params, pk0, pk1, galois)
