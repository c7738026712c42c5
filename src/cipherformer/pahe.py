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
  * Residue arithmetic is the `ntt` helpers with the basis as one (k, 1)
    column (`PaheParams.q_col`), so no operation loops over the primes; only
    the uniform draws go prime by prime, which fixes the generator's order.
    The plaintext prime is never an RNS prime, so p^-1 mod every q_i exists.

Noise is tracked as a running upper-bound estimate in bits; the remaining
budget is (log2 q - log2 p - 1) minus that estimate, and operations raise
NoiseBudgetError rather than silently producing garbage.

Serialization carries data only: residues as little-endian 64-bit words,
each (k, n) polynomial prime by prime, and a ciphertext's noise estimate as
one float64 in front of its c0 and c1.  There is no magic, parameter block,
count or length prefix.  The session's parameters fix every size, and a
decoder refuses a payload of any other length, a residue not reduced mod
its prime, or an implausible noise estimate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import isfinite, log2
from typing import Iterable, Sequence

import numpy as np

from .errors import NoiseBudgetError, ParameterError, ProtocolError
from .ntt import (StackedNtt, addmod, get_stacked, mulmod_shoup, mulmod_vec,
                  shoup, submod)
from .primes import is_prime, next_prime

_ERR_STD = 3.2
_ERR_BOUND = 6.0 * _ERR_STD  # high-probability per-coefficient bound

# ciphertexts per key-switch product, so that its operands stay in cache: at
# n=1024, k=3 (2 MB of L2 per core), the products of a 64-ciphertext batch
# took 17 ms eight at a time and 27 ms all at once
_KS_BATCH = 8


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
    """Scheme parameters; q is the product of `q_primes`."""

    n: int
    p: int
    q_primes: tuple[int, ...]

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
        if self.p in self.q_primes:
            raise ParameterError("plaintext modulus must not be a ciphertext "
                                 "prime (it has no inverse mod itself)")
        if self.q <= 4 * self.p * self.p:
            raise ParameterError("ciphertext modulus too small for plaintext")

    @property
    def q(self) -> int:
        out = 1
        for v in self.q_primes:
            out *= v
        return out

    @property
    def k(self) -> int:
        return len(self.q_primes)

    @cached_property
    def q_col(self) -> np.ndarray:
        """The primes as a read-only (k, 1) uint64 column, the `p` every
        modular helper takes for a (..., k, n) residue stack."""
        col = np.array(self.q_primes, dtype=np.uint64)[:, None]
        col.flags.writeable = False
        return col

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


def _pick_q_primes(n: int, q_bits: int, p: int) -> tuple[int, ...]:
    """`q_bits` of NTT-friendly primes, skipping the plaintext prime p."""
    count = max(2, -(-q_bits // 54))
    per = -(-q_bits // count)
    if per > 61:
        raise ParameterError("requested ciphertext modulus too wide")
    primes: list[int] = []
    lower = 1 << per
    while len(primes) < count:
        q = next_prime(lower, congruent=(1, 2 * n))
        if q != p:
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
        par = PaheParams(n=n, p=p, q_primes=_pick_q_primes(n, q_bits, p))
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

    @property
    def noise_budget_bits(self) -> float:
        return self.params.max_budget_bits - self.noise_bits

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.params, self.c0.copy(), self.c1.copy(),
                          self.noise_bits)


@dataclass
class PlainVec:
    """A slot vector pre-encoded for multiplication (NTT-domain polynomial).

    `coeff_norm_bits` is the log2 of the largest centered *coefficient* of
    the encoded polynomial -- that, not the slot magnitude, is what drives
    multiplicative noise growth (a 0/1 slot mask still has ~p coefficients).
    """

    params: PaheParams
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
    poly = params.rns().forward(coeffs[:, None, :] % params.q_col)
    return [PlainVec(params, poly[b],
                     _centered_norm_bits(params, coeffs[b]))
            for b in range(len(vecs))]


def _scaled_plain_rows_many(params: PaheParams, mats: np.ndarray) -> np.ndarray:
    """round(q * m / p) per coefficient of a (B, n) batch of slot vectors,
    reduced into the RNS basis -> (B, k, n).

    Scaling by the exact rational q/p (instead of floor(q/p)) keeps the
    additive-plaintext error at half a unit per coefficient even when slot
    sums wrap mod p, so masking values can be full-range.
    """
    coeffs = _slots_to_coeffs_many(params, mats)
    # s = (q*c + h) // p residue-wise, no big ints: with r = (q*c + h) mod p,
    # exactly s = (q*c + h - r) / p, and q = 0 mod q_i, so s mod q_i is
    # (h - r) * p^-1 mod q_i
    p, col = params.p, params.q_col
    qp, qp_sh, h, h_col, pinv, pinv_sh = _plain_scale_consts(params)
    r = addmod(mulmod_shoup(coeffs, qp, qp_sh, p), h, p)
    t = submod(h_col, r[:, None, :] % col, col)
    return mulmod_shoup(t, pinv, pinv_sh, col)


@lru_cache(maxsize=None)
def _plain_scale_consts(params: PaheParams):
    """q mod p and h = p // 2 for the remainder mod p, then h and p^-1 as
    columns mod each q_i, each multiplier with its twin."""
    p, col = params.p, params.q_col
    qp = np.uint64(params.q % p)
    h = np.uint64(p >> 1)
    pinv = np.array([[pow(p, -1, qi)] for qi in params.q_primes], dtype=np.uint64)
    return qp, shoup(qp, p), h, h % col, pinv, shoup(pinv, col)


# ----------------------------------------------------------------------------
# keys


@dataclass
class KeySwitchKey:
    """One Galois element's switch key, laid out once in the order the key
    switch reads it: `parts[f, o, i]` is part f (k0, k0's Shoup twin, k1,
    k1's twin) of digit (i + o) mod k at prime i, so each offset o is one
    (k, n) slab over all primes.  Each part is in the NTT domain."""

    parts: np.ndarray   # (4, k, k, n)

    @classmethod
    def from_digits(cls, k0: np.ndarray, k1: np.ndarray,
                    col: np.ndarray) -> "KeySwitchKey":
        """From digit j's pair (k0[j], k1[j]), each (k, n)."""
        rows = np.arange(k0.shape[0])
        digit = (rows[:, None] + rows) % rows.size   # digit[o, i]
        return cls(np.stack([a[digit, rows] for a in
                             (k0, shoup(k0, col), k1, shoup(k1, col))]))

    def _digits(self, f: int) -> np.ndarray:
        rows = np.arange(self.parts.shape[1])
        return self.parts[f][(rows[:, None] - rows) % rows.size, rows]

    @property
    def k0(self) -> np.ndarray:
        """(digits, k, n) in digit order, as the key blob carries it."""
        return self._digits(0)

    @property
    def k1(self) -> np.ndarray:
        return self._digits(2)


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

    def decrypt_many(self, cts: Sequence[Ciphertext]) -> np.ndarray:
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
        col = par.q_col
        c1 = mulmod_shoup(np.stack([ct.c1 for ct in cts]), self._sk,
                          self._sk_sh, col)
        coeffs = par.rns().inverse(
            addmod(np.stack([ct.c0 for ct in cts]), c1, col))  # (B, k, n)
        q, p = par.q, par.p
        acc = (coeffs.astype(object) * _crt_consts(par)).sum(axis=1)
        m = ((acc % q) * p + (q >> 1)) // q % p
        sm = par.slots()
        ev = get_stacked((p,), par.n).forward(
            m.astype(np.uint64)[:, None, :])
        return ev[:, 0, sm.pos_of_flat]


@lru_cache(maxsize=None)
def _crt_consts(params: PaheParams) -> np.ndarray:
    """The CRT basis (q/q_i) * ((q/q_i)^-1 mod q_i) as a (k, 1) column of
    python ints."""
    q = params.q
    return np.array([[q // qi * pow(q // qi, -1, qi)] for qi in params.q_primes],
                    dtype=object)


def _sample_uniform(params: PaheParams, rng: np.random.Generator) -> np.ndarray:
    """One uniform (k, n) residue polynomial, drawn prime by prime."""
    return np.stack([rng.integers(0, qi, params.n, dtype=np.uint64)
                     for qi in params.q_primes])


def _sample_ternary(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(-1, 2, shape).astype(np.int64)


def _sample_error(rng: np.random.Generator, shape) -> np.ndarray:
    e = np.rint(rng.normal(0.0, _ERR_STD, shape)).astype(np.int64)
    return np.clip(e, -int(_ERR_BOUND), int(_ERR_BOUND))


def _signed_to_rns(params: PaheParams, signed: np.ndarray) -> np.ndarray:
    """(..., n) small signed coefficients -> (..., k, n) residues."""
    col = params.q_col.astype(np.int64)
    return np.mod(signed[..., None, :], col).astype(np.uint64)


def galois_elements(params: PaheParams,
                    rotations: Iterable[int]) -> tuple[int, ...]:
    """The Galois elements 3^r mod 2n of the nonzero column rotations r, in
    the order key sets generate and serialize them."""
    return tuple(sorted({pow(3, r % params.row_size, 2 * params.n)
                         for r in rotations if r % params.row_size}))


def keygen(params: PaheParams, seed: int | None = None,
           rotations: Iterable[int] = ()) -> KeyMaterial:
    """Generate secret/public/Galois keys.

    `rotations` lists the column-rotation amounts (0 < r < n/2) the evaluator
    will need; each gets one Galois key.
    """
    rng = np.random.default_rng(seed)
    rns, col = params.rns(), params.q_col
    n = params.n
    sk = rns.forward(_signed_to_rns(params, _sample_ternary(rng, n)))
    sk_sh = shoup(sk, col)

    a = _sample_uniform(params, rng)
    e = rns.forward(_signed_to_rns(params, _sample_error(rng, n)))
    pk0 = submod(e, mulmod_shoup(a, sk, sk_sh, col), col)
    km = KeyMaterial(params, pk0, a, {}, sk, sk_sh)

    for t in galois_elements(params, rotations):
        km.galois[t] = _make_kswitch(params, rng, sk, sk_sh, t)
    return km


def _make_kswitch(params: PaheParams, rng: np.random.Generator, sk, sk_sh,
                  t: int) -> KeySwitchKey:
    """Digit j's key is (e_j - a_j*s + [row j of sigma_t(s)], a_j): the
    generator draws a_j, then e_j, for one digit after another."""
    col, k = params.q_col, params.k
    a, e = [], []
    for _ in range(k):
        a.append(_sample_uniform(params, rng))
        e.append(_sample_error(rng, params.n))
    k1 = np.stack(a)
    k0 = submod(params.rns().forward(_signed_to_rns(params, np.stack(e))),
                mulmod_shoup(k1, sk, sk_sh, col), col)
    sig = sk[:, params.slots().perm(t)]  # sigma_t(s), a slot permutation
    d = np.arange(k)
    k0[d, d] = addmod(k0[d, d], sig, col)
    return KeySwitchKey.from_digits(k0, k1, col)


# ----------------------------------------------------------------------------
# the evaluator


class Evaluator:
    """Homomorphic operations under a (public) key set, with op counters."""

    def __init__(self, keys: KeyMaterial, seed: int | None = None):
        self.keys = keys
        self.params = keys.params
        self.rng = np.random.default_rng(seed)
        self.counters: dict[str, int] = {
            "encrypt": 0, "add_ct": 0, "add_plain": 0, "scmult": 0,
            "rotate": 0, "keyswitch": 0,
        }
        self._pk0_sh = shoup(keys.pk0, self.params.q_col)
        self._pk1_sh = shoup(keys.pk1, self.params.q_col)

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
        col = par.q_col
        B = len(vecs)
        if B == 0:
            return []
        m = _scaled_plain_rows_many(
            par, np.stack([_as_slot_vector(par, v) for v in vecs]))
        u = _signed_to_rns(par, _sample_ternary(self.rng, (B, par.n)))
        e = _signed_to_rns(par, _sample_error(self.rng, (2 * B, par.n)))
        stacked = par.rns().forward(
            np.concatenate([addmod(m, e[:B], col), u, e[B:]]))
        m_ntt, u, e1 = (stacked[i * B:(i + 1) * B] for i in range(3))
        c0 = addmod(mulmod_shoup(u, self.keys.pk0, self._pk0_sh, col), m_ntt, col)
        c1 = addmod(mulmod_shoup(u, self.keys.pk1, self._pk1_sh, col), e1, col)
        out = [Ciphertext(par, c0[b], c1[b],
                          self._bump_noise(par.fresh_noise_bits))
               for b in range(B)]
        self.counters["encrypt"] += B
        return out

    # -- arithmetic ----------------------------------------------------------

    def add_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check(a)
        self._check(b)
        par = self.params
        noise = self._bump_noise(float(np.logaddexp2(a.noise_bits, b.noise_bits)))
        out = Ciphertext(par, addmod(a.c0, b.c0, par.q_col),
                         addmod(a.c1, b.c1, par.q_col), noise)
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
            out.append(Ciphertext(par, addmod(ct.c0, rows[b], par.q_col),
                                  ct.c1.copy(), noise))
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
            c = mulmod_vec(np.stack([ct.c0, ct.c1]), pv.poly, par.q_col)
            out.append(Ciphertext(par, c[0], c[1], noise))
        self.counters["scmult"] += len(cts)
        return out

    # -- rotations -----------------------------------------------------------

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
        # The switch sums, over offsets o, digit (i + o) mod k reduced mod
        # q_i times that digit's key (`KeySwitchKey.parts[:, o]`), at every
        # prime i at once.  Offset 0 is a1 itself; lifts[:, o - 1] holds the
        # other offsets, transformed.
        col, rows = par.q_col, np.arange(k)
        lifts = rns.forward(np.stack([dig[:, (rows + o) % k] % col
                                      for o in range(1, k)], axis=1))
        c0, c1 = a0, np.zeros_like(a0)
        for s in range(0, R, _KS_BATCH):
            blk = slice(s, s + _KS_BATCH)
            K = np.stack([self.keys.galois[t].parts for _, _, t in work[blk]])
            for o in range(k):
                d = a1[blk] if o == 0 else lifts[blk, o - 1]
                c0[blk] = addmod(c0[blk], mulmod_shoup(d, K[:, 0, o], K[:, 1, o], col), col)
                c1[blk] = addmod(c1[blk], mulmod_shoup(d, K[:, 2, o], K[:, 3, o], col), col)
        for b, (i, ct, _) in enumerate(work):
            noise = self._bump_noise(
                float(np.logaddexp2(ct.noise_bits, par.keyswitch_noise_bits)) + 1e-3)
            results[i] = Ciphertext(par, c0[b], c1[b], noise)
        self.counters["keyswitch"] += R
        self.counters["rotate"] += R
        return results

# ----------------------------------------------------------------------------
# serialization


def ct_nbytes(params: PaheParams) -> int:
    """Wire size of one ciphertext: its noise estimate, c0 and c1."""
    return 8 * (1 + 2 * params.k * params.n)


def _words(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<u8").tobytes()


def _residues(buf, shape: tuple[int, ...], params: PaheParams) -> np.ndarray:
    """The residue array of exactly `shape` that `buf` holds; the
    second-to-last axis runs over the primes, and every residue must be
    reduced mod its prime."""
    arr = np.frombuffer(buf, dtype="<u8").reshape(shape).astype(np.uint64)
    if np.any(arr >= params.q_col):
        raise ProtocolError("residue not reduced mod its prime")
    return arr


def ct_to_bytes(ct: Ciphertext) -> bytes:
    return struct.pack("<d", ct.noise_bits) + _words(ct.c0) + _words(ct.c1)


def ct_from_bytes(data, params: PaheParams) -> Ciphertext:
    """Parse a ciphertext received from the peer under the session's `params`,
    which fix its size.  The noise estimate travels with the ciphertext, so
    it is checked too: it must be finite, no smaller than a fresh
    encryption's and leave some budget, or a peer could switch off the
    budget check for that ciphertext.
    """
    size = ct_nbytes(params)
    if len(data) != size:
        raise ProtocolError(f"ciphertext has {len(data)} bytes, the "
                            f"session's have {size}")
    (noise,) = struct.unpack_from("<d", data, 0)
    if not (isfinite(noise) and noise >= params.fresh_noise_bits
            and params.max_budget_bits - noise > 0):
        raise ProtocolError(f"implausible ciphertext noise estimate {noise!r}")
    c = _residues(memoryview(data)[8:], (2, params.k, params.n), params)
    return Ciphertext(params, c[0], c[1], noise)


def public_keys_to_bytes(km: KeyMaterial) -> bytes:
    """pk0, pk1, then the two digit stacks of each Galois key, in element
    order."""
    polys = [km.pk0, km.pk1]
    for t in sorted(km.galois):
        polys += [km.galois[t].k0, km.galois[t].k1]
    return b"".join(_words(a) for a in polys)


def public_keys_from_bytes(data, params: PaheParams,
                           elements: Sequence[int]) -> KeyMaterial:
    """Parse the peer's public and rotation keys under the session's
    `params`.  The blob holds a switch key for exactly the Galois elements
    `elements`, in that order, so its size is fixed: a missing or extra key
    is refused by length, before any key's Shoup twins are built."""
    k, n, g = params.k, params.n, len(elements)
    size = 8 * k * n * (2 + 2 * k * g)
    if len(data) != size:
        raise ProtocolError(f"key blob has {len(data)} bytes, the session's "
                            f"{g} Galois keys need {size}")
    polys = _residues(data, (2 + 2 * k * g, k, n), params)
    digits = polys[2:].reshape(g, 2, k, k, n)
    galois = {t: KeySwitchKey.from_digits(d[0], d[1], params.q_col)
              for t, d in zip(elements, digits)}
    return KeyMaterial(params, polys[0], polys[1], galois)
