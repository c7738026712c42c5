"""Packed additively homomorphic encryption over power-of-two cyclotomics.

An RLWE scheme in the BFV style, pared down to exactly the operations the
inference protocol consumes: encrypt, decrypt, ciphertext addition, plaintext
addition, SIMD multiplication by an encoded vector, and column rotation.
Only the key holder encrypts, so encryption uses the secret key and there is
no public encryption key; the peer receives rotation keys only.  With no
public key, a future rerandomization of outgoing ciphertexts needs a key of
its own.
Every operation takes and returns whole batches, and a single operation is a
batch of one.  There is no ciphertext-ciphertext multiplication anywhere --
the protocol gets products via masked decryption round-trips instead, so the
ciphertext modulus only has to absorb one plaintext-sized multiplicative
factor plus rotations.

Representation choices, all load-bearing:

  * The ciphertext modulus q is a product of word-sized NTT primes (an RNS
    basis); every polynomial is stored as its (k, n) residue matrix in the
    NTT domain.  Additions and multiplications are pointwise; only rotations
    and (de/en)cryption touch the coefficient domain.
  * A batch of B ciphertexts (`Ciphertexts`) is one (B, 2, k, n) array,
    c0 then c1 of each, with a (B,) array of noise estimates and, for a
    fresh encryption, the (B, 16) seeds its c1's were expanded from; a
    batch of encoded plaintexts (`PlainVecs`) is one (B, k, n) array.  Every
    operation runs on the whole batch, its products in blocks of
    `_KS_BATCH` ciphertexts; ciphertext addition is `Evaluator.sum_groups`,
    which sums any grouping of a batch in one call.
  * Plaintexts live in Z_p for a prime p = 1 mod 2n, giving n SIMD slots
    arranged as two hypercolumns of n/2.  The flat slot order is
    [row0 | row1]; row0 column c sits at evaluation point psi^(3^c), row1 at
    the negated exponent.  Galois maps X -> X^t act as pure slot permutations
    in the NTT domain, so a rotation is one permutation plus one key switch.
  * Key-switching uses the RNS-prime gadget: digit j of a polynomial is its
    residue mod q_j lifted back to the full basis; its row j is the input's
    own row j, so only the other k(k-1) lifts need a forward transform.  Keys
    store Shoup twins so the hot loop is all uint64 mulmods.
  * Every uniform polynomial -- the a = c1 of a fresh encryption, the k1
    digits of a Galois key -- is expanded from a 16-byte seed by AES-128-CTR
    (`expand_seeds`), so it travels as its seed.  The seeds are public, so
    they are not drawn raw from the generator that draws the secret key and
    the errors: seed i is AES_K(i) under one key K taken from it
    (`SeedStream`), i counting up, so no seed repeats.
  * Residue arithmetic is the `ntt` helpers with the basis as one (k, 1)
    column (`PaheParams.q_col`), so no operation loops over the primes.
    The plaintext prime is never an RNS prime, so p^-1 mod every q_i exists.
    Decryption scales and rounds in the basis too (`_scale_round`), with
    no big integer for any coefficient whose rounding is not in doubt.

Noise is tracked as a running upper-bound estimate in bits; the remaining
budget is (log2 q - log2 p - 1) minus that estimate, and operations raise
NoiseBudgetError rather than silently producing garbage.

Serialization carries data only: residues at the basis' width b, the bit
length of the largest prime (`PaheParams.residue_bits`), each (k, n)
polynomial prime by prime in one little-endian bit stream (`_pack`), and
seeds as their 16 bytes.  As n >= 16, every polynomial ends on a byte.  A
ciphertext is its c0, then, if it is a fresh encryption, the seed of its c1
(bkn/8 + 16 bytes), else its c1 (2bkn/8 bytes); a batch is its ciphertexts
back to back.  A Galois key is its k0 digit stack, then the seed of its k1
stack (bk^2 n/8 + 16 bytes).  There is no magic, parameter block, count,
length prefix or noise estimate.  The session's parameters, the receiver's
own count and which form it expects fix every size, and a decoder refuses a
payload of any other length or a residue not reduced mod its prime, which b
bits can hold up to 2^b - 1; any 16 bytes are a seed.  A decoder expands
every seed as it parses, so what it returns is the same (B, 2, k, n) batch,
or key, the sender holds.  Only the key holder encrypts, and everything it
sends is fresh; the other party computes on what it parses, and sends only
computed ciphertexts, in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from math import inf, log2, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import NoiseBudgetError, ParameterError, ProtocolError
from .ntt import (StackedNtt, addmod, bitrev_indices, get_stacked,
                  mulmod_shoup, reduce128, shoup, submod)
from .prg import aes_ctr
from .primes import is_prime, next_prime

_ERR_STD = 3.2
_ERR_BOUND = 6.0 * _ERR_STD  # high-probability per-coefficient bound
# a seed of a uniform polynomial: an AES-128 key (`expand_seeds`)
SEED_BYTES = 16

# ciphertexts per key-switch product (and seeds per expansion block), so
# that its operands stay in cache: at n=1024, k=3 (2 MB of L2 per core), the
# products of a 64-ciphertext batch took 17 ms eight at a time and 27 ms all
# at once
_KS_BATCH = 8


# ----------------------------------------------------------------------------
# slot bookkeeping (independent of any particular prime)


class SlotMap:
    """Maps flat slot indices <-> NTT positions, and Galois maps -> perms.

    The constant-geometry forward transform leaves a(psi^(2 bitrev(j) + 1))
    at position j, whatever the prime, so one map per n serves the
    plaintext prime and every RNS prime alike (checked against a discrete
    log in tests).
    """

    def __init__(self, n: int):
        self.n = n
        self.exps = 2 * bitrev_indices(n) + 1
        pos_of_exp = np.full(2 * n, -1, dtype=np.int64)
        pos_of_exp[self.exps] = np.arange(n)
        self._pos_of_exp = pos_of_exp
        half = n // 2
        flat_exp = np.empty(n, dtype=np.int64)
        e = 1
        for c in range(half):
            flat_exp[c] = e
            flat_exp[half + c] = 2 * n - e
            e = e * 3 % (2 * n)
        self.pos_of_flat = pos_of_exp[flat_exp]
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
        """A secret-key encryption's error, plus half a unit of rounding
        in the scaled message."""
        return log2(_ERR_BOUND + 0.5)

    @property
    def residue_bits(self) -> int:
        """The width every residue travels at: the bit length of the largest
        prime.  It is at least 8: p = 1 mod 2n with n >= 16 is at least 97,
        the one prime = 1 mod 32 under 2^7, and q > 4 p^2 needs another."""
        return max(self.q_primes).bit_length()

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


@lru_cache(maxsize=16)
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


class _Batch:
    """A batch: `params`, then array fields that all run over the batch on
    their first axis.  It has `len`, indexing by an int, a slice or an
    index array (an int gives a batch of one), and `concat`."""

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)[1:]]

    def __len__(self) -> int:
        return len(self._arrays()[0])

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            i = range(len(self))[idx]
            idx = slice(i, i + 1)
        return type(self)(self.params, *(a[idx] for a in self._arrays()))

    @classmethod
    def concat(cls, parts: Sequence):
        """The batches one after another, all under the same parameters."""
        if any(b.params != parts[0].params for b in parts):
            raise ParameterError("batches under different parameters")
        return cls(parts[0].params,
                   *map(np.concatenate, zip(*(b._arrays() for b in parts))))


@dataclass
class Ciphertexts(_Batch):
    """A batch of ciphertexts: c0 = `data[:, 0]`, c1 = `data[:, 1]`.  A
    fresh encryption keeps the seed its c1 was expanded from, and travels
    as its c0 and that seed; a computed batch has no seeds, a (B, 0)
    array, and travels in full."""

    params: PaheParams
    data: np.ndarray        # (B, 2, k, n) uint64, NTT domain
    noise_bits: np.ndarray  # (B,) float64
    seeds: np.ndarray | None = None  # (B, SEED_BYTES) if fresh, else (B, 0)

    def __post_init__(self):
        if self.seeds is None:
            self.seeds = np.zeros((len(self.data), 0), dtype=np.uint8)

    @property
    def fresh(self) -> bool:
        return self.seeds.shape[1] == SEED_BYTES

    @classmethod
    def concat(cls, parts: Sequence) -> "Ciphertexts":
        """The batches one after another: fresh if every one is, else a
        computed batch."""
        if not all(b.fresh for b in parts):
            parts = [cls(b.params, b.data, b.noise_bits) for b in parts]
        return super().concat(parts)

    @property
    def noise_budget_bits(self) -> float:
        """The batch's smallest budget; infinite for an empty batch."""
        if not len(self):
            return inf
        return float(self.params.max_budget_bits - self.noise_bits.max())


@dataclass
class PlainVecs(_Batch):
    """Slot vectors pre-encoded for multiplication (NTT-domain polynomials),
    each with its Shoup twin.

    `coeff_norm_bits` is the log2 of the largest centered *coefficient* of
    each encoded polynomial -- that, not the slot magnitude, is what drives
    multiplicative noise growth (a 0/1 slot mask still has ~p coefficients).
    """

    params: PaheParams
    poly: np.ndarray             # (B, k, n) uint64, NTT domain
    twin: np.ndarray             # (B, k, n) uint64, `ntt.shoup` of poly
    coeff_norm_bits: np.ndarray  # (B,) float64


def _slots_to_coeffs_many(params: PaheParams, mat: np.ndarray) -> np.ndarray:
    """(B, n) slot matrix -> (B, n) coefficient matrix, one stacked pass."""
    sm = params.slots()
    ev = np.zeros((mat.shape[0], 1, params.n), dtype=np.uint64)
    ev[:, 0, sm.pos_of_flat] = mat
    return get_stacked((params.p,), params.n).inverse(ev)[:, 0, :]


def _as_slot_vectors(params: PaheParams, vecs) -> np.ndarray:
    """B slot vectors of at most n values each (a sequence or a (B, <= n)
    array) -> the (B, n) matrix, zero-padded; every value reduced mod p."""
    if not len(vecs):
        return np.zeros((0, params.n), dtype=np.uint64)
    arr = np.asarray(vecs, dtype=np.uint64).reshape(len(vecs), -1)
    if arr.shape[1] > params.n:
        raise ParameterError(f"{arr.shape[1]} values exceed {params.n} slots")
    if np.any(arr >= params.p):
        raise ParameterError("slot values must be reduced mod p")
    return np.pad(arr, ((0, 0), (0, params.n - arr.shape[1])))


def encode_plain_many(params: PaheParams, vecs) -> PlainVecs:
    """Batch-encode slot vectors for simd_scmult_many, each with its Shoup
    twin, so every plaintext multiply is one `mulmod_shoup`.

    The twin pays for itself even on an encoding that multiplies a single
    ciphertext: on a (40, 2, 3, 512) batch (one core of a 2-vCPU Xeon),
    twins plus `mulmod_shoup` took 6.3 ms against 7.2 ms for the twin-less
    `mulmod_vec`, and an encoding that is kept (`helinear`'s weight
    diagonals) reuses its twin every session.  Transforms run stacked, so
    encoding B vectors costs roughly one vector's worth of Python overhead.
    """
    coeffs = _slots_to_coeffs_many(params, _as_slot_vectors(params, vecs))
    poly = params.rns().forward(coeffs[:, None, :] % params.q_col)
    v = coeffs.astype(np.int64)
    peak = np.abs(np.where(v * 2 > params.p, params.p - v, v)).max(
        axis=1, initial=0)
    return PlainVecs(params, poly, shoup(poly, params.q_col),
                     np.array([log2(max(int(m), 1)) for m in peak]))


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
    (k, n) slab over all primes.  Each part is in the NTT domain.  The k1
    digits are the expansion of `seed`."""

    parts: np.ndarray   # (4, k, k, n)
    seed: np.ndarray    # (SEED_BYTES,) uint8

    @classmethod
    def from_digits(cls, k0: np.ndarray, k1: np.ndarray, col: np.ndarray,
                    seed: np.ndarray) -> "KeySwitchKey":
        """From digit j's pair (k0[j], k1[j]), each (k, n), and the seed
        k1 was expanded from."""
        rows = np.arange(k0.shape[0])
        digit = (rows[:, None] + rows) % rows.size   # digit[o, i]
        return cls(np.stack([a[digit, rows] for a in
                             (k0, shoup(k0, col), k1, shoup(k1, col))]), seed)

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
    """The secret key and the rotation keys.  The secret key never
    serializes."""

    params: PaheParams
    galois: dict[int, KeySwitchKey] = field(default_factory=dict)
    _sk: np.ndarray | None = None      # (k, n) NTT domain
    _sk_sh: np.ndarray | None = None

    @property
    def has_secret(self) -> bool:
        return self._sk is not None

    def public(self) -> "KeyMaterial":
        return KeyMaterial(self.params, self.galois)

    # -- decryption ---------------------------------------------------------

    def decrypt_many(self, cts: Ciphertexts) -> np.ndarray:
        """The (B, n) slot matrix of a batch."""
        if self._sk is None:
            raise ParameterError("this key material has no secret key")
        par = self.params
        if cts.params != par:
            raise ParameterError("ciphertext/key parameter mismatch")
        if not len(cts):
            return np.zeros((0, par.n), dtype=np.uint64)
        if cts.noise_budget_bits <= 0:
            raise NoiseBudgetError(
                f"noise budget exhausted ({cts.noise_budget_bits:.1f} bits)")
        col = par.q_col
        c1 = mulmod_shoup(cts.data[:, 1], self._sk, self._sk_sh, col)
        coeffs = par.rns().inverse(addmod(cts.data[:, 0], c1, col))  # (B, k, n)
        m = _scale_round(par, coeffs)
        sm = par.slots()
        ev = get_stacked((par.p,), par.n).forward(m[:, None, :])
        return ev[:, 0, sm.pos_of_flat]


# a fraction sum this close to a half is rounded in Python ints: the k
# float64 fractions, each below 1, and their sum err by under
# (k^2 + 3k) 2^-53, inside 2^-40 for a basis of up to `_MAX_PRIMES`
_DOUBT = 0.5 - 2.0 ** -40
_MAX_PRIMES = 64


@lru_cache(maxsize=16)
def _scale_consts(params: PaheParams):
    """Per prime q_i of the basis, as (k, 1) columns: c_i = (q/q_i)^-1 p
    mod q_i and its twin, -q_i^-1 mod p and its twin, and 1 / q_i as a
    float."""
    q, p, col = params.q, params.p, params.q_col
    # the k terms below p and the rounded fraction sum (at most k) are
    # summed in one word, and the fractions in float64 (see `_DOUBT`)
    if params.k > _MAX_PRIMES or (params.k + 1) * p >= 1 << 64:
        raise ParameterError("basis too wide to scale and round in one "
                             "word")
    c = np.array([[pow(q // qi, -1, qi) * p % qi] for qi in params.q_primes],
                 dtype=np.uint64)
    u = np.array([[-pow(qi, -1, p) % p] for qi in params.q_primes],
                 dtype=np.uint64)
    return c, shoup(c, col), u, shoup(u, p), 1.0 / col.astype(np.float64)


def _scale_round(params: PaheParams, coeffs: np.ndarray) -> np.ndarray:
    """round(p x / q) mod p, (B, n) uint64, of the coefficients x in
    [0, q) given by their residues `coeffs`, (B, k, n).

    The RNS scale-and-round of Halevi-Polyakov-Shoup (CT-RSA 2019): with
    y_i = x_i (q/q_i)^-1 mod q_i, x = sum_i y_i q/q_i - v q for an integer
    v, so p x / q = sum_i y_i p / q_i - v p.  Each term splits as
    y_i p = Q_i q_i + R_i with R_i = x_i (q/q_i)^-1 p mod q_i, one Shoup
    multiply, and Q_i = -R_i q_i^-1 mod p, another, since y_i p = 0 mod p.
    So, mod p,

        round(p x / q) = sum_i Q_i + round(sum_i R_i / q_i).

    The fractions R_i / q_i are summed in float64, which errs by far less
    than `_DOUBT` leaves; where the sum lies that close to a half, the
    coefficient is rounded from Python ints instead, so every result is
    exact.  A ciphertext within its noise budget decrypts to sums near an
    integer and never takes that path.
    """
    p, col = params.p, params.q_col
    c, c_sh, u, u_sh, inv_q = _scale_consts(params)
    r = mulmod_shoup(coeffs, c, c_sh, col)
    ints = mulmod_shoup(r, u, u_sh, p).sum(axis=1)
    fracs = (r.astype(np.float64) * inv_q).sum(axis=1)
    near = np.floor(fracs + 0.5)
    m = np.remainder(ints + near.astype(np.uint64), p)
    doubt = np.nonzero(np.abs(fracs - near) > _DOUBT)
    if doubt[0].size:
        q = params.q
        basis = [q // qi * pow(q // qi, -1, qi) for qi in params.q_primes]
        for b, j in zip(*doubt):
            x = sum(int(v) * e for v, e in zip(coeffs[b, :, j], basis)) % q
            m[b, j] = (p * x + (q >> 1)) // q % p
    return m


class SeedStream:
    """Public seeds: seed i is AES_K(i), under one key K taken from a
    generator that also draws secrets, with i counting up across calls.
    No seed is raw output of that generator, which is not a cryptographic
    one (PCG64's state can be recovered from its outputs: Bouillaguet,
    Martinez and Sauvage, ToSC 2020), and no seed repeats."""

    def __init__(self, rng: np.random.Generator):
        self._key = rng.bytes(SEED_BYTES)
        self._next = 0

    def take(self, count: int) -> np.ndarray:
        """The next `count` seeds, (count, SEED_BYTES) uint8."""
        out = aes_ctr([self._key], SEED_BYTES * count, self._next)
        self._next += count
        return out.reshape(count, SEED_BYTES)


def expand_seeds(params: PaheParams, seeds: np.ndarray,
                 lead: tuple[int, ...] = ()) -> np.ndarray:
    """The uniform residues a (B, SEED_BYTES) batch of seeds stands for, a
    (B, *lead, k, n) stack.  Seed b keys AES-128-CTR, and each residue of
    its (*lead, k, n) stack, in C order, takes the next 16 bytes of the
    keystream as a little-endian 128-bit integer, reduced mod its prime by
    `ntt.reduce128`.  Each residue is then within q_i / 2^128 of uniform:
    below 2^-66 for any prime under 2^62, 2^-77 at 51 bits.

    The residues reduce `_KS_BATCH` seeds at a time, so each block's words
    stay in cache: 157 seeds at n = 512, k = 3 (one core of a 2-vCPU Xeon)
    take about 12 ms, 4.5 ms of AES and 6.5 ms of reduction, which took
    11.7 ms in one block."""
    k, n = params.k, params.n
    words = aes_ctr([seed.tobytes() for seed in seeds],
                    16 * prod(lead) * k * n).view("<u8").reshape(
                        len(seeds), *lead, k, n, 2)
    out = np.empty(words.shape[:-1], dtype=np.uint64)
    for s in range(0, len(seeds), _KS_BATCH):
        blk = words[s:s + _KS_BATCH]
        out[s:s + _KS_BATCH] = reduce128(blk[..., 1], blk[..., 0], params.q_col)
    return out


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
    """Generate the secret key and the Galois keys.

    `rotations` lists the column-rotation amounts (0 < r < n/2) the evaluator
    will need; each gets one Galois key.  The generator draws the secret
    key, then the key of the call's `SeedStream`, whose seeds go to the
    Galois keys in element order, then each key's errors.
    """
    rng = np.random.default_rng(seed)
    sk = params.rns().forward(
        _signed_to_rns(params, _sample_ternary(rng, params.n)))
    sk_sh = shoup(sk, params.q_col)
    elements = galois_elements(params, rotations)
    seeds = SeedStream(rng).take(len(elements))
    galois = {t: _make_kswitch(params, rng, sk, sk_sh, t, sd)
              for t, sd in zip(elements, seeds)}
    return KeyMaterial(params, galois, sk, sk_sh)


def _make_kswitch(params: PaheParams, rng: np.random.Generator, sk, sk_sh,
                  t: int, seed: np.ndarray) -> KeySwitchKey:
    """Digit j's key is (e_j - a_j*s + [row j of sigma_t(s)], a_j): the
    seed expands to the k a_j's, and the generator draws the k e_j's."""
    col, k = params.q_col, params.k
    k1 = expand_seeds(params, seed[None], (k,))[0]
    e = _sample_error(rng, (k, params.n))
    k0 = submod(params.rns().forward(_signed_to_rns(params, e)),
                mulmod_shoup(k1, sk, sk_sh, col), col)
    sig = sk[:, params.slots().perm(t)]  # sigma_t(s), a slot permutation
    d = np.arange(k)
    k0[d, d] = addmod(k0[d, d], sig, col)
    return KeySwitchKey.from_digits(k0, k1, col, seed)


# ----------------------------------------------------------------------------
# the evaluator


class Evaluator:
    """Homomorphic operations under a key set, with op counters.  Only a
    key set that holds the secret key encrypts, and only its evaluator
    draws from a generator (seeded by `seed`), which first gives the key of
    the evaluator's one `SeedStream`.  Every operation settles its results'
    noise before it does any work, and refuses a batch under other
    parameters or a result past the budget."""

    def __init__(self, keys: KeyMaterial, seed: int | None = None):
        self.keys = keys
        self.params = keys.params
        self.rng = np.random.default_rng(seed) if keys.has_secret else None
        self._seeds = SeedStream(self.rng) if keys.has_secret else None
        self.counters: dict[str, int] = {
            "encrypt": 0, "add_ct": 0, "add_plain": 0, "scmult": 0,
            "rotate": 0, "keyswitch": 0,
        }

    def _bump_noise(self, cts: Ciphertexts, bits) -> np.ndarray:
        """The noise of the results of an operation on `cts`."""
        if cts.params != self.params:
            raise ParameterError("ciphertext parameter mismatch")
        bits = np.asarray(bits, dtype=np.float64)
        worst = bits.max(initial=-inf)
        if self.params.max_budget_bits - worst <= 0:
            raise NoiseBudgetError(
                f"operation would exhaust noise budget ({worst:.1f} bits of "
                f"{self.params.max_budget_bits:.1f})")
        return bits

    # -- encryption ----------------------------------------------------------

    def encrypt_many(self, vecs) -> Ciphertexts:
        """Encrypt each slot vector m under the secret key s:
        c1 = a, uniform in the NTT domain, and c0 = NTT(m' + e) - a*s, where
        m' is m scaled by q/p.  One forward transform per ciphertext.  Each
        a is the expansion of the evaluator's next seed, which the batch
        keeps; the generator draws the B errors.  A fresh encryption never
        exhausts the budget: q > 4p^2 leaves more than log2(2p) bits.
        """
        if not self.keys.has_secret:
            raise ParameterError("only the secret key holder encrypts")
        par = self.params
        col = par.q_col
        m = _scaled_plain_rows_many(par, _as_slot_vectors(par, vecs))
        B = len(m)
        seeds = self._seeds.take(B)
        a = expand_seeds(par, seeds)
        e = _signed_to_rns(par, _sample_error(self.rng, (B, par.n)))
        c0 = submod(par.rns().forward(addmod(m, e, col)),
                    mulmod_shoup(a, self.keys._sk, self.keys._sk_sh, col), col)
        self.counters["encrypt"] += B
        return Ciphertexts(par, np.stack([c0, a], axis=1),
                           np.full(B, par.fresh_noise_bits), seeds)

    # -- arithmetic ----------------------------------------------------------

    def sum_groups(self, cts: Ciphertexts, dest, count: int) -> Ciphertexts:
        """Output j is the sum of the ciphertexts whose `dest` is j, folded
        left in batch order; an empty group is the all-zero ciphertext, an
        exact encryption of zero.  Rank r of every group is added in one
        stacked call."""
        dest = np.asarray(dest, dtype=np.int64)
        if dest.shape != (len(cts),) or np.any((dest < 0) | (dest >= count)):
            raise ParameterError(f"group ids must be {len(cts)} values "
                                 f"below {count}")
        order = np.argsort(dest, kind="stable")
        sizes = np.bincount(dest, minlength=count)
        starts = np.cumsum(sizes) - sizes
        ranks = []  # (the groups with an r-th member, those members)
        for r in range(sizes.max(initial=0)):
            g = np.flatnonzero(sizes > r)
            ranks.append((g, order[starts[g] + r]))
        noise = np.zeros(count)
        for r, (g, src) in enumerate(ranks):
            noise[g] = (cts.noise_bits[src] if r == 0 else
                        np.logaddexp2(noise[g], cts.noise_bits[src]) + 1e-3)
        noise = self._bump_noise(cts, noise)
        col = self.params.q_col
        data = np.zeros((count, *cts.data.shape[1:]), dtype=np.uint64)
        for r, (g, src) in enumerate(ranks):
            data[g] = cts.data[src] if r == 0 else addmod(data[g], cts.data[src], col)
        self.counters["add_ct"] += len(cts) - int(np.count_nonzero(sizes))
        return Ciphertexts(self.params, data, noise)

    def add_plain_many(self, cts: Ciphertexts, vecs) -> Ciphertexts:
        """Slotwise plaintext additions, one stacked transform pass for all."""
        if len(cts) != len(vecs):
            raise ParameterError("ciphertext/vector count mismatch")
        par = self.params
        noise = self._bump_noise(cts, np.logaddexp2(cts.noise_bits, 1.0) + 1e-3)
        rows = par.rns().forward(
            _scaled_plain_rows_many(par, _as_slot_vectors(par, vecs)))
        data = cts.data.copy()
        for s in range(0, len(cts), _KS_BATCH):
            blk = slice(s, s + _KS_BATCH)
            data[blk, 0] = addmod(data[blk, 0], rows[blk], par.q_col)
        self.counters["add_plain"] += len(cts)
        return Ciphertexts(par, data, noise)

    def simd_scmult_many(self, cts: Ciphertexts, ws: PlainVecs) -> Ciphertexts:
        """Pairwise slotwise multiplies by encoded vectors."""
        if len(cts) != len(ws):
            raise ParameterError("ciphertext/weight count mismatch")
        par = self.params
        noise = self._bump_noise(
            cts, cts.noise_bits + ws.coeff_norm_bits + log2(par.n) + 1e-3)
        data = np.empty_like(cts.data)
        for s in range(0, len(cts), _KS_BATCH):
            blk = slice(s, s + _KS_BATCH)
            data[blk] = mulmod_shoup(cts.data[blk], ws.poly[blk, None],
                                     ws.twin[blk, None], par.q_col)
        self.counters["scmult"] += len(cts)
        return Ciphertexts(par, data, noise)

    # -- rotations -----------------------------------------------------------

    def col_rotate_many(self, cts: Ciphertexts, rs: Sequence[int]) -> Ciphertexts:
        """Rotate both hypercolumn rows of each ciphertext left by its r
        (cyclic within n/2), with one transform pass for the whole batch.

        The per-rotation key-switch needs an inverse and a forward NTT; on a
        diagonal sweep those dominate, so stack every ciphertext's digits and
        transform them together, then apply each rotation's own switch key.
        Digit j lifted back to prime j is the permuted c1 row j itself, so
        only the k(k-1) lifts into the other primes are transformed.  A
        rotation by 0 returns its ciphertext unchanged.
        """
        if len(cts) != len(rs):
            raise ParameterError("ciphertext/shift count mismatch")
        par = self.params
        rs = np.asarray(rs, dtype=np.int64) % par.row_size
        work = np.flatnonzero(rs)
        ts = [pow(3, int(r), 2 * par.n) for r in rs[work]]
        for t in ts:
            if t not in self.keys.galois:
                raise ParameterError(f"missing rotation key for Galois element {t}")
        noise = cts.noise_bits.copy()
        noise[work] = np.logaddexp2(noise[work], par.keyswitch_noise_bits) + 1e-3
        noise = self._bump_noise(cts, noise)
        data = cts.data.copy()
        if not ts:
            return Ciphertexts(par, data, noise)
        sm = par.slots()
        rns = par.rns()
        R, k = len(ts), par.k
        perms = np.stack([sm.perm(t) for t in ts])[:, None, None, :]
        a = np.take_along_axis(cts.data[work], perms, axis=3)
        a0, a1 = a[:, 0], a[:, 1]
        dig = rns.inverse(a1)
        # The switch sums, over offsets o, digit (i + o) mod k reduced mod
        # q_i times that digit's key (`KeySwitchKey.parts[:, o]`), at every
        # prime i at once.  Offset 0 is a1 itself; lifts[:, o - 1] holds the
        # other offsets, transformed.
        col, rows = par.q_col, np.arange(k)
        lifts = rns.forward(np.stack([dig[:, (rows + o) % k] % col
                                      for o in range(1, k)], axis=1))
        c1 = np.zeros_like(a0)
        for s in range(0, R, _KS_BATCH):
            blk = slice(s, s + _KS_BATCH)
            K = np.stack([self.keys.galois[t].parts for t in ts[blk]])
            for o in range(k):
                d = a1[blk] if o == 0 else lifts[blk, o - 1]
                a0[blk] = addmod(a0[blk], mulmod_shoup(d, K[:, 0, o], K[:, 1, o], col), col)
                c1[blk] = addmod(c1[blk], mulmod_shoup(d, K[:, 2, o], K[:, 3, o], col), col)
        data[work, 0] = a0
        data[work, 1] = c1
        self.counters["keyswitch"] += R
        self.counters["rotate"] += R
        return Ciphertexts(par, data, noise)


# ----------------------------------------------------------------------------
# serialization


def ct_nbytes(params: PaheParams, fresh: bool) -> int:
    """Wire size of one ciphertext: its c0, then the seed of its c1 if it
    is a fresh encryption, else its c1; each (k, n) half is b k n / 8
    bytes at the basis' width b (`PaheParams.residue_bits`)."""
    half = params.residue_bits * params.k * params.n // 8
    return half + (SEED_BYTES if fresh else half)


def le64(arr: np.ndarray) -> bytes:
    """An array's values as little-endian 64-bit words, in C order."""
    return np.ascontiguousarray(arr, dtype="<u8").tobytes()


def _runs(buf: np.ndarray, runs: int, width: int, r: int):
    """Value r of every run of 8 values that `buf`, a bit stream at
    `width` bits with 8 spare bytes after it, holds: each run is `width`
    bytes, and value r starts at bit s of byte o of its run, (o, s) =
    divmod(r width, 8).  The 8 bytes from there as a strided (runs,) view
    of unaligned 64-bit words, which hold the value's low 64 - s bits; and
    the ninth byte as a (runs,) uint8 view if the value reaches into it (a
    width past 57 bits), else None."""
    o, s = divmod(r * width, 8)
    low = np.ndarray((runs,), "<u8", buf, o, (width,))
    high = (np.ndarray((runs,), np.uint8, buf, o + 8, (width,))
            if s + width > 64 else None)
    return np.uint64(s), low, high


def _pack(values: np.ndarray, width: int) -> np.ndarray:
    """Rows of values below 2^width, (..., N) with 8 | N, as one
    little-endian bit stream, (..., N width / 8) uint8: value i of the
    stream takes its bits [i width, (i + 1) width).  Every row ends on a
    byte, so rows pack back to back with no pad bit.  A run of 8 values is
    `width` bytes, so value r of every run is one strided view
    (`_runs`), and a width of at least 8 keeps a view's words apart."""
    *lead, count = values.shape
    if count % 8 or not 8 <= width <= 62:
        raise ParameterError(f"rows of {count} values at {width} bits do "
                             f"not pack to whole bytes")
    runs = values.reshape(-1, 8)
    buf = np.zeros(len(runs) * width + 8, dtype=np.uint8)
    for r in range(8):
        s, low, high = _runs(buf, len(runs), width, r)
        low |= runs[:, r] << s
        if high is not None:
            high |= (runs[:, r] >> (np.uint64(64) - s)).astype(np.uint8)
    return buf[:-8].reshape(*lead, count * width // 8)


def _unpack(packed: np.ndarray, width: int) -> np.ndarray:
    """`_pack` undone: (..., N width / 8) uint8 bit streams, (..., N)
    uint64 values below 2^width."""
    *lead, nbytes = packed.shape
    if nbytes % width or not 8 <= width <= 62:
        raise ParameterError(f"{nbytes} bytes are no whole number of "
                             f"8-value runs at {width} bits")
    runs = packed.size // width
    buf = np.zeros(runs * width + 8, dtype=np.uint8)
    buf[:-8].reshape(packed.shape)[...] = packed
    out = np.empty((runs, 8), dtype=np.uint64)
    for r in range(8):
        s, low, high = _runs(buf, runs, width, r)
        np.right_shift(low, s, out=out[:, r])
        if high is not None:
            out[:, r] |= high.astype(np.uint64) << (np.uint64(64) - s)
    out &= np.uint64((1 << width) - 1)
    return out.reshape(*lead, 8 * nbytes // width)


def _residues(packed: np.ndarray, shape: tuple[int, ...],
              params: PaheParams) -> np.ndarray:
    """The residue array of exactly `shape` that `packed`, uint8 rows of
    bit streams at the basis' width, holds; the second-to-last axis runs
    over the primes, and every residue must be reduced mod its prime,
    which refuses any value in [q_i, 2^b) the width can carry."""
    arr = _unpack(packed, params.residue_bits).reshape(shape)
    if np.any(arr >= params.q_col):
        raise ProtocolError("residue not reduced mod its prime")
    return arr


def _seeded_from_bytes(buf, count: int, shape: tuple[int, ...],
                       params: PaheParams) -> tuple[np.ndarray, np.ndarray]:
    """`count` records back to back, each a residue array of `shape`
    packed at the basis' width and then a seed, from a buffer of exactly
    their size: the (count, *shape) residues, each reduced mod its prime,
    and the (count, SEED_BYTES) seeds."""
    size = params.residue_bits * prod(shape) // 8
    rec = np.frombuffer(buf, dtype=np.uint8).reshape(count, size + SEED_BYTES)
    return (_residues(rec[:, :size], (count, *shape), params),
            rec[:, size:].copy())


def _with_seeds(residues: np.ndarray, seeds: np.ndarray,
                params: PaheParams) -> bytes:
    """Records back to back, each a (..., k, n) residue array of the
    (B, ..., k, n) `residues` packed at the basis' width, then its seed;
    all B packed in one call."""
    packed = _pack(residues.reshape(len(residues), prod(residues.shape[1:])),
                   params.residue_bits)
    return np.hstack([packed, seeds]).tobytes()


def cts_to_bytes(cts: Ciphertexts) -> bytes:
    """The ciphertexts back to back: a fresh batch as each one's packed c0
    and its seed, any other as each one's packed c0 and c1 (`ct_nbytes`)."""
    if not cts.fresh:
        return _pack(cts.data.reshape(-1), cts.params.residue_bits).tobytes()
    return _with_seeds(cts.data[:, 0], cts.seeds, cts.params)


def cts_from_bytes(data, params: PaheParams, count: int, what: str, *,
                   fresh: bool) -> Ciphertexts:
    """Parse a batch from the peer that must hold exactly `count`
    ciphertexts under the session's `params`, and nothing after them, each
    `fresh` (its c0 and the seed of its c1, which this expands) or in full;
    `what` names it in errors.

    The wire carries no noise estimate: each ciphertext is given a fresh
    encryption's.  That is exact for every batch the server parses, which
    is fresh by construction: its c1's are the seeds' expansions, and its
    c0's the client's `encrypt_many`.  The client only decrypts what it
    parses, and an estimate sent with it would be nothing but the server's
    unverifiable claim.
    """
    size = ct_nbytes(params, fresh)
    if len(data) != count * size:
        raise ProtocolError(f"{what} needs {count} ciphertexts of {size} "
                            f"bytes, payload has {len(data)} bytes")
    k, n = params.k, params.n
    if fresh:
        c0, seeds = _seeded_from_bytes(data, count, (k, n), params)
        arr = np.stack([c0, expand_seeds(params, seeds)], axis=1)
    else:
        arr = _residues(np.frombuffer(data, dtype=np.uint8),
                        (count, 2, k, n), params)
    return Ciphertexts(params, arr, np.full(count, params.fresh_noise_bits))


def key_blob_nbytes(params: PaheParams, keys: int) -> int:
    """Wire size of a key blob with `keys` Galois keys: per key its (k, k, n)
    k0 digit stack, b k^2 n / 8 bytes at the basis' width b, and the seed
    of its k1 stack, and nothing else."""
    stack = params.residue_bits * params.k * params.k * params.n // 8
    return (stack + SEED_BYTES) * keys


def public_keys_to_bytes(km: KeyMaterial) -> bytes:
    """Each Galois key's packed k0 digit stack and k1 seed, in element
    order (`key_blob_nbytes`); the blob holds no encryption key."""
    keys = [km.galois[t] for t in sorted(km.galois)]
    if not keys:
        return b""
    return _with_seeds(np.stack([key.k0 for key in keys]),
                       np.stack([key.seed for key in keys]), km.params)


def public_keys_from_bytes(data, params: PaheParams,
                           elements: Sequence[int]) -> KeyMaterial:
    """Parse the peer's rotation keys under the session's `params`.  The
    blob holds a switch key for exactly the Galois elements `elements`, in
    that order, so its size is fixed: a missing or extra key is refused by
    length, before any seed is expanded or any key's Shoup twins are
    built."""
    k, n, g = params.k, params.n, len(elements)
    size = key_blob_nbytes(params, g)
    if len(data) != size:
        raise ProtocolError(f"key blob has {len(data)} bytes, the session's "
                            f"{g} Galois keys need {size}")
    k0, seeds = _seeded_from_bytes(data, g, (k, k, n), params)
    k1 = expand_seeds(params, seeds, (k,))
    galois = {t: KeySwitchKey.from_digits(a0, a1, params.q_col, seed)
              for t, a0, a1, seed in zip(elements, k0, k1, seeds)}
    return KeyMaterial(params, galois)
