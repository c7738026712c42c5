"""Oblivious transfer: elliptic-curve base OT plus IKNP extension,
semi-honest.

The evaluator's input labels come straight out of IKNP's correlated OT
(Asharov-Lindell-Schneider-Zohner, CCS 2013), in two phases so the heavy
part runs before the online phase starts:

  * offline -- 128 base OTs (public-key) seed an IKNP extension of M OTs
    on random choice bits b_j.  The receiver ends with rows t_j, the sender
    with rows q_j = t_j ^ b_j s, s being its 128 base-OT choice bits.  s is
    the session's one garbling offset delta, with the bit that becomes a
    label's colour forced to 1 (`COLOUR_COLUMN`), so 127 bits of it stay
    secret.
  * online -- the receiver reveals d_j = c_j ^ b_j for its real choice c_j
    (one bit per OT), and the sender takes L0_j = q_j ^ d_j delta as the
    zero label of that evaluator input.  The receiver's t_j = L0_j ^ c_j
    delta is already the label of c_j: nothing is sent back for it, and no
    row is hashed.

Base OT is the Chou-Orlandi construction ("The Simplest Protocol for
Oblivious Transfer", LATINCRYPT 2015) over P-256: the sender publishes
A = aG; for choice c the receiver sends B = bG + cA; the sender's keys are
H(aB) and H(a(B - A)), the receiver's is H(bA).  Scalar multiplications
run in OpenSSL (key derivation and ECDH), the one point addition per OT in
Python ints.  H is SHA-256 over the OT index and the shared point's 32-byte
x-coordinate, cut to 128 bits, the wire-label width.  Points travel as
33-byte compressed SEC1, and every point a peer sends is checked to lie on
the curve; a sum that would be the identity or a doubling is refused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.asymmetric import ec

from ..errors import ProtocolError
from ..prg import aes_ctr

LAMBDA = 128
# the column of s that becomes bit 0 of word 0 of every row, a label's
# colour: `np.packbits` puts column 0 at the top bit of byte 0
COLOUR_COLUMN = 7

_CURVE = ec.SECP256R1()
# the P-256 field prime and group order (SEC 2, section 2.4.2)
_P = 2**256 - 2**224 + 2**192 + 2**96 - 1
_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
POINT_BYTES = 33


def _private_key(rng: np.random.Generator) -> ec.EllipticCurvePrivateKey:
    """A nonzero scalar from the session RNG: 320 bits reduced mod the
    group order, so the bias is below 2^-64."""
    while True:
        s = int.from_bytes(rng.bytes(40), "little") % _N
        if s:
            return ec.derive_private_key(s, _CURVE)


def _coords(key: ec.EllipticCurvePublicKey) -> tuple[int, int]:
    nums = key.public_numbers()
    return nums.x, nums.y


def _add(p1: tuple[int, int], p2: tuple[int, int]) -> tuple[int, int]:
    """Affine P1 + P2 for P1 != +-P2; the identity or a doubling is a peer's
    degenerate point, refused."""
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        raise ProtocolError("degenerate base-OT point sum")
    lam = (y2 - y1) * pow(x2 - x1, -1, _P) % _P
    x3 = (lam * lam - x1 - x2) % _P
    return x3, (lam * (x1 - x3) - y1) % _P


def _encode(point: tuple[int, int]) -> bytes:
    x, y = point
    return bytes([2 | (y & 1)]) + x.to_bytes(32, "big")


def decode_points(blob: bytes, count: int) -> list[ec.EllipticCurvePublicKey]:
    """Exactly `count` compressed points back to back, each on the curve."""
    if len(blob) != count * POINT_BYTES:
        raise ProtocolError(f"{count} base-OT points need "
                            f"{count * POINT_BYTES} bytes, got {len(blob)}")
    try:
        return [ec.EllipticCurvePublicKey.from_encoded_point(
                    _CURVE, blob[i:i + POINT_BYTES])
                for i in range(0, len(blob), POINT_BYTES)]
    except ValueError as exc:
        raise ProtocolError(f"base-OT point refused: {exc}") from None


def _hash_point(x: bytes, tag: int) -> np.ndarray:
    h = hashlib.sha256(tag.to_bytes(4, "little") + x).digest()
    return np.frombuffer(h[:16], dtype="<u8").astype(np.uint64)


class BaseOtSender:
    def __init__(self, rng: np.random.Generator):
        self._a = _private_key(rng)
        x, y = _coords(self._a.public_key())
        self._neg_a = (x, -y % _P)
        self.msg_a = _encode((x, y))

    def keys(self, msgs_b: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Derive both keys per OT from the receiver's points: (k0, k1),
        each (LAMBDA, 2) uint64."""
        ecdh = ec.ECDH()
        k0 = np.empty((LAMBDA, 2), dtype=np.uint64)
        k1 = np.empty_like(k0)
        for i, B in enumerate(decode_points(msgs_b, LAMBDA)):
            x, y = _add(_coords(B), self._neg_a)
            b_minus_a = ec.EllipticCurvePublicNumbers(x, y, _CURVE).public_key()
            k0[i] = _hash_point(self._a.exchange(ecdh, B), i)
            k1[i] = _hash_point(self._a.exchange(ecdh, b_minus_a), i)
        return k0, k1


class BaseOtReceiver:
    def __init__(self, rng: np.random.Generator, choices: np.ndarray,
                 msg_a: bytes):
        (self._A,) = decode_points(msg_a, 1)
        a_point = _coords(self._A)
        self.choices = np.asarray(choices, dtype=np.uint8)
        self._bs = [_private_key(rng) for _ in range(self.choices.size)]
        b_points = [_coords(b.public_key()) for b in self._bs]
        self.msgs_b = b"".join(_encode(_add(bg, a_point) if c else bg)
                               for bg, c in zip(b_points, self.choices))

    def keys(self) -> np.ndarray:
        ecdh = ec.ECDH()
        out = np.empty((self.choices.size, 2), dtype=np.uint64)
        for i, b in enumerate(self._bs):
            out[i] = _hash_point(b.exchange(ecdh, self._A), i)
        return out


def _key_bytes(k: np.ndarray) -> bytes:
    return np.ascontiguousarray(k, dtype="<u8").tobytes()


# each step swaps the bits of a word that `mask` marks with the bits `shift`
# places below them; together they flip every 8 x 8 bit block of a word
# about its anti-diagonal: the bit at 8i + j moves to 8(7 - j) + (7 - i)
# (Hacker's Delight, section 7-3)
_ANTI_FLIP = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (36, 0xF0F0F0F000000000), (18, 0xCCCC0000CCCC0000),
    (9, 0xAA00AA00AA00AA00)))


def _transpose_bits(cols: np.ndarray, M: int) -> np.ndarray:
    """Rows 0 .. M-1 of the bit matrix whose columns `cols` holds, one
    `np.packbits` row of bytes per column, each row as a 128-bit label:
    (M, 2) uint64.

    Byte C of each of the columns 8R .. 8R+7 goes into one little-endian
    word, column 8R+i into byte i, so bit 8i + j of the word is the bit of
    column 8R+i at row 8C+7-j.  Flipped about its anti-diagonal, the word's
    byte i is byte R of row 8C+i's label, column 8R at its top bit, as
    `np.packbits` lays out a row.  No array holds more than 16 bytes a row.
    """
    L, B = cols.shape
    x = cols.reshape(L // 8, 8, B).transpose(0, 2, 1).copy().view("<u8")[..., 0]
    # in place, through one scratch word array freed before the gather, so
    # the transpose holds two 16-byte arrays a row at most
    t = np.empty_like(x)
    for shift, mask in _ANTI_FLIP:
        np.left_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t >>= shift
        x ^= t
    del t
    rows = np.ascontiguousarray(
        x.view(np.uint8).reshape(L // 8, B, 8).transpose(1, 2, 0))
    return rows.reshape(8 * B, L // 8).view("<u8")[:M].astype(np.uint64,
                                                              copy=False)


@dataclass
class RandomOtBatch:
    """Receiver side of M correlated OTs after extension."""

    b: np.ndarray          # (M,) uint8 random choice bits
    t: np.ndarray          # (M, 2) uint64: the rows, each the label of c_j
    _used: int = 0

    def derand_request(self, c_bits: np.ndarray) -> np.ndarray:
        """d_j = c_j ^ b_j for the next OTs, one per choice bit."""
        c = np.asarray(c_bits, dtype=np.uint8).ravel()
        lo = self._used
        if lo + c.size > self.b.size:
            raise ProtocolError("random OT supply exhausted")
        return c ^ self.b[lo:lo + c.size]

    def derand_finish(self, c_bits: np.ndarray) -> np.ndarray:
        """The labels of the choices just requested, (count, 2): the rows
        t_j of those OTs, which it consumes."""
        lo = self._used
        self._used = lo + np.size(c_bits)
        return self.t[lo:self._used]


@dataclass
class RandomOtSenderBatch:
    """Sender side of M correlated OTs: q_j = t_j ^ b_j delta."""

    q: np.ndarray          # (M, 2)
    delta: np.ndarray      # (2,): s, its colour bit 1
    _used: int = 0

    def derand_respond(self, d_bits: np.ndarray) -> np.ndarray:
        """The zero labels L0_j = q_j ^ d_j delta of the next OTs, (count,
        2), one per derandomization bit; the receiver holds the label
        L0_j ^ c_j delta = t_j of its choice c_j."""
        d = np.asarray(d_bits, dtype=np.uint64).ravel()
        lo = self._used
        if lo + d.size > self.q.shape[0]:
            raise ProtocolError("random OT supply exhausted")
        self._used = lo + d.size
        return self.q[lo:self._used] ^ d[:, None] * self.delta


class OtExtReceiver:
    """IKNP receiver (will obtain the extended OTs).  Acts as *sender* in the
    base OTs: samples seed pairs, then expands and sends the correction
    matrix."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._seeds0 = [rng.bytes(16) for _ in range(LAMBDA)]
        self._seeds1 = [rng.bytes(16) for _ in range(LAMBDA)]

    def seed_messages(self, k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
        """Encrypt the seed pairs under the base-OT keys: (LAMBDA, 2, 2)."""
        out = np.empty((LAMBDA, 2, 2), dtype=np.uint64)
        for j in range(LAMBDA):
            s0 = np.frombuffer(self._seeds0[j], dtype="<u8").astype(np.uint64)
            s1 = np.frombuffer(self._seeds1[j], dtype="<u8").astype(np.uint64)
            out[j, 0] = s0 ^ k0[j]
            out[j, 1] = s1 ^ k1[j]
        return out

    def extend(self, M: int) -> tuple[np.ndarray, RandomOtBatch]:
        """Pick random choice bits, build the correction matrix to send."""
        Mb = -(-M // 8) * 8
        b = self.rng.integers(0, 2, Mb, dtype=np.uint8)
        t_cols = aes_ctr(self._seeds0, Mb // 8)
        u_cols = aes_ctr(self._seeds1, Mb // 8)
        u_cols ^= t_cols
        u_cols ^= np.packbits(b)
        return u_cols, RandomOtBatch(b[:M], _transpose_bits(t_cols, M))


class OtExtSender:
    """IKNP sender: base-OT receiver with secret s, the garbling offset."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.s_bits = rng.integers(0, 2, LAMBDA, dtype=np.uint8)
        self.s_bits[COLOUR_COLUMN] = 1

    def recover_seeds(self, seed_msgs: np.ndarray, my_keys: np.ndarray):
        self._seeds = []
        for j in range(LAMBDA):
            enc = seed_msgs[j, int(self.s_bits[j])]
            self._seeds.append(_key_bytes(enc ^ my_keys[j]))

    def receive_extension(self, u_cols: np.ndarray, M: int) -> RandomOtSenderBatch:
        q_cols = aes_ctr(self._seeds, u_cols.shape[1])
        for j in np.flatnonzero(self.s_bits):
            q_cols[j] ^= u_cols[j]
        delta = np.packbits(self.s_bits).view("<u8").astype(np.uint64)
        return RandomOtSenderBatch(_transpose_bits(q_cols, M), delta)
