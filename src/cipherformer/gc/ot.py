"""Oblivious transfer: elliptic-curve base OT plus IKNP extension,
semi-honest.

The evaluator's input labels come straight out of IKNP's correlated OT
(Asharov-Lindell-Schneider-Zohner, CCS 2013), in three phases so the heavy
parts run before the online phase starts:

  * once per client key set -- 128 base OTs (public-key) hand the IKNP
    sender, for each column j, one of the receiver's two 16-byte seeds,
    the one its choice bit s_j picks.  s is the garbling offset delta of
    every session that extends from these seeds, with the bit that becomes
    a label's colour forced to 1 (`COLOUR_COLUMN`), so 127 bits of it stay
    secret.
  * offline, every session -- each seed keys an AES-CTR column stream, and
    an extension of M OTs on random choice bits b_j takes the next
    `stream_blocks(M)` blocks of every stream from a stream position both
    parties keep: 0 in the session that ran the base OTs, then just past
    the blocks the sessions before took.  The receiver sends the
    correction columns and ends with rows t_j, the sender with rows
    q_j = t_j ^ b_j s.  Disjoint blocks make each session's columns fresh
    pseudorandom strings, so one set of base OTs extends any number of
    sessions (Ishai-Kilian-Nissim-Petrank, CRYPTO 2003); nothing a stream
    yields is used twice.
  * online -- the receiver reveals d_j = c_j ^ b_j for its real choice c_j
    (one bit per OT), and the sender takes L0_j = q_j ^ d_j delta as the
    zero label of that evaluator input.  The receiver's t_j = L0_j ^ c_j
    delta is already the label of c_j: nothing is sent back for it, and no
    row is hashed.

Both halves expand and transpose the columns `CHUNK_OTS` OTs at a time
into the rows they return, so neither holds a whole extension's columns
twice.

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
from ..prg import AesCtr

LAMBDA = 128
# OTs each half expands and transposes at a time: 8 KB of each column, a
# whole number of blocks, so every chunk starts on a block of the streams
CHUNK_OTS = 1 << 16
# column bytes the bit transpose flips at a time, 8192 OTs' worth, so its
# word arrays stay at 128 KB each
_SLAB = 1 << 10
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


def stream_blocks(M: int) -> int:
    """The AES blocks an extension of M OTs takes from every column stream,
    ceil(M / 8) bytes rounded up to whole 16-byte blocks: how far both
    parties move the stream position past one session."""
    return -(-M // 128)


# each step swaps the bits of a word that `mask` marks with the bits `shift`
# places below them; together they flip every 8 x 8 bit block of a word
# about its anti-diagonal: the bit at 8i + j moves to 8(7 - j) + (7 - i)
# (Hacker's Delight, section 7-3)
_ANTI_FLIP = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (36, 0xF0F0F0F000000000), (18, 0xCCCC0000CCCC0000),
    (9, 0xAA00AA00AA00AA00)))


def _transpose_bits(cols: np.ndarray, out: np.ndarray):
    """Rows 0 .. M-1 of the bit matrix whose columns `cols` holds, one
    `np.packbits` row of bytes per column, into `out`, (M, 2) uint64, each
    row a 128-bit label.

    Byte C of each of the columns 8R .. 8R+7 goes into one little-endian
    word, column 8R+i into byte i, so bit 8i + j of the word is the bit of
    column 8R+i at row 8C+7-j.  Flipped about its anti-diagonal, the word's
    byte i is byte R of row 8C+i's label, column 8R at its top bit, as
    `np.packbits` lays out a row.  The words of `_SLAB` column bytes at a
    time are flipped in place through one scratch array and gathered
    straight into `out`.
    """
    L, B = cols.shape
    M = len(out)
    rows = out.view(np.uint8)
    for lo in range(0, B, _SLAB):
        hi = min(lo + _SLAB, B)
        x = cols[:, lo:hi].reshape(L // 8, 8, hi - lo).transpose(0, 2, 1) \
            .copy().view("<u8")[..., 0]
        t = np.empty_like(x)
        for shift, mask in _ANTI_FLIP:
            np.left_shift(x, shift, out=t)
            t ^= x
            t &= mask
            x ^= t
            t >>= shift
            x ^= t
        n = min(8 * hi, M) - 8 * lo
        rows[8 * lo:8 * lo + n] = x.view(np.uint8).reshape(
            L // 8, hi - lo, 8).transpose(1, 2, 0).reshape(-1, L // 8)[:n]


def _chunks(mb: int):
    """The column byte ranges of `CHUNK_OTS` OTs each that cover mb bytes."""
    step = CHUNK_OTS // 8
    return ((lo, min(lo + step, mb)) for lo in range(0, mb, step))


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
    base OTs: it draws LAMBDA seed pairs here, or takes the column streams
    `streams` its seeds keyed in an earlier session's base OTs (the pair
    of `AesCtr`s, under seeds0 and seeds1); it expands them and sends the
    correction columns."""

    def __init__(self, rng: np.random.Generator,
                 streams: tuple[AesCtr, AesCtr] | None = None):
        self.rng = rng
        if streams is None:
            self._seeds = ([rng.bytes(16) for _ in range(LAMBDA)],
                           [rng.bytes(16) for _ in range(LAMBDA)])
            streams = (AesCtr(self._seeds[0]), AesCtr(self._seeds[1]))
        self.streams = streams

    def seed_messages(self, k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
        """Encrypt the seed pairs drawn here under the base-OT keys:
        (LAMBDA, 2, 2)."""
        out = np.empty((LAMBDA, 2, 2), dtype=np.uint64)
        for j in range(LAMBDA):
            for c, k in enumerate((k0, k1)):
                seed = np.frombuffer(self._seeds[c][j], dtype="<u8")
                out[j, c] = seed ^ k[j]
        return out

    def extend(self, M: int,
               start: int = 0) -> tuple[np.ndarray, RandomOtBatch]:
        """Pick random choice bits and build the correction columns to send,
        (LAMBDA, ceil(M / 8)) uint8, from block `start` of the column
        streams on."""
        mb = -(-M // 8)
        b = self.rng.integers(0, 2, 8 * mb, dtype=np.uint8)
        b_packed = np.packbits(b)
        # each row keeps room for `AesCtr.read`'s last whole block and slack
        u_buf = np.empty((LAMBDA, mb + 31), dtype=np.uint8)
        t = np.empty((M, 2), dtype=np.uint64)
        streams0, streams1 = self.streams
        for lo, hi in _chunks(mb):
            t_cols = streams0.read(start + lo // 16, hi - lo)
            u = streams1.read(start + lo // 16, hi - lo, out=u_buf[:, lo:])
            u ^= t_cols
            u ^= b_packed[lo:hi]
            _transpose_bits(t_cols, t[8 * lo:8 * hi])
            del t_cols   # before the next chunk's columns are read
        return u_buf[:, :mb], RandomOtBatch(b[:M], t)


class OtExtSender:
    """IKNP sender: base-OT receiver with secret s, the garbling offset.
    s is drawn here, or is that of an earlier session's base OTs, and then
    so are the column streams its chosen seeds keyed (`streams`)."""

    def __init__(self, rng: np.random.Generator,
                 s_bits: np.ndarray | None = None,
                 streams: AesCtr | None = None):
        if s_bits is None:
            s_bits = rng.integers(0, 2, LAMBDA, dtype=np.uint8)
            s_bits[COLOUR_COLUMN] = 1
        self.s_bits = s_bits
        self.streams = streams

    def recover_seeds(self, seed_msgs: np.ndarray, my_keys: np.ndarray):
        """Key the column streams with the seed each choice bit picks."""
        self.streams = AesCtr([
            _key_bytes(seed_msgs[j, int(self.s_bits[j])] ^ my_keys[j])
            for j in range(LAMBDA)])

    def receive_extension(self, u_cols: np.ndarray, M: int,
                          start: int = 0) -> RandomOtSenderBatch:
        """The rows q_j of the extension whose correction columns are
        `u_cols`, from block `start` of the column streams on."""
        q = np.empty((M, 2), dtype=np.uint64)
        flip = np.flatnonzero(self.s_bits)
        for lo, hi in _chunks(u_cols.shape[1]):
            q_cols = self.streams.read(start + lo // 16, hi - lo)
            for j in flip:
                q_cols[j] ^= u_cols[j, lo:hi]
            _transpose_bits(q_cols, q[8 * lo:8 * hi])
            del q_cols   # before the next chunk's columns are read
        delta = np.packbits(self.s_bits).view("<u8").astype(np.uint64)
        return RandomOtSenderBatch(q, delta)
