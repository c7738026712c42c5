"""Oblivious transfer: elliptic-curve base OT plus SoftSpokenOT extension,
semi-honest.

The evaluator's input labels come straight out of a correlated OT with
IKNP's correlation q_j = t_j ^ b_j s (Ishai-Kilian-Nissim-Petrank, CRYPTO
2003; Asharov-Lindell-Schneider-Zohner, CCS 2013), extended by SoftSpokenOT
(Roy, CRYPTO 2022, ePrint 2022/192), which sends LAMBDA / K - 1 correction
columns where IKNP sends LAMBDA: 31 bits an OT at K = 4, not 128.  It runs
in three phases so the heavy parts run before the online phase starts:

  * once per client key set -- s, the garbling offset delta of every
    session that extends from this set-up, splits into LAMBDA / K chunks of
    K bits, chunk i read as the integer d_i whose bit y is column K i + y
    of s.  For each chunk the client expands a GGM tree of 2^K leaves from
    a root of its own (`_children`), and the 128 base OTs (public-key)
    carry its levels: base OT K i + y carries the level of tree i that
    branches on bit y of a leaf's index.  The client sends both of that
    level's sums (the XOR of its left children, of its right children),
    the sum of side 1 - c masked under base-OT key c; the server, whose
    choice is bit y of d_i, learns the sum off the path to leaf d_i, and
    from the K sums rebuilds every leaf of tree i but leaf d_i.  The bit
    of s that becomes a label's colour is forced to 1 (`COLOUR_COLUMN`),
    so 127 bits of it stay secret.
  * offline, every session -- each leaf x yields a column stream r_x
    under the trees' fixed-key permutation pi (`_stream`): block j is
    pi(x ^ t_j) ^ x, single-key Even-Mansour in counter mode, and no leaf
    keys an AES.  An extension of M OTs takes the next `stream_blocks(M)`
    blocks of every stream from a stream position both parties keep: 0 in
    the session that ran the base OTs, then just past the blocks the
    sessions before took.  Per tree the client takes u_i = XOR_x r_x and
    the K columns v_i = XOR_x x r_x (column y the XOR of the r_x with bit
    y of x set); the server, holding every r_x but r_{d_i}, takes
    w_i = XOR_{x != d_i} (x ^ d_i) r_x = v_i ^ d_i u_i.  The choice bits
    are b = u_0, and the client sends c_i = u_i ^ b for every other tree,
    so the server's w_i ^ d_i c_i = v_i ^ d_i b: with the v_i as the
    columns of the client's rows t_j, the server's rows are
    q_j = t_j ^ b_j s.  Disjoint blocks make each session's columns fresh
    pseudorandom strings, so one set of base OTs extends any number of
    sessions; nothing a stream yields is used twice.
  * online -- the receiver reveals d_j = c_j ^ b_j for its real choice c_j
    (one bit per OT), and the sender takes L0_j = q_j ^ d_j delta as the
    zero label of that evaluator input.  The receiver's t_j = L0_j ^ c_j
    delta is already the label of c_j: nothing is sent back for it, and no
    row is hashed.

K trades bytes for reads: the client reads 2^K LAMBDA / K leaf streams
and the server (2^K - 1) LAMBDA / K every session, and neither sets up a
key for them.  K = 4 ships: 31 columns an OT against 63 at K = 2, for 512
streams on the client and 480 on the server against 256 and 192.  On one
core of a 2-vCPU Xeon, an extension of 69,248 OTs (8,656 column bytes,
he-small's) spent 1.9 ms of the client's 4.7 ms reading streams at K = 4
and the server 1.8 of 4.5 ms, against 1.0 of 3.4 ms and 0.8 of 3.0 ms at
K = 2; one of 5,440 OTs (tiny's) 0.15 of 0.44 ms and 0.15 of 0.48 ms at
K = 4, against 0.09 of 0.30 ms and 0.07 of 0.34 ms at K = 2.  The keyed
AES-CTR streams these replaced set up one key a leaf per fresh key set,
13-18 us each, which held K at 2 while they stood.  K = 8 would send 15
columns but read 4,096 streams on the client.

Both halves read and combine the streams of a few trees at a time (at most
`_LEAF_BYTES` of them a chunk) and transpose the columns `CHUNK_OTS` OTs
at a time into the rows they return, so neither holds a whole extension's
columns twice.

Security (semi-honest).  There is no consistency check: a client that
sends c_i other than u_i ^ b could learn bits of s, so this holds only
against a client that follows the protocol, as the rest of the session
does.  The GGM tree's PRG is G(x) = (H(x), H(x ^ tau)) with
H(x) = pi(x) ^ x, pi being AES under a fixed public key, one batched ECB
call per level, as libOTe's PPRF builds its trees; that G is a PRG rests on
pi being an ideal (random) permutation, the assumption the garbling's
fixed-key hash also makes (`gc.garble`; Guo-Katz-Wang-Yu, S&P 2020).  The
leaf streams rest on it too: block j of leaf x is pi(x ^ t_j) ^ x, the
tweak t_j holding j in its low word and, in its high word, the tree from
bit 32, the leaf's index below it and a domain bit (`_STREAM`) that the
trees' tweaks, 0 and tau, never set: no stream tweak is a tree's, and no
two blocks of a party's streams share one.  A leaf is a uniform secret
key to whoever does not hold it, and single-key Even-Mansour (Even and
Mansour, ASIACRYPT 1991; Dunkelman-Keller-Shamir, EUROCRYPT 2012) over D
blocks is pseudorandom against Q queries to pi up to an advantage of
about D Q / 2^128.  D is bounded: no session starts at or past stream
position `MAX_POSITION` = 2^29 (`gc.garble`), and a session takes at most
`stream_blocks(MAX_OTS)` = 2^17 blocks of a leaf (`protocol.session`),
so a leaf gives under 2^29 + 2^17 blocks, and the 512 leaves of a key set
under 2^38 + 2^26; the counter stays far below 2^64.

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
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from ..errors import ProtocolError

LAMBDA = 128
# bits of s under one punctured GGM tree, SoftSpokenOT's k (see above)
K = 4
# the correction columns the client sends, one per tree but the first
COLUMNS = LAMBDA // K - 1
# bytes of leaf streams either half reads and combines at a time
# (`_groups`): a read's ECB output is one fresh `bytes`, and past 128 KiB
# (glibc's default mmap threshold) each faults its pages in anew: on one
# core of a 2-vCPU Xeon a read of 512 KiB took 530 us, four of 128 KiB
# 240 us
_LEAF_BYTES = 1 << 17
# OTs each half expands and transposes at a time: 8 KB of each column, a
# whole number of blocks, so every chunk starts on a block of the streams
CHUNK_OTS = 1 << 16
# column bytes the bit transpose flips at a time, 8192 OTs' worth, so its
# word arrays stay at 128 KB each
_SLAB = 1 << 10
# the column of s that becomes bit 0 of word 0 of every row, a label's
# colour: `np.packbits` puts column 0 at the top bit of byte 0
COLOUR_COLUMN = 7
# the GGM trees' fixed AES key, public: their PRG needs pi to be a random
# permutation, not a secret one; it is not the garbling hash's key
_GGM = Cipher(algorithms.AES(bytes(range(16, 32))), modes.ECB())
# tau, XORed into a node to hash its right child
_RIGHT = np.array([0, 1 << 63], dtype=np.uint64)
# the domain bit of every leaf stream's tweak, in its high word: the trees'
# tweaks, 0 and tau, never set it
_STREAM = np.uint64(1 << 62)
# one AES block, a node or a leaf, as one element
_BLOCK = np.dtype((np.void, 16))

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


def _children(nodes: np.ndarray, aes) -> np.ndarray:
    """The children of GGM nodes (T, n, 2), (T, 2n, 2): node j's children
    are 2j, H(node), and 2j + 1, H(node ^ tau), H(x) = pi(x) ^ x, all
    through one call of the open fixed-key ECB encryptor `aes`."""
    x = np.repeat(nodes, 2, axis=1)
    x[:, 1::2] ^= _RIGHT
    x ^= np.frombuffer(aes.update(x.tobytes()), dtype="<u8").reshape(x.shape)
    return x


def _level_sums(nodes: np.ndarray) -> np.ndarray:
    """The XOR of the left children and of the right children of one level
    of nodes (T, n, 2): (T, 2, 2)."""
    return np.bitwise_xor.reduce(nodes.reshape(len(nodes), -1, 2, 2), axis=1)


def _groups(trees: int, n: int) -> list[tuple[int, int]]:
    """The trees whose streams a chunk of n column bytes reads and combines
    at a time, as (first, last) ranges: a group's streams take at most
    `_LEAF_BYTES`, or one tree's where that alone takes more."""
    size = max(1, min(trees, _LEAF_BYTES // (16 * -(-n // 16) << K)))
    return [(i, min(i + size, trees)) for i in range(0, trees, size)]


def _tweaks(index: np.ndarray) -> np.ndarray:
    """The high words of the stream tweaks of leaf index[i, l] of tree i,
    (trees, L) uint64: the domain bit, the tree, the leaf."""
    trees = np.arange(len(index), dtype=np.uint64)[:, None]
    return _STREAM | trees << np.uint64(32) | index.astype(np.uint64)


def _stream(leaves: np.ndarray, tweaks: np.ndarray, start: int,
            blocks: int) -> np.ndarray:
    """Blocks start .. start + blocks - 1 of the column streams of `leaves`
    (G, L, 2), whose high tweak words are `tweaks` (G, L): block j of leaf x
    is pi(x ^ t) ^ x, t = (j, its tweak word), as a writable (G, L, 16
    blocks) uint8 array, through one fresh fixed-key ECB encryptor.  Each
    XOR with the leaves is a copy of a leaf per block (`_BLOCK`) and one
    XOR of whole rows: ten times faster than a broadcast 16-byte XOR."""
    ctr = np.zeros((blocks, 2), dtype=np.uint64)
    ctr[:, 0] = np.arange(start, start + blocks, dtype=np.uint64)
    keyed = leaves.copy()
    keyed[..., 1] ^= tweaks
    x = np.empty(leaves.shape[:2] + (blocks, 2), dtype=np.uint64)
    spread = x.view(_BLOCK)[..., 0]
    spread[...] = keyed.view(_BLOCK)
    x ^= ctr
    pi = _GGM.encryptor().update(x.view(np.uint8))
    spread[...] = leaves.view(_BLOCK)
    x ^= np.frombuffer(pi, dtype="<u8").reshape(x.shape)
    return x.view(np.uint8).reshape(*leaves.shape[:2], 16 * blocks)


def _vole(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each tree's streams `rows`, (G, R, n), the last R of the 2^K
    indices (row z - 2^K + R holding index z), the columns v_y, the XOR of
    its rows whose index has bit y set, into `v`, (G, K, n); returns row 0,
    u, the XOR of a tree's rows where R = 2^K.  It folds `rows` in place,
    top bit first: once v_y is read off the rows with bit y set, they are
    XORed onto the rows without, which leaves the same v below y.  Index
    0, which no v reads, may be missing: a punctured tree's."""
    o = (1 << K) - rows.shape[1]
    for y in reversed(range(K)):
        half = 1 << y
        np.bitwise_xor.reduce(rows[:, half - o:2 * half - o], axis=1,
                              out=v[:, y])
        rows[:, :half - o] ^= rows[:, half:2 * half - o]
    return rows[:, 0]


@dataclass
class RandomOtBatch:
    """Receiver side of M correlated OTs after extension."""

    b: np.ndarray          # (M,) uint8 pseudorandom choice bits, u_0
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
    """SoftSpokenOT receiver (will obtain the extended OTs).  Acts as
    *sender* in the base OTs: it draws LAMBDA / K tree roots here and
    expands their GGM trees, or takes the leaves of an earlier session's
    trees; `leaves`, (LAMBDA / K, 2^K, 2) uint64, read-only, holds each
    tree's leaves in order.  It reads and combines their column streams and
    sends the correction columns."""

    def __init__(self, rng: np.random.Generator,
                 leaves: np.ndarray | None = None):
        if leaves is None:
            nodes = np.frombuffer(rng.bytes(16 * (LAMBDA // K)),
                                  dtype="<u8").reshape(-1, 1, 2)
            aes, sums = _GGM.encryptor(), []
            for _ in range(K):
                nodes = _children(nodes, aes)
                sums.append(_level_sums(nodes))
            # (LAMBDA / K, K, 2, 2): by tree, then by the leaf bit its level
            # branches on, the top level branching on the top bit
            self._sums = np.stack(sums[::-1], axis=1)
            leaves = nodes
            leaves.flags.writeable = False
        self.leaves = leaves

    def seed_messages(self, k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
        """Every tree level's two sums under the base-OT keys, (LAMBDA, 2,
        2): base OT K i + y carries the level of tree i that branches on
        bit y, the sum of side 1 - c under key c, so a choice of bit y of
        d_i learns the sum of the side off the path to leaf d_i."""
        return (self._sums.reshape(LAMBDA, 2, 2)[:, ::-1]
                ^ np.stack([k0, k1], axis=1))

    def extend(self, M: int,
               start: int = 0) -> tuple[np.ndarray, RandomOtBatch]:
        """Derive the choice bits b = u_0 and build the correction columns
        to send, (LAMBDA / K - 1, ceil(M / 8)) uint8, from block `start` of
        the column streams on."""
        mb = -(-M // 8)
        trees = len(self.leaves)
        c = np.empty((trees - 1, mb), dtype=np.uint8)
        b = np.empty(mb, dtype=np.uint8)
        t = np.empty((M, 2), dtype=np.uint64)
        tweaks = _tweaks(np.tile(np.arange(1 << K), (trees, 1)))
        for lo, hi in _chunks(mb):
            n = hi - lo
            t_cols = np.empty((LAMBDA, n), dtype=np.uint8)
            u = np.empty((trees, n), dtype=np.uint8)
            for first, last in _groups(trees, n):
                rows = _stream(self.leaves[first:last], tweaks[first:last],
                               start + lo // 16, -(-n // 16))
                u[first:last] = _vole(rows[..., :n],
                                      t_cols.reshape(trees, K, n)[first:last])
            b[lo:hi] = u[0]
            np.bitwise_xor(u[1:], u[0], out=c[:, lo:hi])
            _transpose_bits(t_cols, t[8 * lo:8 * hi])
            del t_cols   # before the next chunk's columns are made
        return c, RandomOtBatch(np.unpackbits(b, count=M), t)


class OtExtSender:
    """SoftSpokenOT sender: base-OT receiver with secret s, the garbling
    offset.  s is drawn here, or is that of an earlier session's base OTs,
    and then so are the leaves of its punctured trees: `leaves`,
    (LAMBDA / K, 2^K - 1, 2) uint64, read-only, whose row y - 1 of tree i
    is leaf y ^ d_i for y = 1 .. 2^K - 1, every leaf but d_i."""

    def __init__(self, rng: np.random.Generator,
                 s_bits: np.ndarray | None = None,
                 leaves: np.ndarray | None = None):
        if s_bits is None:
            s_bits = rng.integers(0, 2, LAMBDA, dtype=np.uint8)
            s_bits[COLOUR_COLUMN] = 1
        self.s_bits = s_bits
        self.leaves = leaves

    def punctures(self) -> np.ndarray:
        """d_i, the leaf of tree i the server lacks: chunk i of s, whose
        bit y is column K i + y."""
        return self.s_bits.reshape(-1, K).astype(np.int64) @ (
            1 << np.arange(K))

    def recover_seeds(self, seed_msgs: np.ndarray, my_keys: np.ndarray):
        """Rebuild every leaf of each tree but leaf d_i, a level at a time
        from the sums each choice bit picks."""
        trees = np.arange(LAMBDA // K)
        d = self.punctures()
        got = (seed_msgs[np.arange(LAMBDA), self.s_bits]
               ^ my_keys).reshape(-1, K, 2)
        aes = _GGM.encryptor()
        nodes = np.zeros((trees.size, 1, 2), dtype=np.uint64)
        for y in reversed(range(K)):
            # every known node's children are right; the unknown node's two
            # are cleared, then its child off the path is its level's sum
            # on that side less the known nodes there
            nodes = _children(nodes, aes)
            path = d >> y
            nodes[trees, path] = nodes[trees, path ^ 1] = 0
            side = _level_sums(nodes)[trees, (path & 1) ^ 1]
            nodes[trees, path ^ 1] = got[:, y] ^ side
        self.leaves = nodes[trees[:, None], d[:, None] ^ np.arange(1, 1 << K)]
        self.leaves.flags.writeable = False

    def receive_extension(self, c_cols: np.ndarray, M: int,
                          start: int = 0) -> RandomOtSenderBatch:
        """The rows q_j of the extension whose correction columns are
        `c_cols`, from block `start` of the column streams on."""
        q = np.empty((M, 2), dtype=np.uint64)
        # column K i + y takes c_i where bit y of d_i is set; tree 0 sent
        # none, its u_0 being b
        flip = np.flatnonzero(self.s_bits[K:]) + K
        mb = c_cols.shape[1]
        trees = len(self.leaves)
        tweaks = _tweaks(self.punctures()[:, None] ^ np.arange(1, 1 << K))
        for lo, hi in _chunks(mb):
            n = hi - lo
            q_cols = np.empty((LAMBDA, n), dtype=np.uint8)
            for first, last in _groups(trees, n):
                rows = _stream(self.leaves[first:last], tweaks[first:last],
                               start + lo // 16, -(-n // 16))
                _vole(rows[..., :n], q_cols.reshape(trees, K, n)[first:last])
            for j in flip:
                q_cols[j] ^= c_cols[j // K - 1, lo:hi]
            _transpose_bits(q_cols, q[8 * lo:8 * hi])
            del q_cols   # before the next chunk's columns are made
        delta = np.packbits(self.s_bits).view("<u8").astype(np.uint64)
        return RandomOtSenderBatch(q, delta)
