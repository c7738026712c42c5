"""Half-gates garbling over the two-op circuit IR.

Costs: XOR gates are free (labels just XOR), each AND gate emits exactly two
16-byte rows.  NOT/constants are XORs with the constant wires.  The garbler
knows its own input bits when it garbles, so it hardcodes them and the
constants into the labelling: each of those wires has the all-zero
active label, and no label of the garbler's travels (`garble`).

Labels are 128-bit, stored as (..., 2) uint64 little-halves-first.  One
offset `delta` serves every garbling of every session that extends one set
of base OTs: it is the OT-extension sender's s (`gc.ot`), whose low bit is
forced to 1 so the label's low bit serves as the point-and-permute color,
and the OT fixes the evaluator's input labels under it.  The gate hash is the
standard fixed-key AES construction H(X, t) = AES(2X ^ t) ^ 2X ^ t, with
tweaks unique per (stream position, layer, stage, instance, AND, half)
under one delta (`tweak_namespace`), the stream position being where the
session starts in the OT column streams; instances are independent
garblings of the same topology.

Garbling and evaluation walk every circuit of a stage at once
(`circuit.Schedule`): the circuits' labels are one (W, E, 2) array, and
level i of the walk is level i of every circuit, so a stage costs as many
level visits as its deepest circuit, not their sum.  At each level, all
XOR gates are one gather-XOR-scatter and all AND gates of all circuits and
instances one AES call; the garbler doubles the two zero labels of each
AND once and gets the other two by XORing in 2 delta, and writes both of
its table rows as one slice.  The walk is the unit of garbling: AND j of
the walk order has tweaks 2j and 2j+1 and table row j, and output i has
pad tweak i under the B2A flag, so a stage's tables are one block, AND by
AND in walk order, under one `tweak_namespace`.

Everything here is semi-honest: evaluation trusts the tables.  Outputs are
never decoded to bits: label-keyed pads and one correction word per output
bit turn it into additive shares of bit * weight mod p (`b2a_corrections`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from ..errors import CircuitError
from ..ntt import addmod, reduce128, submod
from .circuit import Schedule

_FIXED_KEY = bytes(range(16))
_AES = Cipher(algorithms.AES(_FIXED_KEY), modes.ECB())

_GF_POLY = np.uint64(0x87)
_ONE = np.uint64(1)
_SHIFT63 = np.uint64(63)


def _double(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply by x in GF(2^128) (poly x^128 + x^7 + x^2 + x + 1), into
    `out` if given."""
    carry = x >> _SHIFT63
    out = np.left_shift(x, _ONE, out=out)
    out[..., 1] |= carry[..., 0]
    out[..., 0] ^= carry[..., 1] * _GF_POLY
    return out


def _hash(aes, doubled: np.ndarray, tweaks: np.ndarray) -> np.ndarray:
    """H(X, t) = pi(2X ^ t) ^ (2X ^ t), pi being fixed-key AES, of the
    labels X whose doubles are `doubled` under tweaks that broadcast
    against them, through an open ECB encryptor, which keeps no state
    between calls, so one walk sets up AES once.  `doubled` must have the
    broadcast shape; it is overwritten with the result."""
    t = np.bitwise_xor(doubled, tweaks, out=doubled)
    raw = aes.update(t.tobytes())
    return np.bitwise_xor(t, np.frombuffer(raw, dtype="<u8").reshape(t.shape),
                          out=t)


# the low tweak word's bits from POSITION_SHIFT up to the B2A flag hold the
# session's stream position; AND tweaks and output indices stay below 2^27
# (see `garble`)
POSITION_SHIFT = 32
# the stream positions a session under one offset delta can start at: what
# those 29 bits hold
MAX_POSITION = 1 << 29
_WORD = (1 << 64) - 1


def tweak_namespace(layer: int, stage: int, position: int = 0) -> int:
    """The tweak bits of stage `stage` of encoder layer `layer`, in the
    session that starts at block `position` of the OT column streams under
    its offset delta, as one 128-bit int, high word << 64 | low word:
    (layer, stage) in the high word above its 32 instance bits, the stream
    position in the low word above the AND and output indices.  Every
    session under one delta starts at its own position, past the blocks
    the sessions before it took, so each stage walk under one delta gets
    its own namespace, from the plan and the position alone, and both
    parties derive it; position 0, the session that ran the base OTs,
    leaves the low word clear."""
    if not (0 <= layer < 1 << 16 and 0 <= stage < 1 << 8
            and 0 <= position < MAX_POSITION):
        raise CircuitError("garbling namespace out of range")
    return (layer << 8 | stage) << 96 | position << POSITION_SHIFT


def _tweaks(low: np.ndarray, instances: int, namespace: int) -> np.ndarray:
    """Tweaks (..., E, 2) of labels' low words `low`: the low word ORed
    with the low word of `namespace`, its high word with the instance in
    the high."""
    tw = np.empty(low.shape + (instances, 2), dtype=np.uint64)
    tw[..., 0] = (low | np.uint64(namespace & _WORD))[..., None]
    tw[..., 1] = (np.uint64(namespace >> 64)
                  | np.arange(instances, dtype=np.uint64))
    return tw


# AND instances whose tweaks a walk builds at a time (256 KB of them): a
# level at a time would cost more numpy calls than the level's hashing on
# the narrow levels of a row divider, a walk at a time a table-sized array
_TWEAK_BLOCK = 1 << 13


def _level_tweaks(sched: Schedule, instances: int, namespace: int):
    """The tweaks (2, K, E, 2) of each level's K ANDs `lv.ands`, level by
    level: 2j and 2j+1 for AND j of the walk order.  They are built for
    runs of whole levels of at most `_TWEAK_BLOCK` AND instances at once,
    or for one level where it alone holds more."""
    levels, i = sched.levels, 0
    while i < len(levels):
        lo, end = levels[i].ands.start, i + 1
        while (end < len(levels) and (levels[end].ands.stop - lo) * instances
               <= _TWEAK_BLOCK):
            end += 1
        j = np.arange(lo, levels[end - 1].ands.stop, dtype=np.uint64)
        run = _tweaks(np.stack([2 * j, 2 * j + _ONE]), instances, namespace)
        for lv in levels[i:end]:
            yield run[:, lv.ands.start - lo:lv.ands.stop - lo]
        i = end


# the low-word flag of the label-keyed pads' tweaks, above the position bits
_B2A_NS = np.uint64(1) << np.uint64(61)


def _colour(labels: np.ndarray) -> np.ndarray:
    """The colour bit of (..., 2) labels in both words, (..., 2)."""
    return np.repeat(labels[..., :1] & _ONE, 2, axis=-1)


@dataclass
class Garbling:
    """Garbler-side result of one walk: E independent instances of each
    circuit of a schedule."""

    schedule: Schedule
    delta: np.ndarray            # (2,) the garbling offset
    namespace: int               # the walk's tweak namespace
    wire0: np.ndarray            # (W, E, 2) zero-labels for every wire
    tables: np.ndarray           # (n_and, E, 2, 2) the two rows per AND


def _folded_pads(sched: Schedule, labels: np.ndarray, namespace: int,
                 p: int) -> np.ndarray:
    """F(L): the pads of output labels (..., n_out, E, 2) of the walk
    `sched`, under tweaks unique per (output, instance) in `namespace`,
    folded to (lo + 2^64 hi) mod p."""
    index = np.arange(sched.outputs.size, dtype=np.uint64)
    pads = _hash(_AES.encryptor(), _double(labels),
                 _tweaks(_B2A_NS | index, labels.shape[-2], namespace))
    return reduce128(pads[..., 1], pads[..., 0], p)


def b2a_corrections(gb: Garbling, weights: np.ndarray,
                    p: int) -> tuple[np.ndarray, np.ndarray]:
    """Garbler half of the free B2A: (c, t), each (n_out, E) below p.

    For output wire i with colour-0 label L0 standing for the value b0, and
    colour-1 label L1 = L0 ^ delta, the evaluator holding L gets the share
    s = F(L) + colour(L) c and the garbler keeps t, so s + t = bit * w_i
    (mod p) for `weights` w_i, (n_out,):

        c = (1 - 2 b0) w_i + F(L0) - F(L1),    t = b0 w_i - F(L0).

    The holder of L0 learns from c only (1 - 2 b0) w_i - F(L1), the holder
    of L1 only (1 - 2 b0) w_i + F(L0): the pad of the label it does not
    hold hides the bit.  This rests on what half-gates already assumes,
    that the fixed-key hash is correlation robust, so H(L ^ delta, t) looks
    uniform to whoever holds L.
    """
    z = gb.wire0[gb.schedule.outputs]
    b0 = z[..., 0] & _ONE              # the value of L0 is the colour of z
    l0 = z ^ b0[..., None] * gb.delta
    f0, f1 = _folded_pads(gb.schedule, np.array([l0, l0 ^ gb.delta]),
                          gb.namespace, p)
    w = np.asarray(weights, dtype=np.uint64)[:, None]
    signed_w = np.where(b0 == 1, submod(0, w, p), w)
    return submod(addmod(signed_w, f0, p), f1, p), submod(b0 * w, f0, p)


def b2a_shares(sched: Schedule, active_out: np.ndarray, c: np.ndarray,
               namespace: int, p: int) -> np.ndarray:
    """Evaluator half of `b2a_corrections`: the shares
    F(L) + colour(L) c mod p, (n_out, E), of the held output labels
    `active_out`, (n_out, E, 2), of the walk `sched` garbled under
    `namespace`; `c` must be reduced mod p."""
    fold = _folded_pads(sched, active_out, namespace, p)
    return addmod(fold, (active_out[..., 0] & _ONE) * c, p)


def _check_walk(sched: Schedule, E: int):
    if E >= 1 << 32:
        raise CircuitError("more instances than the tweak's 32 bits hold")
    if max(2 * sched.n_and, sched.outputs.size) > 1 << POSITION_SHIFT:
        raise CircuitError("more ANDs or outputs than the low tweak word's "
                           "index bits hold")


def garble(sched: Schedule, delta: np.ndarray, garbler_bits: np.ndarray,
           evaluator_zero: np.ndarray, namespace: int) -> Garbling:
    """Garble E independent instances of every circuit of the walk `sched`
    under the offset `delta`, (2,), and the tweak namespace `namespace`,
    one level at a time, with the garbler's input bits `garbler_bits`,
    (E, n_gin), hardcoded.

    The evaluator's input zero labels `evaluator_zero`, (n_ein, E, 2), come
    from the OT (`gc.ot.RandomOtSenderBatch.derand_respond`) and give E.
    Inputs run circuit after circuit (`Schedule`).  A garbler input of
    value t gets zero label t delta, CONST0 gets 0 and CONST1 gets delta,
    so each of these wires has the all-zero active label, where `evaluate`
    starts it: no garbler label is sent, and garbling draws nothing.
    AND j of the walk order has tweaks 2j and 2j+1 in the low word and the
    instance in the high one, each word ORed with its half of the
    namespace, and its two rows are table row j.

    Security (semi-honest).  Every garbling of every session that extends
    one set of base OTs shares `delta`, and the evaluator's labels are
    correlated-OT rows under it, so this rests on the fixed-key hash being
    tweakable circular correlation robust (Zahur-Rosulek-Evans, EUROCRYPT
    2015; Guo-Katz-Wang-Yu, S&P 2020): to whoever does not know delta,
    H(X ^ delta, t) looks uniform next to every other query, provided no
    tweak t is used beyond the two labels X and X ^ delta of one wire.  The
    game counts queries, not sessions, so labels from many sessions under
    one delta are as safe as those of one, as long as their tweaks stay
    apart.  Within a walk the AND's ordinal, half and instance keep
    tweaks apart, and the B2A flag and output index set the pads' apart
    from them; across the walks of a session the (layer, stage) of the
    namespace does, and across sessions its stream position, at which no
    other session under delta starts, so each walk garbled must take its
    own `tweak_namespace`.  AND tweaks and output indices below 2^32 stay
    clear of the position bits (a session holds far fewer wires:
    `MAX_SESSION_BYTES` keeps a label array below 2^26 wires), and no
    session under a delta may start at or past `MAX_POSITION`.
    Each session's evaluator labels are fresh: its OT rows come from
    blocks of the column streams that no other session reads (`gc.ot`).
    delta's colour bit is public (forced to 1), so it keeps 127 secret
    bits.  Hardcoding adds no assumption: the evaluator holds the same
    block, 0, for a garbler wire of either value, so that label says
    nothing of the bit; the wire's other label is delta, and
    H(0 ^ delta, t) under a tweak used once is a query the same game
    already allows -- half-gates' generator half rests on the same fact.
    """
    E = evaluator_zero.shape[1]
    _check_walk(sched, E)
    bits = np.asarray(garbler_bits)
    if bits.shape != (E, sched.garbler_inputs.size):
        raise CircuitError("garbler bit array has wrong shape")
    if ((bits != 0) & (bits != 1)).any():
        raise CircuitError("garbler bit outside {0, 1}")
    wire0 = np.zeros((sched.n_wires, E, 2), dtype=np.uint64)
    wire0[sched.const1] = delta
    wire0[sched.garbler_inputs] = (bits.T.astype(np.uint64)[..., None]
                                   * delta)
    wire0[sched.evaluator_inputs] = evaluator_zero

    # both table rows of every AND, by row until the walk is done, and
    # delta and 2 delta once per instance: numpy runs an operation whose
    # operands all have the result's shape as one flat loop, but one
    # broadcast along the two words of a label as a loop per label
    tables = np.empty((2, sched.n_and, E, 2), dtype=np.uint64)
    aes = _AES.encryptor()
    delta1, delta2 = (np.tile(d, (E, 1)) for d in (delta, _double(delta)))
    for lv, tweaks in zip(sched.levels, _level_tweaks(sched, E, namespace)):
        if lv.n_xor:
            wire0[lv.xor_out] = wire0[lv.xor_in0] ^ wire0[lv.xor_in1]
        if not lv.n_and:
            continue
        ab = wire0[lv.and_in]                   # a0, b0: (2, K, E, 2)
        # one AES batch for the four hash groups: (a0, a1) under 2j and
        # (b0, b1) under 2j+1, with 2 a1 = 2 a0 ^ 2 delta
        h = np.empty((2, 2) + ab.shape[1:], dtype=np.uint64)
        _double(ab, out=h[:, 0])
        np.bitwise_xor(h[:, 0], delta2, out=h[:, 1])
        h = _hash(aes, h, tweaks[:, None])
        rows = h[:, 0] ^ h[:, 1]                # ha0 ^ ha1, hb0 ^ hb1
        colour = _colour(ab)                    # pa, pb
        rows[0] ^= colour[1] * delta1           # tg
        half = colour * rows                    # pa tg, pb (te ^ a0)
        half ^= h[:, 0]                         # wg, we
        wire0[lv.and_out] = half[0] ^ half[1]
        rows[1] ^= ab[0]                        # te
        tables[:, lv.ands] = rows
    return Garbling(sched, delta, namespace, wire0,
                    tables.transpose(1, 2, 0, 3))


def evaluate(sched: Schedule, tables: np.ndarray,
             evaluator_active: np.ndarray, namespace: int) -> np.ndarray:
    """Run the walk `sched`, garbled under the tweak namespace
    `namespace`, on active labels, one level at a time.

    `tables` is the walk's (n_and, E, 2, 2) table block, as `garble`
    builds it and stage-ot-resp carries it.  evaluator_active is
    (n_ein, E, 2) from the OT; the constants and the garbler's inputs
    start at the all-zero label `garble` hardcodes them to.  Returns
    active output labels (n_out, E, 2).
    """
    E = evaluator_active.shape[1]
    _check_walk(sched, E)
    if (not isinstance(tables, np.ndarray)
            or tables.shape != (sched.n_and, E, 2, 2)):
        raise CircuitError("tables are not one (n_and, E, 2, 2) block of "
                           "the walk")
    active = np.zeros((sched.n_wires, E, 2), dtype=np.uint64)
    active[sched.evaluator_inputs] = evaluator_active
    aes = _AES.encryptor()
    rows_of = np.moveaxis(tables, 2, 0)         # tg, te: (2, n_and, E, 2)
    for lv, tweaks in zip(sched.levels, _level_tweaks(sched, E, namespace)):
        if lv.n_xor:
            active[lv.xor_out] = active[lv.xor_in0] ^ active[lv.xor_in1]
        if not lv.n_and:
            continue
        ab = active[lv.and_in]                  # wa, wb: (2, K, E, 2)
        h = _hash(aes, _double(ab), tweaks)
        colour = _colour(ab)                    # sa, sb
        # sa tg, sb te, then sb (te ^ wa)
        half = colour * rows_of[:, lv.ands]
        half[1] ^= colour[1] * ab[0]
        half ^= h
        active[lv.and_out] = half[0] ^ half[1]
    return active[sched.outputs]
