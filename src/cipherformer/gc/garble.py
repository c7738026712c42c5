"""Half-gates garbling over the two-op circuit IR.

Costs: XOR gates are free (labels just XOR), each AND gate emits exactly two
16-byte rows.  NOT/constants are XORs with the constant wires.  The garbler
knows its own input bits when it garbles, so it hardcodes them and the
constants into the labelling: each of those wires has the all-zero
active label, and no label of the garbler's travels (`garble`).

Labels are 128-bit, stored as (..., 2) uint64 little-halves-first.  One
offset `delta` serves every garbling of every session that extends one set
of base OTs: it is the IKNP sender's s (`gc.ot`), whose low bit is forced
to 1 so the label's low bit serves as the point-and-permute color, and the
OT fixes the evaluator's input labels under it.  The gate hash is the
standard fixed-key AES construction H(X, t) = AES(2X ^ t) ^ 2X ^ t, with
tweaks unique per (session, garbling, instance, gate, half) under one
delta (`tweak_namespace`); instances are independent garblings of the same
topology.

Garbling and evaluation walk the circuit's level schedule (`Circuit.levels`):
at each depth, all XOR gates are one gather-XOR-scatter over the label array
and all AND gates of all instances are one AES call.  Tweaks follow the gate
index and table rows the AND's ordinal, so the output is byte for byte what
a gate-by-gate walk produces.

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
from .circuit import CONST1, Circuit

_FIXED_KEY = bytes(range(16))
_AES = Cipher(algorithms.AES(_FIXED_KEY), modes.ECB())

_GF_POLY = np.uint64(0x87)
_ONE = np.uint64(1)
_SHIFT63 = np.uint64(63)


def _double(x: np.ndarray) -> np.ndarray:
    """Multiply by x in GF(2^128) (poly x^128 + x^7 + x^2 + x + 1)."""
    out = x << _ONE
    out[..., 1] |= x[..., 0] >> _SHIFT63
    out[..., 0] ^= (x[..., 1] >> _SHIFT63) * _GF_POLY
    return out


def hash_labels(labels: np.ndarray, tweaks: np.ndarray) -> np.ndarray:
    """H(X, t) = pi(2X ^ t) ^ (2X ^ t) on labels and tweaks that broadcast
    together to (..., 2), pi being fixed-key AES."""
    return _hash(_AES.encryptor(), labels, tweaks)


def _hash(aes, labels: np.ndarray, tweaks: np.ndarray) -> np.ndarray:
    """`hash_labels` through an open ECB encryptor, which keeps no state
    between calls, so one garbling or evaluation sets up AES once."""
    t = np.ascontiguousarray(_double(labels) ^ tweaks, dtype="<u8")
    raw = aes.update(t.tobytes())
    return np.frombuffer(raw, dtype="<u8").reshape(t.shape) ^ t


# the low tweak word's bits from SESSION_SHIFT up to the B2A flag hold the
# session number; gate tweaks and output indices stay below 2^27 (see
# `garble`)
SESSION_SHIFT = 32
# sessions one offset delta can garble under: what those 29 bits hold
MAX_SESSIONS = 1 << 29
_WORD = (1 << 64) - 1


def tweak_namespace(layer: int, stage: int, group: int,
                    session: int = 0) -> int:
    """The tweak bits of group `group` of stage `stage` of encoder layer
    `layer`, in the session numbered `session` under its offset delta, as
    one 128-bit int, high word << 64 | low word: (layer, stage, group) in
    the high word above its 32 instance bits, the session number in the
    low word above the gate and output indices.  Each garbling under one
    delta gets its own, from the plan and the session number alone, so
    both parties derive it; session 0 leaves the low word clear."""
    if not (0 <= layer < 1 << 16 and 0 <= stage < 1 << 8
            and 0 <= group < 1 << 8 and 0 <= session < MAX_SESSIONS):
        raise CircuitError("garbling namespace out of range")
    return (layer << 16 | stage << 8 | group) << 96 | session << SESSION_SHIFT


def _ns_words(ns: int) -> tuple[np.uint64, np.uint64]:
    """The namespace `ns` as its (low, high) tweak words."""
    return np.uint64(ns & _WORD), np.uint64(ns >> 64)


def _tweak_grid(word0: np.ndarray, instances: int,
                ns_words: tuple[np.uint64, np.uint64]) -> np.ndarray:
    """Tweaks (..., E, 2): word0 ORed with the namespace's low word in the
    low half, its high word and the instance in the high."""
    low, high = ns_words
    word0 = np.asarray(word0, dtype=np.uint64)
    if low:
        word0 = word0 | low
    tw = np.empty(word0.shape + (instances, 2), dtype=np.uint64)
    tw[..., 0] = word0[..., None]
    tw[..., 1] = high | np.arange(instances, dtype=np.uint64)
    return tw


# the low-word flag of the label-keyed pads' tweaks, above the session bits
_B2A_NS = np.uint64(1) << np.uint64(61)


def _lsb(x: np.ndarray) -> np.ndarray:
    """The colour bits of (..., 2) labels, as (..., 1)."""
    return x[..., :1] & _ONE


@dataclass
class GarbledCircuit:
    """Garbler-side result for E independent instances of one topology."""

    circuit: Circuit
    delta: np.ndarray            # (2,) the garbling offset
    ns: int                      # the garbling's tweak namespace
    wire0: np.ndarray            # (W, E, 2) zero-labels for every wire
    tables: np.ndarray           # (n_and, E, 2, 2) the two rows per AND


def _folded_pads(labels: np.ndarray, ns: int, p: int) -> np.ndarray:
    """F(L): the pads of output labels (..., n_out, E, 2), under tweaks
    unique per (output wire, instance) in namespace `ns`, folded to
    (lo + 2^64 hi) mod p."""
    n_out, E = labels.shape[-3:-1]
    pads = hash_labels(labels, _tweak_grid(
        _B2A_NS | np.arange(n_out, dtype=np.uint64), E, _ns_words(ns)))
    return reduce128(pads[..., 1], pads[..., 0], p)


def b2a_corrections(gb: GarbledCircuit, weights: np.ndarray,
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
    z = gb.wire0[gb.circuit.outputs]
    b0 = z[..., 0] & _ONE              # the value of L0 is the colour of z
    l0 = z ^ b0[..., None] * gb.delta
    f0, f1 = _folded_pads(np.array([l0, l0 ^ gb.delta]), gb.ns, p)
    w = np.asarray(weights, dtype=np.uint64)[:, None]
    signed_w = np.where(b0 == 1, submod(0, w, p), w)
    return submod(addmod(signed_w, f0, p), f1, p), submod(b0 * w, f0, p)


def b2a_shares(active_out: np.ndarray, c: np.ndarray, ns: int,
               p: int) -> np.ndarray:
    """Evaluator half of `b2a_corrections`: the shares
    F(L) + colour(L) c mod p, (n_out, E), of the held output labels
    `active_out`, (n_out, E, 2), of the garbling with namespace `ns`; `c`
    must be reduced mod p."""
    fold = _folded_pads(active_out, ns, p)
    return addmod(fold, (active_out[..., 0] & _ONE) * c, p)


def garble(circuit: Circuit, delta: np.ndarray, garbler_bits: np.ndarray,
           evaluator_zero: np.ndarray, ns: int) -> GarbledCircuit:
    """Garble E independent instances of `circuit` under the offset
    `delta`, (2,), one level at a time, with the garbler's input bits
    `garbler_bits`, (E, n_gin), hardcoded.

    The evaluator's input zero labels `evaluator_zero`, (n_ein, E, 2), come
    from the OT (`gc.ot.RandomOtSenderBatch.derand_respond`) and give E.  A
    garbler input of value t gets zero label t delta, CONST0 gets 0 and
    CONST1 gets delta, so each of these wires has the all-zero active label,
    where `evaluate` starts it: no garbler label is sent, and garbling draws
    nothing.  Tweaks are 2g and 2g+1 for gate index g in the low word and
    the instance in the high one, each word ORed with its half of `ns`, and
    AND g's two rows go to table row `Level.and_row`, so the result does
    not depend on how the gates are batched.

    Security (semi-honest).  Every garbling of every session that extends
    one set of base OTs shares `delta`, and the evaluator's labels are IKNP
    rows, so this rests on the fixed-key hash being tweakable circular
    correlation robust (Zahur-Rosulek-Evans, EUROCRYPT 2015;
    Guo-Katz-Wang-Yu, S&P 2020): to whoever does not know delta,
    H(X ^ delta, t) looks uniform next to every other query, provided no
    tweak t is used beyond the two labels X and X ^ delta of one wire.  The
    game counts queries, not sessions, so labels from many sessions under
    one delta are as safe as those of one, as long as their tweaks stay
    apart.  Within a garbling the gate index, half and
    instance keep tweaks apart; across the garblings of a session the
    (layer, stage, group) of `ns` does, and across sessions its session
    number, so each garbling must take its own `tweak_namespace`.  A gate
    index or output index below 2^31 stays clear of the session bits (a
    session holds far fewer wires: `MAX_SESSION_BYTES` keeps a label array
    below 2^26 wires), and no delta may serve more than `MAX_SESSIONS`
    sessions.  Each session's evaluator labels are fresh: its IKNP rows
    come from blocks of the column streams that no other session reads
    (`gc.ot`).  delta's colour bit is public (forced to 1), so it keeps
    127 secret bits.  Hardcoding adds no assumption: the evaluator
    holds the same block, 0, for a garbler wire of either value, so that
    label says nothing of the bit; the wire's other label is delta, and
    H(0 ^ delta, t) under a tweak used once is a query the same game
    already allows -- half-gates' generator half rests on the same fact.
    """
    E = evaluator_zero.shape[1]
    if E >= 1 << 32:
        raise CircuitError("more instances than the tweak's 32 bits hold")
    if circuit.n_wires > 1 << (SESSION_SHIFT - 1):
        raise CircuitError("more wires than the low tweak word's index bits "
                           "hold")
    bits = np.asarray(garbler_bits)
    if bits.shape != (E, circuit.garbler_inputs.size):
        raise CircuitError("garbler bit array has wrong shape")
    if ((bits != 0) & (bits != 1)).any():
        raise CircuitError("garbler bit outside {0, 1}")
    wire0 = np.zeros((circuit.n_wires, E, 2), dtype=np.uint64)
    wire0[CONST1] = delta
    wire0[circuit.garbler_inputs] = (bits.T.astype(np.uint64)[..., None]
                                     * delta)
    wire0[circuit.evaluator_inputs] = evaluator_zero

    tables = np.empty((circuit.n_and, E, 2, 2), dtype=np.uint64)
    aes, words = _AES.encryptor(), _ns_words(ns)
    for lv in circuit.levels:
        if lv.n_xor:
            wire0[lv.xor_out] = wire0[lv.xor_in0] ^ wire0[lv.xor_in1]
        if not lv.n_and:
            continue
        a0 = wire0[lv.and_in0]
        b0 = wire0[lv.and_in1]
        # one AES batch for the four hash groups: (a0, a1) under 2g and
        # (b0, b1) under 2g+1
        (ha0, ha1), (hb0, hb1) = _hash(
            aes, np.array([[a0, a0 ^ delta], [b0, b0 ^ delta]]),
            _tweak_grid(lv.and_tweak, E, words)[:, None])
        pa = _lsb(a0)
        pb = _lsb(b0)
        tg = ha0 ^ ha1 ^ pb * delta
        wg = ha0 ^ pa * tg
        te = hb0 ^ hb1 ^ a0
        we = hb0 ^ pb * (te ^ a0)
        wire0[lv.and_out] = wg ^ we
        tables[lv.and_row, :, 0] = tg
        tables[lv.and_row, :, 1] = te
    return GarbledCircuit(circuit, delta, ns, wire0, tables)


def evaluate(circuit: Circuit, tables: np.ndarray,
             evaluator_active: np.ndarray, ns: int) -> np.ndarray:
    """Run the garbled circuit with tweak namespace `ns` on active labels,
    one level at a time.

    evaluator_active is (n_ein, E, 2) from the OT; the constants and the
    garbler's inputs start at the all-zero label `garble` hardcodes them
    to.  Returns active output labels (n_out, E, 2).
    """
    E = evaluator_active.shape[1]
    active = np.zeros((circuit.n_wires, E, 2), dtype=np.uint64)
    active[circuit.evaluator_inputs] = evaluator_active
    aes, words = _AES.encryptor(), _ns_words(ns)
    for lv in circuit.levels:
        if lv.n_xor:
            active[lv.xor_out] = active[lv.xor_in0] ^ active[lv.xor_in1]
        if not lv.n_and:
            continue
        wa = active[lv.and_in0]
        wb = active[lv.and_in1]
        ha, hb = _hash(aes, np.array([wa, wb]),
                       _tweak_grid(lv.and_tweak, E, words))
        rows = tables[lv.and_row]
        sa = _lsb(wa)
        sb = _lsb(wb)
        active[lv.and_out] = ((ha ^ sa * rows[:, :, 0])
                              ^ (hb ^ sb * (rows[:, :, 1] ^ wa)))
    return active[circuit.outputs]

