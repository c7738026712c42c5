"""Half-gates garbling over the two-op circuit IR.

Costs: XOR gates are free (labels just XOR), each AND gate emits exactly two
16-byte rows.  NOT/constants ride along as XORs with constant wires whose
active labels the garbler hands over with its own input labels.

Labels are 128-bit, stored as (..., 2) uint64 little-halves-first.  One
offset `delta` serves every garbling of a session: it is the IKNP sender's
s (`gc.ot`), whose low bit is forced to 1 so the label's low bit serves as
the point-and-permute color, and the OT fixes the evaluator's input labels
under it.  The gate hash is the standard fixed-key AES construction
H(X, t) = AES(2X ^ t) ^ 2X ^ t, with tweaks unique per (garbling, instance,
gate, half) across the session (`tweak_namespace`); instances are
independent garblings of the same topology.

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
from .circuit import CONST0, CONST1, Circuit

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


def tweak_namespace(layer: int, stage: int, group: int) -> int:
    """The high tweak word of group `group` of stage `stage` of encoder layer
    `layer`, above its 32 instance bits: each garbling of a session gets its
    own, from the plan alone, so both parties derive it."""
    if not (0 <= layer < 1 << 16 and 0 <= stage < 1 << 8
            and 0 <= group < 1 << 8):
        raise CircuitError("garbling namespace out of range")
    return (layer << 16 | stage << 8 | group) << 32


def _tweak_grid(word0: np.ndarray, instances: int, ns: int) -> np.ndarray:
    """Tweaks (..., E, 2): word0 in the low half, the namespace `ns` and the
    instance in the high."""
    word0 = np.asarray(word0, dtype=np.uint64)
    tw = np.empty(word0.shape + (instances, 2), dtype=np.uint64)
    tw[..., 0] = word0[..., None]
    tw[..., 1] = np.uint64(ns) | np.arange(instances, dtype=np.uint64)
    return tw


_B2A_NS = np.uint64(1) << np.uint64(61)   # tweak namespace for label-keyed pads


def _lsb(x: np.ndarray) -> np.ndarray:
    """The colour bits of (..., 2) labels, as (..., 1)."""
    return x[..., :1] & _ONE


@dataclass
class GarbledCircuit:
    """Garbler-side result for E independent instances of one topology."""

    circuit: Circuit
    delta: np.ndarray            # (2,) the session offset
    ns: int                      # the garbling's tweak namespace
    wire0: np.ndarray            # (W, E, 2) zero-labels for every wire
    tables: np.ndarray           # (n_and, E, 2, 2) the two rows per AND

    @property
    def instances(self) -> int:
        return self.wire0.shape[1]

    def garbler_labels(self, bits: np.ndarray) -> np.ndarray:
        """Active labels for the garbler's own inputs plus the two constant
        wires; bits is (E, n_gin).  Returns (n_gin + 2, E, 2)."""
        bits = np.asarray(bits, dtype=np.uint64)
        ins = self.circuit.garbler_inputs
        if bits.shape != (self.instances, ins.size):
            raise CircuitError("garbler bit array has wrong shape")
        active = self.wire0[ins] ^ bits.T[:, :, None] * self.delta
        consts = np.stack([self.wire0[CONST0],
                           self.wire0[CONST1] ^ self.delta])
        return np.concatenate([consts, active])


def _folded_pads(labels: np.ndarray, ns: int, p: int) -> np.ndarray:
    """F(L): the pads of output labels (..., n_out, E, 2), under tweaks
    unique per (output wire, instance) in namespace `ns`, folded to
    (lo + 2^64 hi) mod p."""
    n_out, E = labels.shape[-3:-1]
    pads = hash_labels(labels, _tweak_grid(
        _B2A_NS | np.arange(n_out, dtype=np.uint64), E, ns))
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


def garble(circuit: Circuit, delta: np.ndarray, evaluator_zero: np.ndarray,
           ns: int, rng: np.random.Generator) -> GarbledCircuit:
    """Garble E independent instances of `circuit` under the session offset
    `delta`, (2,), one level at a time.

    The evaluator's input zero labels `evaluator_zero`, (n_ein, E, 2), come
    from the OT (`gc.ot.RandomOtSenderBatch.derand_respond`) and give E; the
    constant and garbler-input zero labels are drawn from `rng`.  Tweaks are
    2g and 2g+1 for gate index g in the low word and `ns` | the instance in
    the high one, and AND g's two rows go to table row `Level.and_row`, so
    the result does not depend on how the gates are batched.

    Security (semi-honest).  Every garbling of a session shares `delta`, and
    the evaluator's labels are IKNP rows, so this rests on the fixed-key
    hash being tweakable circular correlation robust (Zahur-Rosulek-Evans,
    EUROCRYPT 2015; Guo-Katz-Wang-Yu, S&P 2020): to whoever does not know
    delta, H(X ^ delta, t) looks uniform next to every other query, provided
    no tweak t is used beyond the two labels X and X ^ delta of one wire.
    Within a garbling the gate index, half and instance keep tweaks apart;
    across garblings `ns` does, so each garbling of a session must take its
    own `tweak_namespace`.  delta's colour bit is public (forced to 1), so
    it keeps 127 secret bits.
    """
    E = evaluator_zero.shape[1]
    if E >= 1 << 32:
        raise CircuitError("more instances than the tweak's 32 bits hold")
    W = circuit.n_wires
    wire0 = np.zeros((W, E, 2), dtype=np.uint64)
    fresh = np.concatenate([[CONST0, CONST1], circuit.garbler_inputs])
    wire0[fresh] = rng.integers(0, 1 << 64, (fresh.size, E, 2), dtype=np.uint64)
    wire0[circuit.evaluator_inputs] = evaluator_zero

    tables = np.empty((circuit.n_and, E, 2, 2), dtype=np.uint64)
    aes = _AES.encryptor()
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
            _tweak_grid(lv.and_tweak, E, ns)[:, None])
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


def evaluate(circuit: Circuit, tables: np.ndarray, garbler_active: np.ndarray,
             evaluator_active: np.ndarray, ns: int) -> np.ndarray:
    """Run the garbled circuit with tweak namespace `ns` on active labels,
    one level at a time.

    garbler_active is (n_gin + 2, E, 2) (constants first, from
    `garbler_labels`); evaluator_active is (n_ein, E, 2) from the OT.
    Returns active output labels (n_out, E, 2).
    """
    E = garbler_active.shape[1]
    active = np.zeros((circuit.n_wires, E, 2), dtype=np.uint64)
    active[CONST0] = garbler_active[0]
    active[CONST1] = garbler_active[1]
    active[circuit.garbler_inputs] = garbler_active[2:]
    active[circuit.evaluator_inputs] = evaluator_active
    aes = _AES.encryptor()
    for lv in circuit.levels:
        if lv.n_xor:
            active[lv.xor_out] = active[lv.xor_in0] ^ active[lv.xor_in1]
        if not lv.n_and:
            continue
        wa = active[lv.and_in0]
        wb = active[lv.and_in1]
        ha, hb = _hash(aes, np.array([wa, wb]),
                       _tweak_grid(lv.and_tweak, E, ns))
        rows = tables[lv.and_row]
        sa = _lsb(wa)
        sb = _lsb(wb)
        active[lv.and_out] = ((ha ^ sa * rows[:, :, 0])
                              ^ (hb ^ sb * (rows[:, :, 1] ^ wa)))
    return active[circuit.outputs]

