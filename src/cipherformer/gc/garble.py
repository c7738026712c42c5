"""Half-gates garbling over the two-op circuit IR.

Costs: XOR gates are free (labels just XOR), each AND gate emits exactly two
16-byte rows.  NOT/constants ride along as XORs with constant wires whose
active labels the garbler hands over with its own input labels.

Labels are 128-bit, stored as (..., 2) uint64 little-halves-first.  The
global offset `delta` has its low bit forced to 1 so the label's low bit
serves as the point-and-permute color.  The gate hash is the standard
fixed-key AES construction H(X, t) = AES(2X ^ t) ^ 2X ^ t, with tweaks unique
per (instance, gate, half); instances are independent garblings of the same
topology.

Garbling and evaluation walk the circuit's level schedule (`Circuit.levels`):
at each depth, all XOR gates are one gather-XOR-scatter over the label array
and all AND gates of all instances are one AES call.  Tweaks follow the gate
index and table rows the AND's ordinal, so the output is byte for byte what
a gate-by-gate walk produces.

Everything here is semi-honest: evaluation trusts the tables.  Outputs are
never decoded to bits; the evaluator keeps its active output labels and
takes label-keyed pads (`output_pads`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from ..errors import CircuitError
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


def _tweak_grid(word0: np.ndarray, instances: int) -> np.ndarray:
    """Tweaks (..., E, 2): word0 in the low half, the instance in the high."""
    word0 = np.asarray(word0, dtype=np.uint64)
    tw = np.empty(word0.shape + (instances, 2), dtype=np.uint64)
    tw[..., 0] = word0[..., None]
    tw[..., 1] = np.arange(instances, dtype=np.uint64)
    return tw


_B2A_NS = np.uint64(1) << np.uint64(61)   # tweak namespace for label-keyed pads


def _lsb(x: np.ndarray) -> np.ndarray:
    """The colour bits of (..., 2) labels, as (..., 1)."""
    return x[..., :1] & _ONE


@dataclass
class GarbledCircuit:
    """Garbler-side result for E independent instances of one topology."""

    circuit: Circuit
    delta: np.ndarray            # (E, 2)
    wire0: np.ndarray            # (W, E, 2) zero-labels for every wire
    tables: np.ndarray           # (n_and, E, 2, 2) the two rows per AND

    @property
    def instances(self) -> int:
        return self.delta.shape[0]

    @property
    def tables_bytes(self) -> int:
        return self.tables.size * 8

    def garbler_labels(self, bits: np.ndarray) -> np.ndarray:
        """Active labels for the garbler's own inputs plus the two constant
        wires; bits is (E, n_gin).  Returns (n_gin + 2, E, 2)."""
        bits = np.asarray(bits, dtype=np.uint64)
        ins = self.circuit.garbler_inputs
        if bits.shape != (self.instances, ins.size):
            raise CircuitError("garbler bit array has wrong shape")
        active = self.wire0[ins] ^ (bits.T[:, :, None] * self.delta[None])
        consts = np.stack([self.wire0[CONST0],
                           self.wire0[CONST1] ^ self.delta])
        return np.concatenate([consts, active])

    def evaluator_label_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(zero, one) labels for evaluator inputs, each (n_ein, E, 2); the
        oblivious transfer picks between them per bit."""
        zero = self.wire0[self.circuit.evaluator_inputs]
        return zero, zero ^ self.delta[None]

    def output_zero_labels(self) -> np.ndarray:
        return self.wire0[self.circuit.outputs]

    def output_pads(self) -> tuple[np.ndarray, np.ndarray]:
        """Label-keyed one-time pads for both values of every output wire:
        (pads0, pads1), each (n_out, E, 2).  Whoever holds the active output
        label can recompute exactly one of the two."""
        z = self.wire0[self.circuit.outputs]
        pads = hash_labels(np.array([z, z ^ self.delta]),
                           _output_tweaks(_B2A_NS, z.shape[0], self.instances))
        return pads[0], pads[1]


def _output_tweaks(namespace: np.uint64, n_out: int,
                   instances: int) -> np.ndarray:
    return _tweak_grid(namespace | np.arange(n_out, dtype=np.uint64),
                       instances)


def active_output_pads(circuit: Circuit, active_out: np.ndarray) -> np.ndarray:
    """Evaluator side of `output_pads`: pads for the labels actually held."""
    n_out, E = active_out.shape[0], active_out.shape[1]
    return hash_labels(active_out, _output_tweaks(_B2A_NS, n_out, E))


def garble(circuit: Circuit, instances: int,
           rng: np.random.Generator) -> GarbledCircuit:
    """Garble E independent instances of `circuit`, one level at a time.

    Tweaks are 2g and 2g+1 for gate index g, and AND g's two rows go to
    table row `Level.and_row`, so the result does not depend on how the
    gates are batched."""
    E = instances
    W = circuit.n_wires
    delta = rng.integers(0, 1 << 64, (E, 2), dtype=np.uint64)
    delta[:, 0] |= _ONE
    wire0 = np.zeros((W, E, 2), dtype=np.uint64)
    fresh = np.concatenate([[CONST0, CONST1],
                            circuit.garbler_inputs, circuit.evaluator_inputs])
    wire0[fresh] = rng.integers(0, 1 << 64, (fresh.size, E, 2), dtype=np.uint64)

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
            _tweak_grid(lv.and_tweak, E)[:, None])
        pa = _lsb(a0)
        pb = _lsb(b0)
        tg = ha0 ^ ha1 ^ pb * delta
        wg = ha0 ^ pa * tg
        te = hb0 ^ hb1 ^ a0
        we = hb0 ^ pb * (te ^ a0)
        wire0[lv.and_out] = wg ^ we
        tables[lv.and_row, :, 0] = tg
        tables[lv.and_row, :, 1] = te
    return GarbledCircuit(circuit, delta, wire0, tables)


def evaluate(circuit: Circuit, tables: np.ndarray, garbler_active: np.ndarray,
             evaluator_active: np.ndarray) -> np.ndarray:
    """Run the garbled circuit on active labels, one level at a time.

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
        ha, hb = _hash(aes, np.array([wa, wb]), _tweak_grid(lv.and_tweak, E))
        rows = tables[lv.and_row]
        sa = _lsb(wa)
        sb = _lsb(wb)
        active[lv.and_out] = ((ha ^ sa * rows[:, :, 0])
                              ^ (hb ^ sb * (rows[:, :, 1] ^ wa)))
    return active[circuit.outputs]

