"""Half-gates garbling over the two-op circuit IR.

Costs: XOR gates are free (labels just XOR), each AND gate emits exactly two
16-byte rows.  NOT/constants ride along as XORs with constant wires whose
active labels the garbler hands over with its own input labels.

Labels are 128-bit, stored as (..., 2) uint64 little-halves-first.  The
global offset `delta` has its low bit forced to 1 so the label's low bit
serves as the point-and-permute color.  The gate hash is the standard
fixed-key AES construction H(X, t) = AES(2X ^ t) ^ 2X ^ t, with tweaks unique
per (instance, gate, half); instances are independent garblings of the same
topology batched through one AES call per gate.

Everything here is semi-honest: evaluation trusts the tables except for
output decoding, which checks the revealed label against per-wire hash pairs
and raises GarbleError on any mismatch, so a corrupted transcript cannot
silently decode to wrong bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from ..errors import CircuitError, GarbleError
from .circuit import CONST0, CONST1, OP_AND, Circuit

_FIXED_KEY = bytes(range(16))
_AES = Cipher(algorithms.AES(_FIXED_KEY), modes.ECB())

_GF_POLY = np.uint64(0x87)
_ONE = np.uint64(1)
_SHIFT63 = np.uint64(63)


def _aes_pi(blocks: np.ndarray) -> np.ndarray:
    """Apply the fixed-key AES permutation to (N, 2) uint64 blocks."""
    enc = _AES.encryptor()
    raw = enc.update(np.ascontiguousarray(blocks, dtype="<u8").tobytes())
    return np.frombuffer(raw, dtype="<u8").reshape(blocks.shape).astype(np.uint64)


def _double(x: np.ndarray) -> np.ndarray:
    """Multiply by x in GF(2^128) (poly x^128 + x^7 + x^2 + x + 1)."""
    lo, hi = x[..., 0], x[..., 1]
    carry = hi >> _SHIFT63
    out = np.empty_like(x)
    out[..., 1] = (hi << _ONE) | (lo >> _SHIFT63)
    out[..., 0] = (lo << _ONE) ^ (carry * _GF_POLY)
    return out


def hash_labels(labels: np.ndarray, tweaks: np.ndarray) -> np.ndarray:
    """H(X, t) = pi(2X ^ t) ^ (2X ^ t); labels/tweaks broadcast to (N, 2)."""
    t = _double(labels) ^ tweaks
    flat = t.reshape(-1, 2)
    return (_aes_pi(flat) ^ flat).reshape(t.shape)


def _tweaks(word0, instances: int) -> np.ndarray:
    tw = np.zeros((instances, 2), dtype=np.uint64)
    tw[:, 0] = np.uint64(word0)
    tw[:, 1] = np.arange(instances, dtype=np.uint64)
    return tw


_OUT_NS = np.uint64(1) << np.uint64(62)   # tweak namespace for output decoding
_B2A_NS = np.uint64(1) << np.uint64(61)   # tweak namespace for label-keyed pads


def _lsb(x: np.ndarray) -> np.ndarray:
    return (x[..., 0] & _ONE).astype(np.uint64)


@dataclass
class GarbledCircuit:
    """Garbler-side result for E independent instances of one topology."""

    circuit: Circuit
    delta: np.ndarray            # (E, 2)
    wire0: np.ndarray            # (W, E, 2) zero-labels for every wire
    tables: np.ndarray           # (n_and, E, 2, 2) the two rows per AND
    decode: np.ndarray           # (n_out, E, 2, 2) hash pairs for outputs

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
        outs = self.circuit.outputs
        E = self.instances
        z = self.wire0[outs]
        pads = []
        for labels in (z, z ^ self.delta[None]):
            tw = np.zeros((outs.size, E, 2), dtype=np.uint64)
            tw[..., 0] = _B2A_NS | np.arange(outs.size, dtype=np.uint64)[:, None]
            tw[..., 1] = np.arange(E, dtype=np.uint64)[None]
            pads.append(hash_labels(labels, tw))
        return pads[0], pads[1]


def active_output_pads(circuit: Circuit, active_out: np.ndarray) -> np.ndarray:
    """Evaluator side of `output_pads`: pads for the labels actually held."""
    n_out, E = active_out.shape[0], active_out.shape[1]
    tw = np.zeros((n_out, E, 2), dtype=np.uint64)
    tw[..., 0] = _B2A_NS | np.arange(n_out, dtype=np.uint64)[:, None]
    tw[..., 1] = np.arange(E, dtype=np.uint64)[None]
    return hash_labels(active_out, tw)


def garble(circuit: Circuit, instances: int,
           rng: np.random.Generator) -> GarbledCircuit:
    E = instances
    W = circuit.n_wires
    delta = rng.integers(0, 1 << 64, (E, 2), dtype=np.uint64)
    delta[:, 0] |= _ONE
    wire0 = np.zeros((W, E, 2), dtype=np.uint64)
    fresh = np.concatenate([[CONST0, CONST1],
                            circuit.garbler_inputs, circuit.evaluator_inputs])
    wire0[fresh] = rng.integers(0, 1 << 64, (fresh.size, E, 2), dtype=np.uint64)

    n_and = circuit.n_and
    tables = np.empty((n_and, E, 2, 2), dtype=np.uint64)
    ops, in0, in1, out = circuit.ops, circuit.in0, circuit.in1, circuit.out
    ai = 0
    for g in range(ops.size):
        a0 = wire0[in0[g]]
        b0 = wire0[in1[g]]
        if ops[g] != OP_AND:
            wire0[out[g]] = a0 ^ b0
            continue
        a1 = a0 ^ delta
        b1 = b0 ^ delta
        # one AES batch for the four hash groups
        tw0 = _tweaks(2 * g, E)
        tw1 = _tweaks(2 * g + 1, E)
        h = hash_labels(np.concatenate([a0, a1, b0, b1]),
                        np.concatenate([tw0, tw0, tw1, tw1]))
        ha0, ha1, hb0, hb1 = h[:E], h[E:2 * E], h[2 * E:3 * E], h[3 * E:]
        pa = _lsb(a0)[:, None]
        pb = _lsb(b0)[:, None]
        tg = ha0 ^ ha1 ^ pb * delta
        wg = ha0 ^ pa * tg
        te = hb0 ^ hb1 ^ a0
        we = hb0 ^ pb * (te ^ a0)
        wire0[out[g]] = wg ^ we
        tables[ai, :, 0] = tg
        tables[ai, :, 1] = te
        ai += 1

    outs = circuit.outputs
    decode = np.empty((outs.size, E, 2, 2), dtype=np.uint64)
    for i, w in enumerate(outs):
        tw = _tweaks(_OUT_NS | np.uint64(i), E)
        decode[i, :, 0] = hash_labels(wire0[w], tw)
        decode[i, :, 1] = hash_labels(wire0[w] ^ delta, tw)
    return GarbledCircuit(circuit, delta, wire0, tables, decode)


def evaluate(circuit: Circuit, tables: np.ndarray, garbler_active: np.ndarray,
             evaluator_active: np.ndarray) -> np.ndarray:
    """Run the garbled circuit on active labels.

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
    ops, in0, in1, out = circuit.ops, circuit.in0, circuit.in1, circuit.out
    ai = 0
    for g in range(ops.size):
        wa = active[in0[g]]
        wb = active[in1[g]]
        if ops[g] != OP_AND:
            active[out[g]] = wa ^ wb
            continue
        tw0 = _tweaks(2 * g, E)
        tw1 = _tweaks(2 * g + 1, E)
        h = hash_labels(np.concatenate([wa, wb]), np.concatenate([tw0, tw1]))
        ha, hb = h[:E], h[E:]
        tg = tables[ai, :, 0]
        te = tables[ai, :, 1]
        sa = _lsb(wa)[:, None]
        sb = _lsb(wb)[:, None]
        active[out[g]] = (ha ^ sa * tg) ^ (hb ^ sb * (te ^ wa))
        ai += 1
    return active[circuit.outputs]


def decode_outputs(circuit: Circuit, decode: np.ndarray,
                   active_out: np.ndarray) -> np.ndarray:
    """Map active output labels to bits via the hash pairs; any label that
    matches neither hash means the transcript was corrupted."""
    n_out, E = active_out.shape[0], active_out.shape[1]
    bits = np.empty((E, n_out), dtype=np.uint8)
    for i in range(n_out):
        tw = _tweaks(_OUT_NS | np.uint64(i), E)
        h = hash_labels(active_out[i], tw)
        is0 = (h == decode[i, :, 0]).all(axis=1)
        is1 = (h == decode[i, :, 1]).all(axis=1)
        if not (is0 | is1).all():
            raise GarbleError("output label matches neither decode hash")
        bits[:, i] = is1
    return bits
