"""Boolean circuit IR with exactly two gate kinds: XOR and AND.

Everything else is built from those plus the two constant wires, because the
garbling scheme makes XOR free and charges per AND -- so the builder's word
helpers are written to spend ANDs, not gates in general.  NOT is XOR with the
constant-one wire; shifts, slices, sign extension and bit rearrangement are
free rewiring and never appear as gates at all.

Wires are integers.  Wire 0 is constant 0, wire 1 is constant 1.  A circuit
has two input groups (garbler and evaluator) because the two sides of the
protocol feed their bits in through different mechanisms.  Words are Python
lists of wire ids, least-significant bit first.

The builder folds constants eagerly (xor with 0, and with 0/1, and of a wire
with itself...).  Gate counts therefore depend only on circuit shape, which
keeps them reproducible for the gate-census checks.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..errors import CircuitError

OP_XOR = 0
OP_AND = 1

CONST0 = 0
CONST1 = 1


@dataclass(frozen=True, slots=True)
class Level:
    """The gates of one depth of a `Schedule`, split by kind.  No gate of a
    level reads a wire that another gate of the same level writes, so each
    kind runs as one batch.

    Wire ids index the leading axis of a label array: an intp array, or a
    one-element slice when the level has one gate of that kind.  Basic
    indexing is several times cheaper than a gather, and narrow, deep
    circuits (the affine stages) are mostly one-gate levels.  Both inputs
    of every AND are one (2, K) gather, and the level's ANDs are one run
    of the walk order.
    """

    n_xor: int
    xor_in0: np.ndarray | slice
    xor_in1: np.ndarray | slice
    xor_out: np.ndarray | slice
    n_and: int
    and_in: np.ndarray             # (2, K) intp: in0 and in1 of each AND
    and_out: np.ndarray | slice
    ands: slice                    # the level's ANDs in walk order


def _index(ids: np.ndarray) -> np.ndarray | slice:
    if ids.size == 1:
        return slice(int(ids[0]), int(ids[0]) + 1)
    return ids.astype(np.intp)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Frozen gate list in topological order (builders only reference
    existing wires, so append order is already topological)."""

    n_wires: int
    ops: np.ndarray        # (G,) uint8
    in0: np.ndarray        # (G,) int32
    in1: np.ndarray
    out: np.ndarray
    garbler_inputs: np.ndarray    # wire ids, int32
    evaluator_inputs: np.ndarray
    outputs: np.ndarray

    @property
    def n_and(self) -> int:
        return int(np.count_nonzero(self.ops == OP_AND))

    @property
    def n_xor(self) -> int:
        return int(np.count_nonzero(self.ops == OP_XOR))

    def depths(self) -> np.ndarray:
        """Each gate's depth, (G,) int32: inputs and constants have depth 0
        and a gate has 1 + the larger depth of its inputs, so a gate reads
        only wires of smaller depth."""
        # an int array and lazily boxed wire ids keep the peak small
        depth = array("i", bytes(4 * self.n_wires))
        for a, b, o in zip(memoryview(self.in0), memoryview(self.in1),
                           memoryview(self.out)):
            da, db = depth[a], depth[b]
            depth[o] = (da if da > db else db) + 1
        return np.frombuffer(depth, dtype=np.int32)[self.out]

    def stats(self) -> dict[str, int]:
        return {
            "and": self.n_and,
            "xor": self.n_xor,
            "garbler_inputs": int(self.garbler_inputs.size),
            "evaluator_inputs": int(self.evaluator_inputs.size),
            "outputs": int(self.outputs.size),
        }

    def plain_eval(self, garbler_bits, evaluator_bits) -> np.ndarray:
        """Evaluate in the clear.  Inputs are (E, n_in) or (n_in,) bit arrays;
        returns matching (E, n_out) or (n_out,).  This is the reference the
        garbled evaluation is checked against."""
        g = np.atleast_2d(np.asarray(garbler_bits, dtype=np.uint8))
        e = np.atleast_2d(np.asarray(evaluator_bits, dtype=np.uint8))
        squeeze = np.asarray(garbler_bits).ndim <= 1 and np.asarray(evaluator_bits).ndim <= 1
        E = max(g.shape[0], e.shape[0])
        if g.shape[0] not in (E,) or e.shape[0] not in (E,):
            raise CircuitError("mismatched batch sizes")
        if g.shape[1] != self.garbler_inputs.size or e.shape[1] != self.evaluator_inputs.size:
            raise CircuitError("wrong number of input bits")
        if (g > 1).any() or (e > 1).any():
            raise CircuitError("inputs must be bits")
        vals = np.zeros((self.n_wires, E), dtype=np.uint8)
        vals[CONST1] = 1
        vals[self.garbler_inputs] = g.T
        vals[self.evaluator_inputs] = e.T
        ops, in0, in1, out = self.ops, self.in0, self.in1, self.out
        for i in range(ops.size):
            a = vals[in0[i]]
            b = vals[in1[i]]
            vals[out[i]] = (a ^ b) if ops[i] == OP_XOR else (a & b)
        res = vals[self.outputs].T
        return res[0] if squeeze and E == 1 else res


@dataclass(frozen=True, eq=False)
class Schedule:
    """Circuits walked as one: the union of their gates, each circuit's
    wires and outputs one block of a shared array after those of the
    circuits before it, and its gates grouped by depth, level i of the
    walk being level i of every circuit.

    Within a level gates keep their circuit's order, circuit after
    circuit.  The walk order numbers the ANDs, by (depth, circuit, gate),
    and the outputs, circuit after circuit: each level's ANDs are the run
    `Level.ands` of that numbering.  A walk of one circuit is that
    circuit's own schedule.
    """

    circuits: tuple[Circuit, ...]
    levels: tuple[Level, ...]
    n_wires: int
    n_and: int
    const1: np.ndarray             # every circuit's constant-one wire
    garbler_inputs: np.ndarray     # wire ids, circuit after circuit
    evaluator_inputs: np.ndarray
    outputs: np.ndarray


def schedule(circuits) -> Schedule:
    """The one walk over `circuits` (see `Schedule`), built in numpy from
    every circuit's gate depths."""
    circuits = tuple(circuits)
    if not circuits:
        raise CircuitError("a schedule needs a circuit")
    wire_base = np.cumsum([0] + [c.n_wires for c in circuits])
    parts = [(2 * c.depths() + (c.ops == OP_AND), c.in0 + base,
              c.in1 + base, c.out + base)
             for c, base in zip(circuits, wire_base)]
    key, in0, in1, out = (np.concatenate(p) for p in zip(*parts))
    # sort by level, XORs before ANDs, then circuit and list order; each
    # level is then two runs of the sorted arrays
    order = np.argsort(key, kind="stable")
    key, in0, in1, out = (a[order] for a in (key, in0, in1, out))
    top = int(key.max()) // 2 if key.size else 0
    cut = np.searchsorted(key, np.arange(2, 2 * top + 3))
    # the ANDs before each gate, in walk order
    ands = np.concatenate([[0], np.cumsum(key & 1)])
    levels = tuple(
        Level(int(mid - lo), _index(in0[lo:mid]), _index(in1[lo:mid]),
              _index(out[lo:mid]),
              int(hi - mid), np.stack([in0[mid:hi], in1[mid:hi]]).astype(
                  np.intp),
              _index(out[mid:hi]), slice(int(ands[mid]), int(ands[hi])))
        for lo, mid, hi in zip(cut[:-1:2], cut[1::2], cut[2::2]))

    def ids(name):
        return np.concatenate([getattr(c, name) + base
                               for c, base in zip(circuits, wire_base)])

    return Schedule(
        circuits, levels, int(wire_base[-1]), int(ands[-1]),
        wire_base[:-1] + CONST1, ids("garbler_inputs"),
        ids("evaluator_inputs"), ids("outputs"))


class Builder:
    """Accumulates gates; `freeze()` produces an immutable Circuit."""

    def __init__(self):
        self._n = 2  # wires 0 and 1 are the constants
        self._ops: list[int] = []
        self._in0: list[int] = []
        self._in1: list[int] = []
        self._out: list[int] = []
        self._garbler: list[int] = []
        self._evaluator: list[int] = []
        self._outputs: list[int] = []
        self._frozen = False

    # -- wires ----------------------------------------------------------------

    def _fresh(self) -> int:
        w = self._n
        self._n += 1
        return w

    def _check_wire(self, w: int):
        if not 0 <= w < self._n:
            raise CircuitError(f"wire {w} does not exist")

    def garbler_input(self) -> int:
        w = self._fresh()
        self._garbler.append(w)
        return w

    def evaluator_input(self) -> int:
        w = self._fresh()
        self._evaluator.append(w)
        return w

    def garbler_word(self, width: int) -> list[int]:
        return [self.garbler_input() for _ in range(width)]

    def evaluator_word(self, width: int) -> list[int]:
        return [self.evaluator_input() for _ in range(width)]

    def mark_output(self, w: int):
        self._check_wire(w)
        self._outputs.append(w)

    def mark_output_word(self, ws: list[int]):
        for w in ws:
            self.mark_output(w)

    # -- gates ----------------------------------------------------------------

    def xor(self, a: int, b: int) -> int:
        self._check_wire(a)
        self._check_wire(b)
        if a == b:
            return CONST0
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        w = self._fresh()
        self._ops.append(OP_XOR)
        self._in0.append(a)
        self._in1.append(b)
        self._out.append(w)
        return w

    def and_(self, a: int, b: int) -> int:
        self._check_wire(a)
        self._check_wire(b)
        if a == CONST0 or b == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        w = self._fresh()
        self._ops.append(OP_AND)
        self._in0.append(a)
        self._in1.append(b)
        self._out.append(w)
        return w

    def inv(self, a: int) -> int:
        return self.xor(a, CONST1)

    def or_(self, a: int, b: int) -> int:
        return self.inv(self.and_(self.inv(a), self.inv(b)))

    # -- word arithmetic (LSB first) -------------------------------------------

    def _pad(self, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        w = max(len(a), len(b))
        return (a + [CONST0] * (w - len(a)), b + [CONST0] * (w - len(b)))

    def add(self, a: list[int], b: list[int], carry_in: int = CONST0,
            keep_carry: bool = False) -> list[int]:
        """Ripple-carry addition: one AND per bit position (the last one is
        skipped unless the carry-out is kept)."""
        a, b = self._pad(a, b)
        c = carry_in
        out = []
        last = len(a) - 1
        for i, (x, y) in enumerate(zip(a, b)):
            xc = self.xor(x, c)
            out.append(self.xor(xc, y))
            if i < last or keep_carry:
                c = self.xor(self.and_(xc, self.xor(y, c)), c)
        if keep_carry:
            out.append(c)
        return out

    def mux(self, sel: int, a: list[int], b: list[int]) -> list[int]:
        """sel ? a : b, one AND per bit."""
        a, b = self._pad(a, b)
        return [self.xor(y, self.and_(sel, self.xor(x, y))) for x, y in zip(a, b)]

    def relu(self, x: list[int]) -> list[int]:
        """max(x, 0) on a two's-complement word; the output sign bit is 0."""
        keep = self.inv(x[-1])
        return [self.and_(keep, b) for b in x[:-1]] + [CONST0]

    def shift_right_arith(self, x: list[int], k: int) -> list[int]:
        """Drop k low bits, replicate the sign: free."""
        if k <= 0:
            return list(x)
        sign = x[-1]
        return x[k:] + [sign] * min(k, len(x))

    def saturate(self, x: list[int], width: int) -> list[int]:
        """Clamp a two's-complement word into `width` bits.

        The word fits when every dropped high bit agrees with the sign; the
        agreements are ANDed in a balanced tree, one AND per disagreement
        that can occur (a sign copy always agrees) at depth ceil(lg) of
        their count, and select between the word and the clamp value,
        +/- full scale by sign.
        """
        if width >= len(x):
            return list(x) + [x[-1]] * (width - len(x))
        sign = x[-1]
        agree = [a for a in (self.inv(self.xor(b, sign))
                             for b in x[width - 1:-1]) if a != CONST1]
        if not agree:
            return list(x[:width])
        while len(agree) > 1:
            agree = ([self.and_(a, b) for a, b in zip(agree[::2], agree[1::2])]
                     + agree[len(agree) & ~1:])
        clamp = [self.inv(sign)] * (width - 1) + [sign]
        return self.mux(agree[0], x[:width], clamp)

    # -- finalize ---------------------------------------------------------------

    def freeze(self) -> Circuit:
        if self._frozen:
            raise CircuitError("builder already frozen")
        if not self._outputs:
            raise CircuitError("circuit has no outputs")
        self._frozen = True
        return Circuit(
            n_wires=self._n,
            ops=np.array(self._ops, dtype=np.uint8),
            in0=np.array(self._in0, dtype=np.int32),
            in1=np.array(self._in1, dtype=np.int32),
            out=np.array(self._out, dtype=np.int32),
            garbler_inputs=np.array(self._garbler, dtype=np.int32),
            evaluator_inputs=np.array(self._evaluator, dtype=np.int32),
            outputs=np.array(self._outputs, dtype=np.int32),
        )


def to_bits(value, width: int) -> np.ndarray:
    """Integers -> (..., width) LSB-first bit arrays (two's complement)."""
    v = np.asarray(value, dtype=np.int64)
    shifts = np.arange(width, dtype=np.int64)
    return ((v[..., None] >> shifts) & 1).astype(np.uint8)
