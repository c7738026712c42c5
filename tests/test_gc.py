"""Circuit IR, garbling, and oblivious-transfer tests."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cipherformer.errors import CircuitError, ParameterError, ProtocolError
from cipherformer.gc import garble as G
from cipherformer.gc import ot as O
from cipherformer.gc.circuit import (CONST0, CONST1, OP_AND, Builder,
                                     schedule, to_bits)
from cipherformer.model import ModelConfig
from cipherformer.stages import StageGroup, stage_circuits
from test_stages import stage_schedule, sub, word_value


def build_adder(width):
    b = Builder()
    x = b.garbler_word(width)
    y = b.evaluator_word(width)
    b.mark_output_word(b.add(x, y))
    return b.freeze()


class TestCircuitSemantics:
    def test_adder_exhaustive(self):
        c = build_adder(8)
        xs, ys = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        xs, ys = xs.ravel(), ys.ravel()
        out = c.plain_eval(to_bits(xs, 8), to_bits(ys, 8))
        assert np.array_equal(word_value(out), (xs + ys) % 256)
        assert c.n_and == 7  # one per position, none for the dropped carry

    def test_sub_and_compare_exhaustive(self):
        b = Builder()
        x = b.garbler_word(8)
        y = b.evaluator_word(8)
        b.mark_output_word(sub(b, x, y))
        b.mark_output(sub(b, x, y, keep_borrow=True)[-1])
        c = b.freeze()
        xs, ys = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        xs, ys = xs.ravel(), ys.ravel()
        out = c.plain_eval(to_bits(xs, 8), to_bits(ys, 8))
        assert np.array_equal(word_value(out[:, :8]), (xs - ys) % 256)
        assert np.array_equal(out[:, 8], (xs >= ys).astype(np.uint8))

    def test_mux_relu_saturate(self):
        b = Builder()
        x = b.garbler_word(8)
        b.mark_output_word(b.relu(x))
        b.mark_output_word(b.saturate(x, 5))
        c = b.freeze()
        vals = np.arange(-128, 128)
        out = c.plain_eval(to_bits(vals, 8), np.zeros((256, 0), dtype=np.uint8))
        assert np.array_equal(word_value(out[:, :8], signed=True),
                              np.maximum(vals, 0))
        assert np.array_equal(word_value(out[:, 8:], signed=True),
                              np.clip(vals, -16, 15))

    @pytest.mark.parametrize("n,width,ands,depth", [
        (8, 5, 2 + 5, 2 + 1),
        (40, 8, 31 + 8, 5 + 1),
        (41, 8, 32 + 8, 6 + 1),
    ])
    def test_saturate_checks_overflow_in_a_balanced_tree(self, n, width,
                                                         ands, depth):
        """Saturating an n-bit word to `width` bits checks its n - width
        dropped bits against the sign in a balanced AND tree, n - width - 1
        ANDs at depth ceil(lg(n - width)), then selects with one AND per
        kept bit; sign copies need no check."""
        b = Builder()
        x = b.evaluator_word(n)
        b.mark_output_word(b.saturate(x, width))
        c = b.freeze()
        and_depth = sum(1 for lv in solo(c).levels if lv.n_and)
        assert (c.n_and, and_depth) == (ands, depth)
        vals = np.random.default_rng(n).integers(-(1 << (n - 1)),
                                                 1 << (n - 1), 500)
        vals[:4] = [0, -1, (1 << (width - 1)) - 1, -(1 << (width - 1))]
        out = c.plain_eval(np.zeros((500, 0), np.uint8), to_bits(vals, n))
        lim = 1 << (width - 1)
        assert np.array_equal(word_value(out, signed=True),
                              np.clip(vals, -lim, lim - 1))
        # a shifted word whose dropped bits are all sign copies always fits
        b = Builder()
        x = b.evaluator_word(6)
        b.mark_output_word(b.saturate(b.shift_right_arith(x, 3), 4))
        assert b.freeze().n_and == 0

    def test_shifts_are_free(self):
        b = Builder()
        x = b.garbler_word(8)
        b.mark_output_word(b.shift_right_arith(x, 3))
        b.mark_output_word(b.saturate(x, 10))  # widening is sign extension
        c = b.freeze()
        assert c.ops.size == 0

    def test_constant_folding(self):
        b = Builder()
        x = b.garbler_input()
        assert b.xor(x, 0) == x
        assert b.and_(x, 0) == 0
        assert b.and_(x, 1) == x
        assert b.xor(x, x) == 0
        assert b.and_(x, x) == x
        b.mark_output(x)
        assert b.freeze().ops.size == 0

    def test_bad_wire_rejected(self):
        b = Builder()
        with pytest.raises(CircuitError):
            b.xor(0, 99)

    def test_no_outputs_rejected(self):
        b = Builder()
        b.garbler_input()
        with pytest.raises(CircuitError):
            b.freeze()


def read_bits(gc, active_out):
    """(E, n_out) output values from active labels: 0 where the label is the
    wire's zero label, 1 where it is that label ^ delta, 2 where it is
    neither."""
    z = gc.wire0[gc.schedule.outputs]
    is0 = (active_out == z).all(axis=-1)
    is1 = (active_out == z ^ gc.delta).all(axis=-1)
    return np.where(is1, 1, np.where(is0, 0, 2)).T.astype(np.uint8)


B2A_PRIMES = (65537, (1 << 61) - 1)


def b2a_test_weights(n_out, p):
    """Random nonzero field weights for n_out outputs, the first two 1 and
    p - 1, drawn from their own generator so callers' draws do not move."""
    w = np.random.default_rng(n_out).integers(1, p, n_out, dtype=np.uint64)
    w[:2] = [1, p - 1][:n_out]
    return w


def fold_pads(pads, p):
    """Reference F: 128-bit pads (..., 2) as Python ints mod p."""
    return (pads[..., 1].astype(object) * 2**64 + pads[..., 0].astype(object)) % p


def reference_b2a(out_zero, pads, weights, p):
    """(c, t) from the per-value pads (pads[v] is the pad of the label
    standing for v): L0 is the colour-0 label, b0 its value."""
    b0 = (out_zero[..., 0] & np.uint64(1)).astype(object)
    f = fold_pads(pads, p)
    f0 = np.where(b0 == 1, f[1], f[0])
    f1 = np.where(b0 == 1, f[0], f[1])
    w = weights.astype(object)[:, None]
    return ((1 - 2 * b0) * w + f0 - f1) % p, (b0 * w - f0) % p


def checked_b2a_corrections(gc, pads, p):
    """(w, c, t) for `gc`'s outputs under test weights, c and t checked
    against the reference's per-value pads."""
    w = b2a_test_weights(gc.schedule.outputs.size, p)
    corr, t = G.b2a_corrections(gc, w, p)
    want_c, want_t = reference_b2a(gc.wire0[gc.schedule.outputs], pads, w, p)
    assert np.array_equal(corr.astype(object), want_c)
    assert np.array_equal(t.astype(object), want_t)
    return w, corr, t


def check_b2a_shares(out, gc, c, t, weights, values, p):
    """For every output, the held label's share plus t is value * w mod p,
    and the other label's share is (1 - value) * w, so the two differ."""
    w = weights.astype(object)[:, None]
    t = t.astype(object)
    mine = G.b2a_shares(gc.schedule, out, c, gc.namespace, p).astype(object)
    other = G.b2a_shares(gc.schedule, out ^ gc.delta, c,
                         gc.namespace, p).astype(object)
    v = values.astype(object)
    assert ((mine + t) % p == v * w % p).all()
    assert ((other + t) % p == (1 - v) * w % p).all()
    assert (mine != other).all()


# a namespace with every field set, so the tests see where each one lands
NS = G.tweak_namespace(3, 2, 5)


def test_namespace_takes_stream_positions_below_the_bound_only():
    """The session's stream position lands in the low word from
    `POSITION_SHIFT` up, clear of the AND and output indices below it and
    of the B2A flag above it, and (layer, stage) in the high word above the
    instance bits.  A position at `MAX_POSITION` or past it is refused, as
    is a negative one."""
    top = G.MAX_POSITION - 1
    ns = G.tweak_namespace(3, 2, top)
    assert ns & (2**64 - 1) == top << G.POSITION_SHIFT
    assert top << G.POSITION_SHIFT < int(G._B2A_NS)
    assert ns >> 64 == (3 << 8 | 2) << 32
    for position in (G.MAX_POSITION, G.MAX_POSITION + 1, -1):
        with pytest.raises(CircuitError, match="namespace out of range"):
            G.tweak_namespace(3, 2, position)


def solo(circ):
    """The walk of one circuit."""
    return schedule((circ,))


def garble_solo(circ, delta, gbits, zero):
    return G.garble(solo(circ), delta, gbits, zero, NS)


def evaluate_solo(gc, e_act):
    return G.evaluate(gc.schedule, gc.tables, e_act, NS)


def session_inputs(circ, instances, rng):
    """A session offset with its colour bit set, and evaluator zero labels
    (n_ein, E, 2), as the OT would fix them, drawn from `rng`."""
    delta = rng.integers(0, 1 << 64, 2, dtype=np.uint64)
    delta[0] |= np.uint64(1)
    zero = rng.integers(0, 1 << 64, (circ.evaluator_inputs.size, instances, 2),
                        dtype=np.uint64)
    return delta, zero


def evaluator_labels(gc, ebits):
    """The evaluator's active labels for bits (E, n_ein): the zero label,
    moved by delta where the bit is set, as the OT hands them over."""
    zero = gc.wire0[gc.schedule.evaluator_inputs]
    return zero ^ ebits.T[:, :, None].astype(np.uint64) * gc.delta


def run_garbled(circ, gbits, ebits, rng):
    delta, zero = session_inputs(circ, gbits.shape[0], rng)
    gc = garble_solo(circ, delta, gbits, zero)
    out = evaluate_solo(gc, evaluator_labels(gc, ebits))
    return gc, out, read_bits(gc, out)


class TestGarbling:
    def test_adder_garbled_exhaustive(self):
        c = build_adder(8)
        xs, ys = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        xs, ys = xs.ravel(), ys.ravel()
        rng = np.random.default_rng(7)
        _, _, bits = run_garbled(c, to_bits(xs, 8), to_bits(ys, 8), rng)
        assert np.array_equal(word_value(bits), (xs + ys) % 256)

    def test_table_size_is_two_rows_per_and(self):
        c = build_adder(8)
        rng = np.random.default_rng(0)
        delta, zero = session_inputs(c, 3, rng)
        gc = garble_solo(c, delta, np.zeros((3, 8), np.uint8), zero)
        assert gc.tables.nbytes == 3 * c.n_and * 2 * 16

    def test_tamper_detection(self):
        """A flipped bit of an active output label is neither of the wire's
        two labels, so it cannot read as the wrong bit."""
        c = build_adder(4)
        rng = np.random.default_rng(9)
        gc, out, bits = run_garbled(c, to_bits(np.array([5]), 4),
                                    to_bits(np.array([6]), 4), rng)
        assert word_value(bits) == 11
        out[0, 0, 0] ^= np.uint64(1)
        tampered = read_bits(gc, out)
        assert tampered[0, 0] == 2
        assert np.array_equal(tampered[:, 1:], bits[:, 1:])

    def test_output_pads_selective(self):
        """A share is the pad of the held label, folded mod p, plus the
        correction word where that label's colour is 1: the reference's pad
        of the held value gives it, the other value's pad does not."""
        c = build_adder(6)
        g = to_bits(np.arange(16), 6)
        e = to_bits(np.arange(16, 32), 6)
        for p in B2A_PRIMES:
            delta, zero = session_inputs(c, 16, np.random.default_rng(11))
            *_, pads = reference_garble([c], delta, g, zero, NS)
            gc, out, bits = run_garbled(c, g, e, np.random.default_rng(11))
            _w, corr, _t = checked_b2a_corrections(gc, pads, p)
            f = fold_pads(pads, p)
            held = bits.T.astype(bool)
            colour = ((out[..., 0] & np.uint64(1)).astype(object)
                      * corr.astype(object))
            mine = G.b2a_shares(gc.schedule, out, corr, NS,
                                p).astype(object)
            assert np.array_equal(mine,
                                  (np.where(held, f[1], f[0]) + colour) % p)
            assert (mine != (np.where(held, f[0], f[1]) + colour) % p).all()

    @pytest.mark.parametrize("p", B2A_PRIMES)
    def test_b2a_shares_reconstruct_weighted_bits(self, p):
        """On random circuits and weights (w = 1 and w = p - 1 among them),
        every held label's share plus the garbler's t is value * w mod p and
        the other label's share differs; the held labels cover both colours
        with both values."""
        rng = np.random.default_rng(4321)
        seen = set()
        for c, gb, eb in random_circuits(rng):
            gc, out, bits = run_garbled(c, gb, eb, rng)
            w = b2a_test_weights(c.outputs.size, p)
            corr, t = G.b2a_corrections(gc, w, p)
            assert (corr < p).all() and (t < p).all()
            check_b2a_shares(out, gc, corr, t, w, bits.T, p)
            colour = out[..., 0] & np.uint64(1)
            seen.update(zip(colour.ravel().tolist(), bits.T.ravel().tolist()))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_random_circuits_match_plain(self):
        rng = np.random.default_rng(1234)
        for c, gb, eb in random_circuits(rng):
            _, _, bits = run_garbled(c, gb, eb, rng)
            assert np.array_equal(bits, c.plain_eval(gb, eb))


def check_hardcoded_garbler_bits(circ, gbits, ebits, rng):
    """Garbling with the garbler's bits and with their complement leaves
    every constant and garbler-input wire with the all-zero active label.
    The tables are all that differ: on the evaluator labels the OT fixed,
    flipping one garbler bit changes the outputs as `plain_eval` says.
    Returns whether the flip changed any output."""
    delta, zero = session_inputs(circ, gbits.shape[0], rng)
    for bits in (gbits, 1 - gbits):
        wire0 = garble_solo(circ, delta, bits, zero).wire0
        assert not (wire0[circ.garbler_inputs]
                    ^ bits.T[..., None] * delta).any()
        assert not wire0[CONST0].any()
        assert not (wire0[CONST1] ^ delta).any()
    flipped = gbits.copy()
    flipped[rng.integers(gbits.shape[0]), rng.integers(gbits.shape[1])] ^= 1
    outs = []
    for bits in (gbits, flipped):
        gc = garble_solo(circ, delta, bits, zero)
        out = evaluate_solo(gc, evaluator_labels(gc, ebits))
        outs.append(read_bits(gc, out))
        assert np.array_equal(outs[-1], circ.plain_eval(bits, ebits))
    want = circ.plain_eval(gbits, ebits) != circ.plain_eval(flipped, ebits)
    assert np.array_equal(outs[0] != outs[1], want)
    return want.any()


class TestHardcodedGarblerBits:
    def test_random_circuits(self):
        rng = np.random.default_rng(601)
        changed = [check_hardcoded_garbler_bits(c, gb, eb, rng)
                   for c, gb, eb in random_circuits(rng)]
        assert 0 < sum(changed) < len(changed)

    def test_tiny_stage_circuits(self):
        """Every stage circuit of the tiny shape's three plans; each has
        the window shares of the garbler as inputs."""
        rng = np.random.default_rng(602)
        changed = []
        for circ, E in _stage_circuits(TINY, ("baseline", "opt1", "opt2")):
            gb, eb = _random_bits(circ, E, rng)
            changed.append(check_hardcoded_garbler_bits(circ, gb, eb, rng))
        assert any(changed)

    @pytest.mark.parametrize("bits,error", [
        pytest.param(np.zeros((3, 7), np.uint8), "wrong shape", id="n-gin"),
        pytest.param(np.zeros((2, 8), np.uint8), "wrong shape",
                     id="instances"),
        pytest.param(np.zeros((3 * 8,), np.uint8), "wrong shape", id="flat"),
        pytest.param(np.full((3, 8), 2, np.uint8), "outside", id="two"),
        pytest.param(np.full((3, 8), -1, np.int64), "outside", id="minus-one"),
        pytest.param(np.full((3, 8), 0.5), "outside", id="half"),
    ])
    def test_malformed_garbler_bits_refused(self, bits, error):
        c = build_adder(8)
        delta, zero = session_inputs(c, 3, np.random.default_rng(603))
        with pytest.raises(CircuitError, match=error):
            garble_solo(c, delta, bits, zero)


def random_circuits(rng):
    """60 random XOR/AND/NOT circuits, each with random garbler and
    evaluator bits for 8 instances.  Callers that garble each one with `rng`
    before asking for the next see the same circuits."""
    for _ in range(60):
        b = Builder()
        pool = ([b.garbler_input() for _ in range(int(rng.integers(1, 5)))]
                + [b.evaluator_input() for _ in range(int(rng.integers(1, 5)))]
                + [0, 1])
        for _ in range(int(rng.integers(4, 30))):
            i, j = rng.integers(0, len(pool), 2)
            op = rng.integers(0, 3)
            if op == 0:
                pool.append(b.xor(pool[i], pool[j]))
            elif op == 1:
                pool.append(b.and_(pool[i], pool[j]))
            else:
                pool.append(b.inv(pool[i]))
        for w in rng.choice(len(pool), size=4, replace=False):
            b.mark_output(pool[w])
        c = b.freeze()
        gb = rng.integers(0, 2, (8, c.garbler_inputs.size), dtype=np.uint8)
        eb = rng.integers(0, 2, (8, c.evaluator_inputs.size), dtype=np.uint8)
        yield c, gb, eb


# ----------------------------------------------------------------------------
# the level schedule against the gate-by-gate reference

def _tweaks(word0, instances, ns):
    """The 128-bit namespace's low word beside word0, its high word beside
    the instance."""
    tw = np.zeros((instances, 2), dtype=np.uint64)
    tw[:, 0] = np.uint64(word0) + np.uint64(ns & (2**64 - 1))
    tw[:, 1] = np.uint64(ns >> 64) + np.arange(instances, dtype=np.uint64)
    return tw


def _lsb(x):
    return (x[..., 0] & np.uint64(1)).astype(np.uint64)


def reference_hash(labels, tweaks):
    """H(X, t) = AES_k(2X ^ t) ^ 2X ^ t for (N, 2) labels, doubling in
    GF(2^128) modulo x^128 + x^7 + x^2 + x + 1, with the garbler's key."""
    lo, hi = labels[:, 0], labels[:, 1]
    t = np.empty_like(labels)
    t[:, 1] = (hi << np.uint64(1)) | (lo >> np.uint64(63))
    t[:, 0] = (lo << np.uint64(1)) ^ ((hi >> np.uint64(63)) * np.uint64(0x87))
    t ^= tweaks
    aes = Cipher(algorithms.AES(bytes(range(16))), modes.ECB()).encryptor()
    raw = aes.update(t.astype("<u8").tobytes())
    return np.frombuffer(raw, dtype="<u8").reshape(t.shape) ^ t


def and_ordinals(circuits):
    """Each AND's ordinal in the walk of `circuits`, {(circuit, gate): j}:
    the ANDs sorted by (depth, circuit, gate), a gate's depth being one
    more than the deeper of its inputs, an input's or constant's 0."""
    keys = []
    for i, c in enumerate(circuits):
        depth = np.zeros(c.n_wires, dtype=np.int64)
        for g in range(c.ops.size):
            depth[c.out[g]] = 1 + max(depth[c.in0[g]], depth[c.in1[g]])
            if c.ops[g] == OP_AND:
                keys.append((int(depth[c.out[g]]), i, g))
    return {(i, g): j for j, (_d, i, g) in enumerate(sorted(keys))}


def reference_garble(circuits, delta, garbler_bits, evaluator_zero, ns):
    """Half-gates garbling of the walk of `circuits` one gate at a time,
    circuit after circuit, one AES batch per AND, under the session offset
    `delta`, the garbler's bits (E, n_gin) and the evaluator's zero labels,
    circuit after circuit as `garble` takes them: (wire0, tables,
    (pads0, pads1)).  AND j of the walk (`and_ordinals`) has tweaks 2j and
    2j+1 and table row j; output i of the walk has pad tweak i under the
    B2A flag.  Every wire whose value the garbler knows gets the zero label
    that makes its active label 0: CONST0 0, CONST1 delta, and a garbler
    input of value t t * delta."""
    E = evaluator_zero.shape[1]
    ordinal = and_ordinals(circuits)
    bases = np.cumsum([0] + [c.n_wires for c in circuits])
    wire0 = np.zeros((bases[-1], E, 2), dtype=np.uint64)
    tables = np.empty((len(ordinal), E, 2, 2), dtype=np.uint64)
    gin = ein = 0
    outs = []
    for i, (c, base) in enumerate(zip(circuits, bases)):
        wire0[base + CONST1] = delta
        for k, w in enumerate(c.garbler_inputs):
            for e in range(E):
                if garbler_bits[e, gin + k]:
                    wire0[base + w, e] = delta
        n_ein = c.evaluator_inputs.size
        wire0[base + c.evaluator_inputs] = evaluator_zero[ein:ein + n_ein]
        gin += c.garbler_inputs.size
        ein += n_ein
        for g in range(c.ops.size):
            a0 = wire0[base + c.in0[g]]
            b0 = wire0[base + c.in1[g]]
            if c.ops[g] != OP_AND:
                wire0[base + c.out[g]] = a0 ^ b0
                continue
            j = ordinal[i, g]
            a1 = a0 ^ delta
            b1 = b0 ^ delta
            tw0 = _tweaks(2 * j, E, ns)
            tw1 = _tweaks(2 * j + 1, E, ns)
            h = reference_hash(np.concatenate([a0, a1, b0, b1]),
                               np.concatenate([tw0, tw0, tw1, tw1]))
            ha0, ha1, hb0, hb1 = h[:E], h[E:2 * E], h[2 * E:3 * E], h[3 * E:]
            pa = _lsb(a0)[:, None]
            pb = _lsb(b0)[:, None]
            tg = ha0 ^ ha1 ^ pb * delta
            wg = ha0 ^ pa * tg
            te = hb0 ^ hb1 ^ a0
            we = hb0 ^ pb * (te ^ a0)
            wire0[base + c.out[g]] = wg ^ we
            tables[j, :, 0] = tg
            tables[j, :, 1] = te
        outs += [base + w for w in c.outputs]

    pads = np.empty((2, len(outs), E, 2), dtype=np.uint64)
    for i, w in enumerate(outs):
        for v, label in enumerate((wire0[w], wire0[w] ^ delta)):
            pads[v, i] = reference_hash(
                label, _tweaks(G._B2A_NS | np.uint64(i), E, ns))
    return wire0, tables, pads


def reference_evaluate(circuits, tables, evaluator_active, ns):
    """Half-gates evaluation of the walk of `circuits` one gate at a time,
    circuit after circuit: active output labels, circuit after circuit.
    The constants and the garbler's inputs hold the all-zero label."""
    E = evaluator_active.shape[1]
    ordinal = and_ordinals(circuits)
    outs, ein = [], 0
    for i, c in enumerate(circuits):
        active = np.zeros((c.n_wires, E, 2), dtype=np.uint64)
        n_ein = c.evaluator_inputs.size
        active[c.evaluator_inputs] = evaluator_active[ein:ein + n_ein]
        ein += n_ein
        for g in range(c.ops.size):
            wa = active[c.in0[g]]
            wb = active[c.in1[g]]
            if c.ops[g] != OP_AND:
                active[c.out[g]] = wa ^ wb
                continue
            j = ordinal[i, g]
            h = reference_hash(np.concatenate([wa, wb]),
                               np.concatenate([_tweaks(2 * j, E, ns),
                                               _tweaks(2 * j + 1, E, ns)]))
            ha, hb = h[:E], h[E:]
            tg = tables[j, :, 0]
            te = tables[j, :, 1]
            sa = _lsb(wa)[:, None]
            sb = _lsb(wb)[:, None]
            active[c.out[g]] = (ha ^ sa * tg) ^ (hb ^ sb * (te ^ wa))
        outs.append(active[c.outputs])
    return np.concatenate(outs)


def assert_matches_reference(sched, inputs, rng, ns=NS):
    """Garble the walk `sched` and run the reference on the same inputs
    from `rng`, each circuit's (garbler bits, evaluator bits) in `inputs`,
    evaluate both on the same active labels, and compare every array byte
    for byte, the B2A corrections against the reference's per-value pads
    included; each circuit's outputs read as its `plain_eval` says."""
    gbits, ebits = (np.concatenate(part, axis=1) for part in zip(*inputs))
    delta, zero = session_inputs(sched, gbits.shape[0], rng)
    circuits = sched.circuits
    wire0, tables, pads = reference_garble(circuits, delta, gbits, zero, ns)
    gc = G.garble(sched, delta, gbits, zero, ns)
    assert np.array_equal(gc.wire0, wire0)
    assert np.array_equal(gc.tables, tables)
    p = B2A_PRIMES[-1]
    w, corr, t = checked_b2a_corrections(gc, pads, p)
    e_act = evaluator_labels(gc, ebits)
    out = G.evaluate(sched, gc.tables, e_act, ns)
    assert np.array_equal(out, reference_evaluate(circuits, tables, e_act,
                                                  ns))
    bits = read_bits(gc, out)
    assert np.array_equal(bits, np.concatenate(
        [c.plain_eval(gb, eb) for c, (gb, eb) in zip(circuits, inputs)],
        axis=1))
    check_b2a_shares(out, gc, corr, t, w, bits.T, p)


def _random_bits(circ, instances, rng):
    return (rng.integers(0, 2, (instances, circ.garbler_inputs.size), dtype=np.uint8),
            rng.integers(0, 2, (instances, circ.evaluator_inputs.size), dtype=np.uint8))


TINY = ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8, n_layers=1,
                   n_classes=2, w=20, f=9)
GC_L16 = ModelConfig(vocab=8, seq_len=16, dim=4, ff_dim=8, n_layers=1,
                     n_classes=2)


def _stage_circuits(cfg, modes):
    """Distinct (circuit, instance count) pairs of the plans' stages, each
    at the instance count of the first stage that has it: a row divider
    per stage shape, an affine circuit per window and relu."""
    seen = {}
    for mode in modes:
        for enc in cfg.plan(mode).encoders:
            for spec in enc:
                for g, circ, E in stage_circuits(spec):
                    key = (spec.shape if spec.kind == "rowdiv"
                           else (*spec.shape[:4], g.relu))
                    seen.setdefault(key, (circ, E))
    return list(seen.values())


def _row_divider():
    (spec,) = [s for s in GC_L16.plan("baseline").encoders[0]
               if s.kind == "rowdiv"]
    ((_g, circ, _E),) = stage_circuits(spec)
    return circ


HE_SMALL = ModelConfig(vocab=32, seq_len=8, dim=16, ff_dim=32, n_layers=2,
                       n_classes=2)


def _stage_specs(cfg, modes):
    """(layer, stage, spec) of one stage of each shape in the plans."""
    seen = {}
    for mode in modes:
        for e, enc in enumerate(cfg.plan(mode).encoders):
            for si, spec in enumerate(enc):
                key = (spec.kind, spec.m, spec.shift, spec.keep, spec.frac,
                       spec.rows, tuple((g.count, g.relu)
                                        for g in spec.groups))
                seen.setdefault(key, (e, si, spec))
    return list(seen.values())


def check_stage_walk(layer, stage, spec, rng):
    """Garble a stage's groups as one walk under the stage's namespace and
    check it whole against the per-gate reference: zero labels, tables,
    B2A corrections and evaluated outputs, each group's outputs reading as
    its circuit's `plain_eval` says."""
    groups = stage_circuits(spec)
    sched = schedule([c for _g, c, _E in groups])
    assert_matches_reference(
        sched, [_random_bits(c, E, rng) for _g, c, E in groups], rng,
        G.tweak_namespace(layer, stage, 7))


class TestStageWalk:
    @pytest.mark.parametrize("cfg,modes", [
        pytest.param(TINY, ("baseline", "opt1", "opt2"), id="tiny"),
        pytest.param(GC_L16, ("baseline",), id="gc-l16-baseline"),
        pytest.param(HE_SMALL, ("opt2",), id="he-small-opt2"),
    ])
    def test_stage_walks_match_the_per_gate_reference(self, cfg, modes):
        """Every stage shape of the benchmark's plans, at its real
        instance count, through the one walk of all its groups."""
        rng = np.random.default_rng(504)
        specs = _stage_specs(cfg, modes)
        assert any(len(spec.groups) > 1 for _e, _s, spec in specs)
        for layer, stage, spec in specs:
            check_stage_walk(layer, stage, spec, rng)

    @pytest.mark.parametrize("block", [1, 64, 1 << 40])
    def test_tweak_runs_leave_the_garbling_as_it_is(self, monkeypatch,
                                                    block):
        """The AND tweaks are built for runs of whole levels: a run of one
        level however small, runs of a few levels, or the whole walk at
        once give the tables and outputs of the per-gate reference."""
        monkeypatch.setattr(G, "_TWEAK_BLOCK", block)
        (layer, stage, spec), = [s for s in _stage_specs(GC_L16,
                                                         ("baseline",))
                                 if s[2].kind == "rowdiv"]
        check_stage_walk(layer, stage, spec, np.random.default_rng(506))

    def test_stage_of_unequal_instance_counts_is_refused(self):
        """One walk holds one instance count, so a stage whose groups
        differ in it is refused, not padded."""
        spec = TINY.plan("opt1").stage(0, "qkv_rescale")
        (q, k, v) = spec.groups
        uneven = replace(spec, groups=(q, StageGroup("k", k.count // 2),
                                       v))
        with pytest.raises(ParameterError, match="one walk needs one count"):
            stage_circuits(uneven)

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda t, _n: t[:-1], id="one-and-short"),
        pytest.param(lambda t, _n: t[:, :-1], id="one-instance-short"),
        pytest.param(lambda t, n: np.split(t, [n]), id="per-circuit-list"),
    ])
    def test_evaluate_refuses_tables_of_the_wrong_shape(self, cut):
        """`evaluate` takes the walk's tables as one (n_and, E, 2, 2)
        block: one AND short, one instance short, or split circuit by
        circuit, they are refused."""
        sched = schedule([build_adder(4), build_adder(6)])
        rng = np.random.default_rng(505)
        delta, zero = session_inputs(sched, 3, rng)
        gbits = np.zeros((3, sched.garbler_inputs.size), np.uint8)
        gc = G.garble(sched, delta, gbits, zero, NS)
        assert G.evaluate(sched, gc.tables, zero, NS).shape == (10, 3, 2)
        with pytest.raises(CircuitError, match="one .* block of the walk"):
            G.evaluate(sched, cut(gc.tables, sched.circuits[0].n_and), zero,
                       NS)


class TestLevelSchedule:
    def test_tiny_stage_circuits_match_reference(self):
        rng = np.random.default_rng(501)
        for circ, E in _stage_circuits(TINY, ("baseline", "opt1", "opt2")):
            assert_matches_reference(solo(circ), [_random_bits(circ, E, rng)],
                                     rng)

    def test_row_divider_matches_reference(self):
        """The gc-l16 attention row divider: 7,285 ANDs over 1,207 levels,
        on three instances to keep the per-gate reference quick."""
        circ = _row_divider()
        rng = np.random.default_rng(502)
        assert_matches_reference(solo(circ), [_random_bits(circ, 3, rng)], rng)

    def test_random_circuits_match_reference(self):
        rng = np.random.default_rng(1234)
        for c, gb, eb in random_circuits(rng):
            assert_matches_reference(solo(c), [(gb, eb)], rng)

    @staticmethod
    def check_schedule(sched):
        """Every gate of every circuit sits in exactly one level, the one
        of its depth in its own circuit, and reads only constants, inputs
        and earlier levels; within a level gates run circuit after
        circuit, each in its own order, and the level's ANDs are the run
        `lv.ands` of the walk's AND ordinals (`and_ordinals`), the runs
        following each other from 0 to n_and."""
        wire_base = np.cumsum([0] + [c.n_wires for c in sched.circuits])
        gate_of, ready = {}, set()
        for i, c in enumerate(sched.circuits):
            for g, w in enumerate(c.out):
                gate_of[int(w) + wire_base[i]] = (i, g)
            ready.update(int(w) + wire_base[i] for w in (
                CONST0, CONST1, *c.garbler_inputs, *c.evaluator_inputs))
        depths = [c.depths() for c in sched.circuits]
        assert len(sched.levels) == max((int(d.max()) for d in depths
                                         if d.size), default=0)
        ordinal = and_ordinals(sched.circuits)
        wires = np.arange(sched.n_wires)
        placed, walked = [], 0
        for depth, lv in enumerate(sched.levels, 1):
            xin0, xin1, xout = (wires[i] for i in (lv.xor_in0, lv.xor_in1,
                                                   lv.xor_out))
            ain0, ain1 = lv.and_in
            aout = wires[lv.and_out]
            assert xin0.size == xin1.size == xout.size == lv.n_xor
            assert ain0.size == ain1.size == aout.size == lv.n_and
            assert all(int(w) in ready
                       for w in np.concatenate([xin0, xin1, ain0, ain1]))
            for out, in0, in1, is_and in ((xout, xin0, xin1, False),
                                          (aout, ain0, ain1, True)):
                who = [gate_of[int(w)] for w in out]
                assert who == sorted(who)
                for (i, g), a, b in zip(who, in0, in1):
                    c, base = sched.circuits[i], wire_base[i]
                    assert (c.ops[g] == OP_AND) == is_and
                    assert (c.in0[g] + base, c.in1[g] + base) == (a, b)
                    assert depths[i][g] == depth
                placed += who
            assert lv.ands == slice(walked, walked + lv.n_and)
            assert [ordinal[ig] for ig in who] == list(range(walked,
                                                             lv.ands.stop))
            walked = lv.ands.stop
            ready.update(xout.tolist() + aout.tolist())
        assert walked == sched.n_and == len(ordinal)
        assert sorted(placed) == [(i, g) for i, c in enumerate(sched.circuits)
                                  for g in range(c.ops.size)]

    def test_schedule_invariants(self):
        circuits = [c for c, _ in _stage_circuits(TINY, ("baseline", "opt1",
                                                         "opt2"))]
        circuits.append(_row_divider())
        circuits += [c for c, _, _ in random_circuits(np.random.default_rng(77))]
        for circ in circuits:
            self.check_schedule(solo(circ))
        # the stage walks, and circuits of unequal depth walked together
        for _e, _s, spec in _stage_specs(TINY, ("baseline", "opt1", "opt2")):
            self.check_schedule(stage_schedule(spec))
        self.check_schedule(schedule(circuits[:3] + circuits[-4:]))

    def test_zero_gate_circuit(self):
        b = Builder()
        x = b.garbler_word(8)
        y = b.evaluator_word(3)
        b.mark_output_word(b.shift_right_arith(x, 3))
        b.mark_output_word(b.saturate(y, 5))
        c = b.freeze()
        assert c.ops.size == 0 and solo(c).levels == ()
        rng = np.random.default_rng(503)
        assert_matches_reference(solo(c), [_random_bits(c, 4, rng)], rng)


@pytest.fixture(scope="module")
def ot_session():
    rng_c = np.random.default_rng(21)
    rng_s = np.random.default_rng(22)
    ext_recv = O.OtExtReceiver(rng_c)
    ext_send = O.OtExtSender(rng_s)
    base_s = O.BaseOtSender(rng_c)
    base_r = O.BaseOtReceiver(rng_s, ext_send.s_bits, base_s.msg_a)
    k0, k1 = base_s.keys(base_r.msgs_b)
    ext_send.recover_seeds(ext_recv.seed_messages(k0, k1), base_r.keys())
    u, recv_batch = ext_recv.extend(2000)
    send_batch = ext_send.receive_extension(u, 2000)
    return recv_batch, send_batch


def _extension_streams():
    """The receiver's and the sender's leaves, whose column streams every
    extension reads, and the sender's s, as 128 base OTs leave them."""
    rng_c = np.random.default_rng(31)
    rng_s = np.random.default_rng(32)
    recv, send = O.OtExtReceiver(rng_c), O.OtExtSender(rng_s)
    base_s = O.BaseOtSender(rng_c)
    base_r = O.BaseOtReceiver(rng_s, send.s_bits, base_s.msg_a)
    send.recover_seeds(recv.seed_messages(*base_s.keys(base_r.msgs_b)),
                       base_r.keys())
    return recv.leaves, send.leaves, send.s_bits


@pytest.mark.parametrize("side", ["receiver", "sender"])
def test_extension_peak_stays_within_40_bytes_an_ot(side):
    """At 2^18 OTs, four chunks, each side's tracemalloc peak is at most 40
    bytes per OT above its input: the receiver holds its choice bits (one
    byte), the correction columns (31 bits at K = 4) and the rows (16
    bytes), 21 bytes an OT, the sender its rows, and each side one chunk's
    columns and one slab of the transpose besides.  Measured at K = 4:
    27.0 bytes an OT on the receiver and 22.0 on the sender."""
    M = 1 << 18
    recv_streams, send_streams, s_bits = _extension_streams()
    rng = np.random.default_rng(32)
    if side == "receiver":
        def run():
            return O.OtExtReceiver(rng, recv_streams).extend(M)
    else:
        u = np.ascontiguousarray(
            O.OtExtReceiver(rng, recv_streams).extend(M)[0])

        def run():
            return O.OtExtSender(rng, s_bits, send_streams).receive_extension(
                u, M)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out is not None
    assert peak / M <= 40


def _base_ot(seed):
    """128 base OTs between seeded parties: (k0, k1, the receiver's keys,
    its choices)."""
    rng_c = np.random.default_rng(seed)
    rng_s = np.random.default_rng(seed + 100)
    choices = rng_s.integers(0, 2, O.LAMBDA, dtype=np.uint8)
    sender = O.BaseOtSender(rng_c)
    receiver = O.BaseOtReceiver(rng_s, choices, sender.msg_a)
    k0, k1 = sender.keys(receiver.msgs_b)
    return k0, k1, receiver.keys(), choices


# P-256's curve constant b (SEC 2, section 2.4.2): y^2 = x^3 - 3x + b
_P256_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B


def _first_x(residue):
    """The smallest x whose x^3 - 3x + b is (not) a square mod p, so a
    point with that x is (is not) on the curve."""
    want = 1 if residue else O._P - 1
    return next(x for x in range(1, 100)
                if pow((x**3 - 3 * x + _P256_B) % O._P, (O._P - 1) // 2,
                       O._P) == want)


def _point(x, prefix=2):
    return bytes([prefix]) + x.to_bytes(32, "big")


HONEST = O.BaseOtSender(np.random.default_rng(9)).msg_a
MALFORMED_POINTS = {
    "32-bytes": HONEST[:32],
    "34-bytes": HONEST + b"\x00",
    "off-curve": _point(_first_x(False)),
    "x-past-p": _point(_first_x(True) + O._P),
    "identity": b"\x00",
    "bad-prefix": bytes([5]) + HONEST[1:],
}


class TestOt:
    def test_random_ot_pads_agree(self, ot_session):
        """Every sender row is the receiver's row moved by b_j delta, and
        never by the other bit; delta's colour bit is 1."""
        recv, send = ot_session
        assert send.delta[0] & np.uint64(1) == 1
        b = recv.b[:, None].astype(np.uint64)
        assert np.array_equal(send.q, recv.t ^ b * send.delta)
        other = recv.t ^ (1 - b) * send.delta
        assert not (send.q == other).all(axis=1).any()

    def test_derandomized_transfer(self, ot_session):
        """The sender's zero label L0_j = q_j ^ d_j delta, moved by c_j
        delta, is the receiver's row t_j, and moved by the other bit never
        is, for both values of every c_j."""
        recv, send = ot_session
        rng = np.random.default_rng(5)
        for count in (64, 400):
            c = rng.integers(0, 2, count, dtype=np.uint8)
            for choice in (c, 1 - c):
                zero = send.derand_respond(recv.derand_request(choice))
                t = recv.derand_finish(choice)
                on = choice[:, None].astype(np.uint64)
                assert np.array_equal(zero ^ on * send.delta, t)
                other = zero ^ (1 - on) * send.delta
                assert not (other == t).all(axis=1).any()

    def test_supply_exhaustion(self, ot_session):
        recv, send = ot_session
        with pytest.raises(ProtocolError):
            recv.derand_request(np.zeros(5000, dtype=np.uint8))

    @pytest.mark.parametrize("M", [1, 8, 63, 1000, 1001, 4099, 20003])
    def test_transpose_bits_matches_unpacked_reference(self, M):
        """The packed transpose gives the rows of unpacking every column to
        a byte per bit, transposing and packing again, also for M not a
        multiple of 8 or 64 and over several slabs of columns, and leaves
        its input as it was."""
        rng = np.random.default_rng(M)
        cols = rng.integers(0, 256, (O.LAMBDA, -(-M // 8)), dtype=np.uint8)
        before = cols.copy()
        bits = np.unpackbits(cols, axis=1).T                # (Mb, LAMBDA)
        rows = np.packbits(bits, axis=1).tobytes()          # 16 B a row
        want = np.frombuffer(rows, dtype="<u8").reshape(-1, 2)[:M]
        got = np.empty((M, 2), dtype=np.uint64)
        O._transpose_bits(cols, got)
        assert np.array_equal(got, want)
        assert np.array_equal(cols, before)

    def test_extension_resumes_at_a_stream_position(self, ot_session):
        """An extension from stream block P on is the stretch of one
        extension from block 0 that starts at row 128 P, on both sides, and
        holds the IKNP correlation under the same s; reading the columns
        in small chunks and slabs changes no row."""
        recv_streams, send_streams, s_bits = _extension_streams()
        M0, M1 = 3000, 2500
        P = O.stream_blocks(M0)
        rng = np.random.default_rng(8)
        whole = O.OtExtReceiver(rng, recv_streams).extend(128 * P + M1)[1]
        u, later = O.OtExtReceiver(rng, recv_streams).extend(M1, P)
        assert np.array_equal(later.t, whole.t[128 * P:])
        send = O.OtExtSender(rng, s_bits, send_streams).receive_extension(
            u, M1, P)
        b = later.b[:, None].astype(np.uint64)
        assert np.array_equal(send.q, later.t ^ b * send.delta)
        rows = later.t
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(O, "CHUNK_OTS", 1024)
            patched.setattr(O, "_SLAB", 16)
            again = O.OtExtReceiver(rng, recv_streams).extend(M1, P)[1]
            send_again = O.OtExtSender(rng, s_bits, send_streams) \
                .receive_extension(u, M1, P)
        assert np.array_equal(again.t, rows)
        assert np.array_equal(send_again.q, send.q)

    def test_bad_point_rejected(self):
        """A point list of all-zero 33-byte slots is refused: no point is
        encoded with a zero prefix."""
        sender = O.BaseOtSender(np.random.default_rng(3))
        with pytest.raises(ProtocolError, match="base-OT point refused"):
            sender.keys(bytes(O.LAMBDA * O.POINT_BYTES))


# SoftSpokenOT against a reference written apart from `gc.ot`: one GGM node
# at a time, puncturing from each level's sum off the path, and the VOLE
# sums bit by bit over unpacked streams

_TAU = bytes(15) + b"\x80"     # the top bit of a node's high word


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _ref_children(node: bytes) -> list[bytes]:
    """H(node) and H(node ^ tau), H(x) = pi(x) ^ x, pi AES under the trees'
    fixed key."""
    pi = Cipher(algorithms.AES(O._GGM.algorithm.key), modes.ECB()).encryptor()
    return [_xor(pi.update(x), x) for x in (node, _xor(node, _TAU))]


def _ref_tree(root: bytes, k: int) -> list[list[bytes]]:
    """Levels 0 .. k of the GGM tree under `root`; node j's children are
    2j and 2j + 1 of the next level."""
    levels = [[root]]
    for _ in range(k):
        levels.append([c for node in levels[-1] for c in _ref_children(node)])
    return levels


def _ref_level_sum(level: list[bytes], side: int) -> bytes:
    out = bytes(16)
    for node in level[side::2]:
        out = _xor(out, node)
    return out


def _ref_punctured(off_path: list[bytes], d: int, k: int) -> list:
    """The leaves rebuilt from the sum of each level l = 1 .. k on the side
    off the path to leaf d, `off_path[l - 1]`: None where unknown, at leaf
    d alone."""
    level = [None]
    for depth in range(1, k + 1):
        kids = []
        for node in level:
            kids += [None, None] if node is None else _ref_children(node)
        path = d >> (k - depth)
        known = [n for n in kids[(path & 1) ^ 1::2] if n is not None]
        sibling = off_path[depth - 1]
        for node in known:
            sibling = _xor(sibling, node)
        kids[path ^ 1] = sibling
        level = kids
    return level


def _ref_stream_bits(leaf: bytes, tree: int, index: int, start: int,
                     M: int) -> np.ndarray:
    """M bits of the column stream of leaf `index` of tree `tree`, whose
    value is `leaf`, from block `start` on: block j is pi(leaf ^ t) ^ leaf,
    pi AES under the trees' public key, t the counter j in the low word
    and, in the high one, bit 62 (the stream domain), the tree from bit 32
    and the leaf's index."""
    pi = Cipher(algorithms.AES(bytes(range(16, 32))), modes.ECB()).encryptor()
    high = (1 << 62 | tree << 32 | index).to_bytes(8, "little")
    raw = b"".join(
        _xor(pi.update(_xor(leaf, j.to_bytes(8, "little") + high)), leaf)
        for j in range(start, start + -(-M // 128)))
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:M]


def _ref_rows(cols: np.ndarray) -> np.ndarray:
    """The (M, 2) labels whose bit columns are `cols`, (LAMBDA, M)."""
    rows = np.packbits(np.ascontiguousarray(cols.T), axis=1)
    return rows.view("<u8").astype(np.uint64)


def _ref_soft_spoken(roots, s_bits, k, M, start):
    """Both halves of an extension from tree roots and s: the leaves, each
    tree's level sums by leaf bit, the server's leaves, the choice bits,
    the correction columns and both parties' rows."""
    trees = [_ref_tree(r, k) for r in roots]
    d = [int(sum(int(s_bits[k * i + y]) << y for y in range(k)))
         for i in range(len(roots))]
    # level k - y branches on bit y of a leaf's index
    sums = [[[_ref_level_sum(t[k - y], side) for side in (0, 1)]
             for y in range(k)] for t in trees]
    punctured = [_ref_punctured([sums[i][k - depth][(d[i] >> (k - depth))
                                                   & 1 ^ 1]
                                 for depth in range(1, k + 1)], d[i], k)
                 for i in range(len(roots))]
    t_cols, q_cols, us = [], [], []
    for i, tree in enumerate(trees):
        r = [_ref_stream_bits(leaf, i, x, start, M)
             for x, leaf in enumerate(tree[k])]
        u = np.zeros(M, dtype=np.uint8)
        v = np.zeros((k, M), dtype=np.uint8)
        w = np.zeros((k, M), dtype=np.uint8)
        for x, bits in enumerate(r):
            u ^= bits
            for y in range(k):
                v[y] ^= (x >> y & 1) * bits
                if x != d[i]:
                    w[y] ^= ((x ^ d[i]) >> y & 1) * bits
        us.append(u)
        t_cols.append(v)
        q_cols.append(w)
    b = us[0]
    c = [u ^ b for u in us[1:]]
    for i in range(1, len(roots)):
        for y in range(k):
            q_cols[i][y] ^= (d[i] >> y & 1) * c[i - 1]
    return dict(leaves=[t[k] for t in trees], sums=sums, d=d,
                punctured=punctured, b=b, c=np.array(c),
                t=_ref_rows(np.concatenate(t_cols)),
                q=_ref_rows(np.concatenate(q_cols)))


def _leaf_bytes(leaves: np.ndarray) -> list[list[bytes]]:
    """Each tree's leaves, (trees, L, 2) uint64, as 16-byte strings."""
    return [[leaf.astype("<u8").tobytes() for leaf in tree]
            for tree in leaves]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_soft_spoken_matches_the_reference(monkeypatch, k):
    """At K = 2, 4 and 8, with s's colour column forced: the client's
    leaves and level messages, the server's leaves, the choice bits, the
    correction columns and both sides' rows are the reference's, the
    server's leaf set of each tree lacks exactly leaf d_i, and the rows
    hold q_j = t_j ^ b_j s.  The client's roots are the first bytes its
    generator draws."""
    monkeypatch.setattr(O, "K", k)
    trees, M, start = O.LAMBDA // k, 203, 3
    raw = np.random.default_rng(41).bytes(16 * trees)
    roots = [raw[16 * i:16 * i + 16] for i in range(trees)]
    recv = O.OtExtReceiver(np.random.default_rng(41))
    send = O.OtExtSender(np.random.default_rng(42))
    assert send.s_bits[O.COLOUR_COLUMN] == 1
    ref = _ref_soft_spoken(roots, send.s_bits, k, M, start)

    assert recv.leaves.shape == (trees, 1 << k, 2)
    assert not recv.leaves.flags.writeable
    assert _leaf_bytes(recv.leaves) == ref["leaves"]
    rng = np.random.default_rng(43)
    k0, k1 = (rng.integers(0, 1 << 63, (O.LAMBDA, 2), dtype=np.uint64)
              for _ in range(2))
    msgs = recv.seed_messages(k0, k1)
    for i in range(trees):
        for y in range(k):
            for c, key in enumerate((k0, k1)):
                got = (msgs[k * i + y, c] ^ key[k * i + y]).astype("<u8")
                assert got.tobytes() == ref["sums"][i][y][1 - c]
    chosen = np.where(send.s_bits[:, None] == 1, k1, k0)
    send.recover_seeds(msgs, chosen)
    assert list(send.punctures()) == ref["d"]
    assert send.leaves.shape == (trees, (1 << k) - 1, 2)
    assert not send.leaves.flags.writeable
    for i, tree in enumerate(_leaf_bytes(send.leaves)):
        lacking = ref["leaves"][i][ref["d"][i]]
        assert set(tree) == set(ref["leaves"][i]) - {lacking}
        assert [ref["punctured"][i][y ^ ref["d"][i]]
                for y in range(1, 1 << k)] == tree

    c_cols, batch = recv.extend(M, start)
    assert c_cols.shape == (trees - 1, -(-M // 8))
    assert np.array_equal(np.unpackbits(c_cols, axis=1)[:, :M], ref["c"])
    assert np.array_equal(batch.b, ref["b"])
    assert np.array_equal(batch.t, ref["t"])
    pairs = send.receive_extension(c_cols, M, start)
    assert np.array_equal(pairs.q, ref["q"])
    b = batch.b[:, None].astype(np.uint64)
    assert np.array_equal(pairs.q, batch.t ^ b * pairs.delta)
    assert pairs.delta[0] & np.uint64(1) == 1


def _recording_streams(monkeypatch) -> list[tuple]:
    """Every read of leaf streams from here on, as (leaves, tweak words,
    first block, blocks) in call order."""
    stream, reads = O._stream, []

    def recording(leaves, tweaks, start, blocks):
        reads.append((leaves.copy(), tweaks.copy(), start, blocks))
        return stream(leaves, tweaks, start, blocks)

    monkeypatch.setattr(O, "_stream", recording)
    return reads


def test_consecutive_extensions_share_no_stream_block(monkeypatch):
    """Two extensions resumed at consecutive stream positions, read in
    chunks of a few blocks, take disjoint block ranges of every stream on
    both sides, the second starting where the first ends, and share no
    row."""
    recv_leaves, send_leaves, s_bits = _extension_streams()
    reads = _recording_streams(monkeypatch)
    monkeypatch.setattr(O, "CHUNK_OTS", 1024)
    M, P = 3000, 5
    rng = np.random.default_rng(9)
    rows = []
    for position in (P, P + O.stream_blocks(M)):
        c_cols, batch = O.OtExtReceiver(rng, recv_leaves).extend(
            M, position)
        O.OtExtSender(rng, s_bits, send_leaves).receive_extension(
            c_cols, M, position)
        rows.append(batch.t)
    # by tree and side: a tree's leaves on one side name it
    blocks = {}
    for leaves, _tweaks, start, count in reads:
        for tree in leaves:
            blocks.setdefault(tree.tobytes(), []).append(
                set(range(start, start + count)))
    n = O.stream_blocks(M)
    assert len(blocks) == len(recv_leaves) + len(send_leaves)
    for tree_reads in blocks.values():
        # three chunks of eight blocks per extension
        assert len(tree_reads) == 6
        first, second = (set().union(*tree_reads[:3]),
                         set().union(*tree_reads[3:]))
        assert first == set(range(P, P + n))
        assert second == set(range(P + n, P + 2 * n))
    assert not {r.tobytes() for r in rows[0]} & {r.tobytes() for r in rows[1]}


def test_stream_tweaks_keep_to_their_domain_and_never_repeat(monkeypatch):
    """Over one extension on each side, read in chunks and groups of a few
    trees, every tweak a leaf stream's block is read under has the stream
    domain bit set, so none is 0 or tau, the trees' two tweaks; on each
    side no two (tree, leaf, block) share one; and a leaf both sides hold
    is read under the same tweak words."""
    recv_leaves, send_leaves, s_bits = _extension_streams()
    reads = _recording_streams(monkeypatch)
    monkeypatch.setattr(O, "CHUNK_OTS", 1024)
    monkeypatch.setattr(O, "_LEAF_BYTES", 5 * 128 << O.K)
    M, trees = 3000, O.LAMBDA // O.K
    rng = np.random.default_rng(10)
    c_cols, _ = O.OtExtReceiver(rng, recv_leaves).extend(M, 7)
    n_recv = len(reads)
    O.OtExtSender(rng, s_bits, send_leaves).receive_extension(c_cols, M, 7)
    words = {}
    for side, side_reads in (("receiver", reads[:n_recv]),
                             ("sender", reads[n_recv:])):
        # three chunks of groups of five trees
        assert len(side_reads) == 3 * -(-trees // 5)
        tweaks = [(j, int(high))
                  for _leaves, highs, start, count in side_reads
                  for high in highs.ravel()
                  for j in range(start, start + count)]
        assert all(high >> 62 & 1 for _j, high in tweaks)
        assert not {(0, 0), (0, 1 << 63)} & set(tweaks)
        per_tree = side_reads[0][0].shape[1]
        assert len(set(tweaks)) == len(tweaks) == (
            trees * per_tree * O.stream_blocks(M))
        words[side] = {leaf.tobytes(): int(high)
                       for leaves, highs, _start, _count in side_reads
                       for leaf, high in zip(leaves.reshape(-1, 2),
                                             highs.ravel())}
    held = words["sender"]
    assert len(held) == trees * ((1 << O.K) - 1)
    assert {leaf: words["receiver"][leaf] for leaf in held} == held


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_base_ot_keys_agree(seed):
    """The receiver's key is the sender's key of its choice, never the
    other one, for both choice bits; the same seeds give the same keys."""
    k0, k1, mine, c = _base_ot(seed)
    assert set(c) == {0, 1}
    on = c[:, None].astype(bool)
    assert np.array_equal(mine, np.where(on, k1, k0))
    assert not (mine == np.where(on, k0, k1)).all(axis=1).any()
    for got, want in zip(_base_ot(seed), (k0, k1, mine, c)):
        assert np.array_equal(got, want)


def test_honest_points_decode():
    """The fixtures of the refusal tests: the on-curve x decodes under
    either prefix and the honest point round-trips."""
    assert len(HONEST) == O.POINT_BYTES
    for prefix in (2, 3):
        O.decode_points(_point(_first_x(True), prefix), 1)
    assert len(O.decode_points(HONEST * 3, 3)) == 3


@pytest.mark.parametrize("name", list(MALFORMED_POINTS))
def test_receiver_refuses_malformed_point(name):
    """The sender's point A must be exactly one 33-byte compressed point on
    P-256; anything else is refused before any scalar is drawn."""
    rng = np.random.default_rng(4)
    choices = np.ones(O.LAMBDA, dtype=np.uint8)
    with pytest.raises(ProtocolError, match="base-OT point"):
        O.BaseOtReceiver(rng, choices, MALFORMED_POINTS[name])


@pytest.mark.parametrize("name", list(MALFORMED_POINTS))
def test_sender_refuses_malformed_point(name):
    """A receiver's point list whose first point is malformed is refused:
    a point of the wrong width breaks the fixed list length, the others
    fail the on-curve decode."""
    rng_s = np.random.default_rng(6)
    sender = O.BaseOtSender(np.random.default_rng(5))
    receiver = O.BaseOtReceiver(rng_s, np.zeros(O.LAMBDA, dtype=np.uint8),
                                sender.msg_a)
    blob = MALFORMED_POINTS[name] + receiver.msgs_b[O.POINT_BYTES:]
    with pytest.raises(ProtocolError, match="base-OT point"):
        sender.keys(blob)


@pytest.mark.parametrize("negate", [False, True], ids=["B=A", "B=-A"])
def test_sender_refuses_degenerate_point(negate):
    """B = A makes B - A the identity and B = -A makes it a doubling; either
    is refused, never a crash."""
    sender = O.BaseOtSender(np.random.default_rng(7))
    a = sender.msg_a
    point = bytes([a[0] ^ 1]) + a[1:] if negate else a
    blob = point * O.LAMBDA
    with pytest.raises(ProtocolError, match="degenerate base-OT point sum"):
        sender.keys(blob)
