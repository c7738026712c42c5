"""Circuit IR, garbling, and oblivious-transfer tests."""

import copy

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cipherformer.errors import CircuitError, ProtocolError
from cipherformer.gc import garble as G
from cipherformer.gc import ot as O
from cipherformer.gc.circuit import (CONST0, CONST1, OP_AND, Builder, to_bits,
                                     word_value)
from cipherformer.model import ModelConfig
from cipherformer.stages import stage_circuits


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
        b.mark_output_word(b.sub(x, y))
        b.mark_output(b.sub(x, y, keep_borrow=True)[-1])
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

    def test_shifts_are_free(self):
        b = Builder()
        x = b.garbler_word(8)
        b.mark_output_word(b.shift_right_arith(x, 3))
        b.mark_output_word(b.saturate(x, 10))  # widening is sign extension
        c = b.freeze()
        assert c.n_gates == 0

    def test_constant_folding(self):
        b = Builder()
        x = b.garbler_input()
        assert b.xor(x, 0) == x
        assert b.and_(x, 0) == 0
        assert b.and_(x, 1) == x
        assert b.xor(x, x) == 0
        assert b.and_(x, x) == x
        b.mark_output(x)
        assert b.freeze().n_gates == 0

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
    z = gc.output_zero_labels()
    is0 = (active_out == z).all(axis=-1)
    is1 = (active_out == z ^ gc.delta).all(axis=-1)
    return np.where(is1, 1, np.where(is0, 0, 2)).T.astype(np.uint8)


def run_garbled(circ, gbits, ebits, rng):
    gc = G.garble(circ, gbits.shape[0], rng)
    ez, eo = gc.evaluator_label_pairs()
    e_act = np.where(ebits.T[:, :, None].astype(bool), eo, ez)
    out = G.evaluate(circ, gc.tables, gc.garbler_labels(gbits), e_act)
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
        gc = G.garble(c, 3, np.random.default_rng(0))
        assert gc.tables_bytes == 3 * c.n_and * 2 * 16

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
        c = build_adder(6)
        rng = np.random.default_rng(11)
        g = to_bits(np.arange(16), 6)
        e = to_bits(np.arange(16, 32), 6)
        gc, out, bits = run_garbled(c, g, e, rng)
        p0, p1 = gc.output_pads()
        mine = G.active_output_pads(c, out)
        sel = np.where(bits.T[:, :, None].astype(bool), p1, p0)
        assert np.array_equal(mine, sel)
        other = np.where(bits.T[:, :, None].astype(bool), p0, p1)
        assert not (mine == other).all(axis=-1).any()

    def test_random_circuits_match_plain(self):
        rng = np.random.default_rng(1234)
        for c, gb, eb in random_circuits(rng):
            _, _, bits = run_garbled(c, gb, eb, rng)
            assert np.array_equal(bits, c.plain_eval(gb, eb))


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

def _tweaks(word0, instances):
    tw = np.zeros((instances, 2), dtype=np.uint64)
    tw[:, 0] = np.uint64(word0)
    tw[:, 1] = np.arange(instances, dtype=np.uint64)
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


def reference_garble(circuit, instances, rng):
    """Half-gates garbling one gate at a time, one AES batch per AND:
    (delta, wire0, tables, (pads0, pads1))."""
    E = instances
    delta = rng.integers(0, 1 << 64, (E, 2), dtype=np.uint64)
    delta[:, 0] |= np.uint64(1)
    wire0 = np.zeros((circuit.n_wires, E, 2), dtype=np.uint64)
    fresh = np.concatenate([[CONST0, CONST1],
                            circuit.garbler_inputs, circuit.evaluator_inputs])
    wire0[fresh] = rng.integers(0, 1 << 64, (fresh.size, E, 2), dtype=np.uint64)
    tables = np.empty((circuit.n_and, E, 2, 2), dtype=np.uint64)
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
        tw0 = _tweaks(2 * g, E)
        tw1 = _tweaks(2 * g + 1, E)
        h = reference_hash(np.concatenate([a0, a1, b0, b1]),
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
    pads = np.empty((2, outs.size, E, 2), dtype=np.uint64)
    for i, w in enumerate(outs):
        for v, label in enumerate((wire0[w], wire0[w] ^ delta)):
            pads[v, i] = reference_hash(label, _tweaks(G._B2A_NS | np.uint64(i), E))
    return delta, wire0, tables, pads


def reference_evaluate(circuit, tables, garbler_active, evaluator_active):
    """Half-gates evaluation one gate at a time: active output labels."""
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
        h = reference_hash(np.concatenate([wa, wb]),
                          np.concatenate([_tweaks(2 * g, E), _tweaks(2 * g + 1, E)]))
        ha, hb = h[:E], h[E:]
        tg = tables[ai, :, 0]
        te = tables[ai, :, 1]
        sa = _lsb(wa)[:, None]
        sb = _lsb(wb)[:, None]
        active[out[g]] = (ha ^ sa * tg) ^ (hb ^ sb * (te ^ wa))
        ai += 1
    return active[circuit.outputs]


def assert_matches_reference(circ, gbits, ebits, rng):
    """Garble with `rng` (and the reference with a copy of it), evaluate
    both on the same active labels, and compare every array byte for byte."""
    E = gbits.shape[0]
    delta, wire0, tables, pads = reference_garble(circ, E, copy.deepcopy(rng))
    gc = G.garble(circ, E, rng)
    assert np.array_equal(gc.delta, delta)
    assert np.array_equal(gc.wire0, wire0)
    assert np.array_equal(gc.tables, tables)
    assert np.array_equal(np.array(gc.output_pads()), pads)
    ez, eo = gc.evaluator_label_pairs()
    e_act = np.where(ebits.T[:, :, None].astype(bool), eo, ez)
    g_act = gc.garbler_labels(gbits)
    out = G.evaluate(circ, gc.tables, g_act, e_act)
    assert np.array_equal(out, reference_evaluate(circ, tables, g_act, e_act))
    assert np.array_equal(read_bits(gc, out), circ.plain_eval(gbits, ebits))


def _random_bits(circ, instances, rng):
    return (rng.integers(0, 2, (instances, circ.garbler_inputs.size), dtype=np.uint8),
            rng.integers(0, 2, (instances, circ.evaluator_inputs.size), dtype=np.uint8))


TINY = ModelConfig(vocab=8, seq_len=4, dim=4, ff_dim=8, n_layers=1,
                   n_classes=2, w=20, f=9)
GC_L16 = ModelConfig(vocab=8, seq_len=16, dim=4, ff_dim=8, n_layers=1,
                     n_classes=2)


def _stage_circuits(cfg, modes):
    """Distinct (circuit, instance count) pairs of the plans' stages."""
    seen = {}
    for mode in modes:
        for enc in cfg.plan(mode).encoders:
            for spec in enc:
                for _g, circ, E in stage_circuits(spec):
                    seen.setdefault(id(circ), (circ, E))
    return list(seen.values())


def _row_divider():
    (spec,) = [s for s in GC_L16.plan("baseline").encoders[0]
               if s.kind == "rowdiv"]
    ((_g, circ, _E),) = stage_circuits(spec)
    return circ


class TestLevelSchedule:
    def test_tiny_stage_circuits_match_reference(self):
        rng = np.random.default_rng(501)
        for circ, E in _stage_circuits(TINY, ("baseline", "opt1", "opt2")):
            assert_matches_reference(circ, *_random_bits(circ, E, rng), rng)

    def test_row_divider_matches_reference(self):
        """The gc-l16 attention row divider: 14,371 ANDs over 1,259 levels,
        on three instances to keep the per-gate reference quick."""
        circ = _row_divider()
        rng = np.random.default_rng(502)
        assert_matches_reference(circ, *_random_bits(circ, 3, rng), rng)

    def test_random_circuits_match_reference(self):
        rng = np.random.default_rng(1234)
        for c, gb, eb in random_circuits(rng):
            assert_matches_reference(c, gb, eb, rng)

    @staticmethod
    def check_schedule(circ):
        """Every gate sits in exactly one level, under its own tweaks and
        table row, and reads only constants, inputs and earlier levels."""
        is_and = circ.ops == OP_AND
        gate_of = {int(w): g for g, w in enumerate(circ.out)}
        ready = {CONST0, CONST1, *circ.garbler_inputs.tolist(),
                 *circ.evaluator_inputs.tolist()}
        wires = np.arange(circ.n_wires)
        placed, rows = [], []
        for lv in circ.levels:
            xin0, xin1, xout = (wires[i] for i in (lv.xor_in0, lv.xor_in1,
                                                   lv.xor_out))
            ain0, ain1, aout = (wires[i] for i in (lv.and_in0, lv.and_in1,
                                                   lv.and_out))
            arow = np.arange(circ.n_and)[lv.and_row]
            assert xin0.size == xin1.size == xout.size == lv.n_xor
            assert (ain0.size == ain1.size == aout.size == arow.size
                    == lv.and_tweak.shape[1] == lv.n_and)
            assert all(int(w) in ready
                       for w in np.concatenate([xin0, xin1, ain0, ain1]))
            xg = [gate_of[int(w)] for w in xout]
            ag = [gate_of[int(w)] for w in aout]
            assert not is_and[xg].any() and is_and[ag].all()
            assert np.array_equal(circ.in0[xg], xin0)
            assert np.array_equal(circ.in1[xg], xin1)
            assert np.array_equal(circ.in0[ag], ain0)
            assert np.array_equal(circ.in1[ag], ain1)
            g = np.array(ag, dtype=np.uint64)
            assert np.array_equal(lv.and_tweak, [2 * g, 2 * g + 1])
            assert np.array_equal(arow, np.cumsum(is_and)[ag] - 1)
            ready.update(xout.tolist() + aout.tolist())
            placed += xg + ag
            rows += arow.tolist()
        assert sorted(placed) == list(range(circ.n_gates))
        assert sorted(rows) == list(range(circ.n_and))

    def test_schedule_invariants(self):
        circuits = [c for c, _ in _stage_circuits(TINY, ("baseline", "opt1",
                                                         "opt2"))]
        circuits.append(_row_divider())
        circuits += [c for c, _, _ in random_circuits(np.random.default_rng(77))]
        for circ in circuits:
            self.check_schedule(circ)

    def test_zero_gate_circuit(self):
        b = Builder()
        x = b.garbler_word(8)
        y = b.evaluator_word(3)
        b.mark_output_word(b.shift_right_arith(x, 3))
        b.mark_output_word(b.saturate(y, 5))
        c = b.freeze()
        assert c.n_gates == 0 and c.levels == ()
        rng = np.random.default_rng(503)
        assert_matches_reference(c, *_random_bits(c, 4, rng), rng)


@pytest.fixture(scope="module")
def ot_session():
    rng_c = np.random.default_rng(21)
    rng_s = np.random.default_rng(22)
    ext_recv = O.OtExtReceiver(rng_c)
    ext_send = O.OtExtSender(rng_s)
    base_s = O.BaseOtSender(rng_c, "toy")
    base_r = O.BaseOtReceiver(rng_s, ext_send.s_bits, base_s.msg_a, "toy")
    k0, k1 = base_s.keys(base_r.msgs_b)
    ext_send.recover_seeds(ext_recv.seed_messages(k0, k1), base_r.keys())
    u, recv_batch = ext_recv.extend(2000)
    send_batch = ext_send.receive_extension(u, 2000)
    return recv_batch, send_batch


class TestOt:
    def test_random_ot_pads_agree(self, ot_session):
        recv, send = ot_session
        sel = np.where(recv.b[:, None].astype(bool), send.y1, send.y0)
        assert np.array_equal(recv.pads, sel)
        other = np.where(recv.b[:, None].astype(bool), send.y0, send.y1)
        assert not (recv.pads == other).all(axis=1).any()

    def test_derandomized_transfer(self, ot_session):
        recv, send = ot_session
        rng = np.random.default_rng(5)
        for count in (64, 400):
            c = rng.integers(0, 2, count, dtype=np.uint8)
            m0 = rng.integers(0, 1 << 64, (count, 2), dtype=np.uint64)
            m1 = rng.integers(0, 1 << 64, (count, 2), dtype=np.uint64)
            f = send.derand_respond(recv.derand_request(c), m0, m1)
            got = recv.derand_finish(c, f)
            assert np.array_equal(got, np.where(c[:, None].astype(bool), m1, m0))

    def test_supply_exhaustion(self, ot_session):
        recv, send = ot_session
        with pytest.raises(ProtocolError):
            recv.derand_request(np.zeros(5000, dtype=np.uint8))

    def test_bad_point_rejected(self):
        rng = np.random.default_rng(3)
        sender = O.BaseOtSender(rng, "toy")
        with pytest.raises(ProtocolError):
            sender.keys([0])
