"""Circuit IR, garbling, and oblivious-transfer tests."""

import numpy as np
import pytest

from cipherformer.errors import CircuitError, GarbleError, ProtocolError
from cipherformer.gc import garble as G
from cipherformer.gc import ot as O
from cipherformer.gc.circuit import Builder, to_bits, word_value


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


def run_garbled(circ, gbits, ebits, rng):
    gc = G.garble(circ, gbits.shape[0], rng)
    ez, eo = gc.evaluator_label_pairs()
    e_act = np.where(ebits.T[:, :, None].astype(bool), eo, ez)
    out = G.evaluate(circ, gc.tables, gc.garbler_labels(gbits), e_act)
    return gc, out, G.decode_outputs(circ, gc.decode, out)


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
        c = build_adder(4)
        rng = np.random.default_rng(9)
        gc, out, _ = run_garbled(c, to_bits(np.array([5]), 4),
                                 to_bits(np.array([6]), 4), rng)
        out[0, 0, 0] ^= np.uint64(1)
        with pytest.raises(GarbleError):
            G.decode_outputs(c, gc.decode, out)

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
        for _ in range(60):
            b = Builder()
            pool = ([b.garbler_input() for _ in range(int(rng.integers(1, 5)))]
                    + [b.evaluator_input() for _ in range(int(rng.integers(1, 5)))]
                    + [0, 1])
            n_g = len([w for w in pool if w > 1])
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
            E = 8
            gb = rng.integers(0, 2, (E, c.garbler_inputs.size), dtype=np.uint8)
            eb = rng.integers(0, 2, (E, c.evaluator_inputs.size), dtype=np.uint8)
            _, _, bits = run_garbled(c, gb, eb, rng)
            assert np.array_equal(bits, c.plain_eval(gb, eb))


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
