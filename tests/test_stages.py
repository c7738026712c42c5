"""Stage window plans and switching circuits checked against plain oracles."""

import numpy as np
import pytest

from cipherformer import stages as S
from cipherformer.errors import ParameterError
from cipherformer.gc.circuit import Builder, to_bits, word_value

TOY = dict(seq_len=8, dim=4, ff_dim=16, n_layers=1, w=20, f=9)


def _window_shares(xs, m, seed=7):
    """Split signed xs into (garbler_bits, evaluator_bits) mod-2^m shares."""
    rng = np.random.default_rng(seed)
    xs = np.asarray(xs, dtype=np.int64)
    mask = np.uint64((1 << m) - 1)
    off = (xs + S.window_offset(m)).astype(np.uint64)
    r = rng.integers(0, 1 << m, size=xs.shape, dtype=np.uint64)
    c = (off + r) & mask
    t = S.garbler_window_share(r, m)
    return to_bits(t.astype(np.int64), m), to_bits(c.astype(np.int64), m)


def _run_affine(circ, xs, m):
    t, c = _window_shares(xs, m)
    return word_value(circ.plain_eval(t, c), signed=True)


def _run_rowdiv(circ, rows, m, keep):
    rows = np.asarray(rows, dtype=np.int64)
    t, c = _window_shares(rows, m)
    flat_t = t.reshape(rows.shape[0], -1)
    flat_c = c.reshape(rows.shape[0], -1)
    out = circ.plain_eval(flat_t, flat_c)
    return word_value(out.reshape(rows.shape[0], rows.shape[1], keep),
                      signed=True)


class TestPlan:
    def test_baseline_toy(self):
        plan = S.build_stage_plan(mode="baseline", **TOY)
        names = [s.name for s in plan.encoders[0]]
        assert names == ["qkv_rescale", "attn_weights", "attn_rescale",
                         "ff_hidden", "ff_out"]
        assert [s.m for s in plan.encoders[0]] == [43, 42, 33, 42, 44]
        assert [s.count for s in plan.encoders[0]] == [96, 64, 32, 128, 32]
        assert (plan.act_w, plan.act_f) == (20, 9)
        assert plan.m_max == 44
        rd = plan.stage(0, "attn_weights")
        assert (rd.kind, rd.rows, rd.row_len, rd.frac, rd.keep) == \
            ("rowdiv", 8, 8, 9, 10)
        assert rd.instances == 8 and rd.lanes_per_instance == 8

    def test_opt1_toy(self):
        plan = S.build_stage_plan(mode="opt1", **TOY)
        names = [s.name for s in plan.encoders[0]]
        assert names == ["qkv_rescale", "attn_inner", "attn_rescale",
                         "ff_hidden", "ff_out"]
        assert [s.m for s in plan.encoders[0]] == [43, 43, 42, 42, 44]
        assert [s.count for s in plan.encoders[0]] == [96, 16, 32, 128, 32]

    def test_opt2_narrows_activations(self):
        plan = S.build_stage_plan(mode="opt2", **TOY)
        assert (plan.act_w, plan.act_f) == (8, 4)
        assert [s.m for s in plan.encoders[0]] == [43, 19, 18, 30, 32]
        qkv = plan.stage(0, "qkv_rescale")
        assert qkv.shift == 2 * 9 - 4 and qkv.keep == 8

    def test_later_layers_see_activation_width(self):
        plan = S.build_stage_plan(mode="baseline", **{**TOY, "n_layers": 2})
        assert plan.encoders[0][0].m == 43
        assert plan.encoders[1][0].m == 42
        assert plan.encoders[0][1:] == plan.encoders[1][1:]

    def test_relu_flags(self):
        base = S.build_stage_plan(mode="baseline", **TOY)
        opt = S.build_stage_plan(mode="opt1", **TOY)
        assert [g.relu for g in base.stage(0, "qkv_rescale").groups] == \
            [False, False, False]
        assert [g.relu for g in opt.stage(0, "qkv_rescale").groups] == \
            [True, True, False]
        for plan in (base, opt):
            assert plan.stage(0, "ff_hidden").groups[0].relu
            assert not plan.stage(0, "ff_out").groups[0].relu

    def test_counts_scale_with_dims(self):
        plan = S.build_stage_plan(mode="opt1", seq_len=32, dim=8, ff_dim=32,
                                  n_layers=1, w=20, f=9)
        assert [s.count for s in plan.encoders[0]] == [768, 64, 256, 1024, 256]

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            S.build_stage_plan(mode="fast", **TOY)
        with pytest.raises(ParameterError):
            S.build_stage_plan(mode="baseline", **{**TOY, "f": 20})
        with pytest.raises(ParameterError):
            S.build_stage_plan(mode="opt2", **{**TOY, "w": 6, "f": 3})
        with pytest.raises(ParameterError):
            S.build_stage_plan(mode="baseline", **{**TOY, "seq_len": 1025})
        with pytest.raises(ParameterError):
            S.build_stage_plan(mode="baseline", **{**TOY, "dim": 0})

    def test_unknown_stage_lookup(self):
        plan = S.build_stage_plan(mode="baseline", **TOY)
        with pytest.raises(ParameterError):
            plan.stage(0, "attn_inner")


class TestPrimeChoice:
    def test_toy_plan_prime(self):
        plan = S.build_stage_plan(mode="baseline", **TOY)
        p, slack = S.choose_plaintext_prime(plan.m_max, 512)
        assert p % (2 * 512) == 1
        assert p.bit_length() == 62
        assert slack >= S.SIGMA_TARGET

    def test_slack_floor(self):
        p, slack = S.choose_plaintext_prime(52, 512)
        assert slack >= S.SIGMA_FLOOR
        with pytest.raises(ParameterError):
            S.choose_plaintext_prime(53, 512)

    def test_small_window_gets_target(self):
        p, slack = S.choose_plaintext_prime(20, 256)
        assert p.bit_length() == 38 and slack >= S.SIGMA_TARGET


class TestShares:
    def test_mask_range(self):
        rng = np.random.default_rng(3)
        p, _ = S.choose_plaintext_prime(20, 256)
        r = S.sample_stage_masks(rng, p, 20, 5000)
        assert r.dtype == np.uint64
        assert int(r.max()) < p - (1 << 20)
        with pytest.raises(ParameterError):
            S.sample_stage_masks(rng, (1 << 20) - 1, 20, 4)

    def test_window_roundtrip_through_field(self):
        m = 20
        rng = np.random.default_rng(5)
        p, _ = S.choose_plaintext_prime(m, 256)
        x = rng.integers(-(1 << (m - 1)) + 1, 1 << (m - 1), 1000)
        r = S.sample_stage_masks(rng, p, m, x.size)
        wire = (x.astype(np.uint64) + S.stage_offsets(r, m, p)) % np.uint64(p)
        # the offset value plus mask never wraps mod p
        assert np.array_equal(
            wire, x.astype(np.int64) + S.window_offset(m) + r.astype(np.int64))
        c = S.client_window_share(wire, m)
        t = S.garbler_window_share(r, m)
        rec = ((c + t) & np.uint64((1 << m) - 1)) ^ np.uint64(1 << (m - 1))
        signed = rec.astype(np.int64) - ((rec >> np.uint64(m - 1)).astype(np.int64) << m)
        assert np.array_equal(signed, x)

    def test_b2a_weights_recover_signed_values(self):
        keep = 10
        p, _ = S.choose_plaintext_prime(30, 256)
        ws = S.b2a_weights(keep, p)
        y = np.arange(-(1 << (keep - 1)), 1 << (keep - 1))
        bits = to_bits(y, keep).astype(np.uint64)
        got = (bits * ws).sum(axis=-1) % np.uint64(p)
        assert np.array_equal(got.astype(np.int64), y % p)


class TestAffineCircuit:
    @pytest.mark.parametrize("m,shift,keep,relu", [
        (12, 3, 6, False),
        (12, 3, 6, True),
        (14, 0, 14, False),
        (10, 4, 5, True),
        (16, 9, 6, False),
    ])
    def test_matches_oracle(self, m, shift, keep, relu):
        rng = np.random.default_rng(11)
        hi = (1 << (keep - 1)) - 1
        edges = [0, 1, -1, (1 << (m - 1)) - 1, -(1 << (m - 1)),
                 hi << shift, (hi << shift) + (1 << shift) - 1,
                 min((hi + 1) << shift, (1 << (m - 1)) - 1),
                 -(hi + 1) << shift if (hi + 1) << shift <= 1 << (m - 1) else 0]
        xs = np.concatenate([np.array(edges, dtype=np.int64),
                             rng.integers(-(1 << (m - 1)), 1 << (m - 1), 300)])
        circ = S.affine_stage_circuit(m, shift, keep, relu)
        got = _run_affine(circ, xs, m)
        want = S.affine_stage_oracle(xs, shift, keep, relu)
        assert np.array_equal(got, want)

    def test_toy_plan_stages_match_oracle(self):
        rng = np.random.default_rng(13)
        for mode in S.MODES:
            plan = S.build_stage_plan(mode=mode, **TOY)
            for spec in plan.encoders[0]:
                if spec.kind != "affine":
                    continue
                for group, circ, _n in S.stage_circuits(spec):
                    st = circ.stats()
                    assert st["garbler_inputs"] == spec.m
                    assert st["evaluator_inputs"] == spec.m
                    assert st["outputs"] == spec.keep
                    xs = rng.integers(-(1 << (spec.m - 1)),
                                      1 << (spec.m - 1), 20)
                    assert np.array_equal(
                        _run_affine(circ, xs, spec.m),
                        S.affine_stage_oracle(xs, spec.shift, spec.keep,
                                              group.relu))

    def test_circuit_cache(self):
        assert S.affine_stage_circuit(12, 3, 6) is S.affine_stage_circuit(12, 3, 6)

    def test_window_guards(self):
        with pytest.raises(ParameterError):
            S.affine_stage_circuit(70, 3, 6)
        with pytest.raises(ParameterError):
            S.affine_stage_circuit(12, 12, 6)
        with pytest.raises(ParameterError):
            S.affine_stage_circuit(12, 3, 13)


class TestRowdivCircuit:
    M, SHIFT, FRAC, KEEP, ROW = 10, 3, 3, 4, 4

    def _circ(self):
        return S.rowdiv_stage_circuit(self.M, self.SHIFT, self.FRAC,
                                      self.KEEP, self.ROW)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(17)
        rows = rng.integers(-(1 << (self.M - 1)), 1 << (self.M - 1),
                            (200, self.ROW))
        got = _run_rowdiv(self._circ(), rows, self.M, self.KEEP)
        want = S.rowdiv_stage_oracle(rows, self.SHIFT, self.FRAC)
        assert np.array_equal(got, want)

    def test_nonpositive_row_gives_zeros(self):
        rows = np.array([[0, -5, -1, 0], [-(1 << 9), -1, -7, -2]])
        got = _run_rowdiv(self._circ(), rows, self.M, self.KEEP)
        assert np.array_equal(got, np.zeros_like(rows))

    def test_quotient_saturates(self):
        rows = np.array([[511, 1, 0, 0]])
        # acc = (511 >> 3) + 0 = 63; 511 // 63 = 8 overflows 3 fraction bits
        got = _run_rowdiv(self._circ(), rows, self.M, self.KEEP)
        assert got[0, 0] == (1 << self.FRAC) - 1
        assert got[0, 1] == 0

    def test_exact_division(self):
        rows = np.array([[64, 64, 64, 64]])
        got = _run_rowdiv(self._circ(), rows, self.M, self.KEEP)
        assert np.array_equal(got[0], [2, 2, 2, 2])  # 64 // (4 * (64 >> 3))

    def test_guards(self):
        with pytest.raises(ParameterError):
            S.rowdiv_stage_circuit(10, 1, 3, 4, 8)  # sum of 8 needs shift 3
        with pytest.raises(ParameterError):
            S.rowdiv_stage_circuit(10, 3, 3, 5, 4)  # keep must be frac + 1
        with pytest.raises(ParameterError):
            S.rowdiv_stage_circuit(10, 3, 3, 4, 0)

    def test_input_output_layout(self):
        st = self._circ().stats()
        assert st["garbler_inputs"] == self.M * self.ROW
        assert st["evaluator_inputs"] == self.M * self.ROW
        assert st["outputs"] == self.KEEP * self.ROW

    def test_toy_stage_matches_oracle(self):
        plan = S.build_stage_plan(mode="baseline", **TOY)
        spec = plan.stage(0, "attn_weights")
        (_g, circ, inst), = S.stage_circuits(spec)
        assert inst == spec.rows
        rng = np.random.default_rng(19)
        rows = rng.integers(-(1 << (spec.m - 1)), 1 << (spec.m - 1),
                            (6, spec.row_len))
        got = _run_rowdiv(circ, rows, spec.m, spec.keep)
        want = S.rowdiv_stage_oracle(rows, spec.shift, spec.frac)
        assert np.array_equal(got, want)


def _divider_circuit(w, f):
    b = Builder()
    x = b.garbler_word(w)
    s = b.evaluator_word(w)
    b.mark_output_word(S._divider(b, x, s, f))
    return b.freeze()


class TestDivider:
    def test_exhaustive_matches_greedy_oracle(self):
        # every (x, s) pair at w=10, f=4; quotient must equal the bit-greedy
        # reference everywhere and exact floor division whenever that fits
        w, f = 10, 4
        c = _divider_circuit(w, f)
        xs = np.repeat(np.arange(1 << w), (1 << w) - 1)
        ss = np.tile(np.arange(1, 1 << w), 1 << w)
        got = np.empty(xs.size, dtype=np.int64)
        step = 1 << 16
        for lo in range(0, xs.size, step):
            hi = min(lo + step, xs.size)
            bits = c.plain_eval(to_bits(xs[lo:hi], w), to_bits(ss[lo:hi], w))
            got[lo:hi] = word_value(bits)
        assert np.array_equal(got, S.divider_oracle(xs, ss, f))
        floor = xs // ss
        fits = floor < (1 << f)
        assert np.array_equal(got[fits], floor[fits])
        assert (got[~fits] == (1 << f) - 1).all()

    def test_oracle_saturates_on_zero_divisor(self):
        assert S.divider_oracle(np.array([5]), np.array([0]), 4) == 15

    def test_gate_cost_linear_in_width(self):
        a = _divider_circuit(8, 4).n_and
        b = _divider_circuit(16, 4).n_and
        assert b < 2.6 * a


class TestGateCounts:
    def test_relu_costs_extra_ands(self):
        plain = S.affine_stage_circuit(12, 3, 6, False)
        relu = S.affine_stage_circuit(12, 3, 6, True)
        assert relu.n_and > plain.n_and

    def test_plan_totals(self):
        base = S.plan_gate_counts(S.build_stage_plan(mode="baseline", **TOY))
        opt1 = S.plan_gate_counts(S.build_stage_plan(mode="opt1", **TOY))
        assert base["and"] > 0 and base["xor"] > 0
        # dropping the per-row divider removes most of the nonlinear work
        assert opt1["and"] < base["and"]
