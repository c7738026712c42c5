"""The session's two activations -- the softmax-sim row divide and the ReLU
stage -- run from mod-p wire shares through their circuits and back to field
values, checked against the plain oracles and the ratios they approximate."""

import numpy as np
import pytest

from cipherformer import stages as S
from cipherformer.gc.circuit import to_bits

TOY = dict(seq_len=8, dim=4, ff_dim=16, n_layers=1, w=20, f=9)
PLAN = S.build_stage_plan(mode="baseline", **TOY)
SOFTMAX = PLAN.stage(0, "attn_weights")  # rowdiv: relu, then divide by row sum
RELU = PLAN.stage(0, "ff_hidden")        # affine with relu


def _field_run(circ, xs, m, keep, rng):
    """Mask signed xs onto the wire mod p as the server does, split them into
    window shares, evaluate, and recombine the output bits with the B2A
    weights.  Returns (field results, p)."""
    xs = np.asarray(xs, dtype=np.int64)
    p, _ = S.choose_plaintext_prime(m, 256)
    masks = S.sample_stage_masks(rng, p, m, xs.size).reshape(xs.shape)
    wire = (xs % p).astype(np.uint64) + S.stage_offsets(masks, m, p)
    wire %= np.uint64(p)
    c = to_bits(S.client_window_share(wire, m).astype(np.int64), m)
    t = to_bits(S.garbler_window_share(masks, m).astype(np.int64), m)
    rows = xs.shape[0]
    bits = circ.plain_eval(t.reshape(rows, -1), c.reshape(rows, -1))
    bits = bits.reshape(*xs.shape, keep).astype(object)
    ws = S.b2a_weights(keep, p).astype(object)
    return (bits * ws).sum(axis=-1) % p, p


def _softmax(xs, seed=0):
    """Attention weights of the toy plan's row-divide stage, as integers."""
    circ = S.stage_circuits(SOFTMAX)[0][1]
    out, _ = _field_run(circ, xs, SOFTMAX.m, SOFTMAX.keep,
                        np.random.default_rng(seed))
    return out.astype(np.int64)


class TestActivation:
    @pytest.mark.parametrize("variant", ["relu_only", "softmax_sim"])
    def test_matches_oracle_on_random_shares(self, variant):
        rng = np.random.default_rng(7)
        if variant == "softmax_sim":
            spec, relu = SOFTMAX, None
            xs = rng.integers(-(1 << 20), 1 << 20, (40, spec.row_len))
            want = S.rowdiv_stage_oracle(xs, spec.shift, spec.frac)
        else:
            spec, relu = RELU, RELU.groups[0].relu
            xs = rng.integers(-(1 << (spec.m - 1)), 1 << (spec.m - 1), (300, 1))
            want = S.affine_stage_oracle(xs, spec.shift, spec.keep, relu)
        (_g, circ, _n), = S.stage_circuits(spec)
        got, p = _field_run(circ, xs, spec.m, spec.keep, rng)
        assert np.array_equal(got, want % p)

    def test_quotients_track_float_ratios(self):
        rng = np.random.default_rng(11)
        x = rng.integers(1 << 10, 1 << 20, (100, SOFTMAX.row_len))
        y = _softmax(x, seed=11) / (1 << SOFTMAX.frac)
        assert np.abs(y - x / x.sum(axis=1, keepdims=True)).max() < 0.01

    def test_quotients_sum_near_one(self):
        rng = np.random.default_rng(13)
        x = rng.integers(1 << 12, 1 << 16, (50, SOFTMAX.row_len))
        total = _softmax(x, seed=13).sum(axis=1)
        one = 1 << SOFTMAX.frac
        assert (total > one - SOFTMAX.row_len).all()
        assert (total <= one + SOFTMAX.row_len).all()

    def test_all_nonpositive_inputs_yield_zero(self):
        x = np.array([[-5, -1, 0, -(1 << 20), 0, -3, -7, -1]])
        assert (_softmax(x) == 0).all()

    def test_equal_positives_split_evenly(self):
        x = np.array([[3 << 12, 3 << 12, 0, 0, -4, -9, 0, -1]])
        y = _softmax(x)[0]
        assert y[0] == y[1]
        assert abs(int(y[0]) - (1 << (SOFTMAX.frac - 1))) <= 1  # one half
        assert not y[2:].any()

    def test_relu_only_keeps_scale(self):
        circ = S.affine_stage_circuit(12, 0, 12, relu=True)
        x = np.array([[37], [-12], [0]])
        got, _ = _field_run(circ, x, 12, 12, np.random.default_rng(5))
        assert np.array_equal(got[:, 0].astype(np.int64), [37, 0, 0])
