"""Reference model: generation, fixed/float forward passes."""

import numpy as np
import pytest

from cipherformer import model as M
from cipherformer.errors import ParameterError
from cipherformer.stages import affine_stage_oracle, rowdiv_stage_oracle

CFG = M.ModelConfig(vocab=16, seq_len=8, dim=4, ff_dim=16, n_layers=1,
                    n_classes=3)


def _toy(seed=7, **over):
    cfg = M.ModelConfig(**{**dict(vocab=16, seq_len=8, dim=4, ff_dim=16,
                                  n_layers=1, n_classes=3), **over})
    return cfg, M.gen_random(cfg, seed=seed)


def _random_models():
    """15 random small models, each with a token sequence."""
    for seed in range(15):
        rng = np.random.default_rng(200 + seed)
        cfg = M.ModelConfig(vocab=16,
                            seq_len=int(rng.choice([4, 8])),
                            dim=int(rng.choice([2, 4])),
                            ff_dim=4 * int(rng.choice([2, 4])),
                            n_layers=int(rng.choice([1, 2])),
                            n_classes=int(rng.choice([2, 3, 4])))
        yield cfg, M.gen_random(cfg, seed=seed), \
            rng.integers(0, cfg.vocab, cfg.seq_len)


def _window_check(raw, spec):
    if np.abs(raw).max(initial=0) >= 1 << (spec.m - 1):
        raise ParameterError(
            f"stage {spec.name} overflowed its {spec.m}-bit window")


def _forward_fixed_by_mode(cfg, weights, tokens, mode):
    """The forward pass written out per mode, as it was before it walked the
    stage plan: the reference the plan walk must equal bit for bit."""
    plan = cfg.plan(mode)
    d = cfg.dim
    mats, offsets = M.layer_weights(cfg, weights, mode, 0)
    ew, pw = mats["wqkv"], offsets["wqkv"]
    x = None
    for e in range(cfg.n_layers):
        lw = weights.layers[e]
        spec = plan.stage(e, "qkv_rescale")
        if e == 0:
            qkv_raw = ew[tokens] + pw
        else:
            wqkv = np.hstack([lw.wq, lw.wk,
                              M.value_projection(lw.wv, d, mode)])
            qkv_raw = x @ wqkv
        _window_check(qkv_raw, spec)
        q, k, v = [affine_stage_oracle(qkv_raw[:, i * d:(i + 1) * d],
                                       spec.shift, spec.keep, g.relu)
                   for i, g in enumerate(spec.groups)]
        if mode == "baseline":
            spec = plan.stage(e, "attn_weights")
            scores = q @ k.T
            _window_check(scores, spec)
            wts = rowdiv_stage_oracle(scores, spec.shift, spec.frac)
            spec = plan.stage(e, "attn_rescale")
            raw = wts @ v
        else:
            spec = plan.stage(e, "attn_inner")
            kv_raw = k.T @ v
            _window_check(kv_raw, spec)
            kv = affine_stage_oracle(kv_raw, spec.shift, spec.keep)
            spec = plan.stage(e, "attn_rescale")
            raw = q @ kv
        _window_check(raw, spec)
        attn = affine_stage_oracle(raw, spec.shift, spec.keep)
        spec = plan.stage(e, "ff_hidden")
        h_raw = attn @ lw.ff1
        _window_check(h_raw, spec)
        h = affine_stage_oracle(h_raw, spec.shift, spec.keep, relu=True)
        spec = plan.stage(e, "ff_out")
        o_raw = h @ lw.ff2
        _window_check(o_raw, spec)
        x = affine_stage_oracle(o_raw, spec.shift, spec.keep)
    logits = x.sum(axis=0) @ weights.classifier
    return M.FixedForward(logits=logits, scale=plan.act_f + cfg.f,
                          label=int(np.argmax(logits)))


def _forward_float_by_mode(cfg, weights, tokens, mode):
    """The real-arithmetic pass written out per mode, as it was before it
    walked the stage plan."""
    unit = float(1 << cfg.f)
    x = (weights.embedding[tokens] + weights.positional) / unit
    for lw in weights.layers:
        q = x @ (lw.wq / unit)
        k = x @ (lw.wk / unit)
        v = x @ (lw.wv / unit)
        if mode == "baseline":
            attn = M.softmax_sim_float(q @ k.T) @ v
        else:
            qr, kr = np.maximum(q, 0.0), np.maximum(k, 0.0)
            attn = qr @ (kr.T @ (v / np.sqrt(cfg.dim)))
        h = np.maximum(attn @ (lw.ff1 / unit), 0.0)
        x = h @ (lw.ff2 / unit)
    return x.sum(axis=0) @ (weights.classifier / unit)


class TestConfig:
    def test_rejects_bad_dims(self):
        for over in (dict(vocab=1), dict(n_classes=1), dict(seq_len=0),
                     dict(dim=0), dict(w=9, f=9), dict(w=31), dict(f=0)):
            with pytest.raises(ParameterError):
                M.ModelConfig(**{**dict(vocab=16, seq_len=8, dim=4,
                                        ff_dim=16, n_layers=1, n_classes=3),
                                 **over})


class TestGeneration:
    def test_deterministic(self):
        a = M.gen_random(CFG, seed=3)
        b = M.gen_random(CFG, seed=3)
        c = M.gen_random(CFG, seed=4)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.layers[0].ff1, b.layers[0].ff1)
        assert not np.array_equal(a.embedding, c.embedding)

    def test_ranges(self):
        w = M.gen_random(CFG, seed=5)
        lim = 1 << (CFG.w - 2)
        assert np.abs(w.embedding).max() <= lim
        assert np.abs(w.layers[0].wq).max() <= lim
        # pooling factor folded in: classifier rows are seq_len times smaller
        assert np.abs(w.classifier).max() <= lim // CFG.seq_len + 1
        M.validate_weights(CFG, w)

    def test_scale_knob(self):
        big = M.gen_random(CFG, seed=5)
        small = M.gen_random(CFG, seed=5, scale=0.25)
        assert np.abs(small.embedding).max() <= np.abs(big.embedding).max() // 3
        with pytest.raises(ParameterError):
            M.gen_random(CFG, seed=5, scale=0.0)
        with pytest.raises(ParameterError):
            M.gen_random(CFG, seed=5, scale=1.5)

    def test_validate_catches_shape_and_range(self):
        w = M.gen_random(CFG, seed=6)
        bad = M.Weights(w.embedding.T, w.positional, w.layers, w.classifier)
        with pytest.raises(ParameterError):
            M.validate_weights(CFG, bad)
        hot = w.embedding.copy()
        hot[0, 0] = 1 << (CFG.w - 1)
        with pytest.raises(ParameterError):
            M.validate_weights(CFG, M.Weights(hot, w.positional, w.layers,
                                              w.classifier))


class TestForwardFixed:
    def test_shapes_and_scales(self):
        cfg, wts = _toy()
        toks = np.arange(cfg.seq_len) % cfg.vocab
        for mode, scale in (("baseline", 18), ("opt1", 18), ("opt2", 13)):
            out = M.forward_fixed(cfg, wts, toks, mode)
            assert out.logits.shape == (cfg.n_classes,)
            assert out.scale == scale
            assert out.label == int(np.argmax(out.logits))

    def test_deterministic_and_mode_sensitive(self):
        cfg, wts = _toy(seed=11)
        toks = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        a = M.forward_fixed(cfg, wts, toks, "baseline")
        b = M.forward_fixed(cfg, wts, toks, "baseline")
        c = M.forward_fixed(cfg, wts, toks, "opt1")
        assert np.array_equal(a.logits, b.logits)
        assert not np.array_equal(a.logits, c.logits)

    def test_windows_hold_across_random_models(self):
        for cfg, wts, toks in _random_models():
            for mode in ("baseline", "opt1", "opt2"):
                M.forward_fixed(cfg, wts, toks, mode)  # must not overflow

    def test_plan_walk_equals_the_mode_branched_pass(self):
        """A wrong schedule would still give exact sessions, since both
        parties read the same plan: check it against the per-mode pass."""
        for cfg, wts, toks in _random_models():
            for mode in ("baseline", "opt1", "opt2"):
                got = M.forward_fixed(cfg, wts, toks, mode)
                want = _forward_fixed_by_mode(cfg, wts, toks, mode)
                assert np.array_equal(got.logits, want.logits)
                assert (got.scale, got.label) == (want.scale, want.label)

    def test_first_layer_fold_matches_direct_product(self):
        cfg, wts = _toy(seed=13)
        toks = np.array([0, 15, 7, 7, 2, 9, 11, 4])
        for mode in ("baseline", "opt1"):
            mats, offsets = M.layer_weights(cfg, wts, mode, 0)
            ew, pw = mats["wqkv"], offsets["wqkv"]
            lw = wts.layers[0]
            wqkv = np.hstack([lw.wq, lw.wk,
                              M.value_projection(lw.wv, cfg.dim, mode)])
            direct = (wts.embedding[toks] + wts.positional) @ wqkv
            assert np.array_equal(ew[toks] + pw, direct)

    def test_value_projection(self):
        cfg, wts = _toy()
        wv = wts.layers[0].wv
        assert np.array_equal(M.value_projection(wv, cfg.dim, "baseline"), wv)
        want = np.rint(wv / np.sqrt(cfg.dim)).astype(np.int64)
        assert np.array_equal(M.value_projection(wv, cfg.dim, "opt1"), want)

    def test_input_validation(self):
        cfg, wts = _toy()
        with pytest.raises(ParameterError):
            M.forward_fixed(cfg, wts, [0, 1], "baseline")
        with pytest.raises(ParameterError):
            M.forward_fixed(cfg, wts, [99] * cfg.seq_len, "baseline")
        with pytest.raises(ParameterError):
            M.forward_fixed(cfg, wts, np.zeros(cfg.seq_len, int), "fast")

    def test_argmax_tie_breaks_low(self):
        cfg, wts = _toy()
        zero_cls = M.Weights(wts.embedding, wts.positional, wts.layers,
                             np.zeros_like(wts.classifier))
        out = M.forward_fixed(cfg, zero_cls, np.zeros(cfg.seq_len, int),
                              "opt1")
        assert out.label == 0 and not out.logits.any()


class TestForwardFloat:
    def test_finite_and_mode_structure(self):
        cfg, wts = _toy(seed=17)
        toks = np.arange(cfg.seq_len)
        for mode in ("baseline", "opt1"):
            out = M.forward_float(cfg, wts, toks, mode)
            assert out.shape == (cfg.n_classes,) and np.isfinite(out).all()
        # activation narrowing is a fixed-point effect only
        assert np.array_equal(M.forward_float(cfg, wts, toks, "opt1"),
                              M.forward_float(cfg, wts, toks, "opt2"))

    def test_softmax_sim_rows(self):
        x = np.array([[1.0, -2.0, 3.0], [-1.0, -5.0, 0.0]])
        s = M.softmax_sim_float(x)
        assert s.min() >= 0
        np.testing.assert_allclose(s[0].sum(), 1.0)
        assert s[1].sum() == 0.0  # all-nonpositive rows vanish

    def test_float_plan_walk_equals_the_mode_branched_pass(self):
        """The plan walk scales the value weights before the product where
        the per-mode pass scaled the product, so float64 rounding may
        differ in the last few bits: a relative tolerance of 1e-12."""
        for cfg, wts, toks in _random_models():
            for mode in ("baseline", "opt1", "opt2"):
                np.testing.assert_allclose(
                    M.forward_float(cfg, wts, toks, mode),
                    _forward_float_by_mode(cfg, wts, toks, mode),
                    rtol=1e-12, atol=1e-12)
