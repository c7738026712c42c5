"""Reference model: generation, fixed/float forward passes."""

import numpy as np
import pytest

from cipherformer import model as M
from cipherformer.errors import ParameterError

CFG = M.ModelConfig(vocab=16, seq_len=8, dim=4, ff_dim=16, n_layers=1,
                    n_classes=3)


def _toy(seed=7, **over):
    cfg = M.ModelConfig(**{**dict(vocab=16, seq_len=8, dim=4, ff_dim=16,
                                  n_layers=1, n_classes=3), **over})
    return cfg, M.gen_random(cfg, seed=seed)


class TestConfig:
    def test_rejects_bad_dims(self):
        for over in (dict(vocab=1), dict(n_classes=1), dict(seq_len=0),
                     dict(dim=0), dict(w=9, f=9), dict(w=31), dict(f=0)):
            with pytest.raises(ParameterError):
                M.ModelConfig(**{**dict(vocab=16, seq_len=8, dim=4,
                                        ff_dim=16, n_layers=1, n_classes=3),
                                 **over})

    def test_plan_carries_dims(self):
        plan = CFG.plan("opt1")
        assert plan.seq_len == CFG.seq_len and plan.mode == "opt1"


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
        for seed in range(15):
            rng = np.random.default_rng(200 + seed)
            cfg = M.ModelConfig(vocab=16,
                                seq_len=int(rng.choice([4, 8])),
                                dim=int(rng.choice([2, 4])),
                                ff_dim=4 * int(rng.choice([2, 4])),
                                n_layers=int(rng.choice([1, 2])),
                                n_classes=int(rng.choice([2, 3, 4])))
            wts = M.gen_random(cfg, seed=seed)
            toks = rng.integers(0, cfg.vocab, cfg.seq_len)
            for mode in ("baseline", "opt1", "opt2"):
                M.forward_fixed(cfg, wts, toks, mode)  # must not overflow

    def test_first_layer_fold_matches_direct_product(self):
        cfg, wts = _toy(seed=13)
        toks = np.array([0, 15, 7, 7, 2, 9, 11, 4])
        for mode in ("baseline", "opt1"):
            ew, pw = M.folded_first_layer(cfg, wts, mode)
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
