"""Fixed-point transformer classifier and its plain reference evaluator.

The model is deliberately small: single-head attention encoders without
residuals or normalisation layers, a feed-forward block per encoder, mean
pooling, and a linear classifier.  Weights are signed fixed-point integers
with `f` fraction bits inside `w`-bit words; activations travel at the plan's
activation width (`act_w`/`act_f`), which equals the weight width except in
the narrowed mode.

`forward_fixed` is the bit-exact reference for the private pipeline: it
applies the same stage plan (shift / saturate / relu / row-divide) via the
plain oracles, so a correct protocol run must reproduce its logits integer
for integer.  `forward_float` is the analogue in real arithmetic, useful for
judging how much the quantisation itself costs.

Three attention modes:

* baseline -- scores = Q K', normalised per row by the relu/row-sum divider;
* opt1     -- relu(Q) (relu(K)' V) with the value projection scaled by
              1/sqrt(dim); associativity shrinks the heavy product to d x d
              and drops the divider;
* opt2     -- opt1 with activations narrowed to 8 bits / 4 fraction bits.

Folds that keep the pipeline shallow are baked into the weights:

* token and position tables are pre-multiplied into the first layer's QKV
  weights (`folded_first_layer`), so layer one starts at depth 1;
* the 1/seq_len pooling factor lives in the classifier rows, so pooling is
  a plain sum.

Weights come from `gen_random` (seeded, deterministic); there is no weight
file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .stages import (MODES, StagePlan, affine_stage_oracle, build_stage_plan,
                     rowdiv_stage_oracle)


@dataclass(frozen=True)
class ModelConfig:
    vocab: int
    seq_len: int
    dim: int
    ff_dim: int
    n_layers: int
    n_classes: int
    w: int = 20
    f: int = 9

    def __post_init__(self):
        if self.vocab < 2:
            raise ParameterError("vocab must be at least 2")
        if min(self.seq_len, self.dim, self.ff_dim, self.n_layers) < 1:
            raise ParameterError("all model dimensions must be positive")
        if self.n_classes < 2:
            raise ParameterError("need at least two classes")
        if not 0 < self.f < self.w <= 30:
            raise ParameterError(f"bad widths w={self.w} f={self.f}")

    def plan(self, mode: str) -> StagePlan:
        return build_stage_plan(mode=mode, seq_len=self.seq_len,
                                dim=self.dim, ff_dim=self.ff_dim,
                                n_layers=self.n_layers, w=self.w, f=self.f)


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray   # (dim, dim)
    wk: np.ndarray   # (dim, dim)
    wv: np.ndarray   # (dim, dim)
    ff1: np.ndarray  # (dim, ff_dim)
    ff2: np.ndarray  # (ff_dim, dim)


@dataclass(frozen=True)
class Weights:
    """Integer tensors at fraction f.  The classifier rows already carry the
    1/seq_len pooling factor."""
    embedding: np.ndarray   # (vocab, dim)
    positional: np.ndarray  # (seq_len, dim)
    layers: tuple[LayerWeights, ...]
    classifier: np.ndarray  # (dim, n_classes)


def _shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    out = [("embedding", (cfg.vocab, cfg.dim)),
           ("positional", (cfg.seq_len, cfg.dim))]
    for e in range(cfg.n_layers):
        out += [(f"layer{e}.wq", (cfg.dim, cfg.dim)),
                (f"layer{e}.wk", (cfg.dim, cfg.dim)),
                (f"layer{e}.wv", (cfg.dim, cfg.dim)),
                (f"layer{e}.ff1", (cfg.dim, cfg.ff_dim)),
                (f"layer{e}.ff2", (cfg.ff_dim, cfg.dim))]
    out.append(("classifier", (cfg.dim, cfg.n_classes)))
    return out


def _tensors(weights: Weights) -> list[np.ndarray]:
    out = [weights.embedding, weights.positional]
    for lw in weights.layers:
        out += [lw.wq, lw.wk, lw.wv, lw.ff1, lw.ff2]
    out.append(weights.classifier)
    return out


def validate_weights(cfg: ModelConfig, weights: Weights):
    lim = 1 << (cfg.w - 1)
    for (name, shape), t in zip(_shapes(cfg), _tensors(weights)):
        if t.shape != shape:
            raise ParameterError(f"{name} has shape {t.shape}, want {shape}")
        if np.abs(t).max(initial=0) >= lim:
            raise ParameterError(f"{name} exceeds {cfg.w}-bit range")


# ----------------------------------------------------------------------------
# generation


def gen_random(cfg: ModelConfig, seed: int, scale: float = 1.0) -> Weights:
    """Deterministic random weights: reals uniform in +/- 2^(w-2-f) * scale,
    quantised to fraction f.  Draw order is fixed (embedding, positional,
    per-layer qkv/ff, classifier) so a seed pins the whole model."""
    if not 0 < scale <= 1.0:
        raise ParameterError("scale must be in (0, 1]")
    rng = np.random.default_rng(seed)
    amp = 2.0 ** (cfg.w - 2 - cfg.f) * scale

    def draw(shape, div=1.0):
        reals = rng.uniform(-amp, amp, shape) / div
        return np.rint(reals * (1 << cfg.f)).astype(np.int64)

    emb = draw((cfg.vocab, cfg.dim))
    pos = draw((cfg.seq_len, cfg.dim))
    layers = []
    for _ in range(cfg.n_layers):
        layers.append(LayerWeights(
            wq=draw((cfg.dim, cfg.dim)),
            wk=draw((cfg.dim, cfg.dim)),
            wv=draw((cfg.dim, cfg.dim)),
            ff1=draw((cfg.dim, cfg.ff_dim)),
            ff2=draw((cfg.ff_dim, cfg.dim))))
    cls = draw((cfg.dim, cfg.n_classes), div=cfg.seq_len)
    return Weights(emb, pos, tuple(layers), cls)


def value_projection(wv: np.ndarray, dim: int, mode: str) -> np.ndarray:
    """Linearised modes fold 1/sqrt(dim) into the value projection; the
    row-normalised baseline is invariant to score scaling and skips it."""
    if mode == "baseline":
        return np.asarray(wv, dtype=np.int64)
    return np.rint(wv / math.sqrt(dim)).astype(np.int64)


def folded_first_layer(cfg: ModelConfig, weights: Weights, mode: str) \
        -> tuple[np.ndarray, np.ndarray]:
    """(token_table, position_table) for layer one's QKV product.

    token_table[t] = embedding[t] @ [wq | wk | wv'] and position_table the
    same for positions, both at fraction 2f, so layer one's QKV values are a
    table lookup plus a constant -- one multiplicative level."""
    lw = weights.layers[0]
    wqkv = np.hstack([lw.wq, lw.wk, value_projection(lw.wv, cfg.dim, mode)])
    ew = weights.embedding.astype(np.int64) @ wqkv
    pw = weights.positional.astype(np.int64) @ wqkv
    return ew, pw


# ----------------------------------------------------------------------------
# reference forward passes


@dataclass(frozen=True)
class FixedForward:
    logits: np.ndarray  # int64, fraction act_f + f
    scale: int
    label: int


def _check_tokens(cfg: ModelConfig, tokens) -> np.ndarray:
    t = np.asarray(tokens, dtype=np.int64)
    if t.shape != (cfg.seq_len,):
        raise ParameterError(f"need {cfg.seq_len} tokens, got shape {t.shape}")
    if t.min(initial=0) < 0 or t.max(initial=0) >= cfg.vocab:
        raise ParameterError("token id out of range")
    return t


def _window_check(raw: np.ndarray, spec):
    if np.abs(raw).max(initial=0) >= 1 << (spec.m - 1):
        raise ParameterError(
            f"stage {spec.name} overflowed its {spec.m}-bit window")


def forward_fixed(cfg: ModelConfig, weights: Weights, tokens, mode: str,
                  plan: StagePlan | None = None) -> FixedForward:
    """Bit-exact integer forward pass mirroring the staged pipeline."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    tokens = _check_tokens(cfg, tokens)
    plan = plan or cfg.plan(mode)
    d = cfg.dim
    ew, pw = folded_first_layer(cfg, weights, mode)
    x = None
    for e, enc in enumerate(plan.encoders):
        lw = weights.layers[e]
        spec = plan.stage(e, "qkv_rescale")
        if e == 0:
            qkv_raw = ew[tokens] + pw
        else:
            wqkv = np.hstack([lw.wq, lw.wk,
                              value_projection(lw.wv, d, mode)])
            qkv_raw = x @ wqkv
        _window_check(qkv_raw, spec)
        parts = [affine_stage_oracle(qkv_raw[:, i * d:(i + 1) * d],
                                     spec.shift, spec.keep, g.relu)
                 for i, g in enumerate(spec.groups)]
        q, k, v = parts
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
    logits = x.sum(axis=0) @ weights.classifier  # 1/seq_len sits in the rows
    return FixedForward(logits=logits, scale=plan.act_f + cfg.f,
                        label=int(np.argmax(logits)))


def softmax_sim_float(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """relu(x) / row-sum, with all-nonpositive rows mapping to zero."""
    r = np.maximum(x, 0.0)
    s = r.sum(axis=axis, keepdims=True)
    return np.divide(r, s, out=np.zeros_like(r), where=s > 0)


def forward_float(cfg: ModelConfig, weights: Weights, tokens,
                  mode: str) -> np.ndarray:
    """Real-arithmetic analogue (no saturation, no rescale rounding)."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    tokens = _check_tokens(cfg, tokens)
    unit = float(1 << cfg.f)
    x = (weights.embedding[tokens] + weights.positional) / unit
    for lw in weights.layers:
        q = x @ (lw.wq / unit)
        k = x @ (lw.wk / unit)
        v = x @ (lw.wv / unit)
        if mode == "baseline":
            attn = softmax_sim_float(q @ k.T) @ v
        else:
            qr, kr = np.maximum(q, 0.0), np.maximum(k, 0.0)
            attn = qr @ (kr.T @ (v / math.sqrt(cfg.dim)))
        h = np.maximum(attn @ (lw.ff1 / unit), 0.0)
        x = h @ (lw.ff2 / unit)
    return x.sum(axis=0) @ (weights.classifier / unit)

