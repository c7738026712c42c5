"""Fixed-point transformer classifier and its plain reference evaluator.

The model is deliberately small: single-head attention encoders without
residuals or normalisation layers, a feed-forward block per encoder, mean
pooling, and a linear classifier.  Weights are signed fixed-point integers
with `f` fraction bits inside `w`-bit words; activations travel at the plan's
activation width (each affine stage's `keep`, with `act_f` fraction bits),
which equals the weight width except in the narrowed mode.

`forward_fixed` is the bit-exact reference for the private pipeline: it
walks the session's stage plan, products and all, through the plain oracles,
so a correct protocol run must reproduce its logits integer for integer.
`forward_float` walks it in real arithmetic, to judge what quantising costs.

Three attention modes:

* baseline -- scores = Q K', normalised per row by the relu/row-sum divider;
* opt1     -- relu(Q) (relu(K)' V) with the value projection scaled by
              1/sqrt(dim); associativity shrinks the heavy product to d x d
              and drops the divider;
* opt2     -- opt1 with activations narrowed to 8 bits / 4 fraction bits.

Folds that keep the pipeline shallow are baked into the weights:

* token and position tables are pre-multiplied into the first layer's QKV
  weights (`layer_weights`), so layer one starts at depth 1;
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
from .stages import (StagePlan, StageSpec, affine_stage_oracle,
                     build_stage_plan, rowdiv_stage_oracle)


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


def _value_divisor(dim: int, mode: str) -> float:
    """Linearised modes fold 1/sqrt(dim) into the value projection; the
    row-normalised baseline is invariant to score scaling and skips it."""
    return 1.0 if mode == "baseline" else math.sqrt(dim)


def value_projection(wv: np.ndarray, dim: int, mode: str) -> np.ndarray:
    return np.rint(wv / _value_divisor(dim, mode)).astype(np.int64)


def layer_weights(cfg: ModelConfig, weights: Weights, mode: str,
                  layer: int) -> tuple[dict, dict]:
    """The weights a layer's products read, by their names in the plan, and
    the tables added to a product's output, by its weight's name.  Layer
    one reads the one-hot tokens: its `wqkv` is the token table,
    embedding @ [wq | wk | wv'], and the position table, positional @
    [wq | wk | wv'], is added to that product, both at fraction 2f, so
    layer one's QKV values are a table lookup plus a constant -- one
    multiplicative level."""
    lw = weights.layers[layer]
    wqkv = np.hstack([lw.wq, lw.wk, value_projection(lw.wv, cfg.dim, mode)])
    mats = {"wqkv": wqkv, "ff1": lw.ff1, "ff2": lw.ff2}
    if layer > 0:
        return mats, {}
    mats["wqkv"] = weights.embedding.astype(np.int64) @ wqkv
    return mats, {"wqkv": weights.positional.astype(np.int64) @ wqkv}


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


def _stage_oracle(spec: StageSpec, raw: np.ndarray) -> list[np.ndarray]:
    """One stage in the clear: its input matrix -> one tensor per group."""
    if np.abs(raw).max(initial=0) >= 1 << (spec.m - 1):
        raise ParameterError(
            f"stage {spec.name} overflowed its {spec.m}-bit window")
    if spec.kind == "rowdiv":
        return [rowdiv_stage_oracle(raw, spec.shift, spec.frac)]
    return [affine_stage_oracle(part, spec.shift, spec.keep, g.relu)
            for g, part in zip(spec.groups, spec.split(raw))]


def forward_fixed(cfg: ModelConfig, weights: Weights, tokens,
                  mode: str) -> FixedForward:
    """Bit-exact integer forward pass: walks the session's stage plan,
    each product in the clear and each stage through its plain oracle."""
    plan = cfg.plan(mode)
    held = {"x": np.eye(cfg.vocab, dtype=np.int64)[_check_tokens(cfg, tokens)]}
    for e, enc in enumerate(plan.encoders):
        mats, offsets = layer_weights(cfg, weights, mode, e)
        held.update(mats)
        for spec in enc:
            left, right = spec.factors(held)
            raw = left @ right + offsets.get(spec.right, 0)
            held.update(zip(spec.tags, _stage_oracle(spec, raw)))
    logits = held["x"].sum(axis=0) @ weights.classifier  # 1/seq_len in rows
    return FixedForward(logits=logits, scale=plan.act_f + cfg.f,
                        label=int(np.argmax(logits)))


def softmax_sim_float(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """relu(x) / row-sum, with all-nonpositive rows mapping to zero."""
    r = np.maximum(x, 0.0)
    s = r.sum(axis=axis, keepdims=True)
    return np.divide(r, s, out=np.zeros_like(r), where=s > 0)


def forward_float(cfg: ModelConfig, weights: Weights, tokens,
                  mode: str) -> np.ndarray:
    """Real-arithmetic analogue (no saturation, no rescale rounding, no
    folded tables) over the same plan: a stage only relus its relu groups,
    and the row divide is `softmax_sim_float`."""
    plan = cfg.plan(mode)
    unit = float(1 << cfg.f)
    tokens = _check_tokens(cfg, tokens)
    held = {"x": (weights.embedding[tokens] + weights.positional) / unit}
    for lw, enc in zip(weights.layers, plan.encoders):
        wv = lw.wv / _value_divisor(cfg.dim, mode)
        held.update(wqkv=np.hstack([lw.wq, lw.wk, wv]) / unit,
                    ff1=lw.ff1 / unit, ff2=lw.ff2 / unit)
        for spec in enc:
            left, right = spec.factors(held)
            raw = left @ right
            outs = ([softmax_sim_float(raw)] if spec.kind == "rowdiv" else
                    [np.maximum(part, 0.0) if g.relu else part
                     for g, part in zip(spec.groups, spec.split(raw))])
            held.update(zip(spec.tags, outs))
    return held["x"].sum(axis=0) @ (weights.classifier / unit)
