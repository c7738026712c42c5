"""Width plans and switching circuits for the staged share pipeline.

Every nonlinear step runs under garbled circuits on additive shares.  For a
wire value x the server ships [x + 2^{m-1} + R] mod p, with R a fresh
single-use mask drawn from [0, p - 2^m).  Because the offset value stays
below 2^m and the mask below p - 2^m, the sum never wraps mod p, so the
client's decryption reduced mod 2^m and the garbler's (-R) mod 2^m are exact
additive shares of x + 2^{m-1} in Z_{2^m}.  The circuit adds them, flips the
top bit (offset binary back to two's complement), and proceeds in plain
integer arithmetic.

The window width m is sized per stage by interval arithmetic: a product of
a-bit and b-bit signed operands contracted over k terms needs a+b+ceil(lg k)
magnitude bits, plus one guard bit because (-2^a)(-2^b) lands on +2^{a+b},
plus the offset bit.  Widths are rigid -- every stage saturates to its
declared output width, so the plan is the single source of truth for both
the circuits and the plain fixed-point evaluator.

Two circuit shapes cover the pipeline:

* affine stages -- reconstruct, arithmetic shift (rescale), saturate to the
  activation width, optionally relu;
* row-divide stages -- reconstruct a whole row of scores, relu each entry,
  and divide it by the row sum with a non-restoring divider, yielding attention
  weights as unsigned fractions with `frac` bits.

Stage outputs leave the circuit through output-label pairs (free B2A): bit j
of an output word carries field weight 2^j, the top bit carries -2^{keep-1},
so the weighted sum of recovered bits is the signed result mod p.

Each stage also names the product feeding it, so a plan is the layer
schedule (see `build_stage_plan`) that both parties, the session layouts
and `model.forward_fixed` walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

from .errors import ParameterError
from .gc.circuit import CONST0, CONST1, Builder, Circuit
from .primes import next_prime

SIGMA_TARGET = 16  # preferred statistical masking slack, bits
SIGMA_FLOOR = 8    # refuse to run a plan with less slack than this
_PRIME_BIT_CAP = 61  # keeps p inside the 64-bit NTT headroom


def _clg(k: int) -> int:
    """ceil(log2(k)) for k >= 1."""
    return max(k - 1, 0).bit_length()


# ----------------------------------------------------------------------------
# stage descriptions


@dataclass(frozen=True)
class StageGroup:
    """One tensor passing through a stage: `count` scalar lanes tagged `tag`."""
    tag: str
    count: int
    relu: bool = False


@dataclass(frozen=True)
class StageSpec:
    """One garbled stage of an encoder layer.

    Its input is the product `left` @ `right` (each factor transposed where
    its flag says, see `factors`; a factor is "x", the layer input, an
    earlier group's tag or a weight in `WEIGHTS`), a `rows` x `row_len`
    matrix.  Each group is a
    column slice of it, in group order, and leaves the stage as its own
    `rows`-row tensor.  Affine stages run one circuit instance per lane;
    row-divide stages run one instance per row.
    """
    name: str
    kind: str           # "affine" | "rowdiv"
    m: int              # reconstruction window width
    shift: int          # arithmetic right shift after reconstruction
    keep: int           # output word width (two's complement)
    rows: int           # rows of the input matrix
    groups: tuple[StageGroup, ...]
    left: str
    right: str
    t_left: bool = False
    t_right: bool = False
    frac: int = 0       # rowdiv: quotient fraction bits

    @property
    def plain(self) -> bool:
        """Whether a plain-weight product feeds the stage."""
        return self.right in WEIGHTS

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(g.tag for g in self.groups)

    def factors(self, held: dict) -> tuple:
        """The product's two factors out of `held`, each read as its `.T`
        where the flag says: the only place a transpose is decided, for
        arrays, `helinear.Layout`s and encrypted matrices alike."""
        left, right = held[self.left], held[self.right]
        return (left.T if self.t_left else left,
                right.T if self.t_right else right)

    def split(self, mat: np.ndarray) -> list[np.ndarray]:
        """The input matrix cut into its groups' column slices."""
        cuts = np.cumsum([g.count // self.rows for g in self.groups])[:-1]
        return np.split(mat, cuts, axis=1)

    @property
    def count(self) -> int:
        """Total scalar lanes (= masks consumed) in this stage."""
        return sum(g.count for g in self.groups)

    @property
    def row_len(self) -> int:
        """Lanes per row of the input matrix."""
        return self.count // self.rows

    @property
    def lanes_per_instance(self) -> int:
        return self.row_len if self.kind == "rowdiv" else 1

    @property
    def instances(self) -> int:
        """Circuit instances of each group: one per row of a row-divide
        stage, one per lane of an affine group.  A stage's groups are
        garbled as one walk, which holds one instance count, so a stage
        whose groups differ in it is refused."""
        if self.kind == "rowdiv":
            return self.rows
        counts = sorted({g.count for g in self.groups})
        if len(counts) != 1:
            raise ParameterError(f"stage {self.name!r} has groups of "
                                 f"{counts} instances; one walk needs one "
                                 f"count")
        return counts[0]

    @property
    def shape(self) -> tuple:
        """The parameters that fix the stage's circuits, hence its walk:
        the stage kind and window, and the row length or each group's
        relu."""
        if self.kind == "rowdiv":
            return ("rowdiv", self.m, self.shift, self.keep, self.frac,
                    self.row_len)
        if self.kind != "affine":
            raise ParameterError(f"unknown stage kind {self.kind!r}")
        return ("affine", self.m, self.shift, self.keep,
                tuple(g.relu for g in self.groups))


@dataclass(frozen=True)
class StagePlan:
    act_f: int
    encoders: tuple[tuple[StageSpec, ...], ...]

    @property
    def m_max(self) -> int:
        return max(s.m for enc in self.encoders for s in enc)

    def stage(self, layer: int, name: str) -> StageSpec:
        for s in self.encoders[layer]:
            if s.name == name:
                return s
        raise ParameterError(f"no stage named {name!r} in layer {layer}")

    def readers(self, layer: int, tag: str) -> list[StageSpec]:
        """The stages whose products read the tensor `tag` that layer
        `layer` outputs.  "x" is read by the next layer's products, and
        after the last layer by none (only the classifier)."""
        if tag == "x":
            layer += 1
        stages = self.encoders[layer] if layer < len(self.encoders) else ()
        return [s for s in stages if tag in (s.left, s.right)]


MODES = ("baseline", "opt1", "opt2")
WEIGHTS = ("wqkv", "ff1", "ff2")


def build_stage_plan(*, mode: str, seq_len: int, dim: int, ff_dim: int,
                     n_layers: int, w: int, f: int) -> StagePlan:
    """Size every stage window from the weight/activation widths.

    Every layer runs five stages, each fed by one product:

      x @ wqkv        -> qkv_rescale  -> q, k, v
      q @ k'          -> attn_weights -> weights    (baseline)
      weights @ v     -> attn_rescale -> attn_out   (baseline)
      k' @ v          -> attn_inner   -> kv         (opt1, opt2)
      q @ kv          -> attn_rescale -> attn_out   (opt1, opt2)
      attn_out @ ff1  -> ff_hidden    -> hidden
      hidden @ ff2    -> ff_out       -> x

    baseline  keeps activations at full width and normalises score rows with
              the in-circuit divider;
    opt1      relus Q and K, multiplies K'V first (d x d), so the expensive
              per-row divider disappears and the ct-matmul output shrinks;
    opt2      is opt1 with activations narrowed to 8 bits / 4 fraction bits
              between stages (weights stay at full width).

    This is the only place the modes' schedules differ.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if not 0 < f < w:
        raise ParameterError(f"need 0 < f < w, got w={w} f={f}")
    act_w, act_f = (8, 4) if mode == "opt2" else (w, f)
    if act_w > w or act_f > f:
        raise ParameterError("activation widths cannot exceed weight widths")
    if min(seq_len, dim, ff_dim, n_layers) < 1:
        raise ParameterError("all model dimensions must be positive")
    L, d, ff = seq_len, dim, ff_dim
    a = act_w - 1  # magnitude bits of a saturated activation

    encoders = []
    for e in range(n_layers):
        if e == 0:
            # Token/position tables are folded into the QKV weights, so the
            # first layer multiplies two full-width tables and adds the
            # position product: one extra magnitude bit.
            b_in = 2 * (w - 1) + _clg(d) + 1
            s_in = 2 * f
        else:
            b_in = a + (w - 1) + _clg(d)
            s_in = act_f + f
        qkv_relu = mode != "baseline"  # linearised attention relus Q and K
        stages = [StageSpec(
            name="qkv_rescale", kind="affine", m=b_in + 2,
            shift=s_in - act_f, keep=act_w, rows=L,
            groups=(StageGroup("q", L * d, qkv_relu),
                    StageGroup("k", L * d, qkv_relu),
                    StageGroup("v", L * d, False)),
            left="x", right="wqkv")]
        if mode == "baseline":
            b_sc = 2 * a + _clg(d)
            stages.append(StageSpec(
                name="attn_weights", kind="rowdiv", m=b_sc + 2,
                shift=act_f, keep=act_f + 1, frac=act_f, rows=L,
                groups=(StageGroup("weights", L * L),),
                left="q", right="k", t_right=True))
            b_av = act_f + a + _clg(L)  # weights are unsigned < 2^act_f
            av = ("weights", "v")
        else:
            b_z = 2 * a + _clg(L)
            stages.append(StageSpec(
                name="attn_inner", kind="affine", m=b_z + 2,
                shift=act_f, keep=act_w, rows=d,
                groups=(StageGroup("kv", d * d),),
                left="k", right="v", t_left=True))
            b_av = 2 * a + _clg(d)
            av = ("q", "kv")
        stages.append(StageSpec(
            name="attn_rescale", kind="affine", m=b_av + 2,
            shift=act_f, keep=act_w, rows=L,
            groups=(StageGroup("attn_out", L * d),), left=av[0], right=av[1]))
        b_ff1 = a + (w - 1) + _clg(d)
        stages.append(StageSpec(
            name="ff_hidden", kind="affine", m=b_ff1 + 2,
            shift=f, keep=act_w, rows=L,
            groups=(StageGroup("hidden", L * ff, True),),
            left="attn_out", right="ff1"))
        b_ff2 = a + (w - 1) + _clg(ff)
        stages.append(StageSpec(
            name="ff_out", kind="affine", m=b_ff2 + 2,
            shift=f, keep=act_w, rows=L,
            groups=(StageGroup("x", L * d),), left="hidden", right="ff2"))
        encoders.append(tuple(stages))

    plan = StagePlan(act_f=act_f, encoders=tuple(encoders))
    for enc in plan.encoders:
        for s in enc:
            _check_window(s.m, s.shift, s.keep)
            if s.kind == "rowdiv" and _clg(s.row_len) > s.shift:
                raise ParameterError(
                    f"row of {s.row_len} needs ceil(lg) <= {s.shift} "
                    f"accumulator shift to sum without overflow")
    return plan


# ----------------------------------------------------------------------------
# stage circuits


def _check_window(m: int, shift: int, keep: int):
    if not 2 <= m <= 62:
        raise ParameterError(f"window width {m} out of range")
    if not 0 <= shift < m:
        raise ParameterError(f"shift {shift} out of range for window {m}")
    if not 2 <= keep <= m:
        raise ParameterError(f"output width {keep} out of range for window {m}")


def _reconstruct(b: Builder, m: int) -> list[int]:
    """Garbler share + evaluator share mod 2^m, then undo the window offset."""
    t = b.garbler_word(m)
    c = b.evaluator_word(m)
    x = b.add(c, t)
    x[-1] = b.inv(x[-1])  # offset binary -> two's complement, for free
    return x


def affine_stage_circuit(m: int, shift: int, keep: int,
                         relu: bool = False) -> Circuit:
    """Reconstruct one lane, rescale by 2^-shift, saturate, optional relu."""
    _check_window(m, shift, keep)
    b = Builder()
    y = b.shift_right_arith(_reconstruct(b, m), shift)
    y = b.saturate(y, keep)
    if relu:
        y = b.relu(y)
    b.mark_output_word(y)
    return b.freeze()


def _divider(b: Builder, x: list[int], s: list[int], f: int,
             enable: int | None = None) -> list[int]:
    """Quotient bits f-1..0 of unsigned x / s by non-restoring division.

    Step j subtracts s << j from the remainder while it is >= 0 and adds it
    while it is negative, choosing by XORing s with the sign: no mux.
    Quotient bit j is the new remainder's sign, inverted.  These are the
    greedy digits of `divider_oracle`, all ones whenever x >= s (2^f - 1),
    s = 0 included, as the remainder then never goes negative.  It lies in
    [-(s << j), x], so it is kept at max(len(x), len(s) + j) + 1 bits, and
    only its bits from j up are added to.

    `enable`, 0 only when s = 0, turns the quotient to 0 at no AND: after
    the first step, which need not wait for it, it sets every remainder bit
    above x, and the remainder stays negative.
    """
    wx, ws = len(x), len(s)
    top = max(wx, ws + f - 1) + 1
    rem = list(x) + [CONST0] * (top - wx)
    q: list[int] = [CONST0] * f
    sub = CONST1  # remainder >= 0: subtract s << j
    for j in reversed(range(f)):
        width = max(wx, ws + j) + 1
        hi = b.add(rem[j:width], [b.xor(bit, sub) for bit in s] +
                   [sub] * (width - j - ws), carry_in=sub)
        rem = rem[:j] + hi
        if j == f - 1 and enable is not None:
            # s = 0 leaves x < 2^wx; disabled, it becomes x - 2^wx < 0
            off = b.inv(enable)
            rem[wx:] = [b.xor(bit, off) for bit in rem[wx:]]
        q[j] = sub = b.inv(rem[-1])
    return q


def rowdiv_stage_circuit(m: int, shift: int, frac: int, keep: int,
                         row_len: int) -> Circuit:
    """Reconstruct a score row, relu it, divide by the row sum.

    The accumulator is the sum of the relu'd entries pre-shifted by `shift`,
    so each quotient floor(r_i / acc) lands at `frac` fraction bits.  A row
    whose accumulator is zero yields all-zero weights.  Quotients are
    unsigned and < 2^frac, padded with a zero sign bit to `keep` bits so the
    B2A convention stays uniform across stages.
    """
    _check_window(m, shift, keep)
    if keep != frac + 1:
        raise ParameterError("row divide keeps frac magnitude bits plus sign")
    if row_len < 1:
        raise ParameterError("row length must be positive")
    if _clg(row_len) > shift:
        raise ParameterError(
            f"accumulating {row_len} entries needs shift >= {_clg(row_len)}")
    b = Builder()
    # relu leaves a zero sign bit: entries are m - 1 bit magnitudes
    rows = [b.relu(_reconstruct(b, m))[:-1] for _ in range(row_len)]
    acc: list[int] = []
    for i, r in enumerate(rows, 1):
        # i terms below 2^{m-1-shift} sum below 2^{m-1-shift+clg(i)}
        width = m - 1 - shift + _clg(i)
        acc = b.add(acc + [CONST0] * (width - len(acc)), r[shift:])
    some = CONST0
    for bit in acc:
        some = b.or_(some, bit)
    for r in rows:
        q = _divider(b, r, acc, frac, enable=some)
        b.mark_output_word(q + [CONST0] * (keep - frac))
    return b.freeze()


def stage_circuits(spec: StageSpec) -> list[tuple[StageGroup, Circuit, int]]:
    """(group, circuit, instance count) triples backing one stage, built
    afresh on every call: a session builds them once per stage shape, in
    `protocol.session.session_geometry`, which keeps their walk."""
    E = spec.instances
    kind, m, shift, keep, *rest = spec.shape
    if kind == "rowdiv":
        frac, row_len = rest
        circuits = [rowdiv_stage_circuit(m, shift, frac, keep, row_len)]
    else:
        circuits = [affine_stage_circuit(m, shift, keep, relu)
                    for relu in rest[0]]
    return [(g, circ, E) for g, circ in zip(spec.groups, circuits)]


def plan_gate_counts(plan: StagePlan) -> dict[str, int]:
    """Total gates across all stage instances of a plan."""
    tot = {"and": 0, "xor": 0}
    for enc in plan.encoders:
        for spec in enc:
            for _g, circ, inst in stage_circuits(spec):
                st = circ.stats()
                tot["and"] += st["and"] * inst
                tot["xor"] += st["xor"] * inst
    return tot


# ----------------------------------------------------------------------------
# plain oracles (same maps, independent arithmetic route)


def affine_stage_oracle(x, shift: int, keep: int, relu: bool = False):
    """Shift/saturate/relu on signed integers; mirrors the affine circuit."""
    y = np.asarray(x, dtype=np.int64) >> shift
    hi = (1 << (keep - 1)) - 1
    y = np.clip(y, -hi - 1, hi)
    if relu:
        y = np.maximum(y, 0)
    return y


def divider_oracle(x, s, f: int):
    """Greedy digit selection: set bit j of Q when (Q | 2^j) * s <= x.
    Equals floor(x/s) whenever that fits in f bits, else saturates; s = 0
    yields all-ones (the circuit's zero-sum gate is applied separately)."""
    x = np.asarray(x, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    q = np.zeros(np.broadcast(x, s).shape, dtype=np.int64)
    for j in reversed(range(f)):
        trial = q | (1 << j)
        q = np.where(trial * s <= x, trial, q)
    return q


def rowdiv_stage_oracle(x, shift: int, frac: int):
    """Row-normalised weights for signed score rows x[..., row_len]."""
    r = np.maximum(np.asarray(x, dtype=np.int64), 0)
    acc = (r >> shift).sum(axis=-1, keepdims=True)
    q = divider_oracle(r, np.maximum(acc, 1), frac)
    return np.where(acc == 0, 0, q)


# ----------------------------------------------------------------------------
# masks, shares, and B2A weights


def window_offset(m: int) -> int:
    """Centre shift added before masking so the windowed value is >= 0."""
    return 1 << (m - 1)


def sample_stage_masks(rng: np.random.Generator, p: int, m: int,
                       count: int) -> np.ndarray:
    """Fresh single-use masks R in [0, p - 2^m).

    The shipped word (x + 2^{m-1} + R) mod p then never wraps, and its
    distribution moves by at most 2^m / (p - 2^m) in statistical distance as
    x varies -- the slack `choose_plaintext_prime` budgets for.
    """
    top = p - (1 << m)
    if top <= 0:
        raise ParameterError(f"window {m} too wide for modulus {p}")
    return rng.integers(0, top, size=count, dtype=np.uint64)


def stage_offsets(masks, m: int, p: int) -> np.ndarray:
    """Plaintext offsets [2^{m-1} + R] mod p the server adds before shipping."""
    off = np.asarray(masks, dtype=np.uint64) + np.uint64(window_offset(m))
    return off % np.uint64(p)


def client_window_share(values, m: int) -> np.ndarray:
    """Evaluator share: decrypted wire words reduced mod 2^m."""
    return np.asarray(values, dtype=np.uint64) & np.uint64((1 << m) - 1)


def garbler_window_share(masks, m: int) -> np.ndarray:
    """Garbler share: (-R) mod 2^m."""
    mm = np.uint64((1 << m) - 1)
    r = np.asarray(masks, dtype=np.uint64) & mm
    return (-r) & mm


def b2a_weights(keep: int, p: int) -> np.ndarray:
    """Field weight of each output bit: 2^j, with -2^{keep-1} for the sign."""
    ws = [pow(2, j, p) for j in range(keep - 1)]
    ws.append((p - (1 << (keep - 1)) % p) % p)
    return np.array(ws, dtype=np.uint64)


# ----------------------------------------------------------------------------
# plaintext modulus selection


def choose_plaintext_prime(m_max: int, n: int) -> tuple[int, float]:
    """Smallest NTT-friendly p == 1 (mod 2n) with SIGMA_TARGET bits of mask
    slack over the widest stage window, capped by the 64-bit NTT headroom.

    Returns (p, effective slack in bits); refuses plans that cannot reach
    SIGMA_FLOOR even at the cap.
    """
    bits = min(m_max + SIGMA_TARGET + 1, _PRIME_BIT_CAP)
    if bits < m_max + SIGMA_FLOOR + 1:
        raise ParameterError(
            f"stage window of {m_max} bits leaves under {SIGMA_FLOOR} bits "
            f"of masking slack at the {_PRIME_BIT_CAP}-bit modulus cap")
    p = next_prime(1 << bits, congruent=(1, 2 * n))
    sigma_eff = log2(p - (1 << m_max)) - m_max
    return p, sigma_eff
