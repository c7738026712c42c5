"""The two-party inference session.

Roles: the *server* holds the model weights; the *client* holds the token
sequence and the decryption key.  Everything the server learns is masked;
everything the client learns besides the final logits is either uniformly
random or encrypted under its own key.

One session is a fixed flight plan.  Every frame is its parts back to back,
and the receiver sizes each part from its own `Geometry` and the stage
circuits before it reads the frame, so a frame of any other length is
refused from its header (`framing.read_frame`).  Sizes are in bytes; a
batch of cts is its cts back to back (`pahe.cts_to_bytes`), and a matrix
of a layout is the batch of that layout's `ct_count` ciphertexts.  Every
residue travels at the basis' width b, the bit length of its largest prime
(`PaheParams.residue_bits`: 51 on he-small, 50 on gc-l16 and tiny), so a
(k, n) polynomial is b k n / 8 bytes.  The form of a ct is fixed by its
direction (`pahe.ct_nbytes`): every ct the client sends is a fresh
encryption, its c0 and the 16-byte seed of its uniform c1, b k n / 8 + 16;
every ct the server sends is computed, its c0 and c1, 2 b k n / 8:

  hello          s -> c   81: the mode's index in `stages.MODES` (1), then
                          vocab, seq_len, dim, ff_dim, n_layers, n_classes,
                          w, f, ring degree and plaintext prime (8 each);
                          the client rederives ring and prime and refuses
                          on any disagreement
  accept         c -> s   the key set's digest, the SHA-256 of its key
                          blob, 32; base-OT point A (compressed P-256), 33;
                          then, if the client holds a base-OT outcome for
                          the key set, a resume request: the client's
                          stream position (8, little-endian) and the
                          outcome's name (16)
  ot-base        s -> c   the answer byte, 0 if the server holds the keys
                          accept names and 1 if it wants them; then nothing
                          if the server resumes the outcome the request
                          names, else the 128 base-OT points B, 128 x 33
  client-setup   c -> s   after an answer of 1 only, the key blob, per
                          Galois key its (k, k, n) k0 digit stack and the
                          seed of its k1 stack, (b k^2 n / 8 + 16) |galois|;
                          after points B only, the two sums of each GGM
                          tree level, 128 x 32; correction columns,
                          (128 / K - 1) x ceil(ot_total / 8), 31 rows at
                          `gc.ot.K` = 4; the encrypted one-hot input, an
                          `input_layout` matrix of fresh cts, its `steps`
                          copies two to a ct

then per encoder layer, five garbled stages of four frames each,
interleaved with two encrypted matrix products of two frames each:

  stage-open     s -> c   the masked input, a `stage_input` matrix, its
                          mask split across both ring rows
  stage-ot-req   c -> s   derandomization bits, ceil(m count / 8), the pad
                          bits of the last byte zero
  stage-ot-resp  s -> c   the stage's one walk over its groups
                          (`Geometry.walk`), garbled once the bits arrive
                          under the stage's tweaks: its tables,
                          32 n_and E, AND by AND in walk order; then its
                          B2A corrections, 8 n_out E, each word below p
  stage-share    c -> s   one `stage_shares` matrix of fresh cts per group,
                          copies two to a ct
  mm-open        s -> c   the masked factors, each in the layout of the
                          share it was made from, read as its `.T` where
                          the plan transposes the factor
  mm-reply       c -> s   a batch of `ctmm_reply_count` fresh cts, (k + 1)
                          per ct of the r x c product's rows layout: the
                          product, then k cts each holding a term of both
                          masked factors, one to a ring row

and a final frame:

  logits         s -> c   a batch of n_classes cts, each padded to a zero
                          slot sum

Every frame in either direction counts as one round, so the round count is
the same constant, 5 + 24 n_layers, for every session of a given shape,
first or resumed.  accept and ot-base each have two lengths, and each
receiver tells the forms apart by the length in the frame header; the
server's two answers in ot-base fix which of client-setup's four forms
it reads.

Base OT runs once per client key set.  Both parties keep its outcome (the
client the leaves of its GGM trees, the server those of its punctured
trees and s, the leaves a read-only array) under the outcome's name, the
SHA-256 of point A and the 128 points B cut to 16 bytes, which both hold,
with a stream position and a session number.  Each party holds this state
across sessions in stores (`_Store`), each dropping its least recently
used entry past its bound:

  client         one store of key sets, 16, by (params, rotations, seed),
                 an unseeded client's under seed None: each its secret
                 keys, its key blob, the generator every draw of its
                 sessions continues and, once a base OT has run with it,
                 that outcome
  server         outcomes, 16, by the key set's digest and the outcome's
                 name; and a memo of parsed public keys, 4, by the same
                 digest and the session's params and Galois elements

Every later session with the same key set adds a resume request to
accept: both then extend at that position of the column streams the
same leaves give (`gc.ot`), garble under session-numbered tweaks
(`gc.garble.tweak_namespace`), and move the position past the
`stream_blocks(ot_total)` blocks they took.  The session that ran the base
OTs extends at position 0 as session 0.  The server never takes the
client's word for its state: it resumes only if it holds the named outcome
for the key set, at exactly the requested position and with a session
number left.  Otherwise it answers point A, which the client draws and
sends in every session (in Chou-Orlandi it depends on nothing the server
says), with points B, and the session runs as a first session in the same
frames.  A resuming server still checks that A is a curve point.  A
session that fails drops the client's outcome for its key set and keeps
the keys, so the next session makes no key and runs base OT.

The server answers the keys apart from the OT: accept names the key set
by its digest alone, and the server answers 0 if it holds keys parsed
from a blob of that digest, which it then keeps for the session whatever
the store drops, and 1 if it does not.  After a 1 the client sends the
blob at the head of client-setup, and the server parses it only once it
hashes to the digest.  So a resumed session whose keys the server dropped
resumes its OT and sends its blob, and one whose outcome the server
dropped runs base OT and sends no blob; a first session sends the blob
one frame later than accept, before the first product needs its keys.

No input label costs a byte of its own.  The rows SoftSpokenOT extends
are a correlated OT under the key set's one garbling offset, IKNP's
correlation, so the derandomization bits fix the zero labels the server
garbles with, and the client already holds the label of each of its bits
(`gc.ot`).  The server hardcodes its own mask bits and the constants into
each garbling, so the client starts those wires at the all-zero label
(`gc.garble.garble`).

Share switching works on a per-stage window of m bits: the server adds
2^{m-1} + R (R fresh, below p - 2^m) onto each wire and ships the
ciphertexts; the client's decryption mod 2^m and the server's (-R) mod 2^m
are exact additive shares for the stage circuit.  The wires sit in the
slots of the stage input's packing (`helinear` decides which slot holds
which entry, many matrix rows to a ciphertext), and the offsets are laid out
by the same rule, so every other slot decrypts to zero.  Stage outputs come
back to the field through label-keyed pads: for every output bit the server
publishes one correction word, and the pad of the label the client holds,
plus the word if that label's colour bit is set, is the client's additive
share of bit * weight mod p (`gc.garble.b2a_corrections`) -- no extra gates,
no extra OTs and no extra frames.  The client sums its word shares, packs
and encrypts them fresh (which also resets ciphertext depth), and the server
adds its own word shares on its side.

The ciphertext-by-ciphertext products mask both factors, let the client
multiply in the clear, and finish the cross terms homomorphically; the
result is a plain rows matrix, so every stage input is `rows` or
`colblocks` and every stage mask is one `add_offset`.

Every product's result, hence every stage input, is a split sum: its value
is ring row 0 plus ring row 1 (see `helinear`).  The server splits each
stage mask across the rows, a fresh pad in row 1 and the mask less the pad
in row 0, and the client reads every one-copy matrix as row 0 plus row 1
(`decrypt_matrix`), a copied one from copy 0.

The plain-weight products run baby-step giant-step (see `helinear`): every
matrix one of them reads is a fresh client encryption, so the client sends
it as `Geometry.steps` rotated copies inside the frame that already carries
it, two to a ct, and the server needs rotation keys for the giant steps
only.

Both parties walk the stage plan's layer schedule (`stages`), which names
each product's factors and transposes: a transpose is a relabel of the same
ciphertexts (`helinear.Layout.T`), so mm-open and the product calls carry no
flags, and `Geometry` derives every stage input and share layout from it.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import isqrt, prod

import numpy as np

from ..errors import ParameterError, ProtocolError
from ..fixedpoint import to_field, to_signed
from ..gc.circuit import Schedule, schedule, to_bits
from ..gc.garble import (MAX_SESSIONS, b2a_corrections, b2a_shares,
                         evaluate, garble, tweak_namespace)
from ..gc.ot import (COLUMNS, LAMBDA, POINT_BYTES, BaseOtReceiver,
                     BaseOtSender, OtExtReceiver, OtExtSender, RandomOtBatch,
                     RandomOtSenderBatch, decode_points, stream_blocks)
from ..helinear import (COLBLOCKS, ROWS, EncMatrix, Layout,
                        add_offset, class_sums, colblock_diagonals,
                        colblock_matmul, colblock_rotation_amounts,
                        ctmm_client_round, ctmm_reply_count,
                        ctmm_server_finalize, ctmm_server_mask, decrypt_matrix,
                        encmatrix_from_bytes, encmatrix_to_bytes,
                        pack_colblocks, pack_rows)
from ..model import ModelConfig, Weights, layer_weights, validate_weights
from ..ntt import addmod
from ..pahe import (Ciphertexts, Evaluator, KeyMaterial, PaheParams, ct_nbytes,
                    cts_from_bytes, cts_to_bytes,
                    galois_elements, key_blob_nbytes, keygen, le64,
                    public_keys_from_bytes, public_keys_to_bytes,
                    session_params)
from ..stages import (MODES, StagePlan, StageSpec, b2a_weights,
                      choose_plaintext_prime, client_window_share,
                      garbler_window_share, sample_stage_masks,
                      stage_circuits, stage_offsets)
from .framing import (ACCEPT, CLIENT_SETUP, HELLO, LOGITS, MM_OPEN, MM_REPLY,
                      OT_BASE, STAGE_OPEN, STAGE_OT_REQ, STAGE_OT_RESP,
                      STAGE_SHARE, read_frame, write_frame)
from .transcript import Transcript
from .transport import run_pair

# the largest session either party will size, so a peer's hello cannot size
# an arbitrarily large ring, plan or key set.  2^13 is the largest ring
# some shape reaches within `MAX_SESSION_BYTES` (seq_len 4096 in opt2);
# every shape a 2^14 ring would hold sends more than that.
MAX_RING_DEGREE = 1 << 13
# the smallest ring a session uses, however narrow its layouts
MIN_RING_DEGREE = 512
# checked before the plan: every held row is a model width, so no width
# may pass one row of the largest ring
MAX_WIDTH = MAX_RING_DEGREE // 2
# checked after the plan, before any key or OT is made: widths alone do
# not bound a session, which holds tensors of two widths (dim x dim, say)
# in every layer.  The OT extension peaks at about 27 bytes per OT on the
# receiver and 22 on the sender above its input (measured with tracemalloc
# at 2^18 OTs): the rows each party keeps as labels hold 16 bytes per OT,
# the receiver's correction columns 4 (31 bits at `gc.ot.K` = 4) and its
# choice bits one, and one chunk of `gc.ot.CHUNK_OTS` column bits (1 MB)
# is expanded, combined and transposed at a time.  At 2^24 OTs the chunk
# is lost beside the rest: about 0.35 GB on the receiver.
MAX_OTS = 1 << 24
# the wire bytes of every encrypted matrix and garbled stage of one session,
# and the label array of any one garbling
MAX_SESSION_BYTES = 1 << 30
MAX_LAYERS = 64
# accepted geometries kept per process, with the walks of their stage
# shapes.  `build_stage_plan` gives every layer after the first the same
# stages, so a plan of any depth has at most two layers' stage shapes, ten
# walks, each 40-60 bytes per wire where its label array, which the bound
# above caps, takes 16 per wire and instance.  Four hold a served model's
# three modes and one shape more, while a peer's hellos cannot grow the
# cache without limit.
GEOMETRIES = 4
# bounds the logits frame (one ciphertext per class) a peer's hello can make
# the client expect
MAX_CLASSES = 99


# ----------------------------------------------------------------------------
# geometry: everything both parties must agree on before any payload flows


def _pow2ceil(x: int) -> int:
    return 1 << max(x - 1, 0).bit_length()


@dataclass(frozen=True)
class Geometry:
    """Everything both parties agree on before any payload flows, and the
    layout of every matrix either one sends: the receiver decodes each
    payload against the layout named here, never against the bytes."""

    cfg: ModelConfig
    mode: str
    plan: StagePlan
    n: int                      # ring degree
    p: int                      # plaintext modulus
    params: PaheParams
    products: tuple[tuple[int, int], ...]  # plain-weight (in, out) widths
    steps: int                  # baby-step copies of each product input
    rotations: tuple[int, ...]  # giant-step column-rotation key amounts
    ot_total: int               # random OTs one session consumes
    # the walk of each stage shape (`StageSpec.shape`), built once the
    # geometry passes every bound
    walks: dict[tuple, Schedule] = field(default_factory=dict,
                                         compare=False, repr=False)

    @property
    def galois(self) -> tuple[int, ...]:
        """The Galois elements of the rotation keys, in key-blob order."""
        return galois_elements(self.params, self.rotations)

    @property
    def input_layout(self) -> Layout:
        """The client's encrypted one-hot input, which the first product
        reads."""
        return Layout(COLBLOCKS, self.cfg.seq_len, self.cfg.vocab, self.steps)

    def stage_input(self, spec: StageSpec) -> Layout:
        """The masked input matrix a stage opens with: column blocks after
        a plain-weight product, rows after an encrypted one."""
        return Layout(COLBLOCKS if spec.plain else ROWS, spec.rows,
                      spec.row_len)

    def nbytes(self, layout: Layout, fresh: bool) -> int:
        """Wire size of a matrix of `layout` under the session's ring, of
        fresh client encryptions or of computed server ciphertexts."""
        return layout.ct_count(self.params) * ct_nbytes(self.params, fresh)

    def stage_shares(self, layer: int, spec: StageSpec) -> list[Layout]:
        """The client's encrypted output share of each group of a stage:
        rows if an encrypted product reads it, else column blocks, with
        `steps` copies if a plain-weight product reads it."""
        lays = []
        for g in spec.groups:
            plain = [s.plain for s in self.plan.readers(layer, g.tag)]
            lays.append(Layout(COLBLOCKS if all(plain) else ROWS, spec.rows,
                               g.count // spec.rows,
                               self.steps if any(plain) else 1))
        return lays

    def sent(self) -> list[tuple[Layout, bool]]:
        """Every matrix a session sends, as its layout and whether it is
        fresh: the client's encrypted input, then per stage the server's
        masked factors of its encrypted product and the client's reply,
        k + 1 fresh matrices in the rows layout of the r x k by k x c
        product (the stage's input layout), then the server's masked input
        and the client's fresh shares."""
        sent, held = [(self.input_layout, True)], {"x": self.input_layout}
        for e, enc in enumerate(self.plan.encoders):
            for spec in enc:
                if not spec.plain:
                    left, right = spec.factors(held)
                    sent += [(left, False), (right, False)]
                    sent += [(self.stage_input(spec), True)] * (
                        left.shape[1] + 1)
                shares = self.stage_shares(e, spec)
                sent += [(self.stage_input(spec), False),
                         *((lay, True) for lay in shares)]
                held.update(zip(spec.tags, shares))
        return sent

    def layouts(self) -> list[Layout]:
        """The layout of every matrix a session sends, in `sent` order."""
        return [lay for lay, _fresh in self.sent()]

    def walk(self, spec: StageSpec) -> Schedule:
        """The one walk over a stage's group circuits, which both parties
        garble and evaluate."""
        return self.walks[spec.shape]


@lru_cache(maxsize=GEOMETRIES)
def session_geometry(cfg: ModelConfig, mode: str) -> Geometry:
    """The one place a session's sizes are decided, from the model shape and
    the mode alone.

    The plan fixes every stage window and, through the products it names,
    every tensor layout and plain-weight product shape.  Every matrix is
    blocked by `helinear.rows_per_ct` across as many ciphertexts as it
    needs (a column-block matrix is the rows packing of its transpose, one
    block per column, `seq_len` slots long), so only each held row must fit
    one ring row: n is the smallest power of two, at least
    `MIN_RING_DEGREE`, whose n/2-slot row holds the widest held row of
    every layout the geometry names (`Geometry.layouts`).  The plaintext
    modulus is the smallest NTT-friendly prime giving the widest window its
    masking slack, and `session_params` picks the RNS primes for it.

    The plain-weight products run baby-step giant-step with one
    session-wide g = ceil(sqrt(D_max)) baby steps, D_max the most diagonals
    any product shape spans (`colblock_diagonals`): the client sends g
    copies of every product input, two to a ciphertext (one in each ring
    row), so g copies travel in ceil(g/2) times one copy's ciphertexts, and
    a product of D diagonals costs about D/g rotations.  The rotation keys
    are exactly the giant-step amounts those products use.  The copies
    always fit beside their row: with q = row_size // seq_len >= 1 held
    rows to a ring row, a product spans at most 2q - 1 diagonals, so
    g <= isqrt(2q - 2) + 1 <= q.

    Both parties run this from the hello parameters and decode what the
    peer sends against it; nothing is rebuilt from the peer's bytes.  A
    width past `MAX_WIDTH`, or more layers or classes than `MAX_LAYERS` or
    `MAX_CLASSES`, is refused before anything is planned; a plan needing
    more than `MAX_OTS` random OTs, a stage garbling whose label array (16
    bytes per wire and instance of all its groups, which one walk holds)
    passes `MAX_SESSION_BYTES`, or garbled
    stages (every stage-ot-resp frame) and encrypted matrices (`sent`, the
    mm-reply batches among them) past `MAX_SESSION_BYTES` together at their
    wire size, before any key or OT is made.

    The circuits of each distinct stage shape are built once, to size the
    labels and tables; only a shape that passes every bound gets its walks
    (`Geometry.walk`), each shape's one `circuit.Schedule`.  Geometries are
    kept per process, the least recently used past `GEOMETRIES` dropped,
    so a session of a shape sized before builds no circuit and no walk; a
    refused shape raises and leaves nothing kept.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    widest = max(cfg.vocab, cfg.seq_len, cfg.dim, cfg.ff_dim)
    if widest > MAX_WIDTH:
        raise ParameterError(f"model width {widest} is past the limit of "
                             f"{MAX_WIDTH} slots, one row of the largest "
                             f"ring")
    if cfg.n_layers > MAX_LAYERS:
        raise ParameterError(f"{cfg.n_layers} layers exceed the limit of "
                             f"{MAX_LAYERS}")
    if cfg.n_classes > MAX_CLASSES:
        raise ParameterError(f"{cfg.n_classes} classes exceed the limit of "
                             f"{MAX_CLASSES}")
    plan = cfg.plan(mode)
    # (in, out) widths of each plain-weight product; first "x" is one-hot
    cols, shapes = {"x": cfg.vocab}, {}
    for enc in plan.encoders:
        for s in enc:
            if s.plain:
                shapes[cols[s.left], s.row_len] = None
            cols.update((g.tag, g.count // s.rows) for g in s.groups)
    ot_total = sum(s.m * s.count for enc in plan.encoders for s in enc)
    if ot_total > MAX_OTS:
        raise ParameterError(f"model shape needs {ot_total} random OTs, "
                             f"above the limit of {MAX_OTS}")
    # a held row does not depend on the ring or the copies, so the layouts
    # of a geometry with placeholder ring fields size the ring
    unsized = Geometry(cfg, mode, plan, n=0, p=0, params=None,
                       products=tuple(shapes), steps=1, rotations=(),
                       ot_total=ot_total)
    row = max(lay.held[1] for lay in unsized.layouts())
    n = max(MIN_RING_DEGREE, 2 * _pow2ceil(row))
    if n > MAX_RING_DEGREE:
        raise ParameterError(f"model shape needs a ring of degree {n}, above "
                             f"the limit of {MAX_RING_DEGREE}")
    p, _ = choose_plaintext_prime(plan.m_max, n)
    params = session_params(p, n)
    d_max = max(colblock_diagonals(params, d_in, cfg.seq_len, d_out)
                for d_in, d_out in shapes)
    steps = isqrt(d_max - 1) + 1
    rots: set[int] = set()
    for d_in, d_out in shapes:
        rots.update(colblock_rotation_amounts(params, d_in, cfg.seq_len,
                                              d_out, steps))
    geom = replace(unsized, n=n, p=p, params=params, steps=steps,
                   rotations=tuple(sorted(rots)))
    specs = [s for enc in plan.encoders for s in enc]
    circuits = {shape: [circ for _g, circ, _E in stage_circuits(s)]
                for shape, s in {s.shape: s for s in specs}.items()}
    label_bytes = max(16 * s.instances * sum(circ.n_wires
                                             for circ in circuits[s.shape])
                      for s in specs)
    if label_bytes > MAX_SESSION_BYTES:
        raise ParameterError(f"model shape garbles {label_bytes} bytes of "
                             f"wire labels at once, above the limit of "
                             f"{MAX_SESSION_BYTES}")
    gc_bytes = sum(8 * prod(sh) for s in specs for circ in circuits[s.shape]
                   for sh in _gc_shapes(circ, s.instances))
    nbytes = sum(geom.nbytes(lay, fresh) for lay, fresh in geom.sent())
    if gc_bytes + nbytes > MAX_SESSION_BYTES:
        raise ParameterError(f"model shape needs {gc_bytes} bytes of garbled "
                             f"stages and {nbytes} bytes of encrypted "
                             f"matrices, above the limit of "
                             f"{MAX_SESSION_BYTES} together")
    return replace(geom, walks={shape: schedule(circs)
                                for shape, circs in circuits.items()})


# ----------------------------------------------------------------------------
# party state: key sets and base-OT outcomes, held across sessions


@dataclass
class _Extension:
    """What one base OT left a party for a client key set, which every later
    session with that key set extends (`gc.ot`): the leaves of the client's
    GGM trees, or those of the server's punctured trees and its s bits, the
    garbling offset of all those sessions, and the digest that names the
    outcome (`_outcome`).  The leaves are a read-only array and every read
    of their column streams runs through an encryptor of its own, so the
    sessions that resume one outcome at once share it with no lock."""

    leaves: np.ndarray | None
    s_bits: np.ndarray | None
    outcome: bytes
    position: int = 0    # the next AES block of every column stream
    session: int = 0     # the next session's number in its garbling tweaks

    def take(self, blocks: int, at: int | None = None):
        """This outcome as the next session finds it, and this one moved
        past that session's `blocks` and number; None, with nothing moved,
        if its session numbers are spent or `at` is given and is not its
        position.  Called under its store's lock."""
        if self.session >= MAX_SESSIONS or at not in (None, self.position):
            return None
        taken = replace(self)
        self.position += blocks
        self.session += 1
        return taken


@dataclass
class _KeySet:
    """A client key set: its secret keys (the client never rotates, so its
    rotation keys are kept only in the blob), its serialized public keys,
    the blob's SHA-256, which names the key set to the server, the one
    generator that drew the keys and that every session with them goes on
    drawing from (encryption randomness, point A, tree roots), and, once a
    base OT has run with it, that outcome.  Each numpy call holds the
    generator's lock, so sessions that run at once draw apart."""

    keys: KeyMaterial
    blob: bytes
    digest: bytes
    rng: np.random.Generator
    ext: _Extension | None = None

    def take(self, blocks: int, at: int | None = None):
        # read once: a failed session may drop it meanwhile
        return ext.take(blocks, at) if (ext := self.ext) else None


def _client_keys(params: PaheParams, rotations: tuple[int, ...],
                 seed: int | None) -> _KeySet:
    """A new client key set, drawn first from its generator (OS entropy if
    `seed` is None), its blob serialized and hashed once."""
    rng = np.random.default_rng(seed)
    keys = keygen(params, rng, rotations=rotations)
    blob = public_keys_to_bytes(keys.public())
    return _KeySet(replace(keys, galois={}), blob,
                   hashlib.sha256(blob).digest(), rng)


class _Store:
    """One party's state by key, the least recently used dropped past
    `maxsize`.  Every call holds one lock (reentrant: `get` and `take` keep
    their entry through `put`), so sessions that run at once make an entry
    once and never take the same stream blocks."""

    def __init__(self, maxsize: int):
        self._held: OrderedDict = OrderedDict()
        self._maxsize = maxsize
        self._lock = threading.RLock()

    def get(self, key, make=None):
        """The entry held for `key`, then the most recently used, or else
        `make()`, kept as it; None, with nothing kept, if none is held and
        there is no `make`."""
        with self._lock:
            entry = self._held.get(key)
            if entry is None:
                if make is None:
                    return None
                entry = make()
            return self.put(key, entry)

    def put(self, key, entry):
        """Keeps `entry` for `key` as the most recently used; returns it."""
        with self._lock:
            self._held[key] = entry
            self._held.move_to_end(key)
            while len(self._held) > self._maxsize:
                self._held.popitem(last=False)
            return entry

    def take(self, key, blocks: int, at: int | None = None):
        """The base-OT outcome of the entry held for `key` as the next
        session finds it (`_Extension.take`), the entry then the most
        recently used; None if none is held."""
        with self._lock:
            entry = self.get(key)
            return entry and entry.take(blocks, at)


# Per entry, measured with tracemalloc on tiny as what dropping it frees: a
# client key set 138 KiB and its outcome 8.4 KiB (512 leaves at `gc.ot.K` =
# 4, 8 KiB of them); a server's parsed key set 579 KiB and an outcome
# 8.4 KiB (480 leaves and s).  Reading an outcome's streams sets nothing up
# that it keeps, so it holds that much however often it resumes.  The
# client holds its key sets, each with its generator and its outcome, by
# (params, rotations, seed): an unseeded client's is the process's one key
# set under seed None, made once from OS entropy, and dropping any entry
# restarts its seed's stream.  The server holds outcomes by the key set's
# digest and the outcome's name, as many as the client's key sets, so one
# client's fit.  Its parse memo, by the digest and the session's params and
# Galois elements (one blob could parse under another geometry's
# elements), holds fewer: a parsed key set weighs about 70 outcomes, and at
# 16 key sets that never repeat would hold about 7 MB more.  Its keys and
# its outcomes are held and dropped apart (ot-base answers each), so a
# client whose keys it dropped sends its blob again and still resumes.
_CLIENT_KEYS = _Store(16)
_SERVER_KEYS = _Store(4)
_SERVER_OT = _Store(16)

# accept: the key set's digest and point A, then maybe a resume request,
# the stream position and the outcome's name
_DIGEST_BYTES = 32
_OUTCOME_BYTES = 16
_ACCEPT_BYTES = _DIGEST_BYTES + POINT_BYTES
_REQUEST_BYTES = 8 + _OUTCOME_BYTES


def _outcome(msg_a: bytes, msgs_b: bytes) -> bytes:
    """The name of a base OT's outcome: the SHA-256 of point A and the
    points B, which both parties hold, cut to 16 bytes.  B is drawn afresh
    by the server each time, so two outcomes of one key set, or of two
    clients with one seed, have two names."""
    return hashlib.sha256(msg_a + msgs_b).digest()[:_OUTCOME_BYTES]


# ----------------------------------------------------------------------------
# framed send/recv with transcript accounting


def _send(conn, tr: Transcript, ftype: int, *parts: bytes):
    payload = b"".join(parts)
    write_frame(conn, ftype, payload)
    tr.record("sent", ftype, payload)


def _recv(conn, tr: Transcript, expect: int, sizes: list[int]) -> list[bytes]:
    """The next frame, which must be of type `expect` and hold parts of
    exactly `sizes` bytes, cut into those parts; a frame of any other
    length is refused before its payload is read."""
    payload = read_frame(conn, expect, sum(sizes))
    tr.record("received", expect, payload)
    parts, off = [], 0
    for size in sizes:
        parts.append(payload[off:off + size])
        off += size
    return parts


def _words(part: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """A part of 64-bit little-endian words as a read-only array of the
    plan's `shape`."""
    return np.frombuffer(part, dtype="<u8").reshape(shape)


def _gc_shapes(walk, E: int) -> list[tuple[int, ...]]:
    """The word arrays stage-ot-resp carries for a stage walk, or that a
    circuit of it adds: tables, B2A corrections."""
    return [(walk.n_and, E, 2, 2), (walk.outputs.size, E)]


def _by_instance(labels: np.ndarray, groups: int, E: int) -> np.ndarray:
    """A stage's input labels in OT order, (groups * E * n, 2), group by
    group and each instance's together, as a walk takes them:
    (groups * n, E, 2), group by group."""
    n = labels.shape[0] // (groups * E)
    return labels.reshape(groups, E, n, 2).swapaxes(1, 2).reshape(-1, E, 2)


def _lane_words(bit_shares: np.ndarray, groups: int, keep: int,
                p: int) -> np.ndarray:
    """Per-bit B2A shares of a walk's outputs, (groups * lanes * keep, E),
    folded to each group's word shares in lane order, (groups, E * lanes):
    the lanes of an instance together."""
    words = _b2a_words(bit_shares, keep, p)
    E = words.shape[1]
    return words.reshape(groups, -1, E).swapaxes(1, 2).reshape(groups, -1)


# mode index, then vocab, seq_len, dim, ff_dim, n_layers, n_classes, w, f
# (the `ModelConfig` field order), ring degree and plaintext prime
_HELLO = struct.Struct("<B10Q")
HELLO_BYTES = _HELLO.size


def _hello(geom: Geometry) -> bytes:
    cfg = geom.cfg
    return _HELLO.pack(MODES.index(geom.mode), cfg.vocab, cfg.seq_len,
                       cfg.dim, cfg.ff_dim, cfg.n_layers, cfg.n_classes,
                       cfg.w, cfg.f, geom.n, geom.p)


def hello_geometry(payload: bytes) -> Geometry:
    """The geometry a server's `HELLO_BYTES`-byte hello names, once the
    shape passes `session_geometry`'s limits: no key, OT or tensor is made
    for a shape that does not.  The shape is the peer's, so any refusal is
    a ProtocolError."""
    mode, *dims, ring, prime = _HELLO.unpack(payload)
    if mode >= len(MODES):
        raise ProtocolError(f"server offered unknown mode index {mode}")
    try:
        geom = session_geometry(ModelConfig(*dims), MODES[mode])
    except ParameterError as exc:
        raise ProtocolError(f"server hello refused: {exc}") from None
    if (geom.n, geom.p) != (ring, prime):
        raise ProtocolError("parameter derivation disagrees with the server")
    return geom


# ----------------------------------------------------------------------------
# stage lanes and B2A words


def _lanes_to_matrix(spec: StageSpec, lanes: np.ndarray) -> np.ndarray:
    """Per-lane values (groups in order, row-major inside each) -> the stage
    input matrix, each group in its own column slice."""
    cuts = np.cumsum([g.count for g in spec.groups])[:-1]
    return np.hstack([part.reshape(spec.rows, -1)
                      for part in np.split(np.asarray(lanes, np.uint64), cuts)])


def _matrix_to_lanes(spec: StageSpec, mat: np.ndarray) -> np.ndarray:
    return np.concatenate([part.ravel() for part in spec.split(mat)])


def _b2a_words(bit_shares: np.ndarray, keep: int, p: int) -> np.ndarray:
    """Both parties' B2A fold: per-bit field shares, (lanes * keep, E) with
    a lane's `keep` bits together, -> per-word shares (lanes, E), each the
    sum of its bits mod p.  Every term is reduced mod p, so the fold is
    exact in uint64."""
    bits = bit_shares.reshape(-1, keep, bit_shares.shape[-1])
    words = bits[:, 0]
    for j in range(1, keep):
        words = addmod(words, bits[:, j], p)
    return words


# ----------------------------------------------------------------------------
# server side


@dataclass
class _ServerParty:
    conn: object
    tr: Transcript
    geom: Geometry
    ev: Evaluator
    rng: np.random.Generator
    ot: RandomOtSenderBatch
    session: int        # the session's number under its garbling offset


@dataclass
class ServerResult:
    transcript: Transcript
    geometry: Geometry


def _send_garbled_stage(sp: _ServerParty, layer: int, stage: int,
                        spec: StageSpec, tshare: np.ndarray,
                        dbits: np.ndarray) -> np.ndarray:
    """Garble every group of a stage in one walk, on the server's window
    shares `tshare` and the client's derandomization bits, and send
    stage-ot-resp: returns the server's own word shares, (groups, lanes).
    The walk's labels and tables are dropped before the client answers."""
    p, m = sp.geom.p, spec.m
    # the evaluator's zero labels and the server's bits, group by group,
    # each instance's together
    G, E = len(spec.groups), spec.instances
    ezero = _by_instance(sp.ot.derand_respond(dbits), G, E)
    bits = to_bits(tshare.reshape(G, E, -1), m).swapaxes(0, 1).reshape(E, -1)
    gb = garble(sp.geom.walk(spec), sp.ot.delta, bits, ezero,
                tweak_namespace(layer, stage, sp.session))
    corr, own = b2a_corrections(
        gb, np.tile(b2a_weights(spec.keep, p), G * spec.lanes_per_instance),
        p)
    _send(sp.conn, sp.tr, STAGE_OT_RESP, le64(gb.tables), le64(corr))
    return _lane_words(own, G, spec.keep, p)


def _serve_stage(sp: _ServerParty, layer: int, stage: int, spec: StageSpec,
                 enc: EncMatrix) -> list[EncMatrix]:
    geom, ev = sp.geom, sp.ev
    p, m = geom.p, spec.m
    masks = sample_stage_masks(sp.rng, p, m, spec.count)
    offs = _lanes_to_matrix(spec, stage_offsets(masks, m, p))
    _send(sp.conn, sp.tr, STAGE_OPEN,
          encmatrix_to_bytes(add_offset(ev, enc, offs, sp.rng)))
    tshare = garbler_window_share(masks, m)

    nbits = m * spec.count
    (bd,) = _recv(sp.conn, sp.tr, STAGE_OT_REQ, [-(-nbits // 8)])
    dbits = np.unpackbits(np.frombuffer(bd, dtype=np.uint8))
    if dbits[nbits:].any():
        raise ProtocolError("stage-ot-req sets a pad bit past its "
                            f"{nbits} derandomization bits")
    own_lanes = _send_garbled_stage(sp, layer, stage, spec, tshare,
                                    dbits[:nbits])

    layouts = geom.stage_shares(layer, spec)
    blobs = _recv(sp.conn, sp.tr, STAGE_SHARE,
                  [geom.nbytes(lay, fresh=True) for lay in layouts])
    outs = []
    for oi, (blob, lay) in enumerate(zip(blobs, layouts)):
        se = encmatrix_from_bytes(blob, geom.params, lay, fresh=True)
        outs.append(add_offset(ev, se, own_lanes[oi].reshape(lay.shape)))

    sp.tr.add_event(kind="stage", layer=layer, name=spec.name)
    return outs


def _serve_ctmm(sp: _ServerParty, layer: int, spec: StageSpec, X: EncMatrix,
                Y: EncMatrix) -> EncMatrix:
    """The encrypted product X @ Y feeding `spec`."""
    ev = sp.ev
    xm, ym, st = ctmm_server_mask(ev, X, Y, sp.rng)
    _send(sp.conn, sp.tr, MM_OPEN, encmatrix_to_bytes(xm),
          encmatrix_to_bytes(ym))
    params = sp.geom.params
    count = ctmm_reply_count(params, st)
    (blob,) = _recv(sp.conn, sp.tr, MM_REPLY,
                    [count * ct_nbytes(params, fresh=True)])
    reply = cts_from_bytes(blob, params, count, "product reply", fresh=True)
    out = ctmm_server_finalize(ev, reply, st)
    sp.tr.add_event(kind="ctmm", layer=layer, name=spec.name)
    return out


def _send_logits(sp: _ServerParty, x_enc: EncMatrix, weights: Weights):
    """One ciphertext per class, whose slots the client sums into the
    logit (`helinear.class_sums`): no rotations, hence no extra key
    material or frames.  A zero-sum pad on every class's slots keeps the
    client from reading the products x[i, j] W[j, c] it sums."""
    logits = class_sums(sp.ev, x_enc, to_field(weights.classifier, sp.geom.p),
                        sp.rng)
    _send(sp.conn, sp.tr, LOGITS, cts_to_bytes(logits))


def run_server(conn, cfg: ModelConfig, weights: Weights, mode: str, *,
               seed: int | None = None) -> ServerResult:
    """Drive the weight-holder side of one inference session.  A fixed
    `seed` replays the server's masks and base-OT draws in every session
    it serves, so it is for tests only."""
    validate_weights(cfg, weights)
    geom = session_geometry(cfg, mode)
    rng = np.random.default_rng(seed)
    tr = Transcript("server")
    p = geom.p

    _send(conn, tr, HELLO, _hello(geom))

    accept = read_frame(conn, ACCEPT,
                        (_ACCEPT_BYTES, _ACCEPT_BYTES + _REQUEST_BYTES))
    tr.record("received", ACCEPT, accept)
    key_set, bpt, request = (accept[:_DIGEST_BYTES],
                             accept[_DIGEST_BYTES:_ACCEPT_BYTES],
                             accept[_ACCEPT_BYTES:])
    # the keys the server holds for the digest, kept from here, so a
    # session that evicts them meanwhile cannot strand this one
    pk_key = (key_set, geom.params, geom.galois)
    pk = _SERVER_KEYS.get(pk_key)

    blocks = stream_blocks(geom.ot_total)
    held = None
    if request:
        decode_points(bpt, 1)   # a resumed session leaves A unused: check it
        position = int.from_bytes(request[:8], "little")
        held = _SERVER_OT.take((key_set, request[8:]), blocks, position)
    if held is None:
        ext = OtExtSender(rng)
        base = BaseOtReceiver(rng, ext.s_bits, bpt)
        points = base.msgs_b
        # a first session: its leaves come with the seed messages
        held = _Extension(None, ext.s_bits, _outcome(bpt, points))
    else:
        ext = OtExtSender(rng, held.s_bits, held.leaves)
        points = b""
    _send(conn, tr, OT_BASE, bytes([pk is None]), points)

    mb = -(-geom.ot_total // 8)
    parts = _recv(
        conn, tr, CLIENT_SETUP,
        [key_blob_nbytes(geom.params, len(geom.galois))] * (pk is None)
        + [32 * LAMBDA] * bool(points)
        + [COLUMNS * mb, geom.nbytes(geom.input_layout, fresh=True)])
    if pk is None:
        bpk = parts.pop(0)
        if hashlib.sha256(bpk).digest() != key_set:
            raise ProtocolError("client-setup key blob does not hash to the "
                                "digest accept named")
        pk = _SERVER_KEYS.get(pk_key, lambda: public_keys_from_bytes(
            bpk, geom.params, geom.galois))
    ev = Evaluator(pk)
    *bseed, bucol, bx = parts
    if bseed:
        ext.recover_seeds(_words(bseed[0], (LAMBDA, 2, 2)), base.keys())
        _SERVER_OT.put((key_set, held.outcome), _Extension(
            ext.leaves, ext.s_bits, held.outcome, blocks, 1))
    c_cols = np.frombuffer(bucol, dtype=np.uint8).reshape(COLUMNS, mb)
    pairs = ext.receive_extension(c_cols, geom.ot_total, held.position)

    x_enc = encmatrix_from_bytes(bx, geom.params, geom.input_layout,
                                 fresh=True)
    del parts, bucol, c_cols, bx   # read once; 0.27 MB of columns on he-small

    sp = _ServerParty(conn, tr, geom, ev, rng, pairs, held.session)
    held = {"x": x_enc}
    for e, enc in enumerate(geom.plan.encoders):
        mats, offsets = layer_weights(cfg, weights, mode, e)
        held.update(mats)
        for si, spec in enumerate(enc):
            left, right = spec.factors(held)
            if spec.plain:
                raw = colblock_matmul(ev, left, to_field(right, p))
                if spec.right in offsets:
                    raw = add_offset(ev, raw, to_field(offsets[spec.right], p))
            else:
                raw = _serve_ctmm(sp, e, spec, left, right)
            held.update(zip(spec.tags, _serve_stage(sp, e, si, spec, raw)))

    _send_logits(sp, held["x"], weights)
    tr.counters = dict(ev.counters)
    return ServerResult(transcript=tr, geometry=geom)


# ----------------------------------------------------------------------------
# client side


@dataclass
class _ClientParty:
    conn: object
    tr: Transcript
    geom: Geometry
    ev: Evaluator
    keys: KeyMaterial
    batch: RandomOtBatch
    session: int        # the session's number under its garbling offset


@dataclass
class ClientResult:
    label: int
    logits: np.ndarray  # int64, fraction act_f + f
    scale: int
    transcript: Transcript
    geometry: Geometry


def _client_stage(cp: _ClientParty, layer: int, stage: int,
                  spec: StageSpec) -> list[Layout]:
    """One garbled stage on the evaluator's side; returns the layouts of the
    output shares it sent, which the server's products keep."""
    geom = cp.geom
    p, m = geom.p, spec.m
    layout = geom.stage_input(spec)
    (bm,) = _recv(cp.conn, cp.tr, STAGE_OPEN,
                  [geom.nbytes(layout, fresh=False)])
    menc = encmatrix_from_bytes(bm, geom.params, layout, fresh=False)
    lanes = _matrix_to_lanes(spec, decrypt_matrix(cp.keys, menc))
    # every group's evaluator bits, lane by lane: the OT choices, in the
    # order the server's walk takes their zero labels
    cbits = to_bits(client_window_share(lanes, m), m).ravel()
    _send(cp.conn, cp.tr, STAGE_OT_REQ,
          np.packbits(cp.batch.derand_request(cbits)).tobytes())
    labels = cp.batch.derand_finish(cbits)

    G, E = len(spec.groups), spec.instances
    sched = geom.walk(spec)
    shapes = _gc_shapes(sched, E)
    gblobs = _recv(cp.conn, cp.tr, STAGE_OT_RESP,
                   [8 * prod(sh) for sh in shapes])
    tables, corr = (_words(blob, sh) for blob, sh in zip(gblobs, shapes))
    if (corr >= p).any():
        raise ProtocolError("stage-ot-resp B2A correction word not reduced "
                            "mod p")

    namespace = tweak_namespace(layer, stage, cp.session)
    out = evaluate(sched, tables, _by_instance(labels, G, E), namespace)
    shares = _lane_words(b2a_shares(sched, out, corr, namespace, p), G,
                         spec.keep, p)

    parts = []
    layouts = geom.stage_shares(layer, spec)
    for share, lay in zip(shares, layouts):
        mat = share.reshape(lay.shape)
        if lay.packing == ROWS:
            se = pack_rows(cp.ev, mat)
        else:
            se = pack_colblocks(cp.ev, mat, steps=lay.steps)
        parts.append(encmatrix_to_bytes(se))
    _send(cp.conn, cp.tr, STAGE_SHARE, *parts)
    cp.tr.add_event(kind="stage", layer=layer, name=spec.name)
    return layouts


def _client_ctmm(cp: _ClientParty, layer: int, spec: StageSpec, x: Layout,
                 y: Layout):
    """The key holder's half of the encrypted product feeding `spec`: the
    masked factors arrive in the layouts `x` and `y`, those of the shares
    they were made from, read as the plan reads the factors."""
    geom = cp.geom
    bx, by = _recv(cp.conn, cp.tr, MM_OPEN,
                   [geom.nbytes(x, fresh=False), geom.nbytes(y, fresh=False)])
    reply = ctmm_client_round(
        cp.ev, cp.keys, encmatrix_from_bytes(bx, geom.params, x, fresh=False),
        encmatrix_from_bytes(by, geom.params, y, fresh=False))
    _send(cp.conn, cp.tr, MM_REPLY, cts_to_bytes(reply))
    cp.tr.add_event(kind="ctmm", layer=layer, name=spec.name)


def _recv_logits(conn, tr: Transcript, geom: Geometry) -> Ciphertexts:
    """The one ciphertext per class of the logits frame, each well-formed
    under the session's parameters; anything else is a ProtocolError.  A
    flip that still decodes cannot be detected: this protocol is
    semi-honest, and such a frame only changes the logits."""
    count = geom.cfg.n_classes
    (blob,) = _recv(conn, tr, LOGITS,
                    [count * ct_nbytes(geom.params, fresh=False)])
    return cts_from_bytes(blob, geom.params, count, "logits", fresh=False)


def run_client(conn, tokens, *, seed: int | None = None) -> ClientResult:
    """Drive the input-holder side of one inference session.

    Every session with one `seed` uses one key set, which accept names by
    its digest, and draws everything else -- the encryption randomness,
    base-OT point A and the tree roots -- from where the key set's one
    generator stands, so no two of its sessions share a draw.  After the
    first session with the key set, each asks to resume its OT extension;
    a server that does not hold the outcome runs base OT in the same frames
    instead, and one that does not hold the keys asks for the blob.
    Without a seed the key set is the process's own, made once from OS
    entropy.  A fixed seed fixes the key set and the one stream of draws
    over its sessions in the order they run, for tests and benchmarks;
    once the client store drops the key set, the next session with the
    seed makes it again and starts the stream over."""
    tr = Transcript("client")

    (hello,) = _recv(conn, tr, HELLO, [HELLO_BYTES])
    geom = hello_geometry(hello)
    cfg = geom.cfg
    L, vocab = cfg.seq_len, cfg.vocab

    toks = np.asarray(tokens, dtype=np.int64)
    if toks.shape != (L,):
        raise ParameterError(f"need {L} tokens, got shape {toks.shape}")
    if toks.size and (toks.min() < 0 or toks.max() >= vocab):
        raise ParameterError("token id out of range")

    key_set = (geom.params, geom.rotations, seed)
    entry = _CLIENT_KEYS.get(key_set, lambda: _client_keys(*key_set))
    keys, rng = entry.keys, entry.rng
    ev = Evaluator(keys, seed=rng)

    blocks = stream_blocks(geom.ot_total)
    # none held, or its session numbers spent: no resume request
    held = _CLIENT_KEYS.take(key_set, blocks)
    try:
        base = BaseOtSender(rng)
        request = [] if held is None else [
            held.position.to_bytes(8, "little"), held.outcome]
        _send(conn, tr, ACCEPT, entry.digest, base.msg_a, *request)
        points = 1 + LAMBDA * POINT_BYTES
        ot_base = read_frame(conn, OT_BASE,
                             (points, 1) if request else points)
        tr.record("received", OT_BASE, ot_base)
        if ot_base[0] > 1:
            raise ProtocolError(f"ot-base answers {ot_base[0]} for the key "
                                f"set, neither 0 (held) nor 1 (wanted)")
        blob = [entry.blob] * ot_base[0]
        bpts = ot_base[1:]
        if bpts:
            # no resume request, or the server refused it: a first session
            k0, k1 = base.keys(bpts)
            ext = OtExtReceiver(rng)
            seed_msgs = [le64(ext.seed_messages(k0, k1))]
            held = _Extension(ext.leaves, None, _outcome(base.msg_a, bpts))
            entry.ext = replace(held, position=blocks, session=1)
        else:
            ext = OtExtReceiver(rng, held.leaves)
            seed_msgs = []
        c_cols, batch = ext.extend(geom.ot_total, held.position)

        onehot = np.zeros((L, vocab), dtype=np.uint64)
        onehot[np.arange(L), toks] = 1
        x_cb = pack_colblocks(ev, onehot, steps=geom.input_layout.steps)
        _send(conn, tr, CLIENT_SETUP, *blob, *seed_msgs, c_cols.tobytes(),
              encmatrix_to_bytes(x_cb))
        del c_cols, x_cb   # sent; the session never reads them again

        cp = _ClientParty(conn, tr, geom, ev, keys, batch, held.session)
        held_layouts: dict[str, Layout] = {}
        for e, enc in enumerate(geom.plan.encoders):
            for si, spec in enumerate(enc):
                if not spec.plain:
                    _client_ctmm(cp, e, spec, *spec.factors(held_layouts))
                held_layouts.update(zip(spec.tags,
                                        _client_stage(cp, e, si, spec)))

        cts = _recv_logits(conn, tr, geom)
    except BaseException:
        entry.ext = None    # the keys stay; the next session runs base OT
        raise
    slots = keys.decrypt_many(cts)
    p = geom.p
    totals = np.array([sum(int(v) for v in row) % p for row in slots],
                      dtype=np.uint64)
    logits = to_signed(totals, p)
    tr.counters = dict(ev.counters)
    return ClientResult(label=int(np.argmax(logits)), logits=logits,
                        scale=geom.plan.act_f + cfg.f, transcript=tr,
                        geometry=geom)


def private_inference(cfg: ModelConfig, weights: Weights, tokens, mode: str, *,
                      server_seed: int | None = None,
                      client_seed: int | None = None) \
        -> tuple[ServerResult, ClientResult]:
    """Run a whole session over an in-memory transport (both parties on
    threads); returns (server, client) results."""
    return run_pair(
        lambda conn: run_server(conn, cfg, weights, mode, seed=server_seed),
        lambda conn: run_client(conn, tokens, seed=client_seed))
