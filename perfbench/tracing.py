"""Spans recorded from outside the program, around calls into each layer.

`Tracer.installed()` replaces the layer entry points listed in `TARGETS` with
wrappers that record one span per call (name, party, session id, start, end,
parent span) and restores the originals on exit.  A target that no longer
exists is an error, never a silent zero.  `TracedConn` wraps a transport end
so the time each party spends blocked in `recv_exact` and the moment each
frame completes are spans too.  Nothing in the program changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from spec import FRAMES, LAYERS, PARTIES, PER_LAYER, SEGMENTS


class TraceError(RuntimeError):
    """The trace cannot be trusted: a wrap target or expected span is gone."""


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str              # "function" or "Class.method"
    noise: bool = False    # record the smallest noise budget in the result


_SESSION = "cipherformer.protocol.session"
_PAHE = "cipherformer.pahe"
_OT = "cipherformer.gc.ot"

# Functions the session imports by name are wrapped in the session module,
# where its calls look them up; methods are wrapped on their classes, so
# every caller (helinear included) is covered.
TARGETS = (
    Target("ntt.forward", "cipherformer.ntt", "StackedNtt.forward"),
    Target("ntt.inverse", "cipherformer.ntt", "StackedNtt.inverse"),
    Target("pahe.keygen", _SESSION, "keygen"),
    Target("pahe.public_keys_to_bytes", _SESSION, "public_keys_to_bytes"),
    Target("pahe.public_keys_from_bytes", _SESSION, "public_keys_from_bytes"),
    Target("pahe.encrypt_many", _PAHE, "Evaluator.encrypt_many"),
    Target("pahe.decrypt_many", _PAHE, "KeyMaterial.decrypt_many"),
    Target("pahe.simd_scmult_many", _PAHE, "Evaluator.simd_scmult_many"),
    Target("pahe.col_rotate_many", _PAHE, "Evaluator.col_rotate_many"),
    Target("pahe.add_plain_many", _PAHE, "Evaluator.add_plain_many"),
    *(Target(f"helinear.{fn}", _SESSION, fn, noise=True) for fn in (
        "colblock_matmul", "ctmm_server_mask", "ctmm_server_finalize",
        "ctmm_client_round", "pack_rows", "pack_colblocks", "add_offset")),
    Target("helinear.decrypt_matrix", _SESSION, "decrypt_matrix"),
    Target("helinear.serialize", _SESSION, "encmatrix_to_bytes"),
    Target("helinear.serialize", _SESSION, "encmatrix_from_bytes"),
    Target("gc.garble", _SESSION, "garble"),
    Target("gc.evaluate", _SESSION, "evaluate"),
    *(Target("gc.base_ot", _OT, a) for a in (
        "BaseOtSender.__init__", "BaseOtSender.keys",
        "BaseOtReceiver.__init__", "BaseOtReceiver.keys")),
    *(Target("gc.ot_extend", _OT, a) for a in (
        "OtExtReceiver.seed_messages", "OtExtReceiver.extend",
        "OtExtSender.recover_seeds", "OtExtSender.receive_extension")),
    *(Target("gc.ot_derand", _OT, a) for a in (
        "RandomOtBatch.derand_request", "RandomOtBatch.derand_finish",
        "RandomOtSenderBatch.derand_respond")),
    Target("stages.stage_circuits", _SESSION, "stage_circuits"),
)

ROOT = "session"
SEND = "protocol.send"
RECV = "protocol.recv"


def _resolve(t: Target):
    owner = importlib.import_module(t.module)
    *path, name = t.attr.split(".")
    for part in path:
        if part not in vars(owner):
            raise TraceError(f"wrap target {t.module}.{t.attr} is missing")
        owner = vars(owner)[part]
    if name not in vars(owner):
        raise TraceError(f"wrap target {t.module}.{t.attr} is missing")
    return owner, name


def _min_budget(obj) -> float:
    """Smallest noise budget over the ciphertexts inside a helinear result."""
    budget = getattr(obj, "noise_budget_bits", None)
    if isinstance(budget, float):
        return budget
    if hasattr(obj, "cts"):
        items = obj.cts
    elif isinstance(obj, (tuple, list)):
        items = obj
    elif dataclasses.is_dataclass(obj):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return math.inf
    return min((_min_budget(x) for x in items), default=math.inf)


class Tracer:
    """In-memory span store shared by the two party threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.session = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def bind(self, party: str):
        """Attribute the calling thread's spans to `party`."""
        self._local.party = party
        self._local.stack = []

    def _open(self, name: str) -> dict:
        if not hasattr(self._local, "stack"):
            self.bind(threading.current_thread().name)
        stack = self._local.stack
        rec = {"id": next(self._ids), "parent": stack[-1] if stack else None,
               "name": name, "party": self._local.party,
               "session": self.session, "start": perf_counter()}
        stack.append(rec["id"])
        return rec

    def _close(self, rec: dict):
        rec["end"] = perf_counter()
        self._local.stack.pop()
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, noise: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                budget = _min_budget(out) if noise else math.inf
                if math.isfinite(budget):
                    rec["noise_min"] = budget
                return out
            finally:
                self._close(rec)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        if self._saved:
            raise TraceError("tracer is already installed")
        resolved = [(t, *_resolve(t)) for t in TARGETS]
        try:
            for t, owner, name in resolved:
                orig = vars(owner)[name]
                self._saved.append((owner, name, orig))
                setattr(owner, name, self._wrap(t.span, orig, t.noise))
            yield self
        finally:
            for owner, name, orig in reversed(self._saved):
                setattr(owner, name, orig)
            self._saved.clear()

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class TracedConn:
    """A transport end whose sends and blocking reads are spans."""

    def __init__(self, conn, tracer: Tracer):
        self._conn = conn
        self._tracer = tracer

    def send(self, data: bytes):
        with self._tracer.span(SEND) as rec:
            rec["bytes"] = len(data)
            self._conn.send(data)

    def recv_exact(self, n: int) -> bytes:
        with self._tracer.span(RECV) as rec:
            rec["bytes"] = n
            return self._conn.recv_exact(n)

    def close(self):
        self._conn.close()


# ----------------------------------------------------------------------------
# turning one session's spans into per-layer numbers


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    kids: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s["start"]
        for c in sorted(kids[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _layout(n_layers: int) -> list[tuple[str, int, str]]:
    """(segment, frame count, first frame) in flight-plan order."""
    stage = [("qkv_rescale", 4, "stage-open"), ("ctmm1", 2, "mm-open"),
             ("attn_mid", 4, "stage-open"), ("ctmm2", 2, "mm-open"),
             ("attn_rescale", 4, "stage-open"), ("ff_hidden", 4, "stage-open"),
             ("ff_out", 4, "stage-open")]
    return ([("handshake", 4, "hello")] + stage * n_layers
            + [("logits", 1, "logits")])


def segment_times(party_spans: list[dict], transcript, n_layers: int) \
        -> dict[str, float]:
    """Wall time of each flight-plan segment at one party.

    A frame is done at a party when its send returns, or when the read that
    completes its bytes returns; a segment runs from the end of the previous
    one (the party's start, for the first) to the moment its last frame is
    done (the party's end, for the last).
    """
    root = [s for s in party_spans if s["name"] == ROOT]
    sends = sorted((s for s in party_spans if s["name"] == SEND),
                   key=lambda s: s["start"])
    recvs = sorted((s for s in party_spans if s["name"] == RECV),
                   key=lambda s: s["start"])
    frames = transcript.frames
    sent = [f for f in frames if f.direction == "sent"]
    if len(root) != 1 or len(sends) != len(sent):
        raise TraceError("frame sends and transport sends disagree")
    headers = {s["bytes"] - f.nbytes for s, f in zip(sends, sent)}
    if len(headers) != 1:
        raise TraceError("frames do not carry a fixed-size header")
    header = headers.pop()

    done, si, got, ri = [], 0, 0, 0
    need = 0
    for f in frames:
        if f.direction == "sent":
            done.append(sends[si]["end"])
            si += 1
            continue
        need += header + f.nbytes
        while got < need:
            if ri == len(recvs):
                raise TraceError("transport reads end before the frames do")
            got += recvs[ri]["bytes"]
            ri += 1
        done.append(recvs[ri - 1]["end"])

    layout = _layout(n_layers)
    if sum(k for _, k, _ in layout) != len(frames):
        raise TraceError("the session's frames do not follow the flight plan")
    out = dict.fromkeys(SEGMENTS, 0.0)
    edge, i = root[0]["start"], 0
    for seg, k, first in layout:
        if frames[i].name != first:
            raise TraceError(f"segment {seg} opens with {frames[i].name}")
        i += k
        end = root[0]["end"] if i == len(frames) else done[i - 1]
        out[seg] += end - edge
        edge = end
    return out


def session_metrics(spans: list[dict], server, client, run, and_gates: int) \
        -> dict[str, float]:
    """Per-layer numbers for one traced session.

    `server`/`client` are the parties' results, `run` the session record
    (latency and thread CPU times), `and_gates` the plan's AND count.
    """
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
    spanned = {t.span for t in TARGETS}
    m = {p.name: total[p.name[:-2]] for p in PER_LAYER
         if p.name.endswith("_s") and p.name[:-2] in spanned}
    m["ntt.calls"] = sum(s["name"] in ("ntt.forward", "ntt.inverse")
                         for s in spans)
    for c in ("keyswitch", "scmult", "encrypt", "rotate"):
        m[f"pahe.{c}"] = (server.transcript.counters[c]
                          + client.transcript.counters[c])
    budgets = [s["noise_min"] for s in spans if "noise_min" in s]
    if not budgets:
        raise TraceError("no helinear call returned a ciphertext")
    m["pahe.min_noise_budget_bits"] = min(budgets)
    m["gc.and_gates"] = and_gates
    m["gc.garble_ns_per_and"] = 1e9 * total["gc.garble"] / and_gates
    m["gc.evaluate_ns_per_and"] = 1e9 * total["gc.evaluate"] / and_gates

    selfs = self_times(spans)
    layer_self: dict[tuple[str, str], float] = defaultdict(float)
    for s in spans:
        layer_self[(s["name"].split(".")[0], s["party"])] += selfs[s["id"]]
    for party in PARTIES:
        m[f"helinear.serialize.{party}_s"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "helinear.serialize" and s["party"] == party)
        m[f"protocol.recv_wait.{party}_s"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == RECV and s["party"] == party)
        for layer in LAYERS:
            m[f"self.{layer}.{party}_s"] = layer_self[(layer, party)]

    by_frame: dict[str, int] = dict.fromkeys(FRAMES, 0)
    for f in server.transcript.frames:
        by_frame[f.name] += f.nbytes
    for frame in FRAMES:
        m[f"protocol.frame_bytes.{frame}"] = by_frame[frame]
    n_layers = server.geometry.cfg.n_layers
    for party, res in (("server", server), ("client", client)):
        mine = [s for s in spans if s["party"] == party]
        for seg, t in segment_times(mine, res.transcript, n_layers).items():
            m[f"protocol.stage.{party}.{seg}_s"] = t

    he = sum(layer_self[(layer, "server")]
             for layer in ("ntt", "pahe", "helinear"))
    m["split.he_share_of_server_cpu"] = he / run["server_cpu_s"]
    m["split.gc_share_of_latency"] = (
        (total["gc.garble"] + total["gc.evaluate"]) / run["latency_s"])
    return m
