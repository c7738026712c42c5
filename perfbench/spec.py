"""What the benchmark runs and what it reports.

Each workload fixes a model shape, a protocol mode and a client key policy,
and names the layer predicted to dominate it.  Each metric records its unit,
the layer it belongs to and the end-to-end metric (on which workload) it is
expected to move.  `BENCHMARK.json` at the repository root carries only the
names, units, directions and bounds; this module carries the rest, and the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

# model shapes: (vocab, seq_len, dim, ff_dim, n_layers, n_classes)
TINY = (8, 4, 4, 8, 1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int, int, int, int, int]
    mode: str
    fresh_keys: bool       # a new client key set every session
    dominant_layer: str
    dominant_spans: tuple[str, ...]   # must fire in every traced session
    reason: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="he-small-opt2", shape=(32, 8, 16, 32, 2, 2), mode="opt2",
        fresh_keys=False, dominant_layer="helinear+pahe+ntt",
        dominant_spans=("helinear.colblock_matmul",
                        "helinear.ctmm_server_finalize", "ntt.forward"),
        reason="HE linear layers carry the critical path (ring n=1024), so "
               "HE, NTT and ring-size changes show here and GC changes must "
               "not; the only workload that runs a second encoder layer."),
    Workload(
        name="gc-l16-baseline", shape=(8, 16, 4, 8, 1, 2), mode="baseline",
        fresh_keys=False, dominant_layer="gc",
        dominant_spans=("gc.garble", "gc.evaluate"),
        reason="the row-divider stage makes garbling and evaluation about "
               "half the wall time while HE is small, so GC changes (level "
               "scheduling, grouped garbling, label folding) show here."),
    Workload(
        name="fresh-keys-tiny-opt1", shape=TINY, mode="opt1",
        fresh_keys=True, dominant_layer="pahe keys + base OT",
        dominant_spans=("pahe.keygen", "pahe.public_keys_from_bytes"),
        reason="a new client key set per session puts keygen, key "
               "serialisation, key parsing and base OT on every session, "
               "where the reuse workloads pay them only in setup_s."),
)}

HE = "he-small-opt2"
GC = "gc-l16-baseline"
FRESH = "fresh-keys-tiny-opt1"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    layer: str
    moves: str             # end-to-end metric and workload it should move
    better: str = "lower"
    bound: float | None = None   # end-to-end metrics only


END_TO_END = (
    Metric("latency_p50_s", "s", "session", "itself, every workload",
           bound=0.25),
    Metric("server_cpu_s", "s", "session", "itself, every workload",
           bound=0.25),
    Metric("client_cpu_s", "s", "session", "itself, every workload",
           bound=0.25),
    Metric("bytes_c2s", "B", "protocol", "itself, every workload",
           bound=0.01),
    Metric("bytes_s2c", "B", "protocol", "itself, every workload",
           bound=0.01),
    Metric("gc_bytes", "B", "gc", "itself, every workload", bound=0.01),
    Metric("setup_s", "s", "session", "itself, every workload", bound=0.25),
    Metric("peak_rss_mb", "MB", "process", "itself, every workload",
           bound=0.25),
)

_HE_LAT = f"latency_p50_s, server_cpu_s on {HE}"
_KEYS = (f"latency_p50_s, client_cpu_s on {FRESH}; setup_s on {HE} "
         f"and {GC}")
_GC_LAT = f"latency_p50_s on {GC}; no change on {HE}"
_BYTES = "bytes_c2s, bytes_s2c on every workload"
_WAIT = "latency_p50_s wherever the waiting party changes"

# per-session segments of the fixed flight plan: a handshake, then per
# encoder layer the five garbled stages and two products in pipeline order
# (ctmm1/attn_mid/ctmm2 are scores/attn_weights/attnv in baseline mode and
# inner/attn_inner/outer otherwise), then the logits frame
SEGMENTS = ("handshake", "qkv_rescale", "ctmm1", "attn_mid", "ctmm2",
            "attn_rescale", "ff_hidden", "ff_out", "logits")
FRAMES = ("hello", "accept", "ot-base", "client-setup", "stage-open",
          "stage-ot-req", "stage-ot-resp", "stage-share", "mm-open",
          "mm-reply", "logits")
LAYERS = ("ntt", "pahe", "helinear", "gc", "stages")
PARTIES = ("server", "client")


def _per_layer() -> tuple[Metric, ...]:
    m = [
        Metric("ntt.forward_s", "s", "ntt", _HE_LAT),
        Metric("ntt.inverse_s", "s", "ntt", _HE_LAT),
        Metric("ntt.calls", "count", "ntt", _HE_LAT),
        Metric("pahe.keygen_s", "s", "pahe", _KEYS),
        Metric("pahe.public_keys_to_bytes_s", "s", "pahe", _KEYS),
        Metric("pahe.public_keys_from_bytes_s", "s", "pahe", _KEYS),
    ]
    for op in ("encrypt_many", "decrypt_many", "simd_scmult_many",
               "col_rotate_many", "add_plain_many"):
        m.append(Metric(f"pahe.{op}_s", "s", "pahe", _HE_LAT))
    for c in ("keyswitch", "scmult", "encrypt", "rotate"):
        m.append(Metric(f"pahe.{c}", "count", "pahe", _HE_LAT))
    m.append(Metric("pahe.min_noise_budget_bits", "bits", "pahe",
                    "no latency; guards ring and modulus changes",
                    better="higher"))
    for fn in ("colblock_matmul", "ctmm_server_mask", "ctmm_server_finalize",
               "ctmm_client_round", "pack_rows", "pack_colblocks",
               "decrypt_matrix", "add_offset"):
        m.append(Metric(f"helinear.{fn}_s", "s", "helinear",
                        f"latency_p50_s on {HE}; packing changes also "
                        "move bytes"))
    for party in PARTIES:
        m.append(Metric(f"helinear.serialize.{party}_s", "s", "helinear",
                        f"latency_p50_s on {HE}"))
    for fn in ("garble", "evaluate", "base_ot", "ot_extend", "ot_derand"):
        m.append(Metric(f"gc.{fn}_s", "s", "gc", _GC_LAT))
    m += [
        Metric("gc.and_gates", "count", "gc", _GC_LAT),
        Metric("gc.garble_ns_per_and", "ns", "gc", _GC_LAT),
        Metric("gc.evaluate_ns_per_and", "ns", "gc", _GC_LAT),
        Metric("stages.stage_circuits_s", "s", "stages",
               "setup_s on every workload (cold session only)"),
    ]
    for party in PARTIES:
        m.append(Metric(f"protocol.recv_wait.{party}_s", "s", "protocol",
                        _WAIT))
    for frame in FRAMES:
        m.append(Metric(f"protocol.frame_bytes.{frame}", "B", "protocol",
                        _BYTES))
    for party in PARTIES:
        for seg in SEGMENTS:
            m.append(Metric(f"protocol.stage.{party}.{seg}_s", "s",
                            "protocol", _WAIT))
    for layer in LAYERS:
        for party in PARTIES:
            m.append(Metric(f"self.{layer}.{party}_s", "s", layer,
                            "latency_p50_s where the layer dominates"))
    m += [
        Metric("split.he_share_of_server_cpu", "ratio", "helinear+pahe+ntt",
               _HE_LAT),
        Metric("split.gc_share_of_latency", "ratio", "gc", _GC_LAT),
        Metric("trace.overhead_s", "s", "trace", "none; cost of tracing"),
    ]
    return tuple(m)


PER_LAYER = _per_layer()
