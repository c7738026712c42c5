"""One cold benchmark process: set up, then run sessions back to back.

Run by `run.py`, never on its own; prints one JSON object as its last line.
Both parties run in this process on two threads over an in-memory pair, one
session at a time (a closed loop with one client).  Every session is checked
against `model.forward_fixed` and the pinned round count; a session that
fails stays in the sample and is reported as failed.
"""

from __future__ import annotations

import os

# one BLAS thread: the two party threads already fill the two cores a
# session is measured on
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from cipherformer.model import ModelConfig, forward_fixed, gen_random  # noqa: E402
from cipherformer.protocol.session import run_client, run_server  # noqa: E402
from cipherformer.protocol.transport import memory_pair  # noqa: E402
from cipherformer.stages import plan_gate_counts  # noqa: E402

from spec import PER_LAYER, TINY, WORKLOADS, Workload  # noqa: E402
from tracing import ROOT, TracedConn, Tracer, TraceError, session_metrics  # noqa: E402

MIN_SESSIONS = 3       # timed sessions per run, so the median is a median
MIN_TRACED_PAIRS = 2   # untraced + traced session pairs in a traced run


class Case:
    """The inputs one run draws from its seed: weights once, then tokens
    and party seeds for each session in turn."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        vocab, L, d, ff, layers, classes = TINY if smoke else workload.shape
        self.cfg = ModelConfig(vocab=vocab, seq_len=L, dim=d, ff_dim=ff,
                               n_layers=layers, n_classes=classes)
        self.mode = workload.mode
        self.fresh_keys = workload.fresh_keys
        self.rng = np.random.default_rng(seed)
        self.weights = gen_random(self.cfg, int(self.rng.integers(1 << 31)),
                                  scale=0.25)
        self.client_seed = int(self.rng.integers(1 << 62))
        self.rounds = 5 + 24 * self.cfg.n_layers

    def next_inputs(self) -> tuple[np.ndarray, int, int]:
        tokens = self.rng.integers(0, self.cfg.vocab, self.cfg.seq_len)
        server_seed = int(self.rng.integers(1 << 62))
        client_seed = (int(self.rng.integers(1 << 62)) if self.fresh_keys
                       else self.client_seed)
        return tokens, server_seed, client_seed


def run_session(case: Case, tracer: Tracer | None = None) -> dict:
    """One session through run_server/run_client; returns its record."""
    tokens, server_seed, client_seed = case.next_inputs()
    # collect the previous session's garbage outside the timed region
    gc.collect()
    sconn, cconn = memory_pair()
    if tracer is not None:
        sconn, cconn = TracedConn(sconn, tracer), TracedConn(cconn, tracer)
    results, errors, cpu = {}, {}, {}

    def party(name, fn, conn):
        if tracer is not None:
            tracer.bind(name)
        c0 = time.thread_time()
        try:
            if tracer is None:
                results[name] = fn(conn)
            else:
                with tracer.span(ROOT):
                    results[name] = fn(conn)
        except Exception as exc:  # noqa: BLE001 - reported as a failed session
            errors[name] = f"{type(exc).__name__}: {exc}"
            conn.close()
        finally:
            cpu[name] = time.thread_time() - c0

    threads = [
        threading.Thread(target=party, args=("server", lambda c: run_server(
            c, case.cfg, case.weights, case.mode, seed=server_seed), sconn)),
        threading.Thread(target=party, args=("client", lambda c: run_client(
            c, tokens, seed=client_seed), cconn)),
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    rec = {"latency_s": time.perf_counter() - t0,
           "server_cpu_s": cpu["server"], "client_cpu_s": cpu["client"],
           "traced": tracer is not None,
           "errors": [f"{side}: {msg}" for side, msg in errors.items()]}
    if errors:
        return rec
    server, client = results["server"], results["client"]
    ref = forward_fixed(case.cfg, case.weights, tokens, case.mode)
    if not np.array_equal(client.logits, ref.logits):
        rec["errors"].append("logits differ from forward_fixed")
    for side, res in (("server", server), ("client", client)):
        if res.transcript.rounds != case.rounds:
            rec["errors"].append(f"{side} took {res.transcript.rounds} "
                                 f"rounds, expected {case.rounds}")
    rec.update(bytes_c2s=client.transcript.bytes_sent,
               bytes_s2c=server.transcript.bytes_sent,
               gc_bytes=server.transcript.gc_online_bytes)
    rec["_results"] = (server, client)
    return rec


def _traced(case: Case, tracer: Tracer, session: int) -> dict:
    tracer.session = session
    with tracer.installed():
        rec = run_session(case, tracer)
    rec["session"] = session
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop after the first (set-up) session")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shape, one timed session")
    ap.add_argument("--dump", help="write the trace spans here (JSON lines)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    case = Case(workload, args.seed, args.smoke)
    tracer = Tracer() if args.trace else None

    # the first session pays for every lazy table, circuit and key cache
    cold = _traced(case, tracer, 0) if tracer else run_session(case)
    out = {"setup_end": time.time(), "sessions": []}
    runs = [cold]
    if not args.probe:
        need = 1 if args.smoke else (MIN_TRACED_PAIRS if tracer
                                     else MIN_SESSIONS)
        seconds = 0 if args.smoke else args.seconds
        t0 = time.perf_counter()
        n = 0
        while n < need or time.perf_counter() - t0 < seconds:
            runs.append(run_session(case))
            if tracer:
                runs.append(_traced(case, tracer, n + 1))
            n += 1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["sessions"] = [{k: v for k, v in r.items() if k != "_results"}
                       for r in runs]
    out["sessions"][0]["cold"] = True

    if tracer:
        and_gates = plan_gate_counts(case.cfg.plan(case.mode))["and"]
        try:
            out["layer"] = _layer_metrics(workload, tracer, runs, and_gates)
        except TraceError as exc:
            out["trace_error"] = str(exc)
        if args.dump:
            tracer.dump(args.dump)
    print(json.dumps(out))
    return 0


def _layer_metrics(workload: Workload, tracer: Tracer, runs: list[dict],
                   and_gates: int) -> dict[str, float]:
    """Medians over the timed traced sessions; stage-circuit construction
    from the cold session, the only one that builds circuits."""
    by_session: dict[int, list[dict]] = {}
    for s in tracer.spans:
        by_session.setdefault(s["session"], []).append(s)
    per: list[dict[str, float]] = []
    for rec in runs[1:]:
        if not rec["traced"]:
            continue
        if rec["errors"]:
            continue    # already counted as a failed session
        sid = rec["session"]
        spans = by_session.get(sid, [])
        fired = {s["name"] for s in spans}
        missing = [n for n in workload.dominant_spans if n not in fired]
        if missing:
            raise TraceError(f"session {sid}: predicted dominant spans "
                             f"{missing} never fired")
        per.append(session_metrics(spans, *rec["_results"], rec, and_gates))
    if not per:
        raise TraceError("no traced session completed")
    names = {m.name for m in PER_LAYER}
    out = {k: statistics.median(p[k] for p in per) for k in per[0]}
    out["stages.stage_circuits_s"] = sum(
        s["end"] - s["start"] for s in by_session.get(0, [])
        if s["name"] == "stages.stage_circuits")
    plain = [r["latency_s"] for r in runs[1:] if not r["traced"]]
    hot = [r["latency_s"] for r in runs[1:] if r["traced"]]
    out["trace.overhead_s"] = statistics.median(hot) - statistics.median(plain)
    if set(out) != names:
        raise TraceError(f"per-layer metrics differ from the spec: "
                         f"{sorted(set(out) ^ names)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
