"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload he-small-opt2 --seed 1 --seconds 15 --trace 0

With `--trace 0` it reports the end-to-end metrics: two set-up probes and
one measuring worker run as fresh processes, one after another, and
`setup_s` is the median of their three set-up times.  With `--trace 1` one
worker alternates untraced and traced sessions and reports the per-layer
metrics; its spans go to `perfbench/out/`.  `--smoke` runs the tiny shape
with one timed session and no probes.  The last line of standard output is
the result object; the exit code is non-zero when any session failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 2
DEADLINE_S = 170.0      # a run must end within 180 s


def _worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *(["--smoke"] if args.smoke else []), *extra]
    t0 = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit("benchmark worker ran past the deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - t0
    return out


def _summarise(args, workers: list[dict]) -> dict:
    main = workers[-1]
    sessions = [s for w in workers for s in w["sessions"]]
    failed = [s for s in sessions if s["errors"]]
    for s in failed:
        print("FAILED session:", "; ".join(s["errors"]), file=sys.stderr)
    timed = [s for s in main["sessions"]
             if not s.get("cold") and not s["traced"]]
    if args.trace:
        if "trace_error" in main:
            raise SystemExit(f"trace error: {main['trace_error']}")
        values = main["layer"]
        specs = PER_LAYER
    else:
        ok = [s for s in timed if not s["errors"]]
        values = {
            "latency_p50_s": statistics.median(s["latency_s"] for s in timed),
            "server_cpu_s": statistics.median(s["server_cpu_s"] for s in timed),
            "client_cpu_s": statistics.median(s["client_cpu_s"] for s in timed),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        for key in ("bytes_c2s", "bytes_s2c", "gc_bytes"):
            if ok:
                values[key] = statistics.median(s[key] for s in ok)
        specs = END_TO_END
    metrics = {}
    for m in specs:
        if m.name in values:
            metrics[m.name] = {"value": values[m.name], "unit": m.unit}
            print(f"{m.name:44s} {values[m.name]:>16.6g} {m.unit}")
    traced = [s for s in main["sessions"] if s["traced"] and not s.get("cold")]
    print(f"timed sessions: {len(timed)} untraced, {len(traced)} traced; "
          f"sessions attempted: {len(sessions)}; failed: {len(failed)}; "
          f"set-up samples: {len(workers)}")
    correct = not failed and len(metrics) == len(specs)
    return {"correct": correct, "attempted": len(sessions),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shape, one timed session, no set-up probes")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cipherformer").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workers = []
    if not args.trace and not args.smoke:
        workers += [_worker(args, ["--probe"], deadline)
                    for _ in range(PROBES)]
    extra = []
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        extra = ["--dump", str(out_dir / f"trace-{args.workload}-"
                                         f"seed{args.seed}.jsonl")]
    workers.append(_worker(args, extra, deadline))
    result = _summarise(args, workers)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
