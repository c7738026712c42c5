"""The benchmark's own tests: schema, gates and the tracer's loud failures.

    python3 -m pytest -q perfbench

The smoke cases run every workload once on the tiny shape through the real
command line, with and without tracing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worker
from spec import END_TO_END, PER_LAYER, WORKLOADS
from tracing import Tracer, TraceError, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        e["bound"] for e in bench["end_to_end"]) for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 2)
    specs = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in specs]
    for m in specs:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_missing_wrap_target_fails_loudly(monkeypatch):
    from cipherformer.ntt import StackedNtt
    from cipherformer.protocol import session

    forward = StackedNtt.forward
    monkeypatch.delattr(session, "colblock_matmul")
    with pytest.raises(TraceError, match="colblock_matmul"):
        with Tracer().installed():
            pass
    assert StackedNtt.forward is forward


def test_dominant_span_that_never_fires_is_an_error():
    wl = dataclasses.replace(WORKLOADS["fresh-keys-tiny-opt1"],
                             dominant_spans=("pahe.keygen", "gc.nothing"))
    case = worker.Case(wl, seed=5, smoke=False)
    tracer = Tracer()
    runs = [worker._traced(case, tracer, 0), worker._traced(case, tracer, 1)]
    with pytest.raises(TraceError, match="gc.nothing"):
        worker._layer_metrics(wl, tracer, runs, and_gates=1)


def test_wrong_logits_count_as_a_failed_session(monkeypatch):
    real = worker.forward_fixed

    def off_by_one(*args, **kwargs):
        ref = real(*args, **kwargs)
        return dataclasses.replace(ref, logits=ref.logits + 1)

    monkeypatch.setattr(worker, "forward_fixed", off_by_one)
    case = worker.Case(WORKLOADS["fresh-keys-tiny-opt1"], seed=5, smoke=True)
    rec = worker.run_session(case)
    assert rec["errors"] == ["logits differ from forward_fixed"]


def test_self_time_subtracts_covered_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "start": 5.0, "end": 6.5},
        {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    got = self_times(spans)
    assert np.allclose([got[1], got[2], got[3], got[4]], [6.5, 1.5, 1.5, 0.5])
