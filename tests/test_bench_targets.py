"""The session benchmark wraps program entry points by name from outside
(`perfbench/tracing.TARGETS`).  Installing its tracer resolves every target
and raises `TraceError` if one is gone, so a rename fails here, not only
when the benchmark runs.  This test only reads `perfbench/`."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_wrap_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.Tracer().installed():
        pass
