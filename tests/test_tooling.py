import importlib
import importlib.util
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_trace.py"


def test_bench_trace_targets_resolve():
    # the layer tracer of benchmarks/run.py --trace wraps these names; a
    # renamed or deleted function would break the traced run
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    assert bench_trace.TARGETS
    for module, name, _, _ in bench_trace.TARGETS:
        fn = getattr(importlib.import_module(f"netnewton.{module}"), name, None)
        assert callable(fn), f"netnewton.{module}.{name}"
