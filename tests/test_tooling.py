import importlib
import importlib.util
import warnings
from pathlib import Path

import pytest

from netnewton import ExperimentSpec, run_comparison

BENCH_TRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_trace.py"

# the solves the benchmark's study workloads record and zip with the rows
RECORDED = {
    "newton": ("solver", "two_pass_solve"),
    "diagonal": ("baselines", "diagonal_scaled_solve"),
    "subgradient": ("baselines", "subgradient_solve"),
}


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace


def test_bench_trace_targets_resolve():
    # the layer tracer of benchmarks/run.py --trace wraps these names; a
    # renamed or deleted function would break the traced run
    bench_trace = load_bench_trace()
    assert bench_trace.TARGETS
    for module, name, _, _ in bench_trace.TARGETS:
        fn = getattr(importlib.import_module(f"netnewton.{module}"), name, None)
        assert callable(fn), f"netnewton.{module}.{name}"


def test_study_makes_one_recorded_call_per_row_in_row_order():
    # the benchmark's study checks pair each recorded solve with the row at
    # the same position, so run_comparison must call each solve once per
    # row, under these names, in row order
    calls = []

    def recorder(method):
        def make(fn):
            def record(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.append((method, args, kwargs, result))
                return result
            return record
        return make

    patch = load_bench_trace().Patch()
    for method, (module, name) in RECORDED.items():
        patch.replace(importlib.import_module(f"netnewton.{module}"), name, recorder(method))
    try:
        summary = run_comparison(ExperimentSpec(
            trials=2, links=6, sources=4, seed=11, max_first_order_iters=200_000,
        ))
    finally:
        patch.restore()
    assert len(calls) == len(summary.rows) == 6
    nets = {}
    for row, (method, args, kwargs, result) in zip(summary.rows, calls):
        assert method == row.method
        assert result.h_final == row.h_final
        assert kwargs.get("h_ref", row.h_ref) == row.h_ref
        assert nets.setdefault(row.trial, args[0]) is args[0]
    assert nets[0] is not nets[1]


@pytest.mark.parametrize("module, fails", [("netnewton.baselines", True), ("elsewhere", False)])
def test_deprecation_fails_only_in_netnewton_code(module, fails):
    # pyproject's filterwarnings turns a DeprecationWarning raised from
    # netnewton code, such as numpy 2.4's for a positional out on
    # np.maximum, into an error; elsewhere it stays a warning
    code = compile("warnings.warn('old call style', DeprecationWarning)", module, "exec")
    scope = {"__name__": module, "warnings": warnings}
    with pytest.raises(DeprecationWarning) if fails else pytest.warns(DeprecationWarning):
        exec(code, scope)
