import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import netnewton
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


def test_public_names_resolve():
    # every name a module exports exists, so a deleted type cannot stay
    # listed in its __all__
    modules = [importlib.import_module(f"netnewton.{info.name}")
               for info in pkgutil.iter_modules(netnewton.__path__)]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert exported
    missing = [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # netnewton runs on numpy alone: scipy is a test dependency only, and a
    # fresh interpreter that imports the library and its CLI loads none of it
    src = str(Path(netnewton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, netnewton, netnewton.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.strip() == "[]"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant check must raise
    # AssertionError itself
    package = Path(netnewton.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_function_calls_the_dense_solve():
    # the exact direction exists once, as a stack: every per-network dense
    # solve is its batch of one, so np.linalg.solve has a single caller
    package = Path(netnewton.__file__).resolve().parent
    callers = [
        f"{path.name}:{func.name}"
        for path in sorted(package.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.solve"
    ]
    assert callers == ["direction.py:stacked_kkt_direction"]


def test_one_function_stacks_networks():
    # network_stacks alone stacks incidence matrices and utility parameters,
    # so the stack key and the stacked layout are written once
    package = Path(netnewton.__file__).resolve().parent
    params = {f.name for family in netnewton.model.UTILITY_FAMILIES.values()
              for f in dataclasses.fields(family)}
    names = params | {"incidence", "utility_groups"}
    callers = [
        f"{path.name}:{func.name}"
        for path in sorted(package.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.stack"
        and names & {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}
    ]
    assert callers == ["model.py:network_stacks"] * 2


def test_stepsize_rule_is_applied_once_per_loop():
    # the stepsize rule is written once, elementwise: the distributed loop
    # calls it once per step, and the exact loop once per step of its whole
    # stack, with its step loop as its only loop statement and no loop
    # over trials inside it
    package = Path(netnewton.__file__).resolve().parent
    funcs = {
        f"{path.name}:{func.name}": func
        for path in sorted(package.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    callers = [
        name
        for name, func in funcs.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "stepsize_rule"
    ]
    assert sorted(callers) == ["solver.py:_exact_newton", "solver.py:newton_solve"]
    statements = (ast.For, ast.AsyncFor, ast.While)
    loops = [node for node in ast.walk(funcs["solver.py:_exact_newton"])
             if isinstance(node, statements)]
    assert [type(node).__name__ for node in loops] == ["For"]
    inner = [node for node in ast.walk(loops[0])
             if isinstance(node, (*statements, ast.comprehension)) and node is not loops[0]]
    assert inner == []


def test_first_order_update_runs_bound_products_and_one_best_response():
    # each price update runs the products bound once per solve (R.dot and
    # R.T.dot), without a frame of np.dot's dispatcher; one best response,
    # _best_response, serves the loop and the final rates, and one loop
    # serves every utility layout
    tree = ast.parse(Path(netnewton.baselines.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.dot"] == []
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    responders = [func.name for func in funcs for node in ast.walk(func)
                  if isinstance(node, ast.Constant) and node.value == "inverse_d1"]
    assert responders == ["_best_response"]
    loopers = {func.name for func in funcs for node in ast.walk(func)
               if isinstance(node, (ast.For, ast.While))}
    assert loopers == {"_price_iteration"}


def test_one_function_calls_the_eigensolve():
    # each primal step takes its contraction factor from one eigensolve, in
    # spectral_radius, which the spectral report shares
    package = Path(netnewton.__file__).resolve().parent
    callers = [
        f"{path.name}:{func.name}"
        for path in sorted(package.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.eigvalsh"
    ]
    assert callers == ["splitting.py:spectral_radius"]


def test_tracer_sees_every_newton_phase():
    # the layer tracer of benchmarks/run.py --trace wraps module attributes,
    # so each phase of a primal step must be called through one: once per
    # step, and the price sweep once per counted sweep
    tracer = load_bench_trace().Tracer()
    net = netnewton.random_network(15, 8, 0.5, [7, 3])
    tracer.install()
    try:
        res = netnewton.newton_solve(netnewton.BarrierProblem(net), netnewton.SolverConfig())
    finally:
        tracer.uninstall()
    calls = {layer: t["calls"] for layer, t in tracer.layer_times().items()}
    steps = res.primal_iters
    for layer in ("splitting.build_splitting", "splitting.spectral_radius",
                  "errorcontrol.run_dual", "direction.primal_direction",
                  "auxgraph.compute_theta", "auxgraph.distributed_sum"):
        assert calls[layer] == steps, layer
    assert calls["splitting.dual_step_matrix"] == res.total_dual_iters
    assert calls["solver.newton_solve"] == 1
    # the stage tests: one stage1_beta per step, then a stage2_h threshold
    # and a stage1_beta retest per stage-2 round, two passes each
    certs = [rec.certificate for rec in res.trace]
    rounds = [(c.consensus_passes - (c.dual_iters - c.T) - 2) // 2 for c in certs]
    assert sum(rounds) > 0
    assert calls["errorcontrol.stage_tests"] == steps + 2 * sum(rounds)


def test_invariant_checks_hold_under_optimize():
    # a price iteration that is no contraction, and a squared decrement
    # that comes out negative, still raise in an interpreter run with -O
    src = str(Path(netnewton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import numpy as np, netnewton as nn\n"
        "assert False, 'assert statements run'\n"
        "bk = np.array([[0.0, 1.0], [1.0, 0.0]])\n"
        "denom = np.full(2, 1.1)  # dk 0.1 plus bbar 1\n"
        "split = nn.SplittingData(dk=np.full(2, 0.1), bk=bk, bbar=np.ones(2), rhs=np.zeros(2),\n"
        "                         denom=denom, iteration_matrix=(np.eye(2) - bk) / denom[:, None],\n"
        "                         offset=np.zeros(2))\n"
        "net = nn.build_network([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [nn.LogUtility()] * 2)\n"
        "aux = nn.build_auxiliary_graph(net)\n"
        "for check in (lambda: nn.spectral_radius(split),\n"
        "              lambda: nn.compute_theta(net, aux, np.ones(5), -np.ones(5))):\n"
        "    try:\n"
        "        check()\n"
        "        print('passed')\n"
        "    except AssertionError as exc:\n"
        "        print('raised:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    contraction, decrement = proc.stdout.splitlines()
    assert contraction.startswith("raised: price iteration is not a contraction: 1.81")
    assert decrement == "raised: squared decrement came out negative"


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


@pytest.mark.parametrize("category, module, fails", [
    pytest.param(DeprecationWarning, "netnewton.baselines", True, id="netnewton.baselines-True"),
    pytest.param(DeprecationWarning, "elsewhere", False, id="elsewhere-False"),
    pytest.param(RuntimeWarning, "netnewton.splitting", True, id="runtime-netnewton.splitting-True"),
    pytest.param(RuntimeWarning, "elsewhere", False, id="runtime-elsewhere-False"),
])
def test_deprecation_fails_only_in_netnewton_code(category, module, fails):
    # pyproject's filterwarnings turns a DeprecationWarning raised from
    # netnewton code, such as numpy 2.4's for a positional out on
    # np.maximum, into an error, and a RuntimeWarning, such as numpy's for
    # an overflow, in any netnewton module too; elsewhere each stays a warning
    code = compile("warnings.warn('message', category)", module, "exec")
    scope = {"__name__": module, "warnings": warnings, "category": category}
    with pytest.raises(category) if fails else pytest.warns(category):
        exec(code, scope)
