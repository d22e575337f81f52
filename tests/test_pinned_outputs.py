"""Outputs pinned as standing checks: the seed-7 study's h_refs against an
independent dual minimum, and the counts of the benchmark's scale-ladder
and mixed-utility instances. The benchmark modules are loaded from
benchmarks/, so the pins follow the instances the benchmark runs."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np

from netnewton import (
    FirstOrderConfig,
    SolverConfig,
    diagonal_scaled_solve,
    random_network,
    reference_optimum,
    subgradient_family_stepsize,
    subgradient_solve,
    two_pass_solve,
)
from netnewton.solver import reference_optima

from test_acceptance import GOLDEN_RTOL, GOLDEN_STUDY, STUDY_SPEC

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench(name):
    """benchmarks/<name>.py, imported with its directory on the path, as
    benchmarks/run.py imports it (bench_workloads imports bench_trace)."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_study_h_refs_match_independent_dual_minimum():
    # the study's h_refs, from its networks redrawn as run_comparison draws
    # them, equal the golden file's (which criterion 10 pins the study's
    # rows to) and each agrees with bench_dual's minimum of the closed-form
    # dual, which shares no code with the solvers
    bench_dual = load_bench("bench_dual")
    spec = STUDY_SPEC
    nets = [
        random_network(spec.links, spec.sources, spec.bernoulli_p, seed,
                       omega_range=spec.omega_range, capacity_range=spec.capacity_range)
        for seed in np.random.SeedSequence(spec.seed).spawn(spec.trials)
    ]
    golden = json.loads(GOLDEN_STUDY.read_text())["h_refs"]
    h_refs = [h for _, h in reference_optima(nets)]
    assert len(h_refs) == len(golden) == spec.trials
    for trial, (net, h_ref, want) in enumerate(zip(nets, h_refs, golden)):
        assert abs(h_ref - want) <= GOLDEN_RTOL * abs(want), (trial, h_ref, want)
        bench_dual.check_reference(h_ref, bench_dual.Dual(net).minimum())


def test_scale_ladder_counts_pinned():
    # (price sweeps, primal steps) of one newton_solve per rung, as the
    # scale-newton workload runs it, read from the trace file, whose
    # solves tests/test_traces.py checks against fresh ones
    from test_traces import GOLDEN_TRACES

    solves = json.loads(GOLDEN_TRACES.read_text())["solves"]
    counts = []
    for links, sources in load_bench("bench_workloads").SCALE_LADDER:
        solve = solves[f"ladder{links}x{sources}/default"]
        assert solve["converged"]
        counts.append((solve["metrics"]["dual_rounds"], len(solve["steps"])))
    assert counts == [(936, 20), (3326, 22), (8013, 32), (22797, 34)]


def test_mixed_utility_counts_pinned():
    # the mixed-utility workload's two-pass sweeps, and instance 0's
    # first-order updates, whose best responses run the quadratic's clamp
    # at 0 end to end
    workloads = load_bench("bench_workloads")
    nets = [workloads.mixed_network(seed) for seed in workloads.MIXED_SEEDS]
    config = SolverConfig(a=0.01, store_iterates=False)
    assert [two_pass_solve(net, config).total_dual_iters for net in nets] == [844, 1801, 1124]
    net = nets[0]
    _, h_ref = reference_optimum(net)
    sub = subgradient_solve(
        net, FirstOrderConfig(stepsize=subgradient_family_stepsize(net)), h_ref=h_ref
    )
    diag = diagonal_scaled_solve(
        net, FirstOrderConfig(stepsize=workloads.MIXED_DIAGONAL_STEPSIZE), h_ref=h_ref
    )
    assert (sub.converged, sub.iterations, sub.iters_to_band) == (True, 7_035, 244)
    assert (diag.converged, diag.iterations, diag.iters_to_band) == (True, 11_483, 510)
