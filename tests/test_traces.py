"""Every Newton step pinned: the trace of each newton_solve, and of each
exact-method solve, in tests/data/traces_seed7.json, field by field.

The golden study file pins each study row's totals, so a change that moves
one step without moving a total passes it. This file holds, for seed-7
study trials 0-5 under four configs, trial 2 at two utility scales (a
two-pass solve's pass 2 runs on a rescaled utility), the mixed-utility
network under four configs and the benchmark's scale-ladder solves, every
trace column, each step's certificate and dual-graph report, the stored
iterates of one solve, the run's message totals and its final point and
objectives. For the exact method it holds every (k, decrement, stepsize)
row of reference_solve with its final point, objectives and convergence
flag, on study trials 0-5, trial 2 at both utility scales, the
mixed-utility network at barrier weights 1 and 2 and one warm start at
tol 1e-10, and the optima reference_optima returns for trials 0-5 and the
mixed-utility network. Rewrite it, a change of test data, with

    PYTHONPATH=src python tests/test_traces.py
"""

import json
from pathlib import Path

import numpy as np

from netnewton import (
    BarrierProblem,
    SolverConfig,
    newton_solve,
    random_network,
    reference_optima,
    reference_solve,
)
from netnewton.solver import TRACE_COLUMNS

from conftest import mixed_example
from test_acceptance import GOLDEN_RTOL, STUDY_SPEC
from test_pinned_outputs import load_bench

GOLDEN_TRACES = Path(__file__).resolve().parent / "data" / "traces_seed7.json"
STUDY_TRIALS = 6
# One solve stores its iterates, and so pins them; the rest store none,
# which keeps the file small. On the study trials: the default; a barrier
# weight of 2 with spectra and a perturbed stepsize scalar; cold prices
# with a one-sweep stage 1, which reaches stage 2; a given stage-1 budget.
CONFIGS = {
    "default": SolverConfig(store_iterates=False),
    "mu2_spectra_noise": SolverConfig(mu=2.0, record_spectra=True, tau_noise=0.01,
                                      store_iterates=False),
    "cold_T1": SolverConfig(T=1, dual_warm_start=False, store_iterates=False),
    "T5": SolverConfig(T=5, store_iterates=False),
}
# On the mixed-utility network, each change of config alone.
MIXED_CONFIGS = {
    "mu2": SolverConfig(mu=2.0, store_iterates=False),
    "iterates_spectra_noise": SolverConfig(record_spectra=True, tau_noise=0.01),
    "cold": SolverConfig(dual_warm_start=False, store_iterates=False),
    "T5": SolverConfig(T=5, store_iterates=False),
}
SCALED_TRIAL, SCALES = 2, (3.0, 1e3)
# On the numpy version, BLAS and SIMD extensions the file was recorded
# with, every float is compared exactly, so a change of rounding anywhere in a step (a 1-ulp
# change of F's headroom, say) fails. On another build, which may round
# differently (by at most 1.9e-15 relative so far), floats are compared
# within criterion 10's GOLDEN_RTOL, relative: a change to what a step
# computes (one more sweep, another F, another stepsize) still moves a
# count, a phase or a stage, which are always compared exactly, or a float
# by far more than 1e-12 on the steps after it. There, feas_residual, itself
# a relative residual made of rounding alone, and the exact method's trace
# rows, whose last decrements (near 1e-14) are rounding alone, are compared
# within GOLDEN_RTOL absolute, as criterion 10 compares rel_error.
_ABSOLUTE = {"feas_residual", "trace"}


def study_networks():
    spec = STUDY_SPEC
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.trials)[:STUDY_TRIALS]
    return [
        random_network(spec.links, spec.sources, spec.bernoulli_p, seed,
                       omega_range=spec.omega_range, capacity_range=spec.capacity_range)
        for seed in seeds
    ]


def ladder_networks():
    """The scale-newton workload's instances, as benchmarks/ draws them."""
    workloads = load_bench("bench_workloads")
    return [
        random_network(L, S, workloads.SCALE_P, [workloads.INSTANCE_SEED, L, S])
        for L, S in workloads.SCALE_LADDER
    ]


def solve_record(net, config: SolverConfig, scale: float = 1.0) -> dict:
    """One solve's steps, message totals and final point, as JSON values.
    newton_solve takes its barrier weight from the problem, so mu comes
    from config."""
    res = newton_solve(BarrierProblem(net, config.mu, scale), config)
    steps = []
    for rec in res.trace:
        step = {c: getattr(rec, c) for c in TRACE_COLUMNS + ["summation_rounds"]}
        step["certificate"] = rec.certificate.to_dict()
        if rec.dual_graph is not None:
            step["dual_graph"] = rec.dual_graph
        if rec.x is not None:
            step["x"] = rec.x.tolist()
        steps.append(step)
    return {"converged": res.converged, "steps": steps, "metrics": res.metrics.totals(),
            "x": res.x.tolist(), "f_final": res.f_final, "h_final": res.h_final}


def traces_record() -> dict:
    """Every pinned solve, keyed by instance and config."""
    solves = {}
    nets = study_networks()
    for trial, net in enumerate(nets):
        for name, config in CONFIGS.items():
            solves[f"trial{trial}/{name}"] = solve_record(net, config)
    for scale in SCALES:
        solves[f"trial{SCALED_TRIAL}/scale{scale:g}"] = solve_record(
            nets[SCALED_TRIAL], CONFIGS["default"], scale)
    for name, config in MIXED_CONFIGS.items():
        solves[f"mixed/{name}"] = solve_record(mixed_example(), config)
    for net in ladder_networks():
        solves[f"ladder{net.num_links}x{net.num_sources}/default"] = solve_record(
            net, CONFIGS["default"])
    return solves


def exact_record(problem: BarrierProblem, x0=None, tol: float = 1e-12) -> dict:
    """One reference_solve's steps, final point and objectives."""
    res = reference_solve(problem, x0, tol)
    return {"converged": res.converged, "trace": res.trace, "x": res.x.tolist(),
            "f_final": res.f_final, "h_final": res.h_final}


def exact_records() -> dict:
    """Every pinned exact-method solve, keyed by instance and barrier
    weight or scale, and every pinned reference optimum."""
    nets, mixed = study_networks(), mixed_example()
    solves = {f"trial{t}/default": exact_record(BarrierProblem(net, 1.0))
              for t, net in enumerate(nets)}
    for scale in SCALES:
        solves[f"trial{SCALED_TRIAL}/scale{scale:g}"] = exact_record(
            BarrierProblem(nets[SCALED_TRIAL], 1.0, scale))
    for mu in (1.0, 2.0):
        solves[f"mixed/mu{mu:g}"] = exact_record(BarrierProblem(mixed, mu))
    # a central-path stage: from trial 0's optimum at scale 1 to scale 10
    solves["trial0/warm_scale10"] = exact_record(
        BarrierProblem(nets[0], 1.0, 10.0), solves["trial0/default"]["x"], tol=1e-10)
    names = [f"trial{t}" for t in range(STUDY_TRIALS)] + ["mixed"]
    optima = {name: {"x": x.tolist(), "h": h}
              for name, (x, h) in zip(names, reference_optima(nets + [mixed]), strict=True)}
    return {"solves": solves, "optima": optima}


def record() -> dict:
    """Everything the file pins, as JSON values."""
    return json.loads(json.dumps({"solves": traces_record(), "exact": exact_records()}))


def build() -> dict:
    """The numpy version, BLAS and SIMD extensions of this process, as the
    file records them: the same numpy and BLAS pick other kernels, which
    may round differently, on a CPU with other extensions."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": " ".join(config["SIMD Extensions"]["found"])}


def test_every_newton_step_matches_golden():
    golden = json.loads(GOLDEN_TRACES.read_text())
    here = build()
    recorded = {key: golden.get(key) for key in here}
    exact = here == recorded
    mode = (f"compared exactly on the recording build {here}" if exact else
            f"compared within GOLDEN_RTOL: {here} here, {recorded} in {GOLDEN_TRACES.name}")

    def same(field, got, want):
        if not exact and isinstance(got, float) and isinstance(want, float):
            scale = 1.0 if field in _ABSOLUTE else abs(want)
            return abs(got - want) <= GOLDEN_RTOL * scale
        return type(got) is type(want) and got == want

    def compare(where, got, want):
        if isinstance(want, dict):
            assert isinstance(got, dict) and got.keys() == want.keys(), (where, got, want)
            for key in want:
                compare(f"{where}.{key}", got[key], want[key])
        elif isinstance(want, list):
            assert isinstance(got, list) and len(got) == len(want), (where, got, want)
            for i, (g, w) in enumerate(zip(got, want)):
                compare(f"{where}[{i}]", g, w)
        else:
            field = where.rsplit(".", 1)[-1].split("[")[0]
            assert same(field, got, want), f"{where}: {got!r} != {want!r} ({mode})"

    for key, got in record().items():
        compare(key, got, golden[key])


if __name__ == "__main__":
    doc = {**build(), **record()}
    GOLDEN_TRACES.write_text(json.dumps(doc, indent=1) + "\n")
