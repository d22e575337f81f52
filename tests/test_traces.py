"""Every Newton step pinned: the trace of each newton_solve in
tests/data/traces_seed7.json, field by field.

The golden study file pins each study row's totals, and the Newton oracle
calls the same layer functions as newton_solve, so a change that moves
one step without moving a total passes both. This file holds, for seed-7
study trials 0-5 under three configs and for the benchmark's scale-ladder
solves, every trace column, each step's certificate and the run's message
totals. Rewrite it, a change of test data, with

    PYTHONPATH=src python tests/test_traces.py
"""

import json
from pathlib import Path

import numpy as np

from netnewton import BarrierProblem, SolverConfig, newton_solve, random_network
from netnewton.solver import TRACE_COLUMNS

from test_acceptance import GOLDEN_RTOL, STUDY_SPEC
from test_pinned_outputs import load_bench

GOLDEN_TRACES = Path(__file__).resolve().parent / "data" / "traces_seed7.json"
STUDY_TRIALS = 6
# The default; a barrier weight of 2 with spectra and a perturbed stepsize
# scalar; cold prices with a one-sweep stage 1, which reaches stage 2.
CONFIGS = {
    "default": SolverConfig(),
    "mu2_spectra_noise": SolverConfig(mu=2.0, record_spectra=True, tau_noise=0.01),
    "cold_T1": SolverConfig(T=1, dual_warm_start=False),
}
# Floats are compared within criterion 10's GOLDEN_RTOL, relative: a build
# of numpy or BLAS may round differently (by at most 1.9e-15 relative so
# far), and a change to what a step computes (one more sweep, another F,
# another stepsize) moves a count, a phase or a stage, which are compared
# exactly, or a float by far more than 1e-12 on the steps after it. A
# change of rounding order inside a layer is left to the per-layer
# oracles. feas_residual is itself a relative residual made of rounding
# alone, so it is compared within GOLDEN_RTOL absolute, as criterion 10
# compares rel_error.
_ABSOLUTE = {"feas_residual"}


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


def solve_record(net, config: SolverConfig) -> dict:
    """One solve's steps and message totals, as JSON values. newton_solve
    takes its barrier weight from the problem, so mu comes from config."""
    res = newton_solve(BarrierProblem(net, config.mu), config)
    steps = []
    for rec in res.trace:
        step = {c: getattr(rec, c) for c in TRACE_COLUMNS + ["summation_rounds"]}
        step["certificate"] = rec.certificate.to_dict()
        steps.append(step)
    return {"converged": res.converged, "steps": steps, "metrics": res.metrics.totals()}


def traces_record() -> dict:
    """Every pinned solve, keyed by instance and config."""
    solves = {}
    for trial, net in enumerate(study_networks()):
        for name, config in CONFIGS.items():
            solves[f"trial{trial}/{name}"] = solve_record(net, config)
    for net in ladder_networks():
        solves[f"ladder{net.num_links}x{net.num_sources}/default"] = solve_record(
            net, SolverConfig())
    return json.loads(json.dumps(solves))


def test_every_newton_step_matches_golden():
    golden = json.loads(GOLDEN_TRACES.read_text())
    versions = f"numpy {np.__version__} here, {golden['numpy']} in {GOLDEN_TRACES.name}"

    def same(field, got, want):
        if isinstance(got, float) and isinstance(want, float):
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
            field = where.rsplit(".", 1)[-1]
            assert same(field, got, want), f"{where}: {got!r} != {want!r} ({versions})"

    compare("solves", traces_record(), golden["solves"])


if __name__ == "__main__":
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
           "solves": traces_record()}
    GOLDEN_TRACES.write_text(json.dumps(doc, indent=1) + "\n")
