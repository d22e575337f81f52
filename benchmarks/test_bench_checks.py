"""The benchmark's own checks: each accepts a correct output and rejects a
perturbed one. Run with `PYTHONPATH=src python -m pytest benchmarks`."""

import dataclasses

import numpy as np
import pytest

import netnewton
from bench_dual import (
    CheckFailed,
    Dual,
    check_barrier_gap,
    check_feasible,
    check_first_order,
    check_reference,
    check_two_pass,
)
from bench_trace import Tracer
from bench_workloads import mixed_network


@pytest.fixture(scope="module")
def family_net():
    return netnewton.random_network(15, 8, 0.5, 3)


@pytest.fixture(scope="module")
def two_pass(family_net):
    return netnewton.two_pass_solve(family_net, netnewton.SolverConfig(a=0.01))


@pytest.fixture(scope="module")
def small_net():
    return netnewton.random_network(5, 3, 0.6, 11)


@pytest.fixture(scope="module")
def first_order(small_net):
    _, h_ref = netnewton.reference_optimum(small_net)
    config = netnewton.FirstOrderConfig(
        stepsize=netnewton.subgradient_family_stepsize(small_net)
    )
    return netnewton.subgradient_solve(small_net, config, h_ref=h_ref), h_ref, config.band


def _with_rates(net, rates):
    """A flow-conserving point with the given rates (slacks absorb the rest)."""
    return np.concatenate([rates, net.capacities - net.routing @ rates])


def test_dual_closed_form_matches_reference(family_net):
    dual = Dual(family_net)
    _, h_ref = netnewton.reference_optimum(family_net)
    check_reference(h_ref, dual.minimum())
    with pytest.raises(CheckFailed):
        check_reference(h_ref + 1e-3, dual.minimum())


def test_dual_handles_quadratic_utilities():
    net = mixed_network(0)
    dual = Dual(net)
    _, h_ref = netnewton.reference_optimum(net)
    check_reference(h_ref, dual.minimum())
    w = np.full(net.num_links, 0.3)
    eps = 1e-6
    numeric = [(dual.value(w + eps * e) - dual.value(w - eps * e)) / (2 * eps)
               for e in np.eye(net.num_links)]
    np.testing.assert_allclose(dual.grad(w), numeric, rtol=1e-5, atol=1e-6)


def test_feasibility_rejects_perturbations(family_net, two_pass):
    dual = Dual(family_net)
    S = family_net.num_sources
    s, y = two_pass.x[:S], two_pass.x[S:]
    check_feasible(dual, s, y)
    with pytest.raises(CheckFailed):
        check_feasible(dual, np.where(np.arange(S) == 0, -1e-6, s), y)
    with pytest.raises(CheckFailed):
        check_feasible(dual, s * 1.01 + y.max(), y)
    with pytest.raises(CheckFailed):
        check_feasible(dual, s, np.where(np.arange(len(y)) == 0, 0.0, y))
    check_feasible(dual, np.where(np.arange(S) == 0, 0.0, s), strict=False)


def test_barrier_gap_rejects_a_point_off_the_central_path(family_net, two_pass):
    dual = Dual(family_net)
    x = two_pass.pass1.x
    gap = check_barrier_gap(dual, x, 1.0, 1.0)
    assert 0 < gap <= family_net.num_sources + family_net.num_links
    S = family_net.num_sources
    with pytest.raises(CheckFailed):
        check_barrier_gap(dual, _with_rates(family_net, 0.3 * x[:S]), 1.0, 1.0)
    with pytest.raises(CheckFailed):
        check_barrier_gap(dual, x, 1.0, 100.0)


def test_two_pass_rejects_perturbed_results(family_net, two_pass):
    dual = Dual(family_net)
    assert check_two_pass(dual, two_pass, 1.0, 0.01) <= 0.01
    S = family_net.num_sources
    worse = dataclasses.replace(
        two_pass.pass2, x=_with_rates(family_net, 0.5 * two_pass.x[:S])
    )
    perturbed = [
        dataclasses.replace(two_pass, shift=2.0 * two_pass.shift),
        dataclasses.replace(two_pass, scale=2.0 * two_pass.scale),
        dataclasses.replace(two_pass, h_final=two_pass.h_final - 1e-3),
        dataclasses.replace(two_pass, pass2=worse, h_final=dual.h(worse.x[:S])),
    ]
    for bad in perturbed:
        with pytest.raises(CheckFailed):
            check_two_pass(dual, bad, 1.0, 0.01)


def test_first_order_rejects_perturbed_results(small_net, first_order):
    result, h_ref, band = first_order
    dual = Dual(small_net)
    assert check_first_order(dual, result, h_ref, band) <= band * max(abs(h_ref), 1.0)
    width = band * max(abs(h_ref), 1.0)
    history = result.objective_history.copy()
    history[-1] += 2 * width
    perturbed = [
        dataclasses.replace(result, converged=False),
        dataclasses.replace(result, rates=1.5 * result.rates),
        dataclasses.replace(result, objective_history=history),
        dataclasses.replace(result, prices=3.0 * result.prices + 1.0),
    ]
    for bad in perturbed:
        with pytest.raises(CheckFailed):
            check_first_order(dual, bad, h_ref, band)


def test_tracer_counts_sweeps_and_restores(small_net):
    original = netnewton.errorcontrol.dual_step_matrix
    tracer = Tracer()
    tracer.install()
    try:
        res = netnewton.newton_solve(netnewton.BarrierProblem(small_net), netnewton.SolverConfig())
    finally:
        tracer.uninstall()
    assert netnewton.errorcontrol.dual_step_matrix is original
    layers = tracer.layer_times()
    assert layers["splitting.dual_step_matrix"]["calls"] == res.total_dual_iters
    assert layers["solver.newton_solve"]["calls"] == 1
    assert tracer.counters["solver.primal_steps"] == res.primal_iters
    newton = layers["solver.newton_solve"]
    assert 0 < newton["self_s"] < newton["s"]
