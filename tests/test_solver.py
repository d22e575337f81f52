import csv
import dataclasses
import math
import sys

import numpy as np
import pytest

import netnewton
from netnewton import (
    BarrierProblem,
    LogUtility,
    SolverConfig,
    build_dual_graph,
    build_network,
    eval_f,
    eval_grad,
    eval_h,
    eval_hessian_diag,
    feasible_init,
    newton_solve,
    phase_diagnostics,
    random_network,
    reference_optima,
    reference_optimum,
    reference_solve,
    spectral_radius,
    stepsize_rule,
    two_pass_solve,
)
from netnewton.auxgraph import build_auxiliary_graph, compute_theta
from netnewton.direction import inexact_decrement, primal_direction
from netnewton.errorcontrol import DualControlConfig, run_dual_with_error_control
from netnewton.metrics import MessageMetrics
from netnewton.model import FEASIBILITY_RTOL, feasibility_residual
from netnewton.solver import (
    SolveResult,
    TraceRecord,
    _quad_constants,
    trace_to_json,
    write_trace_csv,
)
from netnewton.splitting import build_splitting, spectral_diagnostics

from conftest import draw_network
from test_direction import kkt_direction_oracle


class TestConfig:
    def test_default_b_is_midpoint_of_window(self):
        cfg = SolverConfig(V=0.12)
        lo = 1.12 / 1.24
        assert cfg.b == pytest.approx((lo + 1) / 2)

    def test_v_window_enforced(self):
        with pytest.raises(ValueError):
            SolverConfig(V=0.3)
        with pytest.raises(ValueError):
            SolverConfig(V=0.0)

    def test_b_window_enforced(self):
        with pytest.raises(ValueError):
            SolverConfig(V=0.12, b=0.9)  # below (V+1)/(2V+1) = 0.9032...
        with pytest.raises(ValueError):
            SolverConfig(V=0.12, b=1.0)

    def test_mu_floor(self):
        with pytest.raises(ValueError):
            SolverConfig(mu=0.5)

    def test_tau_noise_cap(self):
        cap = (1 / ((1.12 / 1.24 + 1) / 2) - 1) * 1.12
        with pytest.raises(ValueError):
            SolverConfig(tau_noise=cap * 1.01)
        SolverConfig(tau_noise=cap * 0.99)

    @pytest.mark.parametrize("field", ["mu", "p", "epsilon", "V", "b", "theta_term", "a",
                                       "tau_noise", "max_primal_iters", "T"])
    def test_nan_rejected(self, field):
        # and infinity, which would make a target vacuous
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(**{field: value})

    # a fractional cap cannot bound the primal loop; a bool or a string is not a count
    @pytest.mark.parametrize("cap", [0, -3, 2.5, True, "3"])
    def test_max_primal_iters_floor(self, cap):
        with pytest.raises(ValueError, match="max_primal_iters"):
            SolverConfig(max_primal_iters=cap)
        SolverConfig(max_primal_iters=1)

    # the stage-1 budget is None (derived per step) or a count, as the cap is
    @pytest.mark.parametrize("budget", [0, -3, 2.5, True, "3"])
    def test_stage1_budget_is_a_count(self, budget):
        with pytest.raises(ValueError, match="^T must"):
            SolverConfig(T=budget)
        assert SolverConfig(T=1).T == 1 and SolverConfig().T is None


class TestStepsizeRule:
    def test_damped_at_threshold(self):
        b = 0.95
        d, damped = stepsize_rule(0.12, True, 0.12, b)
        assert d == pytest.approx(b / 1.12)
        assert damped

    def test_latches_below_threshold(self):
        d, damped = stepsize_rule(0.119, True, 0.12, 0.95)
        assert d == 1.0 and not damped

    def test_latch_is_permanent(self):
        d, damped = stepsize_rule(5.0, False, 0.12, 0.95)
        assert d == 1.0 and not damped

    def test_elementwise_over_a_stack(self):
        # the exact loop steps a whole stack through one call: each entry
        # gets the stepsize and flag of its own scalar call, bit for bit
        theta = np.array([0.12, 0.119, 5.0, 0.0, 2.5])
        active = np.array([True, True, False, True, True])
        d, damped = stepsize_rule(theta, active, 0.12, 0.95)
        for j in range(len(theta)):
            d_j, damped_j = stepsize_rule(float(theta[j]), bool(active[j]), 0.12, 0.95)
            assert d[j] == d_j and damped[j] == damped_j
        with pytest.raises(ValueError, match="nonnegative"):
            stepsize_rule(np.array([0.5, -1e-300]), True, 0.12, 0.95)


class TestNewtonSolve:
    def test_minimal_closed_form_optimum(self, tiny_network):
        # minimize -log s - log s - log(c - s): stationary at s = 2c/3
        res = newton_solve(BarrierProblem(tiny_network, 1.0), SolverConfig())
        assert res.converged
        assert res.x[0] == pytest.approx(2 / 3, abs=1e-8)
        assert res.x[1] == pytest.approx(1 / 3, abs=1e-8)

    def test_two_flow_matches_reference(self, two_flow_network):
        prob = BarrierProblem(two_flow_network, 1.0)
        res = newton_solve(prob, SolverConfig())
        ref = reference_solve(prob, tol=1e-12)
        assert res.converged
        assert res.f_final == pytest.approx(ref.f_final, abs=1e-6)

    def test_optimal_start_terminates_immediately(self):
        # all-ones routing with weight mu(L-1) puts the interior start
        # exactly at the barrier optimum
        net = build_network(np.ones((3, 2)), [1.0] * 3, [LogUtility(2.0)] * 2)
        res = newton_solve(BarrierProblem(net, 1.0), SolverConfig())
        assert res.converged
        assert res.primal_iters == 1
        assert res.trace[0].theta <= 1e-8

    def test_low_barrier_weight_rejected(self, tiny_network):
        prob = BarrierProblem(tiny_network, mu=0.5)  # fine for evaluation
        with pytest.raises(ValueError, match="mu"):
            newton_solve(prob, SolverConfig())

    def test_iterates_positive_and_feasible(self, two_flow_network):
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), SolverConfig())
        for rec in res.trace:
            assert rec.min_slack > 0
            assert rec.feas_residual <= 1e-9

    def test_damped_phase_monotone_decrease(self, two_flow_network):
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), SolverConfig())
        fvals = [rec.f for rec in res.trace]
        for a, b in zip(fvals, fvals[1:]):
            assert b <= a + 1e-12

    def test_phase_latch_in_trace(self):
        rng = np.random.default_rng(77)
        net = draw_network(rng)
        res = newton_solve(BarrierProblem(net, 1.0), SolverConfig())
        phases = [rec.phase for rec in res.trace]
        if "quadratic" in phases:
            first = phases.index("quadratic")
            assert all(p == "quadratic" for p in phases[first:])

    def test_mixed_utilities_end_to_end(self):
        from netnewton import LogUtility, QuadraticUtility, build_network

        net = build_network(
            [[1, 0], [1, 1], [0, 1]],
            [2.0, 3.0, 2.0],
            [LogUtility(2.0), QuadraticUtility(slope=4.0, curvature=1.0)],
        )
        prob = BarrierProblem(net, 1.0)
        res = newton_solve(prob, SolverConfig())
        ref = reference_solve(prob, tol=1e-12)
        assert res.converged
        assert res.f_final == pytest.approx(ref.f_final, abs=1e-6)

    def test_dual_counter_matches_trace(self, two_flow_network):
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), SolverConfig())
        assert res.total_dual_iters == sum(rec.dual_iters for rec in res.trace)

    def test_one_splitting_per_primal_step(self, monkeypatch):
        # count calls under every netnewton module that binds each function
        names = ("build_splitting", "spectral_radius", "build_dual_graph", "init_dual_state")
        calls = dict.fromkeys(names, 0)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "netnewton" or n.startswith("netnewton."))]
        for name in names:
            original = getattr(netnewton.splitting, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                if mod.__dict__.get(name) is original:
                    monkeypatch.setattr(mod, name, counted)
        net = draw_network(np.random.default_rng(3))
        # with or without the per-step spectral report, one build and one
        # eigensolve per primal step
        for record_spectra in (False, True):
            calls.update(dict.fromkeys(names, 0))
            config = SolverConfig(record_spectra=record_spectra)
            res = newton_solve(BarrierProblem(net, 1.0), config)
            assert res.primal_iters > 1
            assert calls == {
                "build_splitting": res.primal_iters,
                "spectral_radius": res.primal_iters,
                "build_dual_graph": 0,
                "init_dual_state": 0,
            }, record_spectra
            assert all((rec.dual_graph is not None) == record_spectra for rec in res.trace)

    def test_per_step_spectra_skip_the_max_cut(self, monkeypatch):
        # the exhaustive enumeration covers 2^(L-1) cuts; the per-step
        # report leaves it out (the spectra command keeps it)
        def enumerated(split):
            raise AssertionError("newton_solve enumerated a max cut")

        monkeypatch.setattr(netnewton.splitting, "weighted_max_cut", enumerated)
        net = random_network(20, 10, 0.5, [2010, 20, 10])
        res = newton_solve(BarrierProblem(net, 1.0), SolverConfig(record_spectra=True))
        assert res.converged and res.primal_iters > 1
        for rec in res.trace:
            assert rec.dual_graph["lower"] is None
            assert rec.dual_graph["max_cut"] is None
            assert rec.dual_graph["lambda1"] <= rec.certificate.F

    def test_contraction_factor_never_below_lambda1(self):
        # two links crossed by the same two sources: with a utility scale of
        # 1e4 the price iteration's contraction factor climbs above 0.999
        net = build_network([[1, 1], [1, 1]], [1.0, 1.0], [LogUtility(1.0)] * 2)
        problem = BarrierProblem(net, 1.0, 1e4)
        res = newton_solve(problem, SolverConfig())
        assert res.converged
        for rec in res.trace:
            H = eval_hessian_diag(problem, rec.x)
            lam1 = spectral_radius(build_dual_graph(net, H))
            assert rec.certificate.F >= lam1, (rec.k, rec.certificate.F, lam1)

    def test_theta_noise_plumbing(self, two_flow_network):
        cfg = SolverConfig(tau_noise=0.01)
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), cfg)
        assert res.converged
        diffs = [abs(rec.theta - rec.lambda_tilde) for rec in res.trace]
        assert max(diffs) > 1e-6  # the perturbation is visible
        assert max(diffs) <= 0.0101


def study_network(trial: int):
    """Trial `trial` of the seed-7 15x8 comparison study."""
    seed = np.random.SeedSequence(7).spawn(trial + 1)[trial]
    return random_network(15, 8, 0.5, seed)


@pytest.fixture
def newton_calls(monkeypatch):
    """Count the newton_solve calls two_pass_solve makes."""
    calls = []
    original = netnewton.solver.newton_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(netnewton.solver, "newton_solve", counted)
    return calls


def newton_solve_oracle(problem, config):
    """Test oracle for newton_solve: the loop as it was before the per-solve
    binding. Every step evaluates through the public eval_* functions."""
    net = problem.network
    S = net.num_sources
    aux = build_auxiliary_graph(net)
    metrics = MessageMetrics()
    metrics.aux_construction_rounds = aux.rounds
    x = feasible_init(net).values.copy()
    resid = feasibility_residual(net, x)
    w_warm = np.ones(net.num_links)
    damped = True
    trace = []
    converged = False
    for k in range(config.max_primal_iters):
        consensus_start = metrics.consensus_rounds
        g = eval_grad(problem, x)
        H = eval_hessian_diag(problem, x)
        split = build_splitting(net, H, g)
        spectra = spectral_diagnostics(split, max_cut_limit=0) if config.record_spectra else None
        lam1 = spectral_radius(split) if spectra is None else spectra.lambda1
        dual_cfg = DualControlConfig.from_lambda1(lam1, config.p, config.epsilon, config.T)
        w, cert = run_dual_with_error_control(net, H, split, dual_cfg, w_warm)
        metrics.count_price_solve(net, cert)
        delta = primal_direction(net, H, g, w)
        theta, sum_rounds = compute_theta(net, aux, delta, H)
        metrics.summation_rounds += sum_rounds
        if config.tau_noise:
            theta = max(0.0, theta + config.tau_noise * math.cos(float(k)))
        d, damped_next = stepsize_rule(theta, damped, config.V, config.b)
        d, damped_next = float(d), bool(damped_next)
        phase = "damped" if (damped and damped_next) else "quadratic"
        trace.append(TraceRecord(
            k=k, f=eval_f(problem, x), h=eval_h(net, x),
            lambda_tilde=float(inexact_decrement(delta, H)), theta=theta, stepsize=d, phase=phase, dual_iters=cert.dual_iters,
            consensus_rounds=metrics.consensus_rounds - consensus_start,
            summation_rounds=sum_rounds, min_slack=float(x[S:].min()), feas_residual=resid,
            certificate=cert, x=x.copy() if config.store_iterates else None,
            dual_graph=None if spectra is None else spectra.to_dict(),
        ))
        damped = damped_next
        if not damped and theta <= config.theta_term:
            converged = True
            break
        x = x + d * delta
        if not np.all(x > 0):
            raise AssertionError("iterate lost strict positivity; stepsize window violated")
        resid = feasibility_residual(net, x)
        if resid > FEASIBILITY_RTOL:
            raise AssertionError(f"flow conservation drifted: residual {resid:.3e}")
        if config.dual_warm_start:
            w_warm = w
    return SolveResult(x=x, trace=trace, converged=converged, metrics=metrics,
                       f_final=eval_f(problem, x), h_final=eval_h(net, x))


def bits(value):
    """A value's exact bits: an array's dtype, shape and bytes, else its
    repr (exact for floats, and for the certificate's and spectra's)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def assert_matches_newton_oracle(problem, config):
    res = newton_solve(problem, config)
    ref = newton_solve_oracle(problem, config)
    assert bits(res.x) == bits(ref.x)
    assert res.metrics == ref.metrics
    assert (res.converged, bits(res.f_final), bits(res.h_final)) == (
        ref.converged, bits(ref.f_final), bits(ref.h_final))
    assert len(res.trace) == len(ref.trace)
    for rec, rec_ref in zip(res.trace, ref.trace):
        for field in dataclasses.fields(TraceRecord):
            assert bits(getattr(rec, field.name)) == bits(getattr(rec_ref, field.name)), (
                rec.k, field.name)
    return res


class TestNewtonOracle:
    def test_study_networks_match_bit_for_bit(self):
        config = SolverConfig(store_iterates=False)
        for trial in range(50):
            assert_matches_newton_oracle(BarrierProblem(study_network(trial)), config)

    @pytest.mark.parametrize("config", [
        SolverConfig(mu=2.0),
        SolverConfig(store_iterates=True, record_spectra=True, tau_noise=0.01),
        SolverConfig(dual_warm_start=False),
        SolverConfig(T=5),
    ], ids=["mu2", "iterates-spectra-noise", "cold-prices", "given-T"])
    def test_configs_match_bit_for_bit(self, config, mixed_network):
        for net in (mixed_network, study_network(0), study_network(1)):
            assert_matches_newton_oracle(BarrierProblem(net, config.mu), config)

    def test_rescaled_utility_matches_bit_for_bit(self):
        # a two-pass solve's pass 2 runs on a rescaled utility
        for scale in (3.0, 1e3):
            assert_matches_newton_oracle(BarrierProblem(study_network(2), 1.0, scale),
                                         SolverConfig())


class TestTwoPass:
    def test_identical_pass_2_is_reused(self, newton_calls):
        net = study_network(0)
        cfg = SolverConfig(a=0.01)
        tp = two_pass_solve(net, cfg)
        assert tp.scale == 1.0 and tp.shift > 0.0
        assert len(newton_calls) == 1
        assert tp.pass2 is tp.pass1 and tp.pass2_reused
        assert tp.total_dual_iters == tp.pass1.total_dual_iters
        assert tp.traces == tp.pass1.trace
        assert tp.primal_iters == tp.pass1.primal_iters and tp.converged
        fresh = newton_solve(BarrierProblem(net, 1.0, 1.0), cfg)
        assert np.array_equal(tp.x, fresh.x)
        assert tp.h_final == fresh.h_final

    def test_rescaled_pass_2_is_solved(self, newton_calls):
        net = build_network([[1]], [0.01], [LogUtility(1.0)])
        tp = two_pass_solve(net, SolverConfig(a=0.01))
        assert tp.scale > 1.0
        assert len(newton_calls) == 2 and not tp.pass2_reused
        assert tp.total_dual_iters == (
            tp.pass1.total_dual_iters + tp.pass2.total_dual_iters
        )
        assert tp.traces == tp.pass1.trace + tp.pass2.trace
        assert tp.primal_iters == tp.pass1.primal_iters + tp.pass2.primal_iters
        assert tp.converged
        # a pass 1 stopped by its cap fails the run, whatever pass 2 did
        stalled = dataclasses.replace(
            tp, pass1=dataclasses.replace(tp.pass1, converged=False)
        )
        assert stalled.pass2.converged and not stalled.converged

    def test_pass_2_is_solved_when_mu_is_not_1(self, newton_calls):
        tp = two_pass_solve(study_network(0), SolverConfig(a=0.01, mu=2.0))
        assert tp.scale == 1.0
        assert len(newton_calls) == 2 and not tp.pass2_reused
        assert newton_calls[0][0].mu == 2.0 and newton_calls[1][0].mu == 1.0

    def test_study_sweep_counts_pinned(self):
        counts = tuple(
            two_pass_solve(study_network(t), SolverConfig(a=0.01)).total_dual_iters
            for t in range(4)
        )
        assert counts == (637, 937, 1330, 907)

    def test_relative_error_with_negative_denominator(self, two_flow_network):
        tp = two_pass_solve(two_flow_network, SolverConfig(a=0.01))
        h_ref = tp.h_final - 0.5
        bad = dataclasses.replace(tp, shift=-h_ref - 1.0)  # h_ref + shift = -1
        # a gap of 0.5 on a shifted scale of size 1 must not pass a 1% target
        assert bad.relative_error(h_ref) == pytest.approx(0.5)
        assert bad.relative_error(h_ref) > 0.01

    def test_relative_error_within_target(self, two_flow_network):
        tp = two_pass_solve(two_flow_network, SolverConfig(a=0.01))
        _, h_ref = reference_optimum(two_flow_network)
        assert tp.relative_error(h_ref) <= 0.01

    def test_scaling_path_engaged_for_small_capacities(self):
        net = build_network([[1]], [0.01], [LogUtility(1.0)])
        tp = two_pass_solve(net, SolverConfig(a=0.01))
        assert tp.scale > 1.0
        assert tp.shift == 0.0
        _, h_ref = reference_optimum(net)
        assert tp.relative_error(h_ref) <= 0.01

    def test_shift_never_changes_rates(self, two_flow_network):
        tp = two_pass_solve(two_flow_network, SolverConfig(a=0.01))
        assert tp.shift > 0.0 and tp.scale == 1.0
        plain = newton_solve(BarrierProblem(two_flow_network, 1.0, 1.0), SolverConfig())
        np.testing.assert_allclose(tp.x, plain.x, rtol=1e-12)

    def test_additive_utility_constant_does_not_move_rates(self, two_flow_network):
        class ShiftedLog(LogUtility):
            offset = 5.0

            def value(self, s):
                return super().value(s) + self.offset

            def to_dict(self):
                return {"family": "log", "weight": self.weight}

        shifted = build_network(
            two_flow_network.routing, two_flow_network.capacities,
            [ShiftedLog(1.0), ShiftedLog(1.0)],
        )
        cfg = SolverConfig(a=0.01)
        tp_plain = two_pass_solve(two_flow_network, cfg)
        tp_shift = two_pass_solve(shifted, cfg)
        np.testing.assert_allclose(tp_shift.x, tp_plain.x, rtol=1e-9)


def reference_solve_oracle(problem, x0=None, tol=1e-12):
    """Test oracle for reference_solve: the per-network loop it replaced,
    one kkt_direction_oracle step at a time. Returns (x, trace, converged)
    with reference_solve's (k, decrement, stepsize) trace rows."""
    V = SolverConfig.V
    b = SolverConfig().b
    x = feasible_init(problem.network).values.copy() if x0 is None else np.array(x0, dtype=float)
    damped = True
    trace = []
    for k in range(500):
        g = eval_grad(problem, x)
        H = eval_hessian_diag(problem, x)
        delta, _ = kkt_direction_oracle(problem.network, H, g)
        lam = float(np.sqrt(np.sum(delta * delta * H)))
        d, damped = stepsize_rule(lam, damped, V, b)
        trace.append((k, lam, d))
        if lam <= tol:
            return x, trace, True
        x = x + d * delta
        if not np.all(x > 0):
            raise AssertionError("reference iterate lost strict positivity")
    return x, trace, False


def central_path_oracle(net):
    """Test oracle for reference_optima: the per-network central path it
    replaced, reference_solve_oracle chained over the utility scales 1, 10,
    ..., 1e8 from the feasible start, each stage to decrement 1e-10."""
    x = feasible_init(net).values.copy()
    scale = 1.0
    while True:
        x = reference_solve_oracle(BarrierProblem(net, 1.0, scale), x0=x, tol=1e-10)[0]
        if scale >= 1e8:
            return x, eval_h(net, x)
        scale = min(scale * 10.0, 1e8)


class TestReference:
    def test_stack_matches_central_path_oracle(self, mixed_network, two_flow_network):
        nets = [study_network(t) for t in range(10)] + [mixed_network, two_flow_network]
        for (x, h), net in zip(reference_optima(nets), nets):
            x_or, h_or = central_path_oracle(net)
            # relative to |h| floored at one utility unit, as the study's
            # band is: two_flow_network's optimum sits at h = 0
            assert h == pytest.approx(h_or, rel=1e-14, abs=1e-14)
            # relative to the largest entry: a slack near zero is a difference
            # of rates and capacities, so it carries their rounding error
            assert np.abs(x - x_or).max() <= 1e-10 * np.abs(x_or).max()

    def test_stacks_return_in_input_order(self, mixed_network, two_flow_network):
        # the family networks share one stack, the fixtures run alone
        nets = [study_network(0), study_network(1), mixed_network, two_flow_network,
                study_network(2)]
        for (x, h), net in zip(reference_optima(nets), nets, strict=True):
            x_one, h_one = reference_optimum(net)
            np.testing.assert_array_equal(x, x_one)
            assert h == h_one
        assert reference_optima([]) == []

    def test_central_path_evaluates_only_the_stack(self, monkeypatch):
        # a trial that left the stack is not evaluated again: over the 118
        # steps of the seed-7 study's central path, 4,745 rows are still in
        # the stack, against 50 * 118 = 5,900 for the whole stack
        rows = []
        grad = netnewton.solver.barrier_grad

        def counted(x, *args):
            rows.append(x.shape[0])
            return grad(x, *args)

        monkeypatch.setattr(netnewton.solver, "barrier_grad", counted)
        reference_optima([study_network(t) for t in range(50)])
        assert (len(rows), sum(rows)) == (118, 4745)

    def test_reference_solve_matches_oracle_bit_for_bit(self):
        for trial in range(10):
            net = study_network(trial)
            for mu, scale in [(1.0, 1.0), (1.0, 1e3), (2.0, 1.0)]:
                prob = BarrierProblem(net, mu, scale)
                res = reference_solve(prob)
                x, trace, converged = reference_solve_oracle(prob)
                np.testing.assert_array_equal(res.x, x)
                assert res.trace == trace
                assert res.converged is converged
                assert res.f_final == eval_f(prob, x)
                assert res.h_final == eval_h(net, x)
            # the chained central path, warm-started through x0
            x = x_or = feasible_init(net).values
            for scale in 10.0 ** np.arange(9):
                prob = BarrierProblem(net, 1.0, scale)
                x = reference_solve(prob, x0=x, tol=1e-10).x
                x_or = reference_solve_oracle(prob, x0=x_or, tol=1e-10)[0]
                np.testing.assert_array_equal(x, x_or)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_start_rejected(self, bad):
        # an inf entry is positive, and 0 * inf turns the flow residual NaN
        net = random_network(15, 8, 0.5, 3)
        x0 = feasible_init(net).values.copy()
        x0[2] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            reference_solve(BarrierProblem(net, 1.0), x0=x0)

    def test_start_off_flow_conservation_rejected(self):
        # a positive start whose slacks break flow conservation would
        # converge to a point of another problem
        net = random_network(15, 8, 0.5, 3)
        x0 = feasible_init(net).values.copy()
        x0[net.num_sources:] *= 3.0
        assert np.all(x0 > 0)
        with pytest.raises(ValueError, match="flow conservation"):
            reference_solve(BarrierProblem(net, 1.0), x0=x0)

    def test_reference_exact_quadratic_tail(self, two_flow_network):
        # with exact directions the decrement square-contracts once small
        res = reference_solve(BarrierProblem(two_flow_network, 1.0), tol=1e-12)
        lams = [row[1] for row in res.trace]
        small = [lam for lam in lams if lam < 0.12]
        for a, b in zip(small, small[1:]):
            if a > 1e-8:
                assert b <= a**2 / (1 - a) ** 2 + 1e-12

    def test_reference_optimum_beats_barrier_value(self, two_flow_network):
        _, h_ref = reference_optimum(two_flow_network)
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), SolverConfig())
        assert h_ref <= res.h_final + 1e-9


class TestPhaseDiagnostics:
    def test_default_run_has_no_violations(self, two_flow_network):
        prob = BarrierProblem(two_flow_network, 1.0)
        cfg = SolverConfig()
        res = newton_solve(prob, cfg)
        f_ref = reference_solve(prob, tol=1e-12).f_final
        report = phase_diagnostics(res, prob, cfg, f_ref=f_ref, phi=0.14)
        assert report.ok, report.violations
        assert report.steps_checked["damped"] > 0
        assert report.steps_checked["quadratic"] > 0

    def test_study_solves_keep_every_per_step_guarantee(self):
        # every seed-7 study solve: pass 1 (pass 2 reuses it), checked at
        # phi = 0.15, where every assumption relation holds on the study
        config = SolverConfig(a=0.01, store_iterates=True)
        totals = {"damped": 0, "quadratic": 0, "suboptimality": 0}
        for trial in range(50):
            net = study_network(trial)
            tp = two_pass_solve(net, config)
            assert tp.pass2_reused
            prob = BarrierProblem(net, config.mu)
            f_ref = reference_solve(prob).f_final
            report = phase_diagnostics(tp.pass1, prob, config, f_ref=f_ref, phi=0.15)
            assert report.ok, (trial, report.violations)
            checks = dict(report.assumption_checks)
            del checks["delta_min"]  # a value, which delta_exists tests
            assert all(v is True for v in checks.values()), (trial, checks)
            for kind, n in report.steps_checked.items():
                totals[kind] += n
        assert totals == {"damped": 731, "quadratic": 187, "suboptimality": 316}

    def test_sloppy_duals_flagged_against_strict_config(self, two_flow_network):
        # deliberately inflated epsilon with cold, single-sweep price solves
        # leaves a real direction-error floor the strict check must flag
        prob = BarrierProblem(two_flow_network, 1.0)
        loose = SolverConfig(
            epsilon=0.5, T=1, dual_warm_start=False, max_primal_iters=25
        )
        res = newton_solve(prob, loose)
        strict = SolverConfig()  # checks the run against the tight tolerances
        f_ref = reference_solve(prob, tol=1e-12).f_final
        report = phase_diagnostics(res, prob, strict, f_ref=f_ref, phi=0.14)
        kinds = {v["kind"] for v in report.violations}
        assert "quadratic_contraction" in kinds

    def test_requires_stored_iterates(self, two_flow_network):
        prob = BarrierProblem(two_flow_network, 1.0)
        cfg = SolverConfig(store_iterates=False)
        res = newton_solve(prob, cfg)
        with pytest.raises(ValueError, match="stored"):
            phase_diagnostics(res, prob, cfg)

    def test_assumption_relations_reported(self, two_flow_network):
        prob = BarrierProblem(two_flow_network, 1.0)
        cfg = SolverConfig()
        res = newton_solve(prob, cfg)
        report = phase_diagnostics(res, prob, cfg, phi=0.14)
        checks = report.assumption_checks
        assert checks["entry_below_phi"] is True
        assert checks["contraction_preserves_068"] is True
        assert checks["decrement_ratio"] is True
        assert checks["error_headroom"] is True
        assert checks["delta_exists"] is True

    def test_default_phi_fails_contraction_relation(self):
        # with the default error levels, phi = 0.267 cannot satisfy the
        # 0.68-preservation relation; the report must say so
        xi, v = _quad_constants(1e-3, 1e-4, 0.267)
        assert v * 0.68**2 + xi > 0.68


class TestTraceOutput:
    def test_csv_columns(self, tmp_path, two_flow_network):
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), SolverConfig())
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "k,f,h,lambda_tilde,theta,stepsize,phase,dual_iters,"
            "consensus_rounds,min_slack,feas_residual"
        )

    def test_json_contains_certificates(self, two_flow_network):
        cfg = SolverConfig(record_spectra=True)
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), cfg)
        doc = trace_to_json(res, cfg)
        assert doc["trace"][0]["certificate"]["stage"] in (1, 2)
        assert "lambda1" in doc["trace"][0]["dual_graph"]

    @staticmethod
    def oracle_csv_row(rec) -> list:
        """Test oracle: the CSV row as the writer spelled it out by hand
        before TRACE_COLUMNS became the one schema, as the strings csv
        reads back."""
        return [
            str(rec.k), repr(rec.f), repr(rec.h), repr(rec.lambda_tilde),
            repr(rec.theta), repr(rec.stepsize), rec.phase, str(rec.dual_iters),
            str(rec.consensus_rounds), repr(rec.min_slack), repr(rec.feas_residual),
        ]

    @staticmethod
    def oracle_json_row(rec) -> dict:
        """Test oracle: the JSON trace row as trace_to_json spelled it out
        by hand before TRACE_COLUMNS became the one schema."""
        row = {
            "k": rec.k, "f": rec.f, "h": rec.h, "lambda_tilde": rec.lambda_tilde,
            "theta": rec.theta, "stepsize": rec.stepsize, "phase": rec.phase,
            "dual_iters": rec.dual_iters, "consensus_rounds": rec.consensus_rounds,
            "summation_rounds": rec.summation_rounds, "min_slack": rec.min_slack,
            "feas_residual": rec.feas_residual,
        }
        if rec.certificate is not None:
            row["certificate"] = rec.certificate.to_dict()
        if rec.dual_graph is not None:
            row["dual_graph"] = rec.dual_graph
        return row

    @pytest.mark.parametrize("spectra", [False, True])
    def test_writers_match_hand_written_rows(self, tmp_path, two_flow_network, spectra):
        cfg = SolverConfig(record_spectra=spectra)
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        with open(path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert body == [self.oracle_csv_row(rec) for rec in res.trace]
        rows = trace_to_json(res, cfg)["trace"]
        assert rows == [self.oracle_json_row(rec) for rec in res.trace]
        extra = {"certificate", "dual_graph"} if spectra else {"certificate"}
        for row in rows:
            assert len(set(row) - extra) == 12 and extra <= set(row)
