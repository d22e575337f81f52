import csv
import dataclasses
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
from netnewton.solver import _quad_constants, trace_to_json, write_trace_csv

from conftest import draw_network
from oracles import oracle_csv_row, oracle_json_row


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


class TestReference:
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

    def test_reference_solve_rows_objective_and_step_cap(self):
        # rows count steps from 0; f_final is the objective at the
        # problem's own utility scale; a tolerance no decrement meets runs
        # the 500-step cap. tests/test_traces.py pins every row's values
        net = study_network(2)
        prob = BarrierProblem(net, 1.0, 3.0)
        res = reference_solve(prob)
        assert [row[0] for row in res.trace] == list(range(len(res.trace)))
        assert res.converged and res.f_final == eval_f(prob, res.x)
        capped = reference_solve(BarrierProblem(net, 1.0), tol=-1.0)
        assert len(capped.trace) == 500 and not capped.converged

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

    @pytest.mark.parametrize("kind", [
        "damped_decrease", "stepsize_sandwich", "suboptimality", "invalid_constants",
    ])
    def test_each_violation_kind_reported(self, two_flow_network, kind):
        # a tampered trace, a reference below every objective, or a phi no
        # error level admits, each reported under its kind
        prob = BarrierProblem(two_flow_network, 1.0)
        cfg = SolverConfig()
        res = newton_solve(prob, cfg)
        f_ref, phi = None, 0.14
        if kind == "damped_decrease":  # damped step 0 moves nowhere
            res.trace[1] = dataclasses.replace(res.trace[1], x=res.trace[0].x)
        elif kind == "stepsize_sandwich":  # theta far below the decrement
            res.trace[0] = dataclasses.replace(res.trace[0], theta=0.0)
        elif kind == "suboptimality":
            f_ref = -1e9
        else:
            phi = 1.0
        report = phase_diagnostics(res, prob, cfg, f_ref=f_ref, phi=phi)
        assert kind in {v["kind"] for v in report.violations}

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


    @pytest.mark.parametrize("spectra", [False, True])
    def test_writers_match_hand_written_rows(self, tmp_path, two_flow_network, spectra):
        cfg = SolverConfig(record_spectra=spectra)
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(res.trace, path)
        with open(path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert body == [oracle_csv_row(rec) for rec in res.trace]
        rows = trace_to_json(res, cfg)["trace"]
        assert rows == [oracle_json_row(rec) for rec in res.trace]
        extra = {"certificate", "dual_graph"} if spectra else {"certificate"}
        for row in rows:
            assert len(set(row) - extra) == 12 and extra <= set(row)
