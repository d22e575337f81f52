import numpy as np
import pytest

from netnewton import (
    FirstOrderConfig,
    LogUtility,
    build_network,
    diagonal_scaled_solve,
    reference_optimum,
    subgradient_family_stepsize,
    subgradient_solve,
)


@pytest.fixture
def unit_link():
    return build_network([[1]], [1.0], [LogUtility(1.0)])


class TestSubgradient:
    def test_unit_link_fixed_point(self, unit_link):
        # optimal rate saturates the capacity; the price settles at U'(c)=1
        cfg = FirstOrderConfig(stepsize=0.05, max_iters=20000)
        res = subgradient_solve(unit_link, cfg)
        assert res.converged
        assert res.rates[0] == pytest.approx(1.0, rel=5e-3)
        assert res.prices[0] == pytest.approx(1.0, rel=5e-3)

    def test_two_flow_converges_close_to_reference(self, two_flow_network):
        _, h_ref = reference_optimum(two_flow_network)
        cfg = FirstOrderConfig(stepsize=0.002, max_iters=200000, rel_change_tol=1e-9)
        res = subgradient_solve(two_flow_network, cfg, h_ref=h_ref)
        assert res.converged
        assert abs(res.h_final - h_ref) <= 1e-3 * max(abs(h_ref), 1.0)

    def test_zero_price_start_uses_rate_cap(self, two_flow_network):
        cfg = FirstOrderConfig(stepsize=0.01, max_iters=5, rate_cap=1.7)
        res = subgradient_solve(two_flow_network, cfg)
        # the first recorded objective is the capped best response
        expected = -sum(u.value(1.7) for u in two_flow_network.utilities)
        assert res.objective_history[0] == pytest.approx(expected)
        assert res.min_slack_history[0] < 0  # capacity violated early on

    def test_family_stepsize_formula(self, two_flow_network):
        alpha = subgradient_family_stepsize(two_flow_network)
        # longest route 3, busiest link 2, curvature bound c_max^2 / w_min = 4
        assert alpha == pytest.approx(0.9 * 2 / (3 * 2 * 4))

    def test_infeasible_iterates_permitted_before_convergence(self, two_flow_network):
        _, h_ref = reference_optimum(two_flow_network)
        cfg = FirstOrderConfig(stepsize=0.002, max_iters=200000)
        res = subgradient_solve(two_flow_network, cfg, h_ref=h_ref)
        assert res.min_slack_history.min() < 0
        assert res.min_slack_history[-1] >= -1e-9


class TestDiagonalScaled:
    def test_faster_than_subgradient_at_equal_stepsize(self):
        # a high utility weight flattens the price response (curvature 1/15
        # at the optimum), which the scaling normalizes away
        net = build_network([[1]], [1.0], [LogUtility(15.0)])
        cfg = FirstOrderConfig(stepsize=0.05, max_iters=50000)
        plain = subgradient_solve(net, cfg)
        scaled = diagonal_scaled_solve(net, cfg)
        assert plain.converged and scaled.converged
        assert scaled.iterations < plain.iterations

    def test_two_flow_converges_close_to_reference(self, two_flow_network):
        _, h_ref = reference_optimum(two_flow_network)
        cfg = FirstOrderConfig(stepsize=0.02, max_iters=100000, rel_change_tol=1e-9)
        res = diagonal_scaled_solve(two_flow_network, cfg, h_ref=h_ref)
        assert res.converged
        assert abs(res.h_final - h_ref) <= 1e-3 * max(abs(h_ref), 1.0)


class TestSharedBehavior:
    def test_both_methods_reach_band_on_mixed_utilities(self, mixed_network):
        _, h_ref = reference_optimum(mixed_network)
        for solve, stepsize in (
            (subgradient_solve, subgradient_family_stepsize(mixed_network)),
            (diagonal_scaled_solve, 0.05),
        ):
            res = solve(mixed_network, FirstOrderConfig(stepsize=stepsize), h_ref=h_ref)
            assert res.converged and res.iters_to_band is not None
            assert abs(res.h_final - h_ref) <= 0.05 * max(abs(h_ref), 1.0)

    def test_both_methods_within_half_percent_when_tuned(self, two_flow_network):
        _, h_ref = reference_optimum(two_flow_network)
        for solve, step in ((subgradient_solve, 0.002), (diagonal_scaled_solve, 0.01)):
            cfg = FirstOrderConfig(stepsize=step, max_iters=200000, rel_change_tol=1e-8)
            res = solve(two_flow_network, cfg, h_ref=h_ref)
            assert res.converged
            assert abs(res.h_final - h_ref) <= 5e-3 * max(abs(h_ref), 1.0)

    def test_band_entry_recorded(self, two_flow_network):
        _, h_ref = reference_optimum(two_flow_network)
        cfg = FirstOrderConfig(stepsize=0.002, max_iters=100000)
        res = subgradient_solve(two_flow_network, cfg, h_ref=h_ref)
        assert res.iters_to_band is not None
        assert res.iters_to_band <= res.iterations

    def test_invalid_stepsize_rejected(self):
        with pytest.raises(ValueError):
            FirstOrderConfig(stepsize=0.0)

    def test_divergence_detected(self, two_flow_network):
        cfg = FirstOrderConfig(stepsize=1e13, max_iters=10000)
        with pytest.raises(RuntimeError, match="diverged"):
            subgradient_solve(two_flow_network, cfg)

    def test_oscillation_reported_as_nonconvergence(self, two_flow_network):
        cfg = FirstOrderConfig(stepsize=50.0, max_iters=500)
        res = subgradient_solve(two_flow_network, cfg)
        assert not res.converged
