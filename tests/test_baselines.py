import sys
import warnings

import numpy as np
import pytest

import netnewton
from netnewton import (
    FirstOrderConfig,
    LogUtility,
    QuadraticUtility,
    build_network,
    diagonal_scaled_solve,
    random_network,
    reference_optimum,
    subgradient_family_stepsize,
    subgradient_solve,
)
from netnewton.baselines import (
    _BLOCK,
    FirstOrderResult,
    _cap_assignment_is_noop,
    _price_iteration,
)
from netnewton.experiment import FAMILY_FIXTURES
from netnewton.model import utility_method

from conftest import TWO_FLOW_ROUTING


def oracle_best_response(network, prices, cap):
    """The oracle's own best response, kept apart from baselines'
    _best_response so that the blocked loop is checked against code it
    does not share: rates maximizing utility minus route price, clamped to
    [0, cap], and cap where the route price vanishes."""
    route_price = network.routing.T @ prices
    s = utility_method(network, "inverse_d1")(np.maximum(route_price, 1e-12))
    return np.where(route_price > 1e-12, np.minimum(np.maximum(s, 0.0), cap), cap)


def oracle_price_iteration(network, config, h_ref, scaled):
    """Test oracle: the plain per-iteration form of _price_iteration, which
    runs the objective, slack, divergence test and stopping rule after every
    price update. The blocked loop must reproduce it exactly."""
    R = network.routing
    c = network.capacities
    cap = config.rate_cap if config.rate_cap is not None else 2.0 * float(c.max())
    w = np.zeros(network.num_links)
    h_hist, slack_hist = [], []
    stable = 0
    h_prev = None
    converged = False
    for k in range(1, config.max_iters + 1):
        s = oracle_best_response(network, w, cap)
        overload = R @ s - c
        if scaled:
            curv = R @ (-1.0 / utility_method(network, "d2")(s))
            step = config.stepsize * overload / np.maximum(curv, config.curvature_floor)
        else:
            step = config.stepsize * overload
        w = np.maximum(0.0, w + step)
        if not w.max() <= 1e12:
            raise RuntimeError(
                f"price iteration diverged at step {k}; reduce the stepsize"
            )
        h = -float(utility_method(network, "value")(np.maximum(s, 1e-300)).sum())
        min_slack = float(-overload.max())
        h_hist.append(h)
        slack_hist.append(min_slack)
        in_band = True if h_ref is None else abs(h - h_ref) <= config.band_scale(h_ref)
        settled = (
            h_prev is not None
            and abs(h - h_prev) <= config.rel_change_tol * max(abs(h), 1e-12)
            and min_slack >= -1e-9
            and in_band
        )
        stable = stable + 1 if settled else 0
        if stable >= config.stable_window:
            converged = True
            break
        h_prev = h
    h_arr = np.array(h_hist)
    iters_to_band = None
    if h_ref is not None:
        inside = np.abs(h_arr - h_ref) <= config.band_scale(h_ref)
        outside = [k for k, ok in enumerate(inside) if not ok]
        entry = outside[-1] + 1 if outside else 0  # never leaves the band after
        iters_to_band = entry + 1 if entry < len(h_arr) else None
    return FirstOrderResult(
        rates=oracle_best_response(network, w, cap),
        prices=w,
        objective_history=h_arr,
        min_slack_history=np.array(slack_hist),
        converged=converged,
        iters_to_band=iters_to_band,
    )


def assert_same_run(result, expected):
    assert (result.iterations, result.converged, result.iters_to_band) == (
        expected.iterations, expected.converged, expected.iters_to_band
    )
    for name in ("prices", "rates", "objective_history", "min_slack_history"):
        assert np.array_equal(getattr(result, name), getattr(expected, name)), name


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

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0),
        ("stable_window", 0),
        ("band", 0.0),
        ("rel_change_tol", -1e-6),
        ("curvature_floor", 0.0),
        ("rate_cap", 0.0),
        # a fractional cap would crash the loop's slicing; a fractional window
        # would act as the next integer; a bool is not a count
        ("max_iters", 10.5),
        ("stable_window", 2.5),
        ("max_iters", True),
        ("stable_window", True),
        *((field, float("nan")) for field in (
            "stepsize", "max_iters", "stable_window", "band", "rel_change_tol",
            "curvature_floor", "rate_cap")),
        # an infinite stepsize or cap diverges at once, blaming the stepsize;
        # an infinite floor freezes the diagonal prices at 0
        *((field, float("inf")) for field in ("stepsize", "curvature_floor", "rate_cap")),
    ])
    def test_unrunnable_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FirstOrderConfig(**{"stepsize": 0.01, field: value})

    def test_divergence_detected(self, two_flow_network):
        cfg = FirstOrderConfig(stepsize=1e13, max_iters=10000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="diverged at step 1;"):
                subgradient_solve(two_flow_network, cfg)

    def test_oscillation_reported_as_nonconvergence(self, two_flow_network):
        cfg = FirstOrderConfig(stepsize=50.0, max_iters=500)
        res = subgradient_solve(two_flow_network, cfg)
        assert not res.converged


class TestBlockedLoop:
    """_price_iteration evaluates its bookkeeping once per block of _BLOCK
    iterates; each case pins it to the per-iteration oracle above."""

    @pytest.mark.parametrize("scaled, stepsize", [(False, 0.05), (True, 0.1)])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_stop_at_block_edge(self, two_flow_network, scaled, stepsize, offset):
        # offset 0 stops on the last iterate of a block, 1 on the first of the next
        _, h_ref = reference_optimum(two_flow_network)
        base = oracle_price_iteration(
            two_flow_network, FirstOrderConfig(stepsize=stepsize), h_ref, scaled
        )
        target = -(-base.iterations // _BLOCK) * _BLOCK + offset
        # the objective stays settled, so a longer window delays the stop as much
        cfg = FirstOrderConfig(stepsize=stepsize, stable_window=50 + target - base.iterations)
        expected = oracle_price_iteration(two_flow_network, cfg, h_ref, scaled)
        assert expected.converged and expected.iterations == target
        assert_same_run(_price_iteration(two_flow_network, cfg, h_ref, scaled), expected)

    @pytest.mark.parametrize("max_iters, converged", [(600, False), (1000, True)])
    def test_max_iters_not_a_block_multiple(self, two_flow_network, max_iters, converged):
        cfg = FirstOrderConfig(stepsize=0.01, max_iters=max_iters)
        assert max_iters % _BLOCK
        expected = oracle_price_iteration(two_flow_network, cfg, None, False)
        assert expected.converged is converged
        assert_same_run(subgradient_solve(two_flow_network, cfg), expected)

    def test_max_iters_below_stable_window(self, two_flow_network):
        cfg = FirstOrderConfig(stepsize=0.05, max_iters=30, stable_window=50)
        expected = oracle_price_iteration(two_flow_network, cfg, None, True)
        assert not expected.converged and expected.iterations == 30
        assert_same_run(diagonal_scaled_solve(two_flow_network, cfg), expected)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_mixed_utilities(self, mixed_network, scaled):
        _, h_ref = reference_optimum(mixed_network)
        stepsize = 0.05 if scaled else subgradient_family_stepsize(mixed_network)
        cfg = FirstOrderConfig(stepsize=stepsize)
        expected = oracle_price_iteration(mixed_network, cfg, h_ref, scaled)
        assert expected.converged and expected.iterations > _BLOCK
        assert_same_run(_price_iteration(mixed_network, cfg, h_ref, scaled), expected)

    @pytest.mark.parametrize("scaled, stepsize", [(False, 1e12 / 300.5), (True, 1e4 / 300.5)])
    def test_divergence_inside_a_later_block(self, scaled, stepsize):
        # a huge weight keeps the rate at its cap, so the price grows by a
        # fixed amount per step and passes 1e12 at step 301
        net = build_network([[1]], [1.0], [LogUtility(1e15)])
        cfg = FirstOrderConfig(stepsize=stepsize, max_iters=10000)
        with pytest.raises(RuntimeError, match="diverged at step 301;"):
            oracle_price_iteration(net, cfg, None, scaled)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="diverged at step 301;"):
                _price_iteration(net, cfg, None, scaled)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_study_trial_matches_oracle(self, scaled):
        # trial 0 of the seed-7 study: one log family over 15 links and 8
        # sources, four blocks without a stop
        net = random_network(15, 8, 0.5, np.random.SeedSequence(7).spawn(1)[0])
        _, h_ref = reference_optimum(net)
        stepsize = (
            FAMILY_FIXTURES["diagonal_stepsize"] if scaled else subgradient_family_stepsize(net)
        )
        cfg = FirstOrderConfig(stepsize=stepsize, max_iters=1000)
        expected = oracle_price_iteration(net, cfg, h_ref, scaled)
        assert not expected.converged and expected.iterations == 1000
        assert_same_run(_price_iteration(net, cfg, h_ref, scaled), expected)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_utility_dispatch_bound_once_per_block(self, two_flow_network, monkeypatch, scaled):
        # count calls under every netnewton module that binds utility_method
        calls = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "netnewton" or n.startswith("netnewton."))]
        original = netnewton.model.utility_method

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        for mod in modules:
            if mod.__dict__.get("utility_method") is original:
                monkeypatch.setattr(mod, "utility_method", counted)
        cfg = FirstOrderConfig(stepsize=0.001, max_iters=1000)
        res = _price_iteration(two_flow_network, cfg, None, scaled)
        assert not res.converged and res.iterations == 1000
        # per solve: inverse_d1, d2 when scaled, and the value of every block
        assert len(calls) <= 3, calls

    def test_iterates_after_a_divergence_raise_no_warning(self, two_flow_network):
        # at this stepsize the block's later iterates reach zero rates, whose
        # curvature divides by zero; the loop discards them without a warning
        cfg = FirstOrderConfig(stepsize=1e300, max_iters=10000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="diverged at step 1;"):
                diagonal_scaled_solve(two_flow_network, cfg)


class TestHistoryWrites:
    """_price_iteration writes both histories in place into one reservation
    per solve and takes the band entry block by block; each case pins it
    to the per-iteration oracle."""

    @pytest.mark.parametrize("last_outside", [_BLOCK - 1, _BLOCK, "none", "last"])
    def test_band_entry_at_block_edges(self, two_flow_network, last_outside):
        # the histories do not depend on h_ref or band: a window longer than
        # the run never stops it, so only the band entry moves
        cfg = FirstOrderConfig(stepsize=0.01, max_iters=3 * _BLOCK, stable_window=10**9)
        h = oracle_price_iteration(two_flow_network, cfg, None, False).objective_history
        if last_outside == "none":
            h_ref, band, expected_entry = h[-1], 1e6, 1
        elif last_outside == "last":
            h_ref, band, expected_entry = h[-1] + 1.0, 0.5 / max(abs(h[-1] + 1.0), 1.0), None
        else:
            # a band around the later entries that leaves out entry last_outside
            later = h[last_outside + 1:]
            h_ref = (later.max() + later.min()) / 2
            radius = (later.max() - later.min()) / 2
            assert abs(h[last_outside] - h_ref) > radius
            band = (radius + abs(h[last_outside] - h_ref)) / 2 / max(abs(h_ref), 1.0)
            expected_entry = last_outside + 2
        cfg = FirstOrderConfig(
            stepsize=0.01, max_iters=3 * _BLOCK, stable_window=10**9, band=band
        )
        expected = oracle_price_iteration(two_flow_network, cfg, h_ref, False)
        assert expected.iters_to_band == expected_entry
        assert_same_run(_price_iteration(two_flow_network, cfg, h_ref, False), expected)

    @pytest.mark.parametrize("reserve", [_BLOCK, 300])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_run_past_the_reservation(self, monkeypatch, reserve, scaled):
        # 1,000 updates fill a reservation of 256 (or 300) entries twice
        monkeypatch.setattr("netnewton.baselines._RESERVE", reserve)
        net = random_network(15, 8, 0.5, np.random.SeedSequence(7).spawn(1)[0])
        _, h_ref = reference_optimum(net)
        stepsize = (
            FAMILY_FIXTURES["diagonal_stepsize"] if scaled else subgradient_family_stepsize(net)
        )
        cfg = FirstOrderConfig(stepsize=stepsize, max_iters=1000)
        expected = oracle_price_iteration(net, cfg, h_ref, scaled)
        assert expected.iterations > 2 * reserve
        assert_same_run(_price_iteration(net, cfg, h_ref, scaled), expected)

    def test_huge_max_iters_reserves_a_bounded_history(self, unit_link):
        res = subgradient_solve(unit_link, FirstOrderConfig(stepsize=0.05, max_iters=10**15))
        assert res.converged and res.iterations == 705


class TestCapAssignment:
    """The best response assigns cap to a source whose route price is at
    most 1e-12 only when its clamped response at 1e-12 can fall short of
    cap; both branches must reproduce the oracle bit for bit."""

    @staticmethod
    def cap_assignment_skipped(net, cfg):
        cap = cfg.rate_cap if cfg.rate_cap is not None else 2.0 * float(net.capacities.max())
        return _cap_assignment_is_noop(utility_method(net, "inverse_d1"), net.num_sources, cap)

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("instance, skipped", [
        ("quadratic-break-below-cap", False),
        ("log-cap-1e15", False),
        ("seed7-trial0", True),
    ])
    def test_both_branches_match_oracle(self, two_flow_network, instance, skipped, scaled):
        if instance == "quadratic-break-below-cap":
            # the break point 3 lies between max c = 2 and the default cap 4,
            # so at a vanishing route price the clamped response is 3
            net = build_network(
                TWO_FLOW_ROUTING, [1, 1, 2, 1, 1], [LogUtility(1.0), QuadraticUtility(3.0, 1.0)]
            )
            cfg = FirstOrderConfig(stepsize=0.01, max_iters=600)
        elif instance == "log-cap-1e15":
            # 1e12 times the log weight stays below the cap
            net = two_flow_network
            cfg = FirstOrderConfig(stepsize=1e-4, max_iters=600, rate_cap=1e15)
        else:
            net = random_network(15, 8, 0.5, np.random.SeedSequence(7).spawn(1)[0])
            stepsize = (
                FAMILY_FIXTURES["diagonal_stepsize"] if scaled
                else subgradient_family_stepsize(net)
            )
            cfg = FirstOrderConfig(stepsize=stepsize, max_iters=600)
        assert self.cap_assignment_skipped(net, cfg) is skipped
        expected = oracle_price_iteration(net, cfg, None, scaled)
        assert_same_run(_price_iteration(net, cfg, None, scaled), expected)

    def test_zero_route_price_gives_cap_without_warning(self, unit_link):
        # a cap below the capacity never overloads the link, so the price
        # stays 0, where the log response is inf before the cap; the final
        # best response runs outside the loop's error state
        cfg = FirstOrderConfig(stepsize=0.01, max_iters=100, rate_cap=0.5)
        assert self.cap_assignment_skipped(unit_link, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = subgradient_solve(unit_link, cfg)
        assert res.prices.tolist() == [0.0] and res.rates.tolist() == [0.5]
        assert_same_run(res, oracle_price_iteration(unit_link, cfg, None, False))


def test_study_trial_counts_pinned():
    """Trial 0 of the seed-7 15x8 comparison study, as run_comparison runs it."""
    net = random_network(15, 8, 0.5, np.random.SeedSequence(7).spawn(1)[0])
    _, h_ref = reference_optimum(net)
    diag = diagonal_scaled_solve(
        net, FirstOrderConfig(stepsize=FAMILY_FIXTURES["diagonal_stepsize"]), h_ref=h_ref
    )
    sub = subgradient_solve(
        net, FirstOrderConfig(stepsize=subgradient_family_stepsize(net)), h_ref=h_ref
    )
    assert (diag.iterations, diag.iters_to_band) == (152_452, 2_287)
    assert (sub.iterations, sub.iters_to_band) == (87_391, 743)
