import math
from types import SimpleNamespace

import numpy as np
import pytest

import netnewton
from netnewton import (
    DualControlConfig,
    build_dual_graph,
    build_splitting,
    dual_step_matrix,
    kkt_direction,
    max_consensus,
    primal_direction,
    random_network,
    run_dual_with_error_control,
    spectral_radius,
    stage1_beta,
    stage2_h,
    MessageMetrics,
)

from netnewton.errorcontrol import _largest
from netnewton.metrics import consensus_rounds

from conftest import draw_network, init_state


def with_link_sums(network, v):
    """A route aggregate laid out as the stage tests take it: the S
    per-source values, then their L link sums."""
    return np.concatenate([v, network.routing @ v])


def control_setup(net, H):
    """The contraction factor F the solver picks at this Hessian."""
    lam1 = spectral_radius(build_dual_graph(net, H))
    return DualControlConfig.from_lambda1(lam1, p=1e-3, epsilon=1e-4).F


def assumption_error(net, H, g, w):
    """gamma' H gamma with gamma from the dense price oracle."""
    exact, _ = kkt_direction(net, H, g)
    inexact = primal_direction(net, H, g, w)
    gamma = exact - inexact
    return float(np.sum(gamma * gamma * H)), inexact


def tightened_threshold_draws(net, count):
    """(H, g) draws on the two-flow network whose target prices give source
    0 a zero route price, so retests tighten h again and again."""
    rng = np.random.default_rng(3)
    for _ in range(count):
        H = rng.uniform(0.5, 2.0, 7)
        w_star = rng.uniform(0.5, 2.0, 5)
        w_star[3] = -(w_star[0] + w_star[2])
        yield H, gradient_solved_at(net, H, w_star)


def gradient_solved_at(net, H, w_star):
    """A gradient whose dual system A H^-1 A' w = -A H^-1 g solves at w_star."""
    A = net.incidence
    G = (A / H) @ A.T
    return -H * (A.T @ np.linalg.solve(A @ A.T, G @ w_star))


class TestStageFormulas:
    def test_largest_entry_is_the_maximum_reduction(self):
        # the stage tests take their maxima through _largest: the value of
        # np.maximum.reduce, infinities and NaNs too, and bit for bit unless
        # the maximum is a zero (then either sign)
        rng = np.random.default_rng(24)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324]
        for k in range(500):
            v = rng.normal(size=1 + k % 17 + 240 * (k % 5 == 0)) * 10.0 ** rng.uniform(-300, 300)
            for i in rng.integers(len(v), size=k % 4):
                v[i] = specials[rng.integers(len(specials))]
            got, expected = _largest(v), np.maximum.reduce(v)
            assert repr(got) == repr(expected) or got == expected == 0.0
            assert repr(_largest(np.abs(v))) == repr(np.maximum.reduce(np.abs(v)))

    def test_caps_inside_stage_2_return_or_raise(self, two_flow_network):
        # a cap of the sweeps the solve needs, or more, returns its prices
        # and certificate; one less, or a cap reached earlier, raises; on
        # draws whose stage 2 runs many sweeps
        rng = np.random.default_rng(23)
        draws = [(two_flow_network, H, g)
                 for H, g in tightened_threshold_draws(two_flow_network, 3)]
        for _ in range(4):
            net = draw_network(rng)
            draws.append((net, *init_state(net)[1:]))
        long_stage_2 = 0
        for net, H, g in draws:
            split = build_splitting(net, H, g)
            cfg = DualControlConfig.from_lambda1(
                spectral_radius(split), p=1e-3, epsilon=1e-9, T=1
            )
            w, cert = run_dual_with_error_control(net, H, split, cfg)
            long_stage_2 += cert.dual_iters > cfg.T + 8
            for cap in (cert.dual_iters, cert.dual_iters + 1):
                capped = DualControlConfig(T=cfg.T, p=cfg.p, epsilon=cfg.epsilon, F=cfg.F,
                                           iter_cap=cap)
                w_capped, cert_capped = run_dual_with_error_control(net, H, split, capped)
                assert np.array_equal(w_capped, w) and cert_capped == cert
            short = [*range(cfg.T + 1, cert.dual_iters - 1, max(1, cert.dual_iters // 7)),
                     cert.dual_iters - 1]
            for cap in short:
                capped = DualControlConfig(T=cfg.T, p=cfg.p, epsilon=cfg.epsilon, F=cfg.F,
                                           iter_cap=cap)
                with pytest.raises(RuntimeError, match="cap"):
                    run_dual_with_error_control(net, H, split, capped)
        assert long_stage_2 >= 4


class TestStage1:
    def test_converged_prices_give_infinite_beta(self, two_flow_network):
        net = two_flow_network
        _, H, g = init_state(net)
        w_star = kkt_direction(net, H, g)[1]
        pi0, pit = (with_link_sums(net, (1 / H[:2]) * (net.routing.T @ w))
                    for w in (np.ones(5), w_star))
        beta = stage1_beta(net, w_star, w_star, pi0, pit, F=0.5, p=1e-3)
        assert beta == np.inf

    def test_unmoved_prices_give_infinite_beta_beside_a_vanished_aggregate(
            self, two_flow_network):
        # source 0's route price w0 + w2 + w3 vanishes, which makes its
        # ratio infinite and beta 0 once a price moves; unmoved prices
        # take no ratio and certify any error
        net = two_flow_network
        w = np.array([1.0, 2.0, -2.0, 1.0, 0.5])
        pi0, pit = (with_link_sums(net, net.routing.T @ v) for v in (np.ones(5), w))
        assert pit[0] == 0.0
        assert stage1_beta(net, w, w + 1e-3, pi0, pit, F=0.5, p=1e-3) == 0.0
        assert stage1_beta(net, w, w.copy(), pi0, pit, F=0.5, p=1e-3) == math.inf

    def test_a_nan_link_ratio_leaves_the_source_maximum(self, two_flow_network):
        # route aggregates of opposite infinite signs give the shared link a
        # NaN ratio and both sources a zero one; the source maximum stands
        net = two_flow_network
        pi0 = net.routing.T @ np.ones(net.num_links)
        pit = np.array([np.inf, -np.inf])
        w_t, w_t1 = np.zeros(net.num_links), np.full(net.num_links, 0.5)
        with np.errstate(invalid="ignore"):
            summed = [with_link_sums(net, v) for v in (pi0, pit)]
            assert np.isnan(summed[1][net.num_sources:]).any()
            assert stage1_beta(net, w_t, w_t1, *summed, F=0.5, p=1e-3) == math.inf

    def test_minimal_instance_closed_form(self, tiny_network):
        H = np.array([2.0, 0.5])
        w_t = np.array([1.0])
        w_t1 = np.array([1.5])
        pi0 = np.array([1.0 / H[0]])
        pit = (1 / H[:1]) * w_t
        F, p = 0.4, 0.1
        # single source and single link share the same aggregates here
        rho = np.sqrt(1) * pi0[0] * 0.5 / ((1 - F) * abs(pit[0]))
        pi0, pit = (with_link_sums(tiny_network, v) for v in (pi0, pit))
        beta = stage1_beta(tiny_network, w_t, w_t1, pi0, pit, F, p)
        assert beta == pytest.approx((rho / p) ** -2, rel=1e-12)

    def test_certified_margin_bounds_direction_error(self):
        rng = np.random.default_rng(6)
        p = 1e-3
        for _ in range(25):
            net = draw_network(rng)
            _, H, g = init_state(net)
            F = control_setup(net, H)
            split = build_splitting(net, H, g)
            w = np.ones(net.num_links)
            for _ in range(int(rng.integers(2, 30))):
                w = dual_step_matrix(split, w)
            w_next = dual_step_matrix(split, w)
            pi0, pit = (with_link_sums(net, (1 / H[: net.num_sources]) * (net.routing.T @ v))
                        for v in (np.ones(net.num_links), w))
            beta = stage1_beta(net, w, w_next, pi0, pit, F, p)
            err, inexact = assumption_error(net, H, g, w)
            lam_sq = float(np.sum(inexact * inexact * H))
            if np.isfinite(beta):
                assert beta * err <= p**2 * lam_sq * (1 + 1e-9) + 1e-15


class TestStage2:
    def test_threshold_formula_symmetric_instance(self, tiny_network):
        H = np.array([4.0, 1.0])
        beta, eps, F = 0.5, 1e-4, 0.3
        pi0_unweighted = np.array([1.0])
        big_pi0 = np.array([1.0 / H[0]])
        h = stage2_h(tiny_network, H, with_link_sums(tiny_network, big_pi0), pi0_unweighted,
                     beta, eps, F)
        c = np.sqrt(eps / ((1 - beta) * (1 + 1) * 1)) * (1 - F)
        h_src = c / (1.0 * H[0] ** -0.5)
        h_link = c / (np.sqrt(H[1]) * big_pi0[0])
        assert h == pytest.approx(min(h_src, h_link), rel=1e-12)

    def test_threshold_shrinks_with_epsilon(self, two_flow_network):
        _, H, _ = init_state(two_flow_network)
        pi0 = two_flow_network.routing.T @ np.ones(5)
        big_pi0 = with_link_sums(two_flow_network, (1 / H[:2]) * pi0)
        hs = [
            stage2_h(two_flow_network, H, big_pi0, pi0, 0.5, eps, 0.5)
            for eps in (1e-8, 1e-6, 1e-4, 1e-2)
        ]
        assert all(a < b for a, b in zip(hs, hs[1:]))
        assert hs[1] == pytest.approx(hs[0] * 10, rel=1e-9)  # scales like sqrt(eps)

    def test_threshold_certifies_error_cap(self):
        # once consecutive prices move less than h, the direction error of
        # the earlier iterate is capped by epsilon / (1 - beta)
        rng = np.random.default_rng(14)
        beta, eps = 0.5, 1e-4
        for _ in range(10):
            net = draw_network(rng)
            _, H, g = init_state(net)
            F = control_setup(net, H)
            pi0 = net.routing.T @ np.ones(net.num_links)
            big_pi0 = with_link_sums(net, (1 / H[: net.num_sources]) * pi0)
            h = stage2_h(net, H, big_pi0, pi0, beta, eps, F)
            split = build_splitting(net, H, g)
            w = np.ones(net.num_links)
            for _ in range(10**5):
                w_next = dual_step_matrix(split, w)
                if np.abs(w_next - w).max() <= h:
                    break
                w = w_next
            err, _ = assumption_error(net, H, g, w)
            assert err <= eps / (1 - beta) + 1e-15

    def test_rejects_beta_out_of_range(self, two_flow_network):
        _, H, _ = init_state(two_flow_network)
        pi0 = two_flow_network.routing.T @ np.ones(5)
        big_pi0 = with_link_sums(two_flow_network, (1 / H[:2]) * pi0)
        for beta in (1.2, float("nan"), -0.1):
            with pytest.raises(ValueError):
                stage2_h(two_flow_network, H, big_pi0, pi0, beta, 1e-4, 0.5)

    def test_zero_beta_caps_by_epsilon_alone(self, two_flow_network):
        # stage1_beta returns 0 when a route price vanishes
        _, H, _ = init_state(two_flow_network)
        pi0 = two_flow_network.routing.T @ np.ones(5)
        big_pi0 = with_link_sums(two_flow_network, (1 / H[:2]) * pi0)
        h0 = stage2_h(two_flow_network, H, big_pi0, pi0, 0.0, 1e-4, 0.5)
        assert h0 == pytest.approx(
            stage2_h(two_flow_network, H, big_pi0, pi0, 0.5, 5e-5, 0.5), rel=1e-12
        )


    def test_threshold_reads_the_link_sums_it_is_given(self):
        # stage2_h takes the link sums of Pi0 from its input: changed, they
        # change h
        rng = np.random.default_rng(25)
        for _ in range(20):
            net = draw_network(rng)
            S, L = net.num_sources, net.num_links
            _, H, _ = init_state(net)
            pi0 = net.routing.T @ np.ones(L)
            big_pi0 = pi0 / H[:S]
            num = with_link_sums(net, big_pi0)
            args = (0.5, 1e-4, 0.5)
            h = stage2_h(net, H, num, pi0, *args)
            # link sums large enough to set the largest denominator
            scaled = num.copy()
            scaled[S:] *= 1e6
            assert stage2_h(net, H, scaled, pi0, *args) < h
            # the per-source values are not read
            moved = num.copy()
            moved[:S] *= 4.0
            assert stage2_h(net, H, moved, pi0, *args) == h

    def test_aggregates_of_another_length_rejected(self, two_flow_network):
        net = two_flow_network
        _, H, _ = init_state(net)
        pi0 = net.routing.T @ np.ones(net.num_links)
        full = with_link_sums(net, pi0 / H[:2])
        w_t, w_t1 = np.ones(5), np.full(5, 1.5)
        for bad in (full[:2], full[:-1], np.append(full, 1.0)):
            with pytest.raises(ValueError, match="S \\+ L = 7"):
                stage2_h(net, H, bad, pi0, 0.5, 1e-4, 0.5)
            for pair in ((bad, full), (full, bad)):
                with pytest.raises(ValueError, match="S \\+ L = 7"):
                    stage1_beta(net, w_t, w_t1, *pair, F=0.5, p=1e-3)
        # also where the prices did not move, which returns before any ratio
        with pytest.raises(ValueError, match="S \\+ L = 7"):
            stage1_beta(net, w_t, w_t, full[:2], full[:2], F=0.5, p=1e-3)


class TestMaxConsensus:
    def test_equal_values_stay(self):
        nbrs = [frozenset({1}), frozenset({0, 2}), frozenset({1})]
        out, rounds = max_consensus([3.0, 3.0, 3.0], nbrs)
        np.testing.assert_array_equal(out, [3.0, 3.0, 3.0])
        assert rounds <= 1

    def test_line_graph_needs_diameter_rounds(self):
        n = 6
        nbrs = [frozenset(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)]
        values = [0.0] * n
        values[0] = 9.0
        out, rounds = max_consensus(values, nbrs)
        assert np.all(out == 9.0)
        assert rounds == n - 1

    def test_random_graph_matches_direct_max(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            net = draw_network(rng)
            vals = rng.normal(size=len(net.comm_neighbors))
            out, _ = max_consensus(vals, net.comm_neighbors)
            assert np.all(out == vals.max())

    def test_rounds_within_the_comm_diameter_charge(self):
        # the solver charges comm_diameter rounds per network-wide maximum
        rng = np.random.default_rng(8)
        for seed in np.random.SeedSequence(7).spawn(10):
            net = random_network(15, 8, 0.5, seed)
            vals = rng.normal(size=len(net.comm_neighbors))
            out, rounds = max_consensus(vals, net.comm_neighbors)
            assert np.all(out == vals.max())
            assert rounds <= net.comm_diameter

    def test_disconnected_graph_raises(self):
        nbrs = [frozenset(), frozenset()]
        with pytest.raises(ValueError, match="disconnected"):
            max_consensus([1.0, 2.0], nbrs)


class TestRunWithErrorControl:
    def test_warm_start_at_fixed_point_accepts_in_stage1(self, two_flow_network):
        _, H, g = init_state(two_flow_network)
        w_star = kkt_direction(two_flow_network, H, g)[1]
        cfg = DualControlConfig(T=4, p=1e-3, epsilon=1e-4, F=control_setup(two_flow_network, H))
        split = build_splitting(two_flow_network, H, g)
        w, cert = run_dual_with_error_control(two_flow_network, H, split, cfg, w_star)
        assert cert.stage == 1
        assert cert.beta == np.inf
        assert cert.dual_iters == 4
        np.testing.assert_allclose(w, w_star, atol=1e-12)

    def test_tiny_budget_falls_through_to_stage2(self, two_flow_network):
        _, H, g = init_state(two_flow_network)
        cfg = DualControlConfig(T=1, p=1e-3, epsilon=1e-4, F=control_setup(two_flow_network, H))
        split = build_splitting(two_flow_network, H, g)
        w, cert = run_dual_with_error_control(two_flow_network, H, split, cfg)
        assert cert.stage == 2
        assert cert.h_threshold is not None
        err, inexact = assumption_error(two_flow_network, H, g, w)
        lam_sq = float(np.sum(inexact * inexact * H))
        assert err <= cfg.p**2 * lam_sq + cfg.epsilon + 1e-12

    def test_accepted_iterates_satisfy_error_tolerance(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            net = draw_network(rng)
            _, H, g = init_state(net)
            cfg = DualControlConfig(
                T=int(rng.integers(1, 12)), p=1e-3, epsilon=1e-4,
                F=control_setup(net, H),
            )
            split = build_splitting(net, H, g)
            w, cert = run_dual_with_error_control(net, H, split, cfg)
            err, inexact = assumption_error(net, H, g, w)
            lam_sq = float(np.sum(inexact * inexact * H))
            assert err <= cfg.p**2 * lam_sq + cfg.epsilon + 1e-12, cert

    def test_fixed_point_distance_bound_along_runs(self):
        # sup-norm distance to the fixed point against the step-change bound
        rng = np.random.default_rng(101)
        for _ in range(15):
            net = draw_network(rng)
            _, H, g = init_state(net)
            F = control_setup(net, H)
            split = build_splitting(net, H, g)
            w_star = kkt_direction(net, H, g)[1]
            w = np.ones(net.num_links)
            amp = np.sqrt(net.num_links) / (1 - F)
            for _ in range(60):
                w_next = dual_step_matrix(split, w)
                lhs = np.abs(w_star - w).max()
                rhs = amp * np.abs(w_next - w).max()
                assert lhs <= rhs * (1 + 1e-9) + 1e-15
                w = w_next

    def test_tightened_threshold_keeps_the_tolerance(self, two_flow_network, monkeypatch):
        # target prices whose route price for source 0 is zero: near them the
        # retest certifies a smaller margin than the one h came from, so the
        # threshold is derived again, on some draws dozens of times
        net = two_flow_network
        derived = []
        original = netnewton.errorcontrol.stage2_h

        def counted(*args, **kwargs):
            derived[-1] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(netnewton.errorcontrol, "stage2_h", counted)
        for H, g in tightened_threshold_draws(net, 20):
            split = build_splitting(net, H, g)
            cfg = DualControlConfig.from_lambda1(
                spectral_radius(split), p=1e-3, epsilon=1e-4, T=1
            )
            derived.append(0)
            w, cert = run_dual_with_error_control(net, H, split, cfg)
            err, inexact = assumption_error(net, H, g, w)
            lam_sq = float(np.sum(inexact * inexact * H))
            assert err <= cfg.p**2 * lam_sq + cfg.epsilon + 1e-12, cert
        assert sum(n > 1 for n in derived) >= 10, derived

    def test_vanished_route_price_keeps_the_tolerance(self, two_flow_network):
        # target prices drawn from (-1, 1): on draw 1 a retest finds a route
        # price below 1e-14, so stage1_beta certifies beta = 0 and stage 2
        # derives its threshold from the epsilon cap alone
        net = two_flow_network
        rng = np.random.default_rng(3)
        for _ in range(2):
            H = rng.uniform(0.5, 2.0, 7)
            w_star = rng.uniform(-1.0, 1.0, 5)
            w_star[3] = -(w_star[0] + w_star[2])
        g = gradient_solved_at(net, H, w_star)
        split = build_splitting(net, H, g)
        cfg = DualControlConfig.from_lambda1(spectral_radius(split), p=1e-3, epsilon=1e-4, T=1)
        w, cert = run_dual_with_error_control(net, H, split, cfg)
        assert cert.stage == 2 and cert.beta == 0.0
        err, inexact = assumption_error(net, H, g, w)
        lam_sq = float(np.sum(inexact * inexact * H))
        assert err <= cfg.p**2 * lam_sq + cfg.epsilon + 1e-12, cert

    def test_iteration_cap_raises(self, two_flow_network):
        _, H, g = init_state(two_flow_network)
        cfg = DualControlConfig(
            T=1, p=1e-9, epsilon=1e-18, F=control_setup(two_flow_network, H), iter_cap=3
        )
        split = build_splitting(two_flow_network, H, g)
        with pytest.raises(RuntimeError, match="cap"):
            run_dual_with_error_control(two_flow_network, H, split, cfg)

    def test_metrics_accounting(self, two_flow_network):
        _, H, g = init_state(two_flow_network)
        cfg = DualControlConfig(T=3, p=1e-3, epsilon=1e-4, F=control_setup(two_flow_network, H))
        split = build_splitting(two_flow_network, H, g)
        w, cert = run_dual_with_error_control(two_flow_network, H, split, cfg)
        # one step's trace record, as the metrics read it
        step = SimpleNamespace(certificate=cert, summation_rounds=3,
                               consensus_rounds=consensus_rounds(two_flow_network, cert))
        metrics = MessageMetrics.from_trace(two_flow_network, [step], 1)
        assert metrics.dual_rounds == cert.dual_iters
        assert metrics.dual_feedbacks == metrics.dual_pushes == 2 * metrics.dual_rounds  # S = 2
        assert (metrics.init_pushes, metrics.init_feedbacks) == (4, 2)
        assert metrics.consensus_execs == cert.consensus_passes >= 2
        assert metrics.consensus_rounds == metrics.consensus_execs * two_flow_network.comm_diameter
        assert (metrics.summation_rounds, metrics.aux_construction_rounds) == (3, 1)

    def test_warm_start_is_copied(self):
        # the sweeps write into two buffers in turn, neither the warm start
        rng = np.random.default_rng(100)
        for k in range(12):
            net = draw_network(rng)
            _, H, g = init_state(net)
            cfg = DualControlConfig(
                T=1 + k % 12, p=1e-3, epsilon=1e-4, F=control_setup(net, H)
            )
            split = build_splitting(net, H, g)
            warm = rng.uniform(-1.0, 2.0, net.num_links)
            kept = warm.copy()
            w, _ = run_dual_with_error_control(net, H, split, cfg, warm)
            assert np.array_equal(warm, kept)
            assert not np.shares_memory(w, warm)

    def test_buffered_sweep_matches_the_allocating_sweep(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            net = draw_network(rng)
            _, H, g = init_state(net)
            split = build_splitting(net, H, g)
            w = rng.normal(size=net.num_links)
            out = np.empty_like(w)
            assert dual_step_matrix(split, w, out) is out
            assert np.array_equal(out, dual_step_matrix(split, w))

    def test_contraction_factor_from_lambda1(self):
        cfg = DualControlConfig.from_lambda1(0.5, p=1e-3, epsilon=1e-4)
        assert cfg.F == pytest.approx(0.525)  # 5% headroom
        assert cfg.T == 4  # 0.525**4 < 0.1 < 0.525**3
        # near 1 the headroom is capped at half the gap
        assert DualControlConfig.from_lambda1(0.95, 1e-3, 1e-4).F == pytest.approx(0.975)
        floor = DualControlConfig.from_lambda1(0.0, 1e-3, 1e-4)
        assert floor.F == 1e-6 and floor.T == 2
        assert DualControlConfig.from_lambda1(0.5, 1e-3, 1e-4, T=7).T == 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DualControlConfig(T=0, p=1e-3, epsilon=1e-4, F=0.5)
        with pytest.raises(ValueError):
            DualControlConfig(T=2, p=1e-3, epsilon=1e-4, F=1.0)
        with pytest.raises(ValueError):
            DualControlConfig(T=2, p=0.0, epsilon=1e-4, F=0.5)
        with pytest.raises(ValueError):
            DualControlConfig(T=2, p=1e-3, epsilon=0.0, F=0.5)
        # NaN and infinity fail every check, and a count is an integer >= 1
        # that is not a bool; each message names its field
        nan, inf = float("nan"), float("inf")
        bad = [("epsilon", nan), ("epsilon", inf), ("F", nan), ("p", nan),
               ("T", nan), ("T", 2.5), ("T", True), ("T", -3),
               ("iter_cap", nan), ("iter_cap", 0), ("iter_cap", True), ("iter_cap", 2.0)]
        for name, value in bad:
            settings = dict(T=2, p=1e-3, epsilon=1e-4, F=0.5, iter_cap=10)
            settings[name] = value
            with pytest.raises(ValueError, match=f"^{name} must"):
                DualControlConfig(**settings)
        DualControlConfig(T=np.int64(1), p=1e-3, epsilon=1e-4, F=0.5, iter_cap=1)
