import numpy as np
import pytest

from netnewton import (
    BarrierProblem,
    DualControlConfig,
    build_auxiliary_graph,
    build_splitting,
    compute_theta,
    eval_grad,
    eval_hessian_diag,
    feasible_init,
    inexact_decrement,
    kkt_direction,
    primal_direction,
    random_network,
    reference_solve,
    run_dual_with_error_control,
)
from netnewton.direction import _check_saddle, stacked_kkt_direction

from conftest import draw_network, init_state, random_positive_state


class TestPrimalDirection:
    def test_matches_oracle_at_exact_prices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            net = draw_network(rng)
            _, H, g = random_positive_state(net, rng)
            exact, w_star = kkt_direction(net, H, g)
            inexact = primal_direction(net, H, g, w_star)
            tol = 1e-9 * (1.0 + np.abs(exact).max())
            assert np.abs(inexact - exact).max() <= tol

    def test_vanishes_at_stationarity(self, two_flow_network):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.5, 2.0, 5)
        H = rng.uniform(0.5, 2.0, 7)
        g = -(two_flow_network.incidence.T @ w)
        d = primal_direction(two_flow_network, H, g, w)
        np.testing.assert_allclose(d, np.zeros(7), atol=1e-14)
        assert inexact_decrement(d, H) == pytest.approx(0.0, abs=1e-14)

    def test_minimal_closed_form(self, tiny_network):
        g = np.array([0.8, -0.1])
        H = np.array([2.5, 1.0])
        w = np.array([0.3])
        d = primal_direction(tiny_network, H, g, w)
        expected = -(g[0] + w[0]) / H[0]
        assert d[0] == pytest.approx(expected)
        assert d[1] == pytest.approx(-expected)

    def test_flow_conservation_for_any_prices(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            net = draw_network(rng)
            _, H, g = random_positive_state(net, rng)
            w = rng.normal(size=net.num_links) * 10
            d = primal_direction(net, H, g, w)
            for step in (0.1, 1.0, 7.0):
                assert np.abs(net.incidence @ (step * d)).max() <= 1e-10 * (
                    1.0 + np.abs(d).max()
                )


class TestSaddleCheck:
    def test_perturbed_direction_or_prices_raise(self):
        # a relative 1e-6 error in delta fails the scaled tolerance at the
        # feasible start of family draws and at capacities near 1e12; one in
        # w does on the family, where the prices are of the gradient's size
        # (near 1e12 they are many orders below it)
        rng = np.random.default_rng(7)
        for k in range(16):
            caps = (20.0, 50.0) if k % 2 else (1e12, 2e12)
            net = random_network(15, 8, 0.5, [7, k], capacity_range=caps)
            x = feasible_init(net).values
            prob = BarrierProblem(net)
            H, g = eval_hessian_diag(prob, x)[None], eval_grad(prob, x)[None]
            A = net.incidence[None]
            delta, w = stacked_kkt_direction(A, H, g)
            price = (A.transpose(0, 2, 1) @ w[..., None])[..., 0]
            _check_saddle(A, H, g, delta, price)
            for r in (rng.choice([-1.0, 1.0], delta.shape), rng.uniform(-1.0, 1.0, delta.shape)):
                with pytest.raises(AssertionError, match="saddle residual"):
                    _check_saddle(A, H, g, delta * (1.0 + 1e-6 * r), price)
            if caps[0] > 1e6:
                continue
            r = rng.choice([-1.0, 1.0], w.shape)
            moved = (A.transpose(0, 2, 1) @ (w * (1.0 + 1e-6 * r))[..., None])[..., 0]
            with pytest.raises(AssertionError, match="saddle residual"):
                _check_saddle(A, H, g, delta, moved)


    def test_ill_conditioned_dual_solve_raises(self, two_flow_network):
        # rates of curvature 1e-10 with no gradient make A H^-1 A' nearly
        # singular, and LU leaves a dual residual near 1e-6 of the
        # right-hand side: rejected, also beside a sound system in a stack
        H, g = np.ones((2, 7)), np.ones((2, 7))
        H[1, :2], g[1, :2] = 1e-10, 0.0
        A = two_flow_network.incidence[None]
        stacked_kkt_direction(A, H[:1], g[:1])
        with pytest.raises(AssertionError, match="dual solve residual"):
            stacked_kkt_direction(A, H, g)


class TestDecrements:
    def test_zero_direction(self):
        assert inexact_decrement(np.zeros(4), np.ones(4)) == 0.0

    def test_unit_vector_identity_hessian(self):
        e = np.zeros(5)
        e[2] = 1.0
        assert inexact_decrement(e, np.ones(5)) == 1.0

    def test_nonnegative_at_random_points(self):
        rng = np.random.default_rng(3)
        net = draw_network(rng)
        _, H, g = random_positive_state(net, rng)
        assert inexact_decrement(kkt_direction(net, H, g)[0], H) >= 0.0

    def test_exact_decrement_small_at_barrier_optimum(self, two_flow_network):
        prob = BarrierProblem(two_flow_network, mu=1.0)
        res = reference_solve(prob, tol=1e-12)
        x = res.x
        from netnewton import eval_grad, eval_hessian_diag

        H = eval_hessian_diag(prob, x)
        g = eval_grad(prob, x)
        assert inexact_decrement(kkt_direction(two_flow_network, H, g)[0], H) <= 1e-6

    def test_matches_distributed_aggregation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            net = draw_network(rng)
            _, H, g = random_positive_state(net, rng)
            w = rng.normal(size=net.num_links)
            d = primal_direction(net, H, g, w)
            aux = build_auxiliary_graph(net)
            theta, _ = compute_theta(net, aux, d, H)
            assert theta == pytest.approx(inexact_decrement(d, H), rel=1e-12, abs=1e-15)

    def test_error_sandwich_with_certified_prices(self):
        # |exact - inexact| <= p * inexact + sqrt(epsilon) once certified
        rng = np.random.default_rng(5)
        p, eps = 1e-3, 1e-4
        for _ in range(10):
            net = draw_network(rng)
            _, H, g = init_state(net)
            from netnewton import build_dual_graph, spectral_radius

            lam1 = spectral_radius(build_dual_graph(net, H))
            cfg = DualControlConfig.from_lambda1(lam1, p, eps, T=5)
            split = build_splitting(net, H, g)
            w, _ = run_dual_with_error_control(net, H, split, cfg)
            lam_tilde = inexact_decrement(primal_direction(net, H, g, w), H)
            lam = inexact_decrement(kkt_direction(net, H, g)[0], H)
            assert (1 - p) * lam_tilde - np.sqrt(eps) <= lam + 1e-12
            assert lam <= (1 + p) * lam_tilde + np.sqrt(eps) + 1e-12
