import json

import numpy as np
import pytest

from netnewton import (
    BarrierProblem,
    InvalidNetworkError,
    LogUtility,
    PrimalVector,
    QuadraticUtility,
    build_network,
    eval_f,
    eval_grad,
    eval_h,
    eval_hessian_diag,
    feasibility_residual,
    feasible_init,
    load_network,
    save_network,
)
from netnewton.model import utility_terms

from conftest import TWO_FLOW_ROUTING, draw_network


class TestBuildNetwork:
    def test_two_flow_topology_valid(self, two_flow_network):
        assert two_flow_network.num_links == 5
        assert two_flow_network.num_sources == 2
        assert two_flow_network.link_sources[2] == (0, 1)  # the shared link
        assert two_flow_network.routes[0] == (0, 2, 3)

    def test_minimal_instance(self, tiny_network):
        assert tiny_network.num_links == 1
        assert tiny_network.num_sources == 1

    def test_all_zero_column_rejected(self):
        with pytest.raises(InvalidNetworkError, match="source"):
            build_network([[1, 0], [1, 0]], [1, 1], [LogUtility(), LogUtility()])

    def test_all_zero_row_rejected(self):
        with pytest.raises(InvalidNetworkError, match="link"):
            build_network([[1, 1], [0, 0]], [1, 1], [LogUtility(), LogUtility()])

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(InvalidNetworkError, match="capacit"):
            build_network([[1]], [0.0], [LogUtility()])

    def test_disconnected_links_rejected(self):
        routing = [[1, 0], [0, 1]]  # two links, no shared flow
        with pytest.raises(InvalidNetworkError, match="connected"):
            build_network(routing, [1, 1], [LogUtility(), LogUtility()])

    def test_low_log_weight_fails_self_concordance(self):
        with pytest.raises(InvalidNetworkError, match="self-concordance"):
            build_network([[1]], [1.0], [LogUtility(0.5)])

    def test_quadratic_decreasing_below_capacity_rejected(self):
        # marginal utility hits zero at 0.5, below the capacity of 2
        with pytest.raises(InvalidNetworkError, match="decreasing"):
            build_network([[1]], [2.0], [QuadraticUtility(slope=1.0, curvature=2.0)])

    def test_quadratic_valid_when_monotone_on_range(self):
        net = build_network([[1]], [2.0], [QuadraticUtility(slope=1.0, curvature=0.25)])
        assert net.utilities[0].curvature == 0.25

    def test_route_order_preserved(self):
        net = build_network(
            TWO_FLOW_ROUTING, [1, 1, 2, 1, 1], [LogUtility()] * 2,
            routes=[(3, 0, 2), (1, 2, 4)],
        )
        assert net.routes[0] == (3, 0, 2)

    def test_route_mismatch_rejected(self):
        with pytest.raises(InvalidNetworkError, match="route"):
            build_network(
                TWO_FLOW_ROUTING, [1, 1, 2, 1, 1], [LogUtility()] * 2,
                routes=[(0, 2), (1, 2, 4)],
            )


class TestFeasibleInit:
    def test_two_flow_values(self, two_flow_network):
        x0 = feasible_init(two_flow_network)
        np.testing.assert_allclose(x0.rates, [1 / 3, 1 / 3])
        np.testing.assert_allclose(x0.slacks, [2 / 3, 2 / 3, 4 / 3, 2 / 3, 2 / 3])

    def test_minimal_values(self, tiny_network):
        x0 = feasible_init(tiny_network)
        np.testing.assert_allclose(x0.values, [0.5, 0.5])

    def test_exact_feasibility_on_random_networks(self):
        # exact up to one rounding of the slack construction itself
        rng = np.random.default_rng(42)
        for _ in range(30):
            net = draw_network(rng)
            x0 = feasible_init(net)
            assert np.all(x0.values > 0)
            np.testing.assert_allclose(
                net.routing @ x0.rates + x0.slacks, net.capacities, rtol=1e-15
            )


class TestEvaluation:
    def test_log_source_coordinate_plugin(self, tiny_network):
        # mu=1, scale=1, U=log, source coordinate at 1
        prob = BarrierProblem(tiny_network, mu=1.0)
        x = np.array([1.0, 2.0])
        g = eval_grad(prob, x)
        H = eval_hessian_diag(prob, x)
        assert g[0] == pytest.approx(-2.0)
        assert H[0] == pytest.approx(2.0)
        # slack coordinate at 2
        assert g[1] == pytest.approx(-0.5)
        assert H[1] == pytest.approx(0.25)

    def test_gradient_matches_finite_differences(self, two_flow_network):
        rng = np.random.default_rng(0)
        prob = BarrierProblem(two_flow_network, mu=1.0, scale=1.5)
        x = rng.uniform(0.5, 2.0, 7)
        g = eval_grad(prob, x)
        step = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = step
            fd = (eval_f(prob, x + e) - eval_f(prob, x - e)) / (2 * step)
            assert g[i] == pytest.approx(fd, rel=1e-6)

    def test_hessian_matches_gradient_differences(self, two_flow_network):
        rng = np.random.default_rng(1)
        prob = BarrierProblem(two_flow_network, mu=2.0)
        x = rng.uniform(0.5, 2.0, 7)
        H = eval_hessian_diag(prob, x)
        step = 1e-6
        for i in range(7):
            e = np.zeros(7)
            e[i] = step
            fd = (eval_grad(prob, x + e)[i] - eval_grad(prob, x - e)[i]) / (2 * step)
            assert H[i] == pytest.approx(fd, rel=1e-5)

    def test_hessian_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            net = draw_network(rng)
            x = rng.uniform(0.2, 4.0, net.num_sources + net.num_links)
            prob = BarrierProblem(net, mu=1.0)
            H = eval_hessian_diag(prob, x)
            assert np.all(H >= prob.mu / x**2 - 1e-15)

    def test_nonpositive_point_rejected(self, tiny_network):
        prob = BarrierProblem(tiny_network)
        with pytest.raises(ValueError):
            eval_f(prob, np.array([1.0, 0.0]))

    def test_eval_h_log_at_one(self, two_flow_network):
        x = np.array([1.0, 1.0, 1, 1, 1, 1, 1])
        assert eval_h(two_flow_network, x) == 0.0

    def test_eval_h_weighted(self, congested_example):
        x = np.concatenate([np.full(3, 10.0), np.full(7, 1.0)])
        assert eval_h(congested_example, x) == pytest.approx(-3 * 15 * np.log(10))

    @pytest.mark.parametrize("method", ["value", "d1", "d2", "d3", "inverse_d1"])
    def test_utility_terms_match_scalar_methods(self, mixed_network, method):
        groups = mixed_network.utility_groups
        assert [idx.tolist() for idx, _ in groups] == [[0, 2, 4], [1, 3]]
        s = np.random.default_rng(5).uniform(0.1, 4.0, mixed_network.num_sources)
        expected = [float(getattr(u, method)(s[i])) for i, u in enumerate(mixed_network.utilities)]
        # array and scalar np.log may round apart by an ulp
        np.testing.assert_allclose(
            utility_terms(mixed_network, method, s), expected, rtol=4 * np.finfo(float).eps
        )

    def test_eval_h_equals_unbarriered_objective(self):
        rng = np.random.default_rng(3)
        net = draw_network(rng)
        x = rng.uniform(0.5, 3.0, net.num_sources + net.num_links)
        prob = BarrierProblem(net, mu=0.0)
        assert eval_h(net, x) == pytest.approx(eval_f(prob, x), rel=1e-12)


class TestPrimalVector:
    def test_checked_rejects_nonpositive(self, two_flow_network):
        with pytest.raises(ValueError, match="positive"):
            PrimalVector.checked(two_flow_network, np.zeros(7))

    def test_checked_rejects_infeasible(self, two_flow_network):
        with pytest.raises(ValueError, match="flow"):
            PrimalVector.checked(two_flow_network, np.ones(7))

    def test_residual_zero_at_init(self, two_flow_network):
        x0 = feasible_init(two_flow_network)
        assert feasibility_residual(two_flow_network, x0.values) == 0.0


class TestNetworkFiles:
    def test_round_trip(self, tmp_path, two_flow_network):
        path = tmp_path / "net.json"
        save_network(two_flow_network, path)
        loaded = load_network(path)
        np.testing.assert_array_equal(loaded.routing, two_flow_network.routing)
        np.testing.assert_array_equal(loaded.capacities, two_flow_network.capacities)
        assert loaded.routes == two_flow_network.routes
        assert [u.to_dict() for u in loaded.utilities] == [
            u.to_dict() for u in two_flow_network.utilities
        ]

    def test_round_trip_quadratic_params(self, tmp_path):
        net = build_network(
            [[1, 1]], [2.0],
            [LogUtility(3.0), QuadraticUtility(slope=5.0, curvature=1.0)],
        )
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        quad = loaded.utilities[1]
        assert quad.slope == 5.0 and quad.curvature == 1.0

    def test_round_trip_preserves_route_order(self, tmp_path):
        net = build_network(
            TWO_FLOW_ROUTING, [1, 1, 2, 1, 1], [LogUtility()] * 2,
            routes=[(3, 0, 2), (4, 1, 2)],
        )
        path = tmp_path / "net.json"
        save_network(net, path)
        assert load_network(path).routes == ((3, 0, 2), (4, 1, 2))

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidNetworkError, match="malformed"):
            load_network(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"links": [1.0]}))
        with pytest.raises(InvalidNetworkError):
            load_network(path)

    def test_unknown_link_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"links": [1.0], "sources": [{"route": [3], "utility": {"family": "log"}}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidNetworkError, match="unknown link"):
            load_network(path)


class TestBarrierProblem:
    def test_negative_mu_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            BarrierProblem(tiny_network, mu=-1.0)

    def test_nonpositive_scale_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            BarrierProblem(tiny_network, scale=0.0)
