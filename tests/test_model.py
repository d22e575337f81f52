import json
from dataclasses import fields

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
    random_network,
    save_network,
)
from netnewton import build_auxiliary_graph
from netnewton.model import (
    _graph_diameter,
    barrier_grad,
    barrier_hessian_diag,
    barrier_objective,
    network_stacks,
    take_trials,
    utility_method,
)

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

    # each was rejected only by a later check, or accepted (inf weight or slope)
    @pytest.mark.parametrize("utility", [
        LogUtility(float("inf")), LogUtility(float("nan")), LogUtility(-float("inf")),
        QuadraticUtility(slope=float("inf"), curvature=1.0),
        QuadraticUtility(slope=float("nan"), curvature=1.0),
        QuadraticUtility(slope=1.0, curvature=float("inf")),
    ], ids=repr)
    def test_non_finite_utility_parameter_rejected(self, utility):
        with pytest.raises(InvalidNetworkError,
                           match=r"^utility 1 has a non-finite parameter: .*Utility\("):
            build_network([[1, 1]], [1.0], [LogUtility(2.0), utility])

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


def bfs_diameter(neighbors) -> int:
    """Oracle for _graph_diameter: a breadth-first search from every node."""
    n = len(neighbors)
    diam = 0
    for start in range(n):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < n:
            raise InvalidNetworkError("communication graph is disconnected")
        diam = max(diam, max(dist.values()))
    return diam


def adjacency_of(neighbors) -> np.ndarray:
    n = len(neighbors)
    adjacency = np.zeros((n, n), dtype=bool)
    for i, nbrs in enumerate(neighbors):
        adjacency[i, list(nbrs)] = True
    return adjacency


class TestGraphDiameter:
    def test_line_graphs(self):
        for n in range(1, 9):
            nbrs = [{j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)]
            assert _graph_diameter(adjacency_of(nbrs)) == bfs_diameter(nbrs) == n - 1

    def test_star_graphs(self):
        for n in range(2, 9):
            nbrs = [set(range(1, n))] + [{0}] * (n - 1)
            want = 1 if n == 2 else 2
            assert _graph_diameter(adjacency_of(nbrs)) == bfs_diameter(nbrs) == want

    def test_random_graphs(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 25))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
            adjacency = upper | upper.T
            nbrs = [set(np.nonzero(row)[0].tolist()) for row in adjacency]
            try:
                want = bfs_diameter(nbrs)
            except InvalidNetworkError:
                with pytest.raises(InvalidNetworkError, match="disconnected"):
                    _graph_diameter(adjacency)
                continue
            assert _graph_diameter(adjacency) == want
            checked += 1
        assert checked >= 20

    def test_network_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = draw_network(rng)
            assert net.comm_diameter == bfs_diameter(net.comm_neighbors)
            aux = build_auxiliary_graph(net)
            assert aux.diameter == bfs_diameter(aux.neighbors)

    def test_disconnected_graph_raises(self):
        nbrs = [{1}, {0}, {3}, {2}]
        with pytest.raises(InvalidNetworkError, match="disconnected"):
            _graph_diameter(adjacency_of(nbrs))


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
            utility_method(mixed_network, method)(s), expected, rtol=4 * np.finfo(float).eps
        )

    @pytest.mark.parametrize("method", ["value", "d1", "d2", "d3", "inverse_d1"])
    def test_utility_terms_rows_match_vector_calls(self, mixed_network, method):
        rows = np.random.default_rng(6).uniform(0.1, 4.0, (7, mixed_network.num_sources))
        terms = utility_method(mixed_network, method)
        stacked = terms(rows)
        assert stacked.shape == rows.shape
        for row, out in zip(rows, stacked):
            assert np.array_equal(out, terms(row))

    def test_log_d2_bits_match_negated_weight_quotient(self):
        # d2 negates the weight once per instance; negation is exact, so
        # every call returns the bits of -weight / s**2
        rng = np.random.default_rng(8)
        weights = rng.uniform(5.0, 15.0, 8)
        s = rng.uniform(0.01, 50.0, (4, 8))
        for u in (LogUtility(weights), LogUtility(float(weights[0]))):
            for _ in range(2):
                assert np.array_equal(u.d2(s), -u.weight / s**2)

    def test_evaluations_keep_their_allocating_bits(self, mixed_network):
        # f and h from one utility evaluation keep the bits of the forms
        # before them, and the bound gradient and Hessian those of the
        # per-call utility evaluations
        rng = np.random.default_rng(9)
        net = mixed_network
        S = net.num_sources
        d1, d2, value = (utility_method(net, m) for m in ("d1", "d2", "value"))
        for mu, scale in [(1.0, 1.0), (3.0, 1.0), (1.0, 37.5)] * 10:
            x = rng.uniform(0.1, 3.0, S + net.num_links)
            g = -mu / x
            g[:S] -= scale * utility_method(net, "d1")(x[:S])
            H = mu / x**2
            H[:S] -= scale * utility_method(net, "d2")(x[:S])
            util = float(utility_method(net, "value")(x[:S]).sum())
            f = -scale * util - mu * float(np.sum(np.log(x)))
            assert barrier_grad(x, S, mu, scale, d1).tobytes() == g.tobytes()
            assert barrier_hessian_diag(x, S, mu, scale, d2).tobytes() == H.tobytes()
            assert barrier_objective(x, S, mu, scale, value) == (f, -util)
            prob = BarrierProblem(net, mu, scale)
            assert (repr(eval_f(prob, x)), repr(eval_h(net, x))) == (repr(f), repr(-util))

    def test_eval_h_equals_unbarriered_objective(self):
        rng = np.random.default_rng(3)
        net = draw_network(rng)
        x = rng.uniform(0.5, 3.0, net.num_sources + net.num_links)
        prob = BarrierProblem(net, mu=0.0)
        assert eval_h(net, x) == pytest.approx(eval_f(prob, x), rel=1e-12)


def check_utility_oracle(u, s_max, index):
    """Oracle for build_network's utility checks: the per-utility check it
    ran for each utility in turn before it checked each family once."""
    grid = np.logspace(-6, 6, 121)
    d2 = np.asarray(u.d2(grid), dtype=float)
    if not np.all(d2 < 0):
        raise InvalidNetworkError(f"utility {index} is not strictly concave")
    d3 = np.abs(np.asarray(u.d3(grid), dtype=float))
    if not np.all(d3 <= 2.0 * (-d2) ** 1.5 * (1.0 + 1e-9)):
        raise InvalidNetworkError(f"utility {index} fails the self-concordance check")
    lo = grid[grid <= s_max]
    probe = np.append(lo, s_max)
    if not np.all(np.asarray(u.d1(probe), dtype=float) >= -1e-12):
        raise InvalidNetworkError(
            f"utility {index} is decreasing below the maximum capacity {s_max}"
        )


def draw_utility(rng, s_max):
    """A log or quadratic utility; half of them fail one of the checks."""
    slope = float(rng.uniform(0.5, 2.0))
    kind = rng.integers(8)
    if kind < 3:
        return LogUtility(float(rng.uniform(1.0, 20.0)))
    if kind < 5:  # break point above the capacities
        return QuadraticUtility(slope, slope / (s_max * rng.uniform(1.01, 3.0)))
    return [
        LogUtility(float(rng.uniform(0.01, 0.999))),  # fails self-concordance
        LogUtility(float(-rng.uniform(0.5, 5.0))),  # not concave
        QuadraticUtility(slope, slope / (s_max * rng.uniform(0.1, 0.99))),  # decreasing
    ][kind - 5]


def test_utility_checks_match_the_per_utility_oracle():
    # the first failing utility and its first failing check name the error
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(300):
        S = int(rng.integers(1, 7))
        caps = [float(10.0 ** rng.uniform(-2, 3))]
        utilities = [draw_utility(rng, caps[0]) for _ in range(S)]
        try:
            for i, u in enumerate(utilities):
                check_utility_oracle(u, caps[0], i)
            expected = None
        except InvalidNetworkError as exc:
            expected = str(exc)
        try:
            build_network(np.ones((1, S)), caps, utilities)
            got = None
        except InvalidNetworkError as exc:
            got = str(exc)
        assert got == expected
        outcomes.add(got and got.split(maxsplit=2)[2][:12])
    # accepted, and each check failed
    assert outcomes == {None, "is not stric", "fails the se", "is decreasin"}

class TestPrimalVector:
    def test_checked_rejects_nonpositive(self, two_flow_network):
        with pytest.raises(ValueError, match="positive"):
            PrimalVector.checked(two_flow_network, np.zeros(7))

    def test_checked_rejects_infeasible(self, two_flow_network):
        with pytest.raises(ValueError, match="flow"):
            PrimalVector.checked(two_flow_network, np.ones(7))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_checked_rejects_non_finite(self, two_flow_network, bad):
        x = feasible_init(two_flow_network).values.copy()
        x[0] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            PrimalVector.checked(two_flow_network, x)

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

    # "12" iterates as the strings "1" and "2"
    @pytest.mark.parametrize("links", [[True, 2.5], [1.0, "2.5"], [1.0, None], "12"])
    def test_non_numeric_capacities_rejected(self, tmp_path, links):
        path = tmp_path / "bad.json"
        doc = {"links": links,
               "sources": [{"route": [0, 1], "utility": {"family": "log", "weight": 1.0}}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidNetworkError, match="capacities must be numbers"):
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

    @pytest.mark.parametrize("field", ["mu", "scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, tiny_network, field, value):
        with pytest.raises(ValueError, match=field):
            BarrierProblem(tiny_network, **{field: value})


MIXED_ROUTING = [[1, 1, 0, 0, 1], [0, 1, 1, 1, 0], [1, 0, 1, 0, 1]]


def mixed_variant(k: int):
    """The mixed_network fixture's layout with parameters that differ by k."""
    utilities = [
        LogUtility(2.0 + k), QuadraticUtility(1.0 + k, 0.01), LogUtility(3.0),
        QuadraticUtility(2.0, 0.05 / (k + 1)), LogUtility(1.5 * (k + 1)),
    ]
    return build_network(MIXED_ROUTING, [5.0, 10.0, 8.0 + k], utilities)


def assert_same_groups(got, want):
    assert len(got) == len(want)
    for (idx, u), (idx_want, u_want) in zip(got, want):
        assert type(u) is type(u_want)
        np.testing.assert_array_equal(idx, idx_want)
        for f in fields(u_want):
            a, b = getattr(u, f.name), getattr(u_want, f.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNetworkStacks:
    def test_stacks_follow_the_key_in_order_of_first_appearance(self, mixed_network):
        # the last network has the mixed shape (L, S) but one utility family
        nets = [mixed_variant(0), random_network(15, 8, 0.5, 1), mixed_network,
                random_network(15, 8, 0.5, 2), mixed_variant(1), random_network(6, 4, 0.5, 3),
                build_network(MIXED_ROUTING, [5.0, 10.0, 8.0], [LogUtility(2.0)] * 5)]
        stacks = network_stacks(nets)
        assert [members for members, _, _ in stacks] == [[0, 2, 4], [1, 3], [5], [6]]
        for members, A, groups in stacks:
            np.testing.assert_array_equal(A, [nets[i].incidence for i in members])
            for t, i in enumerate(members):
                for (idx, u), (idx_one, u_one) in zip(groups, nets[i].utility_groups):
                    np.testing.assert_array_equal(idx, idx_one)
                    for f in fields(u_one):
                        np.testing.assert_array_equal(getattr(u, f.name)[t], getattr(u_one, f.name))
        assert network_stacks([]) == []

    @pytest.mark.parametrize("family", ["mixed", "log"])
    def test_taken_trials_equal_their_own_stack_bit_for_bit(self, mixed_network, family):
        if family == "mixed":  # two utility families, interleaved
            nets = [mixed_network] + [mixed_variant(k) for k in range(1, 4)]
        else:
            nets = [random_network(15, 8, 0.5, [7, k]) for k in range(4)]
        (_, A, groups), = network_stacks(nets)
        for keep in ([2], [0, 3], [1, 2, 3], np.array([True, False, True, True])):
            taken = np.arange(len(nets))[keep]
            (_, A_own, groups_own), = network_stacks([nets[i] for i in taken])
            assert A[keep].tobytes() == A_own.tobytes()
            assert_same_groups(take_trials(groups, keep), groups_own)
