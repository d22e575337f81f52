import itertools
import math

import numpy as np
import pytest

from netnewton import (
    LogUtility,
    build_auxiliary_graph,
    build_network,
    compute_theta,
    distributed_sum,
    inexact_decrement,
)

from conftest import draw_network, random_positive_state
from oracles import sigma


def check_structure(network, aux):
    """The six structural facts every companion graph must satisfy."""
    S = network.num_sources
    # 1. ownership only among crossing sources
    for l, owners in enumerate(aux.theta):
        assert set(owners) <= set(network.link_sources[l])
    # 2. adjacency exactly when a common ownership set contains both
    adj = {(i, j) for i, j, _ in aux.edges}
    for i, j in itertools.combinations(range(S), 2):
        shared = any({i, j} <= set(owners) for owners in aux.theta)
        assert ((i, j) in adj) == shared
    # 3. no multi-edges (edges stored keyed by endpoint pair)
    assert len(adj) == len(aux.edges)
    # 4. connected
    assert len(aux.neighborhood(0, S)) == S
    # 5. no empty ownership set
    assert all(len(owners) >= 1 for owners in aux.theta)
    # 6. mixed-label simple cycles are impossible: the bipartite membership
    # graph (sources vs multi-owner links) must be acyclic
    parent = list(range(S + network.num_links))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for l in aux.l_star:
        for i in aux.theta[l]:
            ra, rb = find(i), find(S + l)
            assert ra != rb, "mixed-label cycle in the companion graph"
            parent[ra] = rb


class TestConstruction:
    def test_two_flow_hand_trace(self, two_flow_network):
        aux = build_auxiliary_graph(two_flow_network)
        assert aux.theta == ((0,), (1,), (0, 1), (0,), (1,))
        assert aux.edges == ((0, 1, 2),)
        assert aux.l_star == frozenset({2})
        np.testing.assert_array_equal(
            aux.l_star_incidence, [[0, 0], [0, 0], [1, 1], [0, 0], [0, 0]]
        )
        assert aux.rounds == two_flow_network.num_sources - 1

    def test_single_source(self, tiny_network):
        aux = build_auxiliary_graph(tiny_network)
        assert aux.edges == ()
        assert aux.theta == ((0,),)
        assert aux.rounds == 0

    def test_shared_link_forms_clique(self):
        net = build_network([[1, 1, 1, 1]], [5.0], [LogUtility(2.0)] * 4)
        aux = build_auxiliary_graph(net)
        assert len(aux.edges) == 6  # complete graph on four sources
        assert aux.theta[0] == (0, 1, 2, 3)

    def test_runs_exactly_sources_minus_one_rounds(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            net = draw_network(rng)
            aux = build_auxiliary_graph(net)
            assert aux.rounds == net.num_sources - 1

    def test_structure_on_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            net = draw_network(rng)
            check_structure(net, build_auxiliary_graph(net))

    def test_no_mixed_label_simple_cycles_bruteforce(self):
        # independent check of fact 6 by enumerating simple cycles
        rng = np.random.default_rng(15)
        for _ in range(20):
            net = draw_network(rng, max_links=8, max_sources=6)
            aux = build_auxiliary_graph(net)
            nbrs = aux.neighbors
            label = {(min(i, j), max(i, j)): l for i, j, l in aux.edges}
            S = net.num_sources
            for length in range(3, S + 1):
                for cycle in itertools.permutations(range(S), length):
                    if cycle[0] != min(cycle):
                        continue  # canonical rotation
                    pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
                    if not all(b in nbrs[a] for a, b in pairs):
                        continue
                    labels = {label[(min(a, b), max(a, b))] for a, b in pairs}
                    assert len(labels) == 1


class TestDistributedSum:
    def test_all_zero_inputs(self, two_flow_network):
        aux = build_auxiliary_graph(two_flow_network)
        run = distributed_sum(two_flow_network, aux, np.zeros(2), np.zeros(5))
        assert np.all(run.y_hist == 0) and np.all(run.z_hist == 0)

    def test_two_sources_one_link(self):
        net = build_network([[1, 1]], [4.0], [LogUtility()] * 2)
        aux = build_auxiliary_graph(net)
        run = distributed_sum(net, aux, np.array([1.0, 2.0]), np.array([3.0]))
        np.testing.assert_allclose(run.y_final, [9.0, 9.0])
        np.testing.assert_allclose(run.z_final, [9.0])
        assert run.rounds == 2

    def test_final_value_is_global_sum_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            net = draw_network(rng)
            aux = build_auxiliary_graph(net)
            y_star = rng.normal(size=net.num_sources) ** 2
            z_star = rng.normal(size=net.num_links) ** 2
            run = distributed_sum(net, aux, y_star, z_star)
            expected = sigma(net, range(net.num_sources), y_star, z_star)
            scale = max(1.0, abs(expected))
            assert np.abs(run.y_final - expected).max() <= 1e-12 * scale
            assert np.abs(run.z_final - expected).max() <= 1e-12 * scale

    def test_partial_sums_match_neighborhood_oracle(self, two_flow_network):
        rng = np.random.default_rng(5)
        aux = build_auxiliary_graph(two_flow_network)
        y_star = rng.uniform(0, 2, 2)
        z_star = rng.uniform(0, 2, 5)
        run = distributed_sum(two_flow_network, aux, y_star, z_star)
        S = two_flow_network.num_sources
        for t in range(1, S + 1):
            for i in range(S):
                want = sigma(two_flow_network, aux.neighborhood(i, t), y_star, z_star)
                assert run.y_hist[t, i] == pytest.approx(want, rel=1e-12)
            for l in range(two_flow_network.num_links):
                reach = frozenset().union(
                    *(aux.neighborhood(i, t - 1) for i in aux.theta[l])
                )
                want = sigma(two_flow_network, reach, y_star, z_star)
                assert run.z_hist[t, l] == pytest.approx(want, rel=1e-12)

    def test_early_termination_with_diameter(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            net = draw_network(rng)
            aux = build_auxiliary_graph(net)
            y_star = rng.uniform(0, 1, net.num_sources)
            z_star = rng.uniform(0, 1, net.num_links)
            short = distributed_sum(net, aux, y_star, z_star, rounds=aux.diameter + 1)
            expected = sigma(net, range(net.num_sources), y_star, z_star)
            scale = max(1.0, abs(expected))
            assert np.abs(short.y_final - expected).max() <= 1e-12 * scale
            assert np.abs(short.z_final - expected).max() <= 1e-12 * scale

    def test_negative_rounds_rejected(self, two_flow_network):
        aux = build_auxiliary_graph(two_flow_network)
        with pytest.raises(ValueError, match="rounds"):
            distributed_sum(two_flow_network, aux, np.zeros(2), np.zeros(5), rounds=-1)

    def test_wrong_input_length_rejected(self, two_flow_network):
        aux = build_auxiliary_graph(two_flow_network)
        with pytest.raises(ValueError):
            distributed_sum(two_flow_network, aux, np.zeros(3), np.zeros(5))


class TestComputeTheta:
    def test_equals_decrement(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            net = draw_network(rng)
            aux = build_auxiliary_graph(net)
            _, H, _ = random_positive_state(net, rng)
            delta = rng.normal(size=net.num_sources + net.num_links)
            # keep the flow-conservation structure the stepsize scalar assumes
            delta[net.num_sources:] = -(net.routing @ delta[: net.num_sources])
            theta, rounds = compute_theta(net, aux, delta, H)
            assert rounds == aux.diameter + 1
            assert theta == pytest.approx(
                inexact_decrement(delta, H), rel=1e-12, abs=1e-15
            )

    def test_zero_direction_gives_zero(self, two_flow_network):
        aux = build_auxiliary_graph(two_flow_network)
        theta, _ = compute_theta(two_flow_network, aux, np.zeros(7), np.ones(7))
        assert theta == 0.0

    def test_buffered_aggregation_matches_the_allocating_form(self):
        # compute_theta writes its inputs in place; theta keeps the bits of
        # the square root of the sum distributed_sum aggregates
        rng = np.random.default_rng(12)
        for _ in range(15):
            net = draw_network(rng)
            aux = build_auxiliary_graph(net)
            S = net.num_sources
            for _ in range(3):
                _, H, _ = random_positive_state(net, rng)
                delta = rng.normal(size=S + net.num_links)
                delta[S:] = -(net.routing @ delta[:S])
                y_star = delta[:S] ** 2 * H[:S]
                z_star = delta[S:] ** 2 * H[S:] / net.crossing_counts
                run = distributed_sum(net, aux, y_star, z_star, rounds=aux.diameter + 1)
                expected = math.sqrt(max(run.y_final[0], 0.0))
                theta, rounds = compute_theta(net, aux, delta, H)
                assert (repr(theta), rounds) == (repr(expected), aux.diameter + 1)
