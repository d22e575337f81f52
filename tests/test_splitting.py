from dataclasses import replace

import numpy as np
import pytest

from netnewton import (
    build_network,
    build_dual_graph,
    build_splitting,
    dual_step_distributed,
    dual_step_matrix,
    init_dual_state,
    kkt_direction,
    random_network,
    spectral_diagnostics,
    spectral_radius,
    weighted_max_cut,
    LogUtility,
)
from netnewton.splitting import DualState

from conftest import draw_network, example_state, init_state, random_positive_state


class TestBuildSplitting:
    def test_two_flow_hand_values(self, two_flow_network):
        # unit Hessian: A H^-1 A' = R R' + I
        ones = np.ones(7)
        split = build_splitting(two_flow_network, ones, np.zeros(7))
        np.testing.assert_allclose(split.dk, [2, 2, 3, 2, 2])
        np.testing.assert_allclose(split.bbar, [2, 2, 4, 2, 2])
        rrt = np.array(two_flow_network.routing) @ np.array(two_flow_network.routing).T
        np.testing.assert_allclose(split.bk, rrt - np.diag(np.diag(rrt)))

    def test_minimal_instance(self, tiny_network):
        split = build_splitting(tiny_network, np.ones(2), np.zeros(2))
        np.testing.assert_allclose(split.dk, [2.0])
        np.testing.assert_allclose(split.bk, [[0.0]])
        np.testing.assert_allclose(split.bbar, [0.0])

    def test_diagonal_dominance_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = draw_network(rng)
            _, H, g = random_positive_state(net, rng)
            split = build_splitting(net, H, g)
            q = np.diag(split.dk + 2 * split.bbar) - split.bk
            for l in range(net.num_links):
                off = np.abs(q[l]).sum() - abs(q[l, l])
                assert q[l, l] > off

    def test_dimension_mismatch_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            build_splitting(tiny_network, np.ones(3), np.zeros(3))


PIECES = ("dk", "bk", "bbar", "rhs", "denom", "iteration_matrix", "offset")


class TestFreshSplits:
    def test_fresh_splits_own_their_pieces(self):
        # every build allocates its own pieces, draw after draw on one
        # network as in a solve; the iteration matrix is read-only and its
        # zeros, where two links share no source, are +0.0
        rng = np.random.default_rng(31)
        zeros = 0
        for _ in range(12):
            net = draw_network(rng)
            last = None
            for _ in range(4):
                _, H, g = random_positive_state(net, rng)
                H = H * 10.0 ** rng.uniform(-6, 6, len(H))
                split = build_splitting(net, H, g)
                m = split.iteration_matrix
                assert not m.flags.writeable
                assert not np.signbit(m[m == 0.0]).any()
                zeros += int((m == 0.0).sum())
                if last is not None:
                    for piece in PIECES:
                        assert not np.shares_memory(getattr(split, piece), getattr(last, piece))
                last = split
        assert zeros > 0


class TestDualIteration:
    def test_fixed_point(self, two_flow_network):
        rng = np.random.default_rng(2)
        x, H, g = random_positive_state(two_flow_network, rng)
        split = build_splitting(two_flow_network, H, g)
        w_star = kkt_direction(two_flow_network, H, g)[1]
        w_next = dual_step_matrix(split, w_star)
        np.testing.assert_allclose(w_next, w_star, rtol=0, atol=1e-12 * np.abs(w_star).max())

    def test_minimal_converges_in_one_step(self, tiny_network):
        g = np.array([0.7, -1.3])
        split = build_splitting(tiny_network, np.ones(2), g)
        w = dual_step_matrix(split, np.array([123.0]))
        np.testing.assert_allclose(w, split.rhs / split.dk)

    def test_exact_solve_minimal(self, tiny_network):
        g = np.array([0.4, 2.2])
        w = kkt_direction(tiny_network, np.ones(2), g)[1]
        assert w[0] == pytest.approx(-(g[0] + g[1]) / 2)

    def test_geometric_decay_two_flow(self, two_flow_network):
        x, H, g = init_state(two_flow_network)
        split = build_splitting(two_flow_network, H, g)
        w_star = kkt_direction(two_flow_network, H, g)[1]
        lam1 = spectral_radius(build_dual_graph(two_flow_network, H))
        w = np.zeros(5)
        errs = []
        for _ in range(80):
            errs.append(np.abs(w - w_star).max())
            w = dual_step_matrix(split, w)
        assert errs[-1] <= 1e-9 * max(1.0, np.abs(w_star).max())
        # envelope with the constant fitted on the first few sweeps
        alpha = max(errs[t] / lam1**t for t in range(3)) * 1.5
        for t, err in enumerate(errs):
            assert err <= alpha * lam1**t + 1e-13

    def test_distributed_matches_matrix_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            net = draw_network(rng)
            _, H, g = random_positive_state(net, rng)
            split = build_splitting(net, H, g)
            w = rng.normal(size=net.num_links) * rng.uniform(0.1, 10)
            state = init_dual_state(net, H, w)
            stepped = dual_step_distributed(net, H, g, state)
            expected = dual_step_matrix(split, w)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(stepped.w - expected).max() <= 1e-12 * scale
            assert stepped.t == state.t + 1
            # cached aggregates are recomputable from the prices
            np.testing.assert_allclose(
                stepped.route_price, net.routing.T @ stepped.w, rtol=1e-12
            )

    def test_minimal_distributed_single_step(self, tiny_network):
        g = np.array([0.9, -0.2])
        H = np.array([2.0, 4.0])
        state = init_dual_state(tiny_network, H, np.zeros(1))
        stepped = dual_step_distributed(tiny_network, H, g, state)
        # denominator: 1/H_slack + Pi0; numerator: -(g_src/H_src) - g_slack/H_slack
        expected = (-(g[0] / H[0]) - g[1] / H[1]) / (1 / H[1] + 1 / H[0])
        assert stepped.w[0] == pytest.approx(expected, rel=1e-14)

    def test_two_flow_distributed_hand_step(self, two_flow_network):
        # unit Hessian, prices start at zero, gradient 1..7
        g = np.arange(1.0, 8.0)
        H = np.ones(7)
        state = init_dual_state(two_flow_network, H, np.zeros(5))
        stepped = dual_step_distributed(two_flow_network, H, g, state)
        expected = np.array([
            -(1 + 3) / 4,        # link 0: source 0 crosses, route length 3
            -(2 + 4) / 4,
            -(1 + 2 + 5) / 7,    # shared link: both sources, lengths 3 + 3
            -(1 + 6) / 4,
            -(2 + 7) / 4,
        ])
        np.testing.assert_allclose(stepped.w, expected, rtol=1e-14)

    def test_link_update_reads_only_crossing_sources(self):
        # perturbing the route aggregate of a source that does not cross a
        # link must leave that link's update untouched
        rng = np.random.default_rng(8)
        for _ in range(10):
            net = draw_network(rng)
            _, H, g = random_positive_state(net, rng)
            w = rng.normal(size=net.num_links)
            state = init_dual_state(net, H, w)
            base = dual_step_distributed(net, H, g, state)
            for l in range(net.num_links):
                outside = [
                    i for i in range(net.num_sources)
                    if i not in net.link_sources[l]
                ]
                if not outside:
                    continue
                tampered = state.weighted_price.copy()
                tampered[outside] += rng.normal(size=len(outside)) * 100
                stepped = dual_step_distributed(
                    net, H, g, replace(state, weighted_price=tampered)
                )
                assert stepped.w[l] == base.w[l]
                break

    def test_exact_solve_two_flow_residual(self, two_flow_network):
        rng = np.random.default_rng(13)
        _, H, g = random_positive_state(two_flow_network, rng)
        w = kkt_direction(two_flow_network, H, g)[1]
        A = two_flow_network.incidence
        G = (A * (1 / H)) @ A.T
        rhs = -(A * (1 / H)) @ g
        assert np.abs(G @ w - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_exact_solve_rejects_unusable_hessian(self, two_flow_network, bad):
        # the LU solve would return prices for an indefinite or non-finite
        # system, so the exact solve checks H as build_splitting does
        H = np.ones(7)
        H[2] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            kkt_direction(two_flow_network, H, np.zeros(7))

    def test_uninitialized_aggregate_rejected(self, tiny_network):
        state = DualState(
            w=np.zeros(1), t=0, route_price=np.zeros(1),
            weighted_price=np.zeros(1), weighted_price0=None,
        )
        with pytest.raises(ValueError, match="all-ones"):
            dual_step_distributed(tiny_network, np.ones(2), np.zeros(2), state)


class TestSpectral:
    def test_contraction_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            net = draw_network(rng)
            _, H, _ = random_positive_state(net, rng)
            assert spectral_radius(build_dual_graph(net, H)) < 1.0

    def test_contraction_on_large_instances(self):
        rng = np.random.default_rng(10)
        for links in (35, 50):
            net = random_network(links, 20, 0.3, rng.integers(0, 2**31))
            _, H, _ = random_positive_state(net, rng)
            assert spectral_radius(build_dual_graph(net, H)) < 1.0

    def test_no_eigenvalue_below_zero(self):
        # the iteration matrix is similar to the scaled weighted Laplacian
        # denom^-1/2 (diag(Bbar) - B) denom^-1/2 of the link coupling graph,
        # so its bottom eigenvalue is 0 up to rounding and lambda1 is its top
        rng = np.random.default_rng(29)
        for _ in range(40):
            L, S = int(rng.integers(2, 30)), int(rng.integers(2, 16))
            net = random_network(L, S, 0.5, rng.integers(0, 2**31),
                                 capacity_range=(1e-3, 1e3))
            _, H, _ = random_positive_state(net, rng)
            graph = build_dual_graph(net, H * 10.0 ** rng.uniform(-6, 6, len(H)))
            scale = np.sqrt(graph.denom)
            sym = graph.iteration_matrix * scale[:, None] / scale[None, :]
            eigs = np.linalg.eigvalsh((sym + sym.T) / 2)
            top = spectral_radius(graph)
            assert top == pytest.approx(eigs[-1], rel=1e-12, abs=1e-15)
            assert eigs[0] >= -1e-12 * max(top, 1.0)

    def test_similarity_to_symmetric(self):
        rng = np.random.default_rng(19)
        net = draw_network(rng)
        _, H, _ = random_positive_state(net, rng)
        graph = build_dual_graph(net, H)
        scale = np.sqrt(graph.denom)
        sym = graph.iteration_matrix * scale[:, None] / scale[None, :]
        assert np.abs(sym - sym.T).max() <= 1e-12 * max(1.0, np.abs(sym).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, two_flow_network, bad):
        # checked before the eigensolve, which would return nan eigenvalues
        split = build_dual_graph(two_flow_network, np.ones(7))
        m = split.iteration_matrix.copy()
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            spectral_radius(replace(split, iteration_matrix=m))

    def test_congested_example_matches_reported_values(self, congested_example):
        _, H, _ = example_state(congested_example)
        report = spectral_diagnostics(build_dual_graph(congested_example, H))
        assert report.max_out_degree == pytest.approx(0.4615, abs=5e-3)
        assert report.upper_bound == pytest.approx(0.92, abs=5e-3)
        assert report.max_cut == pytest.approx(0.52, abs=5e-3)
        assert report.lower_bound == pytest.approx(0.30, abs=5e-3)
        assert report.lambda1 == pytest.approx(0.47, abs=0.05)
        assert report.lower_bound <= report.lambda1 <= report.upper_bound

    def test_spread_example_matches_reported_values(self, spread_example):
        _, H, _ = example_state(spread_example)
        report = spectral_diagnostics(build_dual_graph(spread_example, H))
        assert report.max_out_degree == pytest.approx(0.095, abs=2e-3)
        assert report.upper_bound == pytest.approx(0.19, abs=5e-3)
        assert report.lambda1 == pytest.approx(0.12, abs=0.05)
        assert report.lower_bound <= report.lambda1 <= report.upper_bound

    def test_single_shared_link_bounds(self):
        net = build_network([[1, 1, 1]], [3.0], [LogUtility(2.0)] * 3)
        _, H, _ = init_state(net)
        report = spectral_diagnostics(build_dual_graph(net, H))
        # a single link has no coupling at all
        assert report.lambda1 == pytest.approx(0.0, abs=1e-12)
        assert report.max_cut == 0.0
        assert report.lower_bound <= report.lambda1 <= report.upper_bound

    def test_enumeration_limit_skips_cut(self, two_flow_network):
        _, H, _ = init_state(two_flow_network)
        report = spectral_diagnostics(
            build_dual_graph(two_flow_network, H), max_cut_limit=3
        )
        assert report.max_cut is None
        assert report.lower_bound is None
        assert report.lambda1 is not None

    def test_max_cut_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            net = draw_network(rng, max_links=7)
            _, H, _ = random_positive_state(net, rng)
            graph = build_dual_graph(net, H)
            both = graph.weights + graph.weights.T
            L = net.num_links
            best = 0.0
            for mask in range(1, 2 ** (L - 1)):
                t = np.array([(mask >> i) & 1 for i in range(L)], dtype=bool)
                best = max(best, both[np.ix_(t, ~t)].sum())
            assert weighted_max_cut(graph) == pytest.approx(best, rel=1e-12)
