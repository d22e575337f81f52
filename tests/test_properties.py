"""Property-based checks on small drawn instances."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from netnewton import FirstOrderConfig, LogUtility, QuadraticUtility, build_network  # noqa: E402
from netnewton.baselines import _price_iteration  # noqa: E402
from netnewton.model import InvalidNetworkError  # noqa: E402

from oracles import oracle_price_iteration  # noqa: E402
from test_baselines import assert_same_run  # noqa: E402


@st.composite
def small_networks(draw):
    """1-4 links and 1-4 sources, each source on a non-empty set of links,
    with log and quadratic utilities mixed; a quadratic break point lies
    at 1-3 times the largest capacity, so it can fall below the default
    cap of twice that capacity."""
    L = draw(st.integers(1, 4))
    S = draw(st.integers(1, 4))
    routes = [
        draw(st.sets(st.integers(0, L - 1), min_size=1, max_size=L)) for _ in range(S)
    ]
    routing = np.zeros((L, S))
    for i, route in enumerate(routes):
        routing[sorted(route), i] = 1.0
    capacities = draw(st.lists(st.floats(0.1, 50.0), min_size=L, max_size=L))
    utilities = []
    for _ in range(S):
        if draw(st.booleans()):
            utilities.append(LogUtility(draw(st.floats(1.0, 20.0))))
        else:
            curvature = draw(st.floats(0.01, 2.0))
            break_point = draw(st.floats(1.0, 3.0)) * max(capacities)
            utilities.append(QuadraticUtility(break_point * curvature, curvature))
    try:
        return build_network(routing, capacities, utilities)
    except InvalidNetworkError:
        assume(False)  # an unused link, or links that share no flow


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    net=small_networks(),
    scaled=st.booleans(),
    stepsize=st.floats(-4.0, 0.3).map(lambda e: 10.0**e),
    rate_cap=st.sampled_from([None, 0.5, 1e15]),
    max_iters=st.integers(1, 600),
    stable_window=st.integers(1, 60),
    rel_change_tol=st.sampled_from([1e-6, 1e-3]),
    h_ref=st.one_of(st.none(), st.floats(-50.0, 50.0)),
)
def test_price_iteration_matches_oracle(
    net, scaled, stepsize, rate_cap, max_iters, stable_window, rel_change_tol, h_ref
):
    cfg = FirstOrderConfig(
        stepsize=stepsize, max_iters=max_iters, stable_window=stable_window,
        rel_change_tol=rel_change_tol, rate_cap=rate_cap,
    )
    with np.errstate(all="ignore"):
        try:
            expected = oracle_price_iteration(net, cfg, h_ref, scaled)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=f"^{exc}$"):
                _price_iteration(net, cfg, h_ref, scaled)
            return
    assert_same_run(_price_iteration(net, cfg, h_ref, scaled), expected)
