import numpy as np
import pytest

from netnewton import (
    BarrierProblem,
    LogUtility,
    QuadraticUtility,
    build_network,
    eval_grad,
    eval_hessian_diag,
    feasible_init,
    random_network,
)

TWO_FLOW_ROUTING = [
    [1, 0],
    [0, 1],
    [1, 1],
    [1, 0],
    [0, 1],
]


@pytest.fixture
def two_flow_network():
    return build_network(TWO_FLOW_ROUTING, [1, 1, 2, 1, 1], [LogUtility(1.0)] * 2)


@pytest.fixture
def mixed_network():
    """Log and quadratic sources interleaved, so neither family's sources
    are contiguous; every capacity sits below each quadratic break point."""
    routing = [[1, 1, 0, 0, 1], [0, 1, 1, 1, 0], [1, 0, 1, 0, 1]]
    utilities = [
        LogUtility(2.0), QuadraticUtility(1.0, 0.01), LogUtility(3.0),
        QuadraticUtility(2.0, 0.05), LogUtility(1.5),
    ]
    return build_network(routing, [5.0, 10.0, 8.0], utilities)


@pytest.fixture
def tiny_network():
    return build_network([[1]], [1.0], [LogUtility(1.0)])


def three_flow_example(spread: bool):
    """Reconstructions of the two three-source seven-link topologies used
    for the congestion discussion: every flow crosses link 3 in the
    congested one; at most two flows share any link in the spread one."""
    if spread:
        routes = [(0, 3, 4), (1, 3, 5), (2, 5, 6)]
    else:
        routes = [(0, 3, 4), (1, 3, 5), (2, 3, 6)]
    routing = np.zeros((7, 3))
    for i, r in enumerate(routes):
        for l in r:
            routing[l, i] = 1.0
    return build_network(routing, [35.0] * 7, [LogUtility(15.0)] * 3, routes=routes)


@pytest.fixture
def congested_example():
    return three_flow_example(spread=False)


@pytest.fixture
def spread_example():
    return three_flow_example(spread=True)


def example_state(net, rate=10.0, mu=1.0):
    """Hessian and gradient at equal rates with the implied slacks."""
    rates = np.full(net.num_sources, rate)
    slacks = net.capacities - net.routing @ rates
    x = np.concatenate([rates, slacks])
    prob = BarrierProblem(net, mu)
    return x, eval_hessian_diag(prob, x), eval_grad(prob, x)


def random_positive_state(net, rng, mu=1.0):
    """A synthetic strictly positive (not necessarily feasible) point."""
    S, L = net.num_sources, net.num_links
    x = rng.uniform(0.3, 5.0, S + L)
    prob = BarrierProblem(net, mu)
    return x, eval_hessian_diag(prob, x), eval_grad(prob, x)


def init_state(net, mu=1.0):
    x = feasible_init(net).values
    prob = BarrierProblem(net, mu)
    return x, eval_hessian_diag(prob, x), eval_grad(prob, x)


def draw_network(rng, max_links=12, max_sources=8, min_links=2, min_sources=2):
    L = int(rng.integers(min_links, max_links + 1))
    S = int(rng.integers(min_sources, max_sources + 1))
    return random_network(L, S, 0.5, rng.integers(0, 2**31))
