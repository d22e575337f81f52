"""Problem instances: network topology, utilities, and the barrier objective.

A problem instance is a fixed routing structure (which links each source
crosses), per-link capacities, and a strictly concave utility per source.
Rate allocation is solved on the equality-constrained reformulation with
slack variables and a logarithmic barrier, so every evaluation here works
on the stacked vector x = (rates, slacks) of length S + L.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "LogUtility",
    "QuadraticUtility",
    "UTILITY_FAMILIES",
    "Network",
    "BarrierProblem",
    "PrimalVector",
    "build_network",
    "feasible_init",
    "eval_f",
    "eval_grad",
    "eval_hessian_diag",
    "eval_h",
    "utility_terms",
    "load_network",
    "save_network",
    "utility_from_dict",
]

FEASIBILITY_RTOL = 1e-9

# Sample grid for the curvature checks at construction time. Covers the
# rate range any feasible allocation can reach (rates never exceed the
# largest capacity) with generous margin on both sides.
_CHECK_GRID = np.logspace(-6, 6, 121)


class InvalidNetworkError(ValueError):
    """Raised when an instance violates the structural requirements."""


@dataclass(frozen=True)
class LogUtility:
    """Weighted logarithmic utility, U(s) = weight * log(s).

    The weight must be at least 1, otherwise the negated utility is not
    self-concordant and the Newton analysis breaks down.
    """

    weight: float = 1.0

    family = "log"

    def value(self, s):
        return self.weight * np.log(s)

    def d1(self, s):
        return self.weight / s

    def d2(self, s):
        return -self.weight / s**2

    def d3(self, s):
        return 2.0 * self.weight / s**3

    def inverse_d1(self, price):
        """Rate at which marginal utility equals the given price."""
        return self.weight / price

    def to_dict(self):
        return {"family": "log", "weight": self.weight}


@dataclass(frozen=True)
class QuadraticUtility:
    """Concave quadratic utility, U(s) = slope * s - 0.5 * curvature * s**2.

    Requires curvature > 0. Monotonicity only holds below slope/curvature,
    so instances must keep every capacity under that break point; this is
    checked against the actual capacities in build_network.
    """

    slope: float
    curvature: float

    family = "quadratic"

    def value(self, s):
        return self.slope * s - 0.5 * self.curvature * s**2

    def d1(self, s):
        return self.slope - self.curvature * s

    def d2(self, s):
        return -self.curvature * np.ones_like(np.asarray(s, dtype=float))

    def d3(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def inverse_d1(self, price):
        return (self.slope - price) / self.curvature

    def to_dict(self):
        return {"family": "quadratic", "slope": self.slope, "curvature": self.curvature}


UTILITY_FAMILIES = {"log": LogUtility, "quadratic": QuadraticUtility}


def utility_from_dict(spec: dict):
    kind = spec.get("family")
    if kind not in UTILITY_FAMILIES:
        raise InvalidNetworkError(f"unknown utility family {kind!r}")
    params = {k: v for k, v in spec.items() if k != "family"}
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in params.values()):
        raise InvalidNetworkError(f"utility parameters must be numbers, got {params}")
    return UTILITY_FAMILIES[kind](**params)


def _check_utility(u, s_max: float, index: int) -> None:
    """Reject utilities that are not strictly concave, nondecreasing on the
    reachable rate range, or whose negation fails the self-concordance
    inequality |U'''| <= 2 (-U'')**1.5 on a logarithmic sample grid.
    """
    grid = _CHECK_GRID
    d2 = np.asarray(u.d2(grid), dtype=float)
    if not np.all(d2 < 0):
        raise InvalidNetworkError(f"utility {index} is not strictly concave")
    d3 = np.abs(np.asarray(u.d3(grid), dtype=float))
    if not np.all(d3 <= 2.0 * (-d2) ** 1.5 * (1.0 + 1e-9)):
        raise InvalidNetworkError(f"utility {index} fails the self-concordance check")
    # Monotone on (0, s_max]: rates can never exceed the largest capacity.
    lo = grid[grid <= s_max]
    probe = np.append(lo, s_max)
    if not np.all(np.asarray(u.d1(probe), dtype=float) >= -1e-12):
        raise InvalidNetworkError(
            f"utility {index} is decreasing below the maximum capacity {s_max}"
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable problem instance.

    routing is the L x S binary incidence matrix (entry (l, i) is 1 when
    link l is on the route of source i). routes stores each source's links
    in traversal order, which the signalling procedures rely on.
    """

    routing: np.ndarray
    capacities: np.ndarray
    utilities: tuple
    routes: tuple

    @property
    def num_links(self) -> int:
        return self.routing.shape[0]

    @property
    def num_sources(self) -> int:
        return self.routing.shape[1]

    @cached_property
    def incidence(self) -> np.ndarray:
        """The L x (S + L) constraint matrix [routing, identity]."""
        return _frozen(np.hstack([self.routing, np.eye(self.num_links)]))

    @cached_property
    def link_sources(self) -> tuple:
        """For each link, the tuple of source indices crossing it."""
        return tuple(
            tuple(np.nonzero(self.routing[l])[0].tolist())
            for l in range(self.num_links)
        )

    @cached_property
    def comm_neighbors(self) -> tuple:
        """Bipartite exchange graph: nodes 0..S-1 are sources, S..S+L-1 links.

        A source and a link are neighbors exactly when the link is on the
        source's route; this is the graph every aggregation pass runs over.
        """
        S, L = self.num_sources, self.num_links
        nbrs = [set() for _ in range(S + L)]
        for i, route in enumerate(self.routes):
            for l in route:
                nbrs[i].add(S + l)
                nbrs[S + l].add(i)
        return tuple(frozenset(n) for n in nbrs)

    @cached_property
    def comm_diameter(self) -> int:
        return _graph_diameter(self.comm_neighbors)

    @cached_property
    def utility_groups(self) -> tuple:
        """Per utility family: (its source indices, one instance of its
        dataclass whose parameters are arrays over those sources)."""
        members = {}
        for i, u in enumerate(self.utilities):
            members.setdefault(type(u), []).append(i)
        return tuple(
            (np.array(idx), family(**{
                f.name: np.array([getattr(self.utilities[i], f.name) for i in idx])
                for f in fields(family)
            }))
            for family, idx in members.items()
        )

    def __repr__(self):  # arrays make the default repr unusable
        return f"Network(L={self.num_links}, S={self.num_sources})"


def _graph_diameter(neighbors) -> int:
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


def build_network(routing, capacities, utilities, routes=None) -> Network:
    """Validate and assemble a Network.

    Rejects instances with an unused link or a source crossing no link,
    nonpositive capacities, a link structure that does not hang together
    under shared flows, and utilities that fail the concavity or
    self-concordance checks. When routes is omitted, each route is the
    ascending list of that source's links.
    """
    R = np.asarray(routing, dtype=float)
    if R.ndim != 2:
        raise InvalidNetworkError("routing must be a 2-d incidence matrix")
    if not np.all((R == 0) | (R == 1)):
        raise InvalidNetworkError("routing entries must be 0 or 1")
    L, S = R.shape
    c = np.asarray(capacities, dtype=float)
    if c.shape != (L,):
        raise InvalidNetworkError(f"expected {L} capacities, got shape {c.shape}")
    if len(utilities) != S:
        raise InvalidNetworkError(f"expected {S} utilities, got {len(utilities)}")
    if np.any(R.sum(axis=1) < 1):
        raise InvalidNetworkError("every link must be used by at least one source")
    if np.any(R.sum(axis=0) < 1):
        raise InvalidNetworkError("every source must traverse at least one link")
    if np.any(c <= 0):
        raise InvalidNetworkError("capacities must be strictly positive")

    if routes is None:
        routes = tuple(
            tuple(np.nonzero(R[:, i])[0].tolist()) for i in range(S)
        )
    else:
        routes = tuple(tuple(int(l) for l in r) for r in routes)
        for i, route in enumerate(routes):
            if sorted(route) != np.nonzero(R[:, i])[0].tolist():
                raise InvalidNetworkError(
                    f"route of source {i} does not match the routing matrix"
                )

    net = Network(_frozen(R), _frozen(c), tuple(utilities), routes)
    # With no unused link and no unrouted source, the links hang together
    # under shared flows exactly when the exchange graph is connected.
    net.comm_diameter

    s_max = float(c.max())
    for i, u in enumerate(utilities):
        _check_utility(u, s_max, i)
    return net


@dataclass(frozen=True)
class BarrierProblem:
    """Barrier-reformulated objective over x = (rates, slacks).

    f(x) = -scale * sum_i U_i(x_i) - mu * sum_j log(x_j)

    mu >= 1 is required whenever the Newton solver runs on the problem
    (the objective is self-concordant only then); evaluation itself allows
    any mu >= 0 so references and diagnostics can use the same code.
    """

    network: Network
    mu: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.scale <= 0:
            raise ValueError("objective scale must be positive")


@dataclass(frozen=True)
class PrimalVector:
    """Strictly positive, flow-conserving point of the barrier problem."""

    values: np.ndarray
    num_sources: int

    @property
    def rates(self):
        return self.values[: self.num_sources]

    @property
    def slacks(self):
        return self.values[self.num_sources:]

    @classmethod
    def checked(cls, network: Network, values, rtol: float = FEASIBILITY_RTOL):
        x = np.asarray(values, dtype=float)
        if x.shape != (network.num_sources + network.num_links,):
            raise ValueError("primal vector has the wrong length")
        if np.any(x <= 0):
            raise ValueError("primal vector must be strictly positive")
        resid = feasibility_residual(network, x)
        if resid > rtol:
            raise ValueError(f"flow conservation violated: residual {resid:.3e}")
        return cls(_frozen(x), network.num_sources)


def feasibility_residual(network: Network, x) -> float:
    """Relative sup-norm violation of routing @ rates + slacks = capacities."""
    c = network.capacities
    ax = network.incidence @ np.asarray(x, dtype=float)
    return float(np.abs(ax - c).max() / np.abs(c).max())


def feasible_init(network: Network) -> PrimalVector:
    """Interior starting point: every rate is c_min / (S + 1), slacks absorb
    the rest. Feasible by construction and strictly positive."""
    S = network.num_sources
    rate = network.capacities.min() / (S + 1)
    rates = np.full(S, rate)
    slacks = network.capacities - network.routing @ rates
    x = np.concatenate([rates, slacks])
    assert np.all(x > 0)
    return PrimalVector.checked(network, x)


def _as_values(x) -> np.ndarray:
    if isinstance(x, PrimalVector):
        return x.values
    return np.asarray(x, dtype=float)


def _split(problem: BarrierProblem, x):
    vals = _as_values(x)
    if np.any(vals <= 0):
        raise ValueError("objective is only defined for strictly positive x")
    S = problem.network.num_sources
    return vals, vals[:S], vals[S:]


def utility_terms(network: Network, method: str, s) -> np.ndarray:
    """Entry i is network.utilities[i].<method>(s[i]) for the utility method
    named (value, d1, d2, d3 or inverse_d1), evaluated family by family."""
    groups = network.utility_groups
    if len(groups) == 1:
        return getattr(groups[0][1], method)(s)
    out = np.empty(network.num_sources)
    for idx, stacked in groups:
        out[idx] = getattr(stacked, method)(s[idx])
    return out


def eval_f(problem: BarrierProblem, x) -> float:
    vals, s, _ = _split(problem, x)
    util = float(utility_terms(problem.network, "value", s).sum())
    return -problem.scale * util - problem.mu * float(np.sum(np.log(vals)))


def eval_grad(problem: BarrierProblem, x) -> np.ndarray:
    vals, s, _ = _split(problem, x)
    g = -problem.mu / vals
    g[: len(s)] -= problem.scale * utility_terms(problem.network, "d1", s)
    return g


def eval_hessian_diag(problem: BarrierProblem, x) -> np.ndarray:
    vals, s, _ = _split(problem, x)
    h = problem.mu / vals**2
    h[: len(s)] -= problem.scale * utility_terms(problem.network, "d2", s)
    if problem.mu == 0 and np.any(h <= 0):
        raise ValueError("hessian is not positive definite without the barrier")
    return h


def eval_h(network: Network, x) -> float:
    """Negated total utility over the rate coordinates (no barrier, no scale)."""
    s = _as_values(x)[: network.num_sources]
    return -float(utility_terms(network, "value", s).sum())


# ---------------------------------------------------------------------------
# network files
#
# Schema: {"links": [capacity, ...],
#          "sources": [{"route": [link index, ...],
#                       "utility": {"family": ..., <params>}}, ...]}
# Link indices are zero-based and route order is preserved on round-trip.
# ---------------------------------------------------------------------------


def network_to_dict(network: Network) -> dict:
    return {
        "links": [float(c) for c in network.capacities],
        "sources": [
            {"route": list(network.routes[i]), "utility": u.to_dict()}
            for i, u in enumerate(network.utilities)
        ],
    }


def save_network(network: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(network), indent=2) + "\n")


def load_network(path) -> Network:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidNetworkError(f"malformed network file {path}: {exc}") from exc
    try:
        capacities = [float(c) for c in doc["links"]]
        sources = doc["sources"]
        routes = [list(entry["route"]) for entry in sources]
        utilities = [utility_from_dict(entry["utility"]) for entry in sources]
    except (KeyError, TypeError, AttributeError) as exc:
        raise InvalidNetworkError(f"network file {path} is malformed: {exc}") from exc
    L, S = len(capacities), len(sources)
    routing = np.zeros((L, S))
    for i, route in enumerate(routes):
        for l in route:
            if isinstance(l, bool) or not isinstance(l, int) or not 0 <= l < L:
                raise InvalidNetworkError(f"route of source {i} names unknown link {l!r}")
            routing[l, i] = 1.0
    return build_network(routing, capacities, utilities, routes=routes)
