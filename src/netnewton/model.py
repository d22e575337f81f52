"""Problem instances: network topology, utilities, and the barrier objective.

A problem instance is a fixed routing structure (which links each source
crosses), per-link capacities, and a strictly concave utility per source.
Rate allocation is solved on the equality-constrained reformulation with
slack variables and a logarithmic barrier, so every evaluation here works
on the stacked vector x = (rates, slacks) of length S + L.
"""

from __future__ import annotations

import json
import numbers
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
    "utility_method",
    "group_method",
    "network_stacks",
    "take_trials",
    "barrier_objective",
    "barrier_grad",
    "barrier_hessian_diag",
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
    nonnegative_response = True  # inverse_d1 is the weight (at least 1) over the price

    def value(self, s):
        return self.weight * np.log(s)

    def d1(self, s):
        return self.weight / s

    def d2(self, s):
        return self._minus_weight / s**2

    def d3(self, s):
        return 2.0 * self.weight / s**3

    def inverse_d1(self, price):
        """Rate at which marginal utility equals the given price."""
        return self.weight / price

    @cached_property
    def _minus_weight(self):
        """-weight, negated once rather than on every d2 call (the
        diagonal baseline calls d2 once per price update); negation is
        exact, so d2's bits do not change."""
        return -self.weight

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


def _is_number(value, kind=numbers.Real) -> bool:
    """True when value is an instance of the numbers ABC kind and not a bool:
    a bool is an Integral and a Real, but true is not a count or a capacity."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer >= 1."""
    if not _is_number(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not value >= 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


def utility_from_dict(spec: dict):
    kind = spec.get("family")
    if kind not in UTILITY_FAMILIES:
        raise InvalidNetworkError(f"unknown utility family {kind!r}")
    params = {k: v for k, v in spec.items() if k != "family"}
    if not all(_is_number(v) for v in params.values()):
        raise InvalidNetworkError(f"utility parameters must be numbers, got {params}")
    return UTILITY_FAMILIES[kind](**params)


def _check_utilities(network: "Network", s_max: float) -> None:
    """Reject utilities with a non-finite parameter, then those that are
    not strictly concave, nondecreasing on the reachable rate range, or
    whose negation fails the self-concordance inequality
    |U'''| <= 2 (-U'')**1.5 on a logarithmic sample grid.

    Each utility family is checked once, over its stacked parameters; the
    error names the first failing utility and the first check it fails.
    """
    grid = _CHECK_GRID[:, None]
    # monotone on (0, s_max]: rates can never exceed the largest capacity
    probe = np.append(_CHECK_GRID[_CHECK_GRID <= s_max], s_max)[:, None]
    S = network.num_sources
    finite, concave, concordant, monotone = (np.empty(S, dtype=bool) for _ in range(4))
    for idx, u in network.utility_groups:
        finite[idx] = np.all([np.isfinite(getattr(u, f.name)) for f in fields(u)], axis=0)
    if not finite.all():
        index = int(np.argmin(finite))
        raise InvalidNetworkError(
            f"utility {index} has a non-finite parameter: {network.utilities[index]!r}")

    def holds(condition, idx):
        return np.broadcast_to(condition, (len(condition), len(idx))).all(axis=0)

    # a utility that fails one check may overflow or go NaN in the next
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, u in network.utility_groups:
            d2 = np.asarray(u.d2(grid), dtype=float)
            d3 = np.abs(np.asarray(u.d3(grid), dtype=float))
            concave[idx] = holds(d2 < 0, idx)
            concordant[idx] = holds(d3 <= 2.0 * (-d2) ** 1.5 * (1.0 + 1e-9), idx)
            monotone[idx] = holds(np.asarray(u.d1(probe), dtype=float) >= -1e-12, idx)
    failed = ~(concave & concordant & monotone)
    if not failed.any():
        return
    index = int(np.argmax(failed))
    if not concave[index]:
        raise InvalidNetworkError(f"utility {index} is not strictly concave")
    if not concordant[index]:
        raise InvalidNetworkError(f"utility {index} fails the self-concordance check")
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
    def capacity_scale(self) -> float:
        """The largest |capacity|, which feasibility_residual divides by."""
        return np.abs(self.capacities).max()

    @cached_property
    def crossing_counts(self) -> np.ndarray:
        """For each link, the number of sources crossing it."""
        return _frozen(self.routing.sum(axis=1))

    @cached_property
    def route_lengths(self) -> np.ndarray:
        """For each source, the number of links on its route."""
        return _frozen(self.routing.T @ np.ones(self.num_links))

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
        """Diameter of the exchange graph of comm_neighbors."""
        S, L = self.num_sources, self.num_links
        adjacency = np.zeros((S + L, S + L), dtype=bool)
        adjacency[:S, S:] = self.routing.T
        adjacency[S:, :S] = self.routing
        return _graph_diameter(adjacency)

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


def _graph_diameter(adjacency) -> int:
    """Longest shortest path of the undirected graph with this boolean
    adjacency matrix (0 for a single node).

    Every node's reached set grows by one hop per round, all nodes at once
    through one product with A + I; the diameter is the number of rounds
    until every set holds every node. The products count paths, which
    stay exact in floats. A round that reaches nothing new before then
    means the graph is disconnected.
    """
    n = len(adjacency)
    hop = np.asarray(adjacency, dtype=float) + np.eye(n)
    reached = np.eye(n)  # 0/1 floats, so the product runs on BLAS
    count, diam = n, 0
    while count < n * n:
        np.greater(reached @ hop, 0.0, reached)
        grown = np.count_nonzero(reached)
        if grown == count:
            raise InvalidNetworkError("communication graph is disconnected")
        count, diam = grown, diam + 1
    return diam


def build_network(routing, capacities, utilities, routes=None) -> Network:
    """Validate and assemble a Network.

    Rejects empty instances, instances with an unused link or a source
    crossing no link, capacities that are not finite and positive, a link
    structure that does not hang together under shared flows, and
    utilities that fail _check_utilities. When
    routes is omitted, each route is the ascending list of that source's
    links.
    """
    R = np.asarray(routing, dtype=float)
    if R.ndim != 2:
        raise InvalidNetworkError("routing must be a 2-d incidence matrix")
    if not np.all((R == 0) | (R == 1)):
        raise InvalidNetworkError("routing entries must be 0 or 1")
    L, S = R.shape
    if L == 0 or S == 0:
        raise InvalidNetworkError("a network needs at least one link and one source")
    c = np.asarray(capacities, dtype=float)
    if c.shape != (L,):
        raise InvalidNetworkError(f"expected {L} capacities, got shape {c.shape}")
    if len(utilities) != S:
        raise InvalidNetworkError(f"expected {S} utilities, got {len(utilities)}")
    if np.any(R.sum(axis=1) < 1):
        raise InvalidNetworkError("every link must be used by at least one source")
    if np.any(R.sum(axis=0) < 1):
        raise InvalidNetworkError("every source must traverse at least one link")
    if not np.all((c > 0) & (c < np.inf)):
        raise InvalidNetworkError("capacities must be finite and strictly positive")

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

    _check_utilities(net, float(c.max()))
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
        # Each check is written so that it also rejects NaN and infinity.
        if not 0 <= self.mu < np.inf:
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu!r}")
        if not 0 < self.scale < np.inf:
            raise ValueError(f"objective scale must be positive and finite, got {self.scale!r}")


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
        # Each check is written so that it also rejects NaN.
        if not np.all((x > 0) & (x < np.inf)):
            raise ValueError("primal vector must be finite and strictly positive")
        resid = feasibility_residual(network, x)
        if not resid <= rtol:
            raise ValueError(f"flow conservation violated: residual {resid:.3e}")
        return cls(_frozen(x), network.num_sources)


def feasibility_residual(network: Network, x) -> float:
    """Relative sup-norm violation of routing @ rates + slacks = capacities."""
    ax = network.incidence @ np.asarray(x, dtype=float)
    return float(np.abs(ax - network.capacities).max() / network.capacity_scale)


def feasible_init(network: Network) -> PrimalVector:
    """Interior starting point: every rate is c_min / (S + 1), slacks absorb
    the rest. Feasible by construction and strictly positive."""
    S = network.num_sources
    rate = network.capacities.min() / (S + 1)
    rates = np.full(S, rate)
    slacks = network.capacities - network.routing @ rates
    x = np.concatenate([rates, slacks])
    if not np.all(x > 0):
        raise AssertionError("starting point is not strictly positive")
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


def network_stacks(networks) -> list:
    """The stacks of networks that share (L, S) and each source's utility
    family, in order of first appearance: per stack, its input indices, its
    (T, L, S + L) incidence matrices, and its utility groups laid out as
    Network.utility_groups with each parameter stacked to (T, n)."""
    members = {}
    for i, net in enumerate(networks):
        key = (net.num_links, net.num_sources, tuple(type(u) for u in net.utilities))
        members.setdefault(key, []).append(i)
    stacks = []
    for idx in members.values():
        nets = [networks[i] for i in idx]
        groups = tuple((sources, type(u)(**{
            f.name: np.stack([getattr(net.utility_groups[j][1], f.name) for net in nets])
            for f in fields(u)})) for j, (sources, u) in enumerate(nets[0].utility_groups))
        stacks.append((idx, np.stack([net.incidence for net in nets]), groups))
    return stacks


def take_trials(groups, keep) -> tuple:
    """The stacked utility groups of the trials keep (indices or a mask) selects."""
    return tuple((sources, type(u)(**{f.name: getattr(u, f.name)[keep] for f in fields(u)}))
                 for sources, u in groups)


def group_method(groups, method: str):
    """The function s -> entry [..., i] of utility i's method at s[..., i],
    for groups laid out as Network.utility_groups: the family's own method
    when one family covers every source, a scatter over the families
    otherwise."""
    if len(groups) == 1:
        return getattr(groups[0][1], method)
    bound = [(idx, getattr(stacked, method)) for idx, stacked in groups]

    def scatter(s):
        out = np.empty(s.shape)
        for idx, fn in bound:
            out[..., idx] = fn(s[..., idx])
        return out

    return scatter


def utility_method(network: Network, method: str):
    """The function s -> the terms of the utility method named (value, d1,
    d2, d3 or inverse_d1): entry [..., i] is
    network.utilities[i].<method>(s[..., i]), evaluated family by family.
    The last axis of s is the sources; leading axes stack several rate
    vectors. Bind it once where a loop calls it."""
    return group_method(network.utility_groups, method)


def eval_f(problem: BarrierProblem, x) -> float:
    vals, s, _ = _split(problem, x)
    value = utility_method(problem.network, "value")
    return barrier_objective(vals, len(s), problem.mu, problem.scale, value)[0]


def barrier_objective(x, num_sources: int, mu: float, scale: float, value) -> tuple:
    """(f, h) at one point x: the barrier objective and the negated total
    utility (eval_h), from one evaluation of the bound utility value (see
    utility_method)."""
    util = float(np.add.reduce(value(x[:num_sources])))
    return -scale * util - mu * float(np.add.reduce(np.log(x))), -util


def barrier_grad(x, num_sources: int, mu: float, scale: float, d1) -> np.ndarray:
    """Gradient of f at x, given the bound utility derivative d1 (see
    utility_method). The last axis of x is (rates, slacks); leading axes
    stack several points."""
    g = -mu / x
    g[..., :num_sources] -= scale * d1(x[..., :num_sources])
    return g


def barrier_hessian_diag(x, num_sources: int, mu: float, scale: float, d2) -> np.ndarray:
    """Hessian diagonal of f at x, laid out as in barrier_grad."""
    # an entry that overflows comes back as inf, which build_splitting rejects
    with np.errstate(divide="ignore", over="ignore"):
        h = mu / x**2
        h[..., :num_sources] -= scale * d2(x[..., :num_sources])
    return h


def eval_grad(problem: BarrierProblem, x) -> np.ndarray:
    vals, s, _ = _split(problem, x)
    return barrier_grad(vals, len(s), problem.mu, problem.scale,
                        utility_method(problem.network, "d1"))


def eval_hessian_diag(problem: BarrierProblem, x) -> np.ndarray:
    vals, s, _ = _split(problem, x)
    h = barrier_hessian_diag(vals, len(s), problem.mu, problem.scale,
                             utility_method(problem.network, "d2"))
    if problem.mu == 0 and np.any(h <= 0):
        raise ValueError("hessian is not positive definite without the barrier")
    return h


def eval_h(network: Network, x) -> float:
    """Negated total utility over the rate coordinates (no barrier, no scale)."""
    s = _as_values(x)[: network.num_sources]
    return -float(utility_method(network, "value")(s).sum())


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
        capacities = list(doc["links"])
        if not all(_is_number(c) for c in capacities):
            raise InvalidNetworkError(f"link capacities must be numbers, got {capacities}")
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
