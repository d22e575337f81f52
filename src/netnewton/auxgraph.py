"""Exact finite-round aggregation of the squared decrement.

Sources and links can only exchange route aggregates, so summing one
number per participant without over-counting needs care: a link crossed
by several sources would be added once per source. The fix is an offline
companion graph on the sources, built by a signalling sweep over the real
network, that records for each link an ownership set theta_l of sources.
Once built, synchronous rounds of two local update rules spread the
global sum; after the companion graph's diameter plus one rounds every
source and every link holds it. The rounds write into preallocated
histories, and the operands that depend on the graph alone are cached on
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import InvalidNetworkError, Network, _frozen, _graph_diameter

__all__ = [
    "AuxiliaryGraph",
    "SummationRun",
    "build_auxiliary_graph",
    "distributed_sum",
    "compute_theta",
]


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Companion graph over sources with link-labelled edges.

    theta[l] is the ordered ownership set of link l (insertion order of the
    construction). edges holds (i, j, label) with i < j. l_star is the set
    of links whose ownership set has more than one source.
    """

    num_sources: int
    theta: tuple
    edges: tuple
    rounds: int

    @cached_property
    def l_star(self) -> frozenset:
        return frozenset(l for l, owners in enumerate(self.theta) if len(owners) > 1)

    @cached_property
    def owner_incidence(self) -> np.ndarray:
        """L x S matrix with entry (l, i) = 1 when source i is in theta[l]."""
        return _frozen([[i in t for i in range(self.num_sources)] for t in self.theta])

    @cached_property
    def l_star_incidence(self) -> np.ndarray:
        """owner_incidence with the rows of links outside l_star zeroed."""
        in_l_star = [[l in self.l_star] for l in range(len(self.theta))]
        return _frozen(self.owner_incidence * in_l_star)

    @cached_property
    def link_overcount(self) -> np.ndarray:
        """Per link, the size of its ownership set minus one: how many
        times a round's link sum over-counts the link's previous value."""
        return _frozen(self.owner_incidence.sum(axis=1) - 1)

    @cached_property
    def source_overcount(self) -> np.ndarray:
        """Per source, the number of l_star links it owns minus one: how
        many times a round's source sum over-counts its previous value."""
        return _frozen(self.l_star_incidence.sum(axis=0) - 1)

    @cached_property
    def neighbors(self) -> tuple:
        nbrs = [set() for _ in range(self.num_sources)]
        for i, j, _ in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(n) for n in nbrs)

    @cached_property
    def diameter(self) -> int:
        """Longest shortest path between two sources (0 for a single node)."""
        adjacency = np.zeros((self.num_sources, self.num_sources), dtype=bool)
        if self.edges:
            i, j, _ = zip(*self.edges)
            adjacency[i, j] = adjacency[j, i] = True
        return _graph_diameter(adjacency)

    def neighborhood(self, i: int, hops: int) -> frozenset:
        """Sources within the given number of edges of source i."""
        seen = {i}
        frontier = {i}
        for _ in range(hops):
            frontier = {v for u in frontier for v in self.neighbors[u]} - seen
            if not frontier:
                break
            seen |= frontier
        return frozenset(seen)

    def to_dict(self) -> dict:
        return {
            "theta": [list(t) for t in self.theta],
            "edges": [[i, j, l] for i, j, l in self.edges],
            "l_star": sorted(self.l_star),
            "rounds": self.rounds,
        }


def build_auxiliary_graph(network: Network) -> AuxiliaryGraph:
    """Simulate the signalling construction and return the companion graph.

    Source 0 starts grey and stamps its index on every link of its route.
    Each round, a white source that sees any stamped link on its route turns
    grey and emits two signals along its route in traversal order: a label
    signal that stamps every still-empty link (smallest index wins when
    several arrive in the same round), and a neighbor signal that is
    absorbed by the first link already stamped at the start of the round,
    where it connects the new source to all current owners. Simultaneous
    absorptions at one link are applied in ascending source index, so the
    owners end up pairwise connected. Runs exactly S - 1 rounds.

    The graph depends on the topology alone; newton_solve builds it once
    per solve.
    """
    S = network.num_sources
    L = network.num_links
    theta = [[] for _ in range(L)]
    edges = {}
    grey = [False] * S

    def add_edge(i, j, label):
        key = (min(i, j), max(i, j))
        if key in edges:
            raise AssertionError(f"duplicate companion edge {key}")
        edges[key] = label

    grey[0] = True
    for l in network.routes[0]:
        theta[l].append(0)

    for _ in range(S - 1):
        theta_size = [len(t) for t in theta]  # state at the start of the round
        newly_grey = [
            i
            for i in range(S)
            if not grey[i] and sum(theta_size[l] for l in network.routes[i]) > 0
        ]
        # label signals: stamp every link that was empty at the round start;
        # the smallest concurrent source index wins
        claims = {}
        for i in newly_grey:
            for l in network.routes[i]:
                if theta_size[l] == 0:
                    claims.setdefault(l, i)
                    claims[l] = min(claims[l], i)
        # neighbor signals: absorbed at the first link of the route that was
        # non-empty at the round start, joining the new source to its owners
        absorbed = {}
        for i in newly_grey:
            for l in network.routes[i]:
                if theta_size[l] > 0:
                    absorbed.setdefault(l, []).append(i)
                    break
        for l, arrivals in absorbed.items():
            for i in sorted(arrivals):
                for j in theta[l]:
                    add_edge(i, j, l)
                theta[l].append(i)
        for l, i in claims.items():
            theta[l].append(i)
        for i in newly_grey:
            grey[i] = True

    if not all(grey):
        raise InvalidNetworkError(
            "some sources were never reached; shared-flow structure disconnected"
        )
    return AuxiliaryGraph(
        num_sources=S,
        theta=tuple(tuple(t) for t in theta),
        edges=tuple((i, j, l) for (i, j), l in sorted(edges.items())),
        rounds=S - 1,
    )


@dataclass(frozen=True)
class SummationRun:
    """Round-by-round history of the aggregation.

    y_hist[t, i] and z_hist[t, l] are the values after round t; y_final and
    z_final are the terminal values (everyone holds the global sum).
    """

    y_hist: np.ndarray
    z_hist: np.ndarray
    rounds: int

    @property
    def y_final(self) -> np.ndarray:
        return self.y_hist[-1]

    @property
    def z_final(self) -> np.ndarray:
        return self.z_hist[-1]


def distributed_sum(
    network: Network, aux: AuxiliaryGraph, y_star, z_star, rounds: int | None = None
) -> SummationRun:
    """Run synchronous rounds of the two-rule aggregation (S by default).

    Inputs are one number per source (y_star) and one per link (z_star,
    already divided by the link's crossing count). Every source seeds
    itself with its own value plus its route's link values; each round,
    links fold in their owners' values and sources fold in their owning
    links' values, subtracting the over-counted previous state. After t
    rounds source i holds the sum over the sources within t hops of it in
    the companion graph, so after aux.diameter + 1 rounds (never more
    than S) every participant holds

        sum_i y_star_i + sum_l |S(l)| * z_star_l.

    Further rounds leave these values unchanged.
    """
    S, L = network.num_sources, network.num_links
    ys = np.asarray(y_star, dtype=float)
    zs = np.asarray(z_star, dtype=float)
    if ys.shape != (S,) or zs.shape != (L,):
        raise ValueError("inputs must be one value per source and per link")
    n = S if rounds is None else rounds
    if n < 0:
        raise ValueError("rounds must be non-negative")
    # Round t writes row t of each history in place; over_y and over_z
    # take the over-counted part of row t - 1 before it is subtracted.
    # ndarray.dot runs the BLAS product of `@` and takes out more cheaply.
    y_hist, z_hist = np.empty((n + 1, S)), np.empty((n + 1, L))
    over_y, over_z = np.empty(S), np.empty(L)
    np.add(ys, network.routing.T @ zs, y_hist[0])
    z_hist[0] = 0.0
    to_links, to_sources = aux.owner_incidence.dot, aux.l_star_incidence.T.dot
    z_over, y_over = aux.link_overcount, aux.source_overcount
    multiply, subtract = np.multiply, np.subtract
    for t in range(1, n + 1):
        y, z = y_hist[t], z_hist[t]
        to_links(y_hist[t - 1], z)
        subtract(z, multiply(z_over, z_hist[t - 1], over_z), z)
        to_sources(z, y)
        subtract(y, multiply(y_over, y_hist[t - 1], over_y), y)
    return SummationRun(y_hist, z_hist, rounds=n)


def compute_theta(network: Network, aux: AuxiliaryGraph, delta, hessian_diag):
    """Stepsize scalar: the decrement recovered from the aggregation.

    Feeds the squared, curvature-weighted direction entries through
    aux.diameter + 1 rounds of distributed_sum, the fewest that reach
    every participant, and takes the square root of the common value. With
    this path the stepsize scalar equals the decrement exactly (up to
    float roundoff), so the decrement-approximation error is zero.

    Returns (theta, rounds).
    """
    H = np.asarray(hessian_diag, dtype=float)
    d = np.asarray(delta, dtype=float)
    S = network.num_sources
    star = np.multiply(np.square(d), H)
    y_star, z_star = star[:S], star[S:]
    np.divide(z_star, network.crossing_counts, z_star)
    run = distributed_sum(network, aux, y_star, z_star, rounds=aux.diameter + 1)
    final = np.concatenate((run.y_final, run.z_final))
    total = final[0]
    spread = np.maximum.reduce(np.absolute(final - total))
    if not spread <= 1e-9 * max(abs(total), 1.0):
        raise AssertionError("aggregation values disagree")
    if not total >= -1e-12:
        raise AssertionError("squared decrement came out negative")
    return math.sqrt(max(total, 0.0)), run.rounds
