"""First-order comparison methods on the price (dual) problem.

Both baselines iterate link prices with a constant stepsize: plain
projected subgradient ascent on capacity violations, and the same update
premultiplied by the inverse of a diagonal curvature estimate. They share
the classic exchange pattern (sources best-respond to route prices, links
adjust prices from the induced load), so their iteration counts compare
directly with the Newton method's price sweeps. These are reconstructions
of the standard methods; the comparison study treats only ordering and
order of magnitude as reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network, _check_count, utility_method

__all__ = [
    "FirstOrderConfig",
    "FirstOrderResult",
    "subgradient_solve",
    "diagonal_scaled_solve",
    "subgradient_family_stepsize",
    "band_entry",
]

# Iterates per block of _price_iteration, between two bookkeeping passes.
_BLOCK = 256
# History entries a solve reserves at first; a page of the reservation is
# mapped only once an entry on it is written. At least _BLOCK, so that one
# doubling always makes room for the next block.
_RESERVE = 2**20


@dataclass(frozen=True)
class FirstOrderConfig:
    """Constant-stepsize configuration.

    Termination needs the objective to sit still (relative change below
    rel_change_tol), the load to satisfy every capacity, and, when a
    reference value is supplied, the objective to lie inside the +-band
    around it; all sustained for stable_window consecutive iterations.
    The band is relative to the reference magnitude floored at one
    utility unit, so it stays meaningful when the optimum sits near zero.
    rate_cap bounds the best response when a route price vanishes; it
    defaults to twice the largest capacity so that a zero-priced start
    always overloads some link and the prices move.
    """

    stepsize: float
    max_iters: int = 500_000
    band: float = 0.05
    stable_window: int = 50
    rel_change_tol: float = 1e-6
    rate_cap: float | None = None
    curvature_floor: float = 1e-8

    def band_scale(self, h_ref: float) -> float:
        return self.band * max(abs(h_ref), 1.0)

    def __post_init__(self):
        # Each check is written so that it also rejects NaN.
        for name in ("stepsize", "curvature_floor", "rate_cap"):
            value = getattr(self, name)
            if not ((name == "rate_cap" and value is None) or 0 < value < np.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("max_iters", "stable_window"):
            _check_count(name, getattr(self, name))
        if not self.band > 0:
            raise ValueError("band must be positive")
        if not self.rel_change_tol >= 0:
            raise ValueError("rel_change_tol must be non-negative")


@dataclass
class FirstOrderResult:
    rates: np.ndarray
    prices: np.ndarray
    objective_history: np.ndarray
    min_slack_history: np.ndarray
    converged: bool
    iters_to_band: int | None

    @property
    def iterations(self) -> int:
        return len(self.objective_history)

    @property
    def h_final(self) -> float:
        return float(self.objective_history[-1])


def subgradient_family_stepsize(network: Network) -> float:
    """Convergence-guaranteeing constant stepsize for the subgradient method.

    Uses the classic sufficient condition: below 2 divided by the product
    of the longest route, the busiest link, and the largest curvature of
    the rate response (bounded by cap^2 / min utility weight for the
    utilities in use here). The stepsize is 90% of that bound.
    """
    longest_route = float(network.route_lengths.max())
    busiest_link = float(network.crossing_counts.max())
    cap = np.full(network.num_sources, float(network.capacities.max()))
    curv = float((-1.0 / utility_method(network, "d2")(cap)).max())
    return 0.9 * 2.0 / (longest_route * busiest_link * curv)


def band_entry(history, h_ref: float, band: float) -> int | None:
    """Index of the first entry of an objective history after which it
    never leaves band * max(|h_ref|, 1) around h_ref; None when the last
    entry is outside."""
    scale = band * max(abs(h_ref), 1.0)
    h = np.asarray(history, dtype=float)
    outside = np.flatnonzero(~(np.abs(h - h_ref) <= scale))
    if len(outside) == 0:
        return 0
    entry = int(outside[-1]) + 1
    return entry if entry < len(h) else None


def _cap_assignment_is_noop(inverse_d1, num_sources: int, cap: float) -> bool:
    """True when every source's clamped response at the route price 1e-12
    is already cap. inverse_d1 is elementwise and nonincreasing, also
    after rounding, so at every route price in [0, 1e-12] the clamped
    response is cap too, and assigning cap changes no rate."""
    with np.errstate(all="ignore"):
        at_floor = inverse_d1(np.full(num_sources, 1e-12))
    return bool((np.minimum(np.maximum(at_floor, 0.0), cap) == cap).all())


def _best_response(network: Network, cap: float):
    """The function (prices, out) -> rates maximizing utility minus route
    price, clamped to [0, cap], written into out. A source whose route
    price is at most 1e-12 gets cap, as np.where(route_price > 1e-12,
    clamp, cap) would give for every finite route price: by the cap
    assignment, or where _cap_assignment_is_noop skips it, by itself, so
    no price needs a floor. The product, ufuncs, operands and buffers are
    bound once, and each call skips the clamps that cannot change a rate."""
    S = network.num_sources
    route_dot = network.routing.T.dot
    inverse_d1 = utility_method(network, "inverse_d1")
    maximum, minimum = np.maximum, np.minimum
    zero, tiny, cap_0d = np.array(0.0), np.array(1e-12), np.array(cap)
    route_price = np.empty(S)
    vanishing = np.empty(S, dtype=bool)
    # the clamp at 0 stays unless every family's response is nonnegative (NaN passes it)
    clamp = not all(getattr(u, "nonnegative_response", False) for _, u in network.utility_groups)
    assign_cap = not _cap_assignment_is_noop(inverse_d1, S, cap)

    def best_response(prices, out):
        route_dot(prices, route_price)
        response = inverse_d1(route_price)
        if clamp:
            response = maximum(response, zero, out=out)
        minimum(response, cap_0d, out=out)
        if assign_cap:
            np.less_equal(route_price, tiny, vanishing)
            out[vanishing] = cap
        return out

    return best_response


def _price_iteration(
    network: Network, config: FirstOrderConfig, h_ref: float | None, scaled: bool
) -> FirstOrderResult:
    """The price loop of both baselines. Per iterate it runs only the price
    update, keeping each iterate's rates, overload and prices in a row of
    a block; after each block it evaluates the objective, the minimum
    slack, the divergence test, the stopping rule and the band entry over
    the block's rows, so it stops on the same iterate as a check after
    every update would. Both histories are written in place into one
    reservation per solve (doubled when a run fills it), and the result
    holds views of its first `iterations` entries.
    Everything an iterate uses (the best response, the bound utility
    methods, the product R.dot, the ufuncs, its scalar operands as 0-d
    arrays, its temporaries, the rows it writes) is bound once per solve;
    each product and ufunc call writes into a preallocated buffer, and
    only the utility methods allocate."""
    load_dot = network.routing.dot
    c = network.capacities
    L, S = network.num_links, network.num_sources
    cap = config.rate_cap if config.rate_cap is not None else 2.0 * float(c.max())
    best_response = _best_response(network, cap)
    d2 = utility_method(network, "d2") if scaled else None
    value = utility_method(network, "value")
    add, subtract, multiply, divide, maximum = (
        np.add, np.subtract, np.multiply, np.divide, np.maximum)
    zero, minus_one = np.array(0.0), np.array(-1.0)
    stepsize, floor = np.array(config.stepsize), np.array(config.curvature_floor)
    load, step, curv = np.empty(L), np.empty(L), np.empty(L)
    inv_curv = np.empty(S)
    band = None if h_ref is None else config.band_scale(h_ref)
    rates = np.empty((_BLOCK, S))
    overload = np.empty((_BLOCK, L))
    prices = np.empty((_BLOCK, L))
    rows = list(zip(rates, overload, prices))
    w = np.zeros(L)
    h_hist = np.empty(min(config.max_iters, _RESERVE))
    slack_hist = np.empty_like(h_hist)
    entry = 0  # where the history so far enters the band for good; done if it ends outside
    stable = 0
    h_prev = np.nan  # compares false: the first iterate has no predecessor
    done = 0
    converged = False
    while done < config.max_iters:
        n = min(_BLOCK, config.max_iters - done)
        # Prices at or below 1e12 keep every term finite, so floating-point
        # errors can only come from a diverged iterate or the ones after it,
        # and the block is cut at the first diverged iterate below.
        with np.errstate(all="ignore"):
            for s, o, p in rows[:n]:
                best_response(w, s)
                load_dot(s, load)
                subtract(load, c, o)
                multiply(stepsize, o, step)
                if scaled:
                    divide(minus_one, d2(s), inv_curv)
                    load_dot(inv_curv, curv)
                    maximum(curv, floor, out=curv)
                    divide(step, curv, step)
                add(w, step, step)
                w = maximum(zero, step, out=p)
        finite = prices[:n].max(axis=1) <= 1e12  # also catches nan
        m = n if finite.all() else int(np.argmin(finite))  # rows before divergence
        if done + m > len(h_hist):
            size = min(2 * len(h_hist), config.max_iters)
            h_hist, slack_hist = (
                np.concatenate((hist[:done], np.empty(size - done)))
                for hist in (h_hist, slack_hist)
            )
        h, slack = h_hist[done:done + m], slack_hist[done:done + m]
        np.negative(value(np.maximum(rates[:m], 1e-300)).sum(axis=-1), out=h)
        np.negative(overload[:m].max(axis=1), out=slack)
        change = np.abs(h - np.append(h_prev, h[:-1]))
        settled = (change <= config.rel_change_tol * np.maximum(np.abs(h), 1e-12)) & (
            slack >= -1e-9
        )
        if band is not None:
            settled &= np.abs(h - h_ref) <= band
        for j, ok in enumerate(settled.tolist()):
            stable = stable + 1 if ok else 0
            if stable >= config.stable_window:
                converged, m = True, j + 1
                break
        if h_ref is not None:
            block_entry = band_entry(h[:m], h_ref, config.band)
            if block_entry is None:
                entry = done + m
            elif block_entry:
                entry = done + block_entry
        done += m
        if converged:
            break
        if m < n:
            raise RuntimeError(
                f"price iteration diverged at step {done + 1}; reduce the stepsize"
            )
        h_prev = h[-1]
    w = prices[m - 1].copy()
    with np.errstate(divide="ignore"):  # a log utility's response to a price of 0 is inf
        final = best_response(w, np.empty(S))
    return FirstOrderResult(
        rates=final,
        prices=w,
        objective_history=h_hist[:done],
        min_slack_history=slack_hist[:done],
        converged=converged,
        iters_to_band=entry + 1 if h_ref is not None and entry < done else None,
    )


def subgradient_solve(
    network: Network, config: FirstOrderConfig, h_ref: float | None = None
) -> FirstOrderResult:
    """Projected price ascent: w <- max(0, w + stepsize * (load - capacity))."""
    return _price_iteration(network, config, h_ref, scaled=False)


def diagonal_scaled_solve(
    network: Network, config: FirstOrderConfig, h_ref: float | None = None
) -> FirstOrderResult:
    """Price ascent scaled per link by the inverse of the local curvature
    estimate sum over crossing sources of 1 / |U''(s_i)| (floored)."""
    return _price_iteration(network, config, h_ref, scaled=True)
