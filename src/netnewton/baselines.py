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


def _in_band(h, h_ref: float, band: float):
    """The mask of the entries of h within band * max(|h_ref|, 1) of h_ref
    (NaN is outside)."""
    return np.abs(h - h_ref) <= band * max(abs(h_ref), 1.0)


def _band_entry_of(inside) -> int | None:
    """Index of the first entry of a band mask after which it stays true;
    None when its last entry is false."""
    outside = np.flatnonzero(~inside)
    if len(outside) == 0:
        return 0
    entry = int(outside[-1]) + 1
    return entry if entry < len(inside) else None


def band_entry(history, h_ref: float, band: float) -> int | None:
    """Index of the first entry of an objective history after which it
    never leaves band * max(|h_ref|, 1) around h_ref; None when the last
    entry is outside."""
    return _band_entry_of(_in_band(np.asarray(history, dtype=float), h_ref, band))


def _best_response(network: Network, cap: float):
    """The best response to route prices, as three functions bound once
    per solve:

    - respond(route_price, out) writes the rates maximizing utility minus
      route price (the utilities' inverse_d1; for one log family a single
      bound ufunc);
    - clamp(route_price, response, out) writes the responses clamped to
      [0, cap], and cap where the route price is at most 1e-12, as
      np.where(route_price > 1e-12, clamp, cap) would give for every
      finite route price, so no price needs a floor;
    - idle(route_prices, responses) is True when clamp would return every
      response, of any number of rows, unchanged: each lies in [0, cap]
      and each route price is above 1e-12. A NaN is never idle.

    The best response is clamp(route_price, respond(route_price, ...), out)."""
    S = network.num_sources
    respond = utility_method(network, "inverse_d1")
    maximum, minimum, less_equal = np.maximum, np.minimum, np.less_equal
    zero, tiny, cap_0d = np.array(0.0), np.array(1e-12), np.array(cap)
    vanishing = np.empty(S, dtype=bool)

    def clamp(route_price, response, out):
        maximum(response, zero, out=out)
        minimum(out, cap_0d, out=out)
        less_equal(route_price, tiny, vanishing)
        out[vanishing] = cap
        return out

    def idle(route_prices, responses) -> bool:
        return bool(responses.min() >= 0.0 and responses.max() <= cap
                    and route_prices.min() > 1e-12)

    return respond, clamp, idle


def _price_iteration(
    network: Network, config: FirstOrderConfig, h_ref: float | None, scaled: bool
) -> FirstOrderResult:
    """The price loop of both baselines. Per iterate it runs only the price
    update, keeping each iterate's route prices, rates, overload,
    curvatures and prices in a row of a block; after each block it
    evaluates the objective, the minimum slack, the divergence test, the
    stopping rule and the band entry over the block's rows, so it stops on
    the same iterate as a check after every update would. Both histories
    are written in place into one reservation per solve (doubled when a
    run fills it), and the result holds views of its first `iterations`
    entries.

    A block runs without the clamps (the best response's clamp to
    [0, cap] and cap assignment, and the curvature floor) and checks,
    after its last update, that each would have returned every value of
    every row unchanged; by induction over the rows, the block is then
    the clamped block bit for bit. A block that fails the check is rerun
    from its starting prices with the clamps, and the blocks after it
    keep them until a clamped block shows that none bound. The first
    block, from zero prices, runs clamped.
    Everything an update uses (the products R.dot and R.T.dot, the bound
    utility methods, the ufuncs, its scalar operands as 0-d arrays, its
    temporaries, the rows it writes) is bound once per solve, and each
    call writes into a preallocated buffer: on one log family an
    unclamped update runs 7 numpy calls (12 scaled) and allocates
    nothing."""
    load_dot, route_dot = network.routing.dot, network.routing.T.dot
    c = network.capacities
    L, S = network.num_links, network.num_sources
    cap = config.rate_cap if config.rate_cap is not None else 2.0 * float(c.max())
    respond, clamp, idle = _best_response(network, cap)
    d2 = utility_method(network, "d2") if scaled else None
    value = utility_method(network, "value")
    add, subtract, multiply, divide, maximum = (
        np.add, np.subtract, np.multiply, np.divide, np.maximum)
    zero, minus_one = np.array(0.0), np.array(-1.0)
    stepsize, floor = np.array(config.stepsize), np.array(config.curvature_floor)
    load, step, floored = np.empty(L), np.empty(L), np.empty(L)
    inv_curv = np.empty(S)
    route_price, response, rates = (np.empty((_BLOCK, S)) for _ in range(3))
    overload, curv, prices = (np.empty((_BLOCK, L)) for _ in range(3))
    row_starts = np.arange(0, _BLOCK * L, L)  # of the rows in a flat block
    positions = np.arange(1, _BLOCK + 1)  # of the rows, counted from 1
    # unclamped, each row's response is its rates
    rows = {clamped: list(zip(rates, response if clamped else rates, route_price,
                              overload, curv, prices)) for clamped in (False, True)}
    start = np.zeros(L)  # the prices each block starts from
    h_hist = np.empty(min(config.max_iters, _RESERVE))
    slack_hist = np.empty_like(h_hist)
    entry = 0  # where the history so far enters the band for good; done if it ends outside
    stable = 0
    h_prev = np.nan  # compares false: the first iterate has no predecessor
    done = 0
    converged = False
    clamped = True
    while done < config.max_iters:
        n = min(_BLOCK, config.max_iters - done)
        # With the clamps, prices at or below 1e12 keep every term finite, so
        # floating-point errors can only come from a diverged iterate or the
        # ones after it, and the block is cut at the first diverged iterate
        # below; an unclamped block that meets one fails its check.
        with np.errstate(all="ignore"):
            while True:
                w = start
                for s, r, rp, o, k, p in rows[clamped][:n]:
                    route_dot(w, rp)
                    respond(rp, r)
                    if clamped:
                        clamp(rp, r, s)
                    load_dot(s, load)
                    subtract(load, c, o)
                    multiply(stepsize, o, step)
                    if scaled:
                        divide(minus_one, d2(s, inv_curv), inv_curv)
                        load_dot(inv_curv, k)
                        divide(step, maximum(k, floor, out=floored) if clamped else k, step)
                    add(w, step, step)
                    w = maximum(zero, step, out=p)
                unbound = idle(route_price[:n], (response if clamped else rates)[:n]) and (
                    not scaled or curv[:n].min() >= floor)
                if unbound or clamped:
                    break
                clamped = True
        clamped = not unbound
        m = n  # rows before divergence; a comparison with nan is false
        if not prices[:n].max() <= 1e12:
            m = int(np.argmin(prices[:n].max(axis=1) <= 1e12))
        if done + m > len(h_hist):
            size = min(2 * len(h_hist), config.max_iters)
            h_hist, slack_hist = (
                np.concatenate((hist[:done], np.empty(size - done)))
                for hist in (h_hist, slack_hist)
            )
        h, slack = h_hist[done:done + m], slack_hist[done:done + m]
        np.negative(value(np.maximum(rates[:m], 1e-300)).sum(axis=-1), out=h)
        np.negative(np.maximum.reduceat(overload[:m].ravel(), row_starts[:m]), out=slack)
        change = np.abs(h - np.append(h_prev, h[:-1]))
        settled = (change <= config.rel_change_tol * np.maximum(np.abs(h), 1e-12)) & (
            slack >= -1e-9
        )
        if h_ref is not None:
            inside = _in_band(h, h_ref, config.band)
            settled &= inside
        # each row's stable run: its settled rows since the last unsettled
        # one, continuing the run of the blocks before
        run = positions[:m] - np.maximum.accumulate(np.where(settled, -stable, positions[:m]))
        hit = np.flatnonzero(run >= config.stable_window)
        if len(hit):
            converged, m = True, int(hit[0]) + 1
        elif m:
            stable = int(run[-1])
        if h_ref is not None:
            block_entry = _band_entry_of(inside[:m])
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
        start[...] = w
    w = prices[m - 1].copy()
    final_route_price = route_dot(w)
    with np.errstate(divide="ignore"):  # a log utility's response to a price of 0 is inf
        final = clamp(final_route_price, respond(final_route_price), np.empty(S))
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
