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

import numbers
from dataclasses import dataclass

import numpy as np

from .model import Network, utility_method, utility_terms

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
        if not self.stepsize > 0:
            raise ValueError("stepsize must be positive")
        for name in ("max_iters", "stable_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (self.max_iters >= 1 and self.stable_window >= 1):
            raise ValueError("max_iters and stable_window must be at least 1")
        if not (self.band > 0 and self.curvature_floor > 0):
            raise ValueError("band and curvature_floor must be positive")
        if self.rate_cap is not None and not self.rate_cap > 0:
            raise ValueError("rate_cap must be positive")
        if not self.rel_change_tol >= 0:
            raise ValueError("rel_change_tol must be non-negative")


@dataclass
class FirstOrderResult:
    rates: np.ndarray
    prices: np.ndarray
    objective_history: np.ndarray
    min_slack_history: np.ndarray
    iterations: int
    converged: bool
    iters_to_band: int | None

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
    R = network.routing
    longest_route = float(R.sum(axis=0).max())
    busiest_link = float(R.sum(axis=1).max())
    cap = np.full(network.num_sources, float(network.capacities.max()))
    curv = float((-1.0 / utility_terms(network, "d2", cap)).max())
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
    is already cap. A source whose route price is at most 1e-12 is priced
    at exactly 1e-12, and inverse_d1 is elementwise, so assigning it cap
    then changes no rate."""
    with np.errstate(all="ignore"):
        at_floor = inverse_d1(np.full(num_sources, 1e-12))
    return bool((np.minimum(np.maximum(at_floor, 0.0), cap) == cap).all())


def _best_response(network: Network, cap: float):
    """The function (prices, out) -> rates maximizing utility minus route
    price, clamped to [0, cap], written into out. A source whose route
    price is at most 1e-12 gets cap, as np.where(route_price > 1e-12,
    clamp, cap) would give for every finite route price. The operands and
    buffers are bound once, so each call only runs its ufuncs."""
    S = network.num_sources
    R_T = network.routing.T
    inverse_d1 = utility_method(network, "inverse_d1")
    zero, tiny, cap_0d = np.array(0.0), np.array(1e-12), np.array(cap)
    route_price, clamped = np.empty(S), np.empty(S)
    vanishing = np.empty(S, dtype=bool)
    assign_cap = not _cap_assignment_is_noop(inverse_d1, S, cap)

    def best_response(prices, out):
        np.dot(R_T, prices, route_price)
        np.maximum(route_price, tiny, out=clamped)
        np.maximum(inverse_d1(clamped), zero, out=out)
        np.minimum(out, cap_0d, out=out)
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
    slack, the divergence test and the stopping rule over the block's rows,
    so it stops on the same iterate as a check after every update would.
    Everything an iterate uses (the best response, the bound utility
    methods, R, its scalar operands as 0-d arrays, its temporaries, the
    rows it writes) is bound once per solve; each product and ufunc call
    writes into a preallocated buffer, and only the utility methods
    allocate."""
    R = network.routing
    c = network.capacities
    L, S = network.num_links, network.num_sources
    cap = config.rate_cap if config.rate_cap is not None else 2.0 * float(c.max())
    best_response = _best_response(network, cap)
    d2 = utility_method(network, "d2") if scaled else None
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
    h_blocks, slack_blocks = [], []
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
                np.dot(R, s, load)
                np.subtract(load, c, o)
                np.multiply(stepsize, o, step)
                if scaled:
                    np.divide(minus_one, d2(s), inv_curv)
                    np.dot(R, inv_curv, curv)
                    np.maximum(curv, floor, out=curv)
                    np.divide(step, curv, step)
                np.add(w, step, step)
                w = np.maximum(zero, step, out=p)
        finite = prices[:n].max(axis=1) <= 1e12  # also catches nan
        m = n if finite.all() else int(np.argmin(finite))  # rows before divergence
        values = utility_terms(network, "value", np.maximum(rates[:m], 1e-300))
        h = -values.sum(axis=-1)
        slack = -overload[:m].max(axis=1)
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
        h_blocks.append(h[:m])
        slack_blocks.append(slack[:m])
        done += m
        if converged:
            break
        if m < n:
            raise RuntimeError(
                f"price iteration diverged at step {done + 1}; reduce the stepsize"
            )
        h_prev = h[-1]
    w = prices[m - 1].copy()
    h_arr = np.concatenate(h_blocks)
    entry = None if h_ref is None else band_entry(h_arr, h_ref, config.band)
    return FirstOrderResult(
        rates=best_response(w, np.empty(S)),
        prices=w,
        objective_history=h_arr,
        min_slack_history=np.concatenate(slack_blocks),
        iterations=done,
        converged=converged,
        iters_to_band=None if entry is None else entry + 1,
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
