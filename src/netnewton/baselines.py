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

from .model import Network, utility_terms

__all__ = [
    "FirstOrderConfig",
    "FirstOrderResult",
    "subgradient_solve",
    "diagonal_scaled_solve",
    "subgradient_family_stepsize",
]


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
        if self.stepsize <= 0:
            raise ValueError("stepsize must be positive")


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


def subgradient_family_stepsize(network: Network, safety: float = 0.9) -> float:
    """Convergence-guaranteeing constant stepsize for the subgradient method.

    Uses the classic sufficient condition: below 2 divided by the product
    of the longest route, the busiest link, and the largest curvature of
    the rate response (bounded by cap^2 / min utility weight for the
    utilities in use here).
    """
    R = network.routing
    longest_route = float(R.sum(axis=0).max())
    busiest_link = float(R.sum(axis=1).max())
    cap = np.full(network.num_sources, float(network.capacities.max()))
    curv = float((-1.0 / utility_terms(network, "d2", cap)).max())
    return safety * 2.0 / (longest_route * busiest_link * curv)


def _best_response(network: Network, prices: np.ndarray, cap: float) -> np.ndarray:
    """Rates maximizing utility minus route price, clamped to [0, cap]."""
    route_price = network.routing.T @ prices
    s = utility_terms(network, "inverse_d1", np.maximum(route_price, 1e-12))
    return np.where(route_price > 1e-12, np.minimum(np.maximum(s, 0.0), cap), cap)


def _price_iteration(
    network: Network, config: FirstOrderConfig, h_ref: float | None, scaled: bool
) -> FirstOrderResult:
    R = network.routing
    c = network.capacities
    cap = config.rate_cap if config.rate_cap is not None else 2.0 * float(c.max())
    w = np.zeros(network.num_links)
    h_hist, slack_hist = [], []
    stable = 0
    h_prev = None
    converged = False
    iterations = config.max_iters
    for k in range(1, config.max_iters + 1):
        s = _best_response(network, w, cap)
        overload = R @ s - c
        if scaled:
            curv = R @ (-1.0 / utility_terms(network, "d2", s))
            step = config.stepsize * overload / np.maximum(curv, config.curvature_floor)
        else:
            step = config.stepsize * overload
        w = np.maximum(0.0, w + step)
        if not w.max() <= 1e12:  # also catches nan
            raise RuntimeError(
                f"price iteration diverged at step {k}; reduce the stepsize"
            )
        h = -float(utility_terms(network, "value", np.maximum(s, 1e-300)).sum())
        min_slack = float(-overload.max())
        h_hist.append(h)
        slack_hist.append(min_slack)
        in_band = True if h_ref is None else abs(h - h_ref) <= config.band_scale(h_ref)
        settled = (
            h_prev is not None
            and abs(h - h_prev) <= config.rel_change_tol * max(abs(h), 1e-12)
            and min_slack >= -1e-9
            and in_band
        )
        stable = stable + 1 if settled else 0
        if stable >= config.stable_window:
            converged = True
            iterations = k
            break
        h_prev = h
    h_arr = np.array(h_hist)
    iters_to_band = None
    if h_ref is not None:
        band_mask = np.abs(h_arr - h_ref) <= config.band_scale(h_ref)
        # first index after which the objective never leaves the band
        outside = np.nonzero(~band_mask)[0]
        if band_mask.all():
            entry = 0
        elif outside[-1] + 1 < len(h_arr):
            entry = int(outside[-1]) + 1
        else:
            entry = None
        iters_to_band = None if entry is None else entry + 1
    return FirstOrderResult(
        rates=_best_response(network, w, cap),
        prices=w,
        objective_history=h_arr,
        min_slack_history=np.array(slack_hist),
        iterations=iterations,
        converged=converged,
        iters_to_band=iters_to_band,
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
