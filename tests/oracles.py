"""Test oracles: the forms the tests compare the library's results with.

Each is written apart from the code it checks and says what it checks.
Every function here is imported by a test module (tests/test_tooling.py).
"""

import numpy as np

from netnewton.baselines import FirstOrderResult
from netnewton.model import utility_method


def sigma(network, subset, y_star, z_star):
    """Checks distributed_sum's partial sums and totals: by brute force, the
    contribution of a source subset to the sum. Links touched by the subset
    count once per subset member crossing them.
    """
    total = sum(y_star[i] for i in subset)
    for l in range(network.num_links):
        crossing = sum(1 for i in subset if l in network.routes[i])
        total += z_star[l] * crossing
    return total


def oracle_price_iteration(network, config, h_ref, scaled, trace=None):
    """Checks _price_iteration and the first-order loops' best response:
    the plain per-iteration form of _price_iteration, which runs the
    objective, slack, divergence test and stopping rule after every price
    update. The blocked loop must reproduce it exactly. A list given as
    trace receives, per update, the route prices, the unclamped responses
    to them and (scaled) the curvatures before the floor."""
    R = network.routing
    c = network.capacities
    cap = config.rate_cap if config.rate_cap is not None else 2.0 * float(c.max())

    def best_response(prices):
        """The oracle's own, kept apart from baselines' _best_response so
        that the blocked loop is checked against code it does not share:
        rates maximizing utility minus route price, clamped to [0, cap],
        and cap where the route price vanishes."""
        route_price = R.T @ prices
        s = utility_method(network, "inverse_d1")(np.maximum(route_price, 1e-12))
        return np.where(route_price > 1e-12, np.minimum(np.maximum(s, 0.0), cap), cap)

    w = np.zeros(network.num_links)
    h_hist, slack_hist = [], []
    stable = 0
    h_prev = None
    converged = False
    band = None if h_ref is None else config.band * max(abs(h_ref), 1.0)
    for k in range(1, config.max_iters + 1):
        s = best_response(w)
        overload = R @ s - c
        curv = None
        if scaled:
            curv = R @ (-1.0 / utility_method(network, "d2")(s))
            step = config.stepsize * overload / np.maximum(curv, config.curvature_floor)
        else:
            step = config.stepsize * overload
        if trace is not None:
            route_price = R.T @ w
            with np.errstate(all="ignore"):
                response = utility_method(network, "inverse_d1")(route_price)
            trace.append((route_price, response, curv))
        w = np.maximum(0.0, w + step)
        if not w.max() <= 1e12:
            raise RuntimeError(
                f"price iteration diverged at step {k}; reduce the stepsize"
            )
        h = -float(utility_method(network, "value")(np.maximum(s, 1e-300)).sum())
        min_slack = float(-overload.max())
        h_hist.append(h)
        slack_hist.append(min_slack)
        in_band = True if h_ref is None else abs(h - h_ref) <= band
        settled = (
            h_prev is not None
            and abs(h - h_prev) <= config.rel_change_tol * max(abs(h), 1e-12)
            and min_slack >= -1e-9
            and in_band
        )
        stable = stable + 1 if settled else 0
        if stable >= config.stable_window:
            converged = True
            break
        h_prev = h
    h_arr = np.array(h_hist)
    iters_to_band = None
    if h_ref is not None:
        inside = np.abs(h_arr - h_ref) <= band
        outside = [k for k, ok in enumerate(inside) if not ok]
        entry = outside[-1] + 1 if outside else 0  # never leaves the band after
        iters_to_band = entry + 1 if entry < len(h_arr) else None
    return FirstOrderResult(
        rates=best_response(w),
        prices=w,
        objective_history=h_arr,
        min_slack_history=np.array(slack_hist),
        converged=converged,
        iters_to_band=iters_to_band,
    )


def oracle_csv_row(rec) -> list:
    """Checks write_trace_csv: the CSV row as the writer spelled it out
    by hand before TRACE_COLUMNS became the one schema, as the strings csv
    reads back."""
    return [
        str(rec.k), repr(rec.f), repr(rec.h), repr(rec.lambda_tilde),
        repr(rec.theta), repr(rec.stepsize), rec.phase, str(rec.dual_iters),
        str(rec.consensus_rounds), repr(rec.min_slack), repr(rec.feas_residual),
    ]


def oracle_json_row(rec) -> dict:
    """Checks trace_to_json: the JSON trace row as it was spelled out by
    hand before TRACE_COLUMNS became the one schema."""
    row = {
        "k": rec.k, "f": rec.f, "h": rec.h, "lambda_tilde": rec.lambda_tilde,
        "theta": rec.theta, "stepsize": rec.stepsize, "phase": rec.phase,
        "dual_iters": rec.dual_iters, "consensus_rounds": rec.consensus_rounds,
        "summation_rounds": rec.summation_rounds, "min_slack": rec.min_slack,
        "feas_residual": rec.feas_residual,
    }
    if rec.certificate is not None:
        row["certificate"] = rec.certificate.to_dict()
    if rec.dual_graph is not None:
        row["dual_graph"] = rec.dual_graph
    return row
