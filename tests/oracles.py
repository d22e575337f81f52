"""Test oracles: the forms the tests compare the library's results with.

Each says what it checks. The independent oracles are written apart from
the code they check. The others are earlier forms of computations the
library replaced; one stays only while a mutation of its computation is
killed by its tests and by no other test, since the pinned traces of
tests/data/traces_seed7.json check the rest on their recording build.
Every function here is imported by a test module (tests/test_tooling.py).
"""

import math

import numpy as np

from netnewton import (
    ErrorCertificate,
    SolverConfig,
    dual_step_matrix,
    eval_grad,
    eval_hessian_diag,
    feasible_init,
    stage1_beta,
    stage2_h,
    stepsize_rule,
)
from netnewton.baselines import FirstOrderResult
from netnewton.model import InvalidNetworkError, utility_method

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# replaced forms, each kept for a mutation only its tests kill
# ---------------------------------------------------------------------------


def kkt_direction_oracle(network, hessian_diag, grad):
    """Checks kkt_direction and stacked_kkt_direction bit for bit: the
    per-network dense solve they replaced. The prices come from one LU
    solve of the dual system with its residual check, then
    delta = -H^-1 (grad + A' w) with the saddle-system residual check.
    Kept because only its test sees a 1-ulp change of the dual right-hand
    side or a reordered delta, which move the exact method by far less
    than any pinned tolerance."""
    H = np.asarray(hessian_diag, dtype=float)
    g = np.asarray(grad, dtype=float)
    n = network.num_sources + network.num_links
    if H.shape != (n,) or g.shape != (n,):
        raise ValueError("hessian_diag and grad must have length S + L")
    if not np.all((H > 0) & (H < np.inf)):
        raise ValueError("hessian diagonal must be finite and strictly positive")
    A = network.incidence
    AD = A * (1.0 / H)
    G, rhs = AD @ A.T, -AD @ g
    w = np.linalg.solve(G, rhs)
    resid = np.abs(G @ w - rhs).max()
    if not resid <= 1e-10 * max(np.abs(rhs).max(), 1.0):
        raise AssertionError(f"dual solve residual {resid:.3e} too large")
    delta = -(g + A.T @ w) / H
    top = np.abs(H * delta + A.T @ w + g).max()
    bottom = np.abs(A @ delta).max()
    scale = max(np.abs(g).max(), 1.0)
    if not (top <= 1e-8 * scale and bottom <= 1e-8 * scale):
        raise AssertionError("saddle residual too large")
    return delta, w


def reference_solve_oracle(problem, x0=None, tol=1e-12):
    """Checks reference_solve bit for bit: the per-network loop it
    replaced, one kkt_direction_oracle step at a time. Returns
    (x, trace, converged) with reference_solve's (k, decrement, stepsize)
    trace rows. Kept because only its test sees a 1-ulp change of the
    exact step, a reordered decrement, a shifted trace index or a
    one-short step cap."""
    V = SolverConfig.V
    b = SolverConfig().b
    x = feasible_init(problem.network).values.copy() if x0 is None else np.array(x0, dtype=float)
    damped = True
    trace = []
    for k in range(500):
        g = eval_grad(problem, x)
        H = eval_hessian_diag(problem, x)
        delta, _ = kkt_direction_oracle(problem.network, H, g)
        lam = float(np.sqrt(np.sum(delta * delta * H)))
        d, damped = stepsize_rule(lam, damped, V, b)
        trace.append((k, lam, d))
        if lam <= tol:
            return x, trace, True
        x = x + d * delta
        if not np.all(x > 0):
            raise AssertionError("reference iterate lost strict positivity")
    return x, trace, False


def build_splitting_oracle(network, H, g):
    """Checks build_splitting bit for bit: the allocating form it had
    before it could write into an earlier split. Returns dk, bk, bbar, rhs,
    denom, the iteration matrix and the offset. Kept because only its test
    sees -0.0 in place of +0.0 in the iteration matrix, which no price,
    count or pinned float shows."""
    AD = network.incidence * (1.0 / H)
    G, rhs = AD @ network.incidence.T, -AD @ g
    dk = np.diag(G).copy()
    bk = G - np.diag(dk)
    bbar = bk.sum(axis=1)
    denom = dk + bbar
    return dk, bk, bbar, rhs, denom, (np.diag(bbar) - bk) / denom[:, None], rhs / denom


def with_link_sums(network, v):
    """A route aggregate laid out as the stage tests take it: the S
    per-source values, then their L link sums. Not an oracle: a layout
    reference_run_dual and the stage-test checks share."""
    return np.concatenate([v, network.routing @ v])


def stage1_beta_oracle(network, w_t, w_t1, big_pi0, big_pi_t, F, p):
    """Checks stage1_beta bit for bit: the form it had before it took each
    aggregate followed by its link sums, with the source and the link
    ratios as separate vectors. Kept because only its test draws
    prices that did not move beside a vanished route price, where beta
    must still be infinite."""
    diff = float(np.abs(w_t1 - w_t).max())
    if diff == 0.0:
        return math.inf
    amp = math.sqrt(network.num_links) * diff / (1.0 - F)
    num_link = network.routing @ big_pi0
    den_src = np.abs(big_pi_t)
    den_link = np.abs(network.routing @ big_pi_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_src = np.where(den_src < 1e-14, np.inf, amp * big_pi0 / den_src)
        rho_link = np.where(den_link < 1e-14, np.inf, amp * num_link / den_link)
    worst = max(float(rho_src.max()), float(rho_link.max()))
    if worst == 0.0:
        return math.inf
    return (worst / p) ** -2


def reference_run_dual(network, hessian_diag, split, cfg, warm_start_w=None):
    """Checks run_dual_with_error_control bit for bit: the per-sweep loop
    as it was before the sweeps wrote through buffers. Each sweep allocates
    its result, the stage-2 test allocates |w_cur - w_prev|, and the cap is
    checked after each stage-2 sweep. Kept because only its tests run a
    price solve into its sweep cap, and so see the cap off by one."""
    H = np.asarray(hessian_diag, dtype=float)
    S = network.num_sources
    ones = np.ones(network.num_links)
    if warm_start_w is None:
        warm_start_w = ones
    pi0 = network.routing.T @ ones
    big_pi0 = with_link_sums(network, (network.routing.T @ ones) / H[:S])

    def retest(w_prev, w_cur):
        big_pi_t = with_link_sums(network, (network.routing.T @ w_prev) / H[:S])
        return stage1_beta(network, w_prev, w_cur, big_pi0, big_pi_t, cfg.F, cfg.p)

    w_prev = np.array(warm_start_w, dtype=float)
    w_cur = dual_step_matrix(split, w_prev)
    for _ in range(cfg.T - 1):
        w_prev, w_cur = w_cur, dual_step_matrix(split, w_cur)
    steps = cfg.T
    beta = retest(w_prev, w_cur)
    passes = 2
    h = None
    while not beta >= 1.0:
        h = stage2_h(network, H, big_pi0, pi0, beta, cfg.epsilon, cfg.F)
        while True:
            w_prev, w_cur = w_cur, dual_step_matrix(split, w_cur)
            steps += 1
            if steps > cfg.iter_cap:
                raise RuntimeError("price iteration exceeded the cap")
            if np.abs(w_cur - w_prev).max() <= h:
                break
        beta_final = retest(w_prev, w_cur)
        passes += 2
        if beta <= beta_final < 1.0:
            break
        beta = beta_final
    return w_prev, ErrorCertificate(
        stage=1 if beta >= 1.0 else 2, beta=beta, h_threshold=h, dual_iters=steps,
        F=cfg.F, T=cfg.T, consensus_passes=passes + steps - cfg.T,
    )


def check_utility_oracle(u, s_max, index):
    """Checks build_network's utility checks: the per-utility check it
    ran for each utility in turn before it checked each family once. Kept
    because only its test sees which utility, and which of its failed
    checks, the error names, or a monotonicity probe short of the largest
    capacity."""
    grid = np.logspace(-6, 6, 121)
    d2 = np.asarray(u.d2(grid), dtype=float)
    if not np.all(d2 < 0):
        raise InvalidNetworkError(f"utility {index} is not strictly concave")
    d3 = np.abs(np.asarray(u.d3(grid), dtype=float))
    if not np.all(d3 <= 2.0 * (-d2) ** 1.5 * (1.0 + 1e-9)):
        raise InvalidNetworkError(f"utility {index} fails the self-concordance check")
    lo = grid[grid <= s_max]
    probe = np.append(lo, s_max)
    if not np.all(np.asarray(u.d1(probe), dtype=float) >= -1e-12):
        raise InvalidNetworkError(
            f"utility {index} is decreasing below the maximum capacity {s_max}"
        )
