"""Correctness checks computed apart from the solvers.

Every check rests on the Lagrangian dual of the rate problem

    maximise sum_i U_i(s_i)  subject to  R s <= c,  s >= 0,

derived here from the instance data alone. For link prices w >= 0 each
source sees its route price q_i = (R' w)_i and best-responds on the box
[0, C_i], where C_i is the smallest capacity on its route (no feasible
rate exceeds it, so the box leaves the problem unchanged):

    D(w) = sum_i max_{0 <= t <= C_i} [U_i(t) - q_i t] + w . c

For the utilities in use the inner maximiser has a closed form: t = a / q
for U = a log t, and t = (slope - q) / curvature for the concave
quadratic, each clipped to the box. Weak duality gives h* >= -D(w) for
every w >= 0, with h = -sum_i U_i the negated utility the solvers report,
so h(x) + D(w) bounds the suboptimality of any feasible x from above.
No solver code is called: the utilities are read through their to_dict()
parameters and the formulas are evaluated here.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

# The accuracy every solve must reach, fixed here rather than read from the
# solver configuration: the two-pass relative target and the baselines'
# band around the optimum.
TARGET_A = 0.01
BAND = 0.05
FEAS_RTOL = 1e-9
# Weak duality is exact in real arithmetic; allow the roundoff of summing a
# few hundred terms of size up to |h|.
DUALITY_RTOL = 1e-9
# reference_optimum against the independent dual minimum
REFERENCE_RTOL = 1e-6


class CheckFailed(AssertionError):
    """An output failed one of the independent checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Dual:
    """Closed-form dual function of one instance."""

    def __init__(self, network):
        self.R = np.array(network.routing, dtype=float)
        self.c = np.array(network.capacities, dtype=float)
        L, S = self.R.shape
        self.S, self.L = S, L
        self.box = np.array([self.c[self.R[:, i] > 0].min() for i in range(S)])
        params = [u.to_dict() for u in network.utilities]
        families = {p["family"] for p in params}
        if not families <= {"log", "quadratic"}:
            raise ValueError(f"no closed-form dual for utility families {families}")
        self.is_log = np.array([p["family"] == "log" for p in params])
        self.weight = np.array([p.get("weight", 0.0) for p in params])
        self.slope = np.array([p.get("slope", 0.0) for p in params])
        self.curv = np.array([p.get("curvature", 1.0) for p in params])

    def utility(self, rates) -> np.ndarray:
        t = np.asarray(rates, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_part = self.weight * np.log(t)
        quad_part = self.slope * t - 0.5 * self.curv * t * t
        return np.where(self.is_log, log_part, quad_part)

    def h(self, rates) -> float:
        """Negated total utility, the value the solvers minimise."""
        return -float(self.utility(rates).sum())

    def best_response(self, w) -> np.ndarray:
        q = self.R.T @ np.asarray(w, dtype=float)
        t_log = np.where(q > 0, self.weight / np.where(q > 0, q, 1.0), np.inf)
        t_quad = (self.slope - q) / self.curv
        return np.clip(np.where(self.is_log, t_log, t_quad), 0.0, self.box)

    def value(self, w) -> float:
        w = np.asarray(w, dtype=float)
        t = self.best_response(w)
        q = self.R.T @ w
        return float((self.utility(t) - q * t).sum() + w @ self.c)

    def grad(self, w) -> np.ndarray:
        return self.c - self.R @ self.best_response(w)

    def minimum(self, w0=None) -> float:
        """min over w >= 0 of D(w), which equals -h* for this convex problem."""
        w0 = np.ones(self.L) if w0 is None else np.maximum(np.asarray(w0, dtype=float), 0.0)
        res = scipy.optimize.minimize(
            lambda w: (self.value(w), self.grad(w)),
            w0,
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, None)] * self.L,
            options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 20000},
        )
        return float(res.fun)


def _tol(value: float) -> float:
    return DUALITY_RTOL * max(abs(value), 1.0)


def check_feasible(dual: Dual, rates, slacks=None, strict: bool = True) -> None:
    """Positive rates (strictly so for interior-point output, where slacks
    must be strictly positive too) and load within capacity. A price
    method's best response may legitimately switch a quadratic source off,
    so its rates are only required to be nonnegative."""
    s = np.asarray(rates, dtype=float)
    positive = np.all(s > 0) if strict else np.all(s >= 0)
    _require(bool(positive), f"a rate is not positive: min {s.min():.3e}")
    if slacks is not None:
        y = np.asarray(slacks, dtype=float)
        _require(bool(np.all(y > 0)), f"a slack is not strictly positive: min {y.min():.3e}")
    over = float((dual.R @ s - dual.c).max() / dual.c.max())
    _require(over <= FEAS_RTOL, f"load exceeds capacity by {over:.3e} (relative)")


def check_barrier_gap(dual: Dual, x, mu: float, scale: float) -> float:
    """Barrier solve on scale*h - mu*sum(log x): the slack prices
    w = mu / (scale * y) certify 0 <= h(x) + D(w) <= mu * (S + L) / scale.
    Returns the gap."""
    x = np.asarray(x, dtype=float)
    s, y = x[: dual.S], x[dual.S:]
    check_feasible(dual, s, y)
    h = dual.h(s)
    gap = h + dual.value(mu / (scale * y))
    bound = mu * (dual.S + dual.L) / scale
    _require(gap >= -_tol(h), f"weak duality violated: h + D = {gap:.6e} < 0")
    _require(gap <= bound + _tol(h), f"barrier gap {gap:.6e} exceeds mu*(S+L)/scale = {bound:.6e}")
    return gap


def two_pass_shift(dual: Dual, h_pass1: float, mu: float, a: float):
    """(scale, shift) of the two-pass scheme from the pass-1 value: the
    barrier gap bound nu = S + L makes h1 - mu*nu a lower bound on h*, and
    the pass-2 scale nu / (a * margin) must be at least 1, else the utility
    is shifted so that the scale lands at exactly 1."""
    nu = dual.S + dual.L
    margin = h_pass1 - mu * nu
    if margin > 0 and a * margin <= nu:
        return nu / (a * margin), 0.0
    return 1.0, mu * nu + nu / a - h_pass1


def check_two_pass(dual: Dual, result, mu: float, a: float) -> float:
    """Both passes are barrier solves with valid gaps, the pass-2 scale and
    shift follow from the pass-1 value, and the final point meets the
    relative target (h + D) / (-D + shift) <= a. Returns that ratio."""
    x1, x2 = result.pass1.x, result.pass2.x
    check_barrier_gap(dual, x1, mu, 1.0)
    h1 = dual.h(x1[: dual.S])
    scale, shift = two_pass_shift(dual, h1, mu, a)
    _require(
        abs(scale - result.scale) <= 1e-12 * scale
        and abs(shift - result.shift) <= 1e-12 * max(abs(shift), 1.0),
        f"pass-2 scale/shift {result.scale}/{result.shift} do not follow from "
        f"the pass-1 value (expected {scale}/{shift})",
    )
    check_barrier_gap(dual, x2, 1.0, scale)
    y2 = x2[dual.S:]
    d = dual.value(1.0 / (scale * y2))
    h = dual.h(x2[: dual.S])
    _require(abs(h - result.h_final) <= _tol(h), f"h_final {result.h_final} != h(x) {h}")
    ratio = (h + d) / (-d + shift)
    _require(-d + shift > 0, "shifted dual bound is not positive")
    _require(ratio <= a, f"two-pass relative error bound {ratio:.6f} exceeds a = {a}")
    return ratio


def check_reference(h_ref: float, dual_min: float) -> None:
    """reference_optimum agrees with the independently minimised dual."""
    err = abs(h_ref + dual_min)
    _require(
        err <= REFERENCE_RTOL * max(abs(h_ref), 1.0),
        f"reference optimum {h_ref:.9f} differs from -min D = {-dual_min:.9f}",
    )


def check_first_order(dual: Dual, result, h_ref: float, band: float) -> float:
    """A converged first-order run: its final rates are feasible, its value
    lies in the band around the optimum, and the dual value of its final
    prices closes the gap to within the band. Returns |h_final + D(prices)|."""
    _require(bool(result.converged), "first-order method did not converge")
    check_feasible(dual, result.rates, strict=False)
    width = band * max(abs(h_ref), 1.0)
    _require(
        abs(result.h_final - h_ref) <= width,
        f"h_final {result.h_final:.6f} outside the band {width:.3e} around {h_ref:.6f}",
    )
    gap = abs(result.h_final + dual.value(result.prices))
    _require(gap <= width, f"|h_final + D(prices)| = {gap:.3e} exceeds the band {width:.3e}")
    return gap
