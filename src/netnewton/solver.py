"""Outer Newton loop, stepsize rule, two-pass barrier scheme, diagnostics.

The loop alternates: evaluate the barrier objective's derivatives, run the
error-controlled price iteration, form the feasibility-preserving
direction, recover the decrement through the exact finite-round
aggregation, and step. The stepsize is damped (b / (theta + 1)) until the
decrement first drops below the threshold V, after which every step is a
unit step; the switch is permanent. The exact reference method is one
loop of dense steps over a stack of networks, reference_solve its batch of one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .auxgraph import build_auxiliary_graph, compute_theta
from .direction import inexact_decrement, primal_direction, stacked_kkt_direction
from .errorcontrol import DualControlConfig, ErrorCertificate, run_dual_with_error_control
from .metrics import MessageMetrics, consensus_rounds
from .model import (
    FEASIBILITY_RTOL,
    BarrierProblem,
    Network,
    PrimalVector,
    _check_count,
    barrier_grad,
    barrier_hessian_diag,
    barrier_objective,
    eval_f,
    eval_h,
    feasibility_residual,
    feasible_init,
    group_method,
    network_stacks,
    take_trials,
    utility_method,
)
from .splitting import build_splitting, spectral_diagnostics, spectral_radius

__all__ = [
    "SolverConfig",
    "TraceRecord",
    "SolveResult",
    "TwoPassResult",
    "DiagnosticsReport",
    "stepsize_rule",
    "newton_solve",
    "reference_solve",
    "reference_optimum",
    "reference_optima",
    "two_pass_solve",
    "phase_diagnostics",
    "write_trace_csv",
    "trace_to_json",
]

@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the distributed solve.

    V is the damped/unit-step switching threshold, b the damping constant
    (must exceed (V+1)/(2V+1) to keep iterates strictly positive; by
    default the midpoint of that bound and 1), p and
    epsilon the direction-error tolerances, T the stage-1 sweep budget
    (derived from the contraction factor when absent), theta_term the
    outer stopping threshold, and a the relative-error target of the
    two-pass scheme. tau_noise injects a deterministic perturbation into
    the stepsize scalar for robustness experiments; it must respect the
    bound (1/b - 1)(1 + V).
    """

    mu: float = 1.0
    p: float = 1e-3
    epsilon: float = 1e-4
    V: float = 0.12
    b: float | None = None
    T: int | None = None
    theta_term: float = 1e-8
    max_primal_iters: int = 200
    a: float = 0.01
    tau_noise: float = 0.0
    dual_warm_start: bool = True
    store_iterates: bool = True
    record_spectra: bool = False

    def __post_init__(self):
        if not 0.0 < self.V < 0.267:
            raise ValueError("V must lie in (0, 0.267)")
        lo = (self.V + 1.0) / (2.0 * self.V + 1.0)
        if self.b is None:
            object.__setattr__(self, "b", 0.5 * (lo + 1.0))
        if not lo < self.b < 1.0:
            raise ValueError(f"b must lie in ({lo:.6f}, 1)")
        # Each check is written so that it also rejects NaN and infinity.
        if not 1.0 <= self.mu < np.inf:
            raise ValueError(f"the solver requires a finite mu >= 1, got {self.mu!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not 0 <= self.theta_term < np.inf:
            raise ValueError(
                f"theta_term must be non-negative and finite, got {self.theta_term!r}")
        if not 0 < self.a < np.inf:
            raise ValueError(f"two-pass target a must be positive and finite, got {self.a!r}")
        _check_count("max_primal_iters", self.max_primal_iters)
        if self.T is not None:
            _check_count("T", self.T)
        tau_cap = (1.0 / self.b - 1.0) * (1.0 + self.V)
        if not abs(self.tau_noise) <= tau_cap:
            raise ValueError(f"|tau_noise| must not exceed {tau_cap:.6f}")


def stepsize_rule(theta, damped_active, V: float, b: float):
    """Stepsizes and updated phase flags, elementwise over theta and the
    flags (scalars or arrays of one shape).

    While the damped phase is alive and theta is at least V, the step is
    b / (theta + 1). The first time theta falls below V the phase latches
    to unit steps for good.
    """
    if np.count_nonzero(theta < 0):
        raise ValueError("theta must be nonnegative")
    damped = damped_active & (theta >= V)
    return np.where(damped, b / (theta + 1.0), 1.0), damped


@dataclass
class TraceRecord:
    k: int
    f: float
    h: float
    lambda_tilde: float
    theta: float
    stepsize: float
    phase: str
    consensus_rounds: int
    summation_rounds: int
    min_slack: float
    feas_residual: float
    certificate: ErrorCertificate
    x: np.ndarray | None = None
    dual_graph: dict | None = None

    @property
    def dual_iters(self) -> int:
        return self.certificate.dual_iters


@dataclass
class SolveResult:
    x: np.ndarray
    trace: list
    converged: bool
    metrics: MessageMetrics
    f_final: float
    h_final: float

    @property
    def primal_iters(self) -> int:
        return len(self.trace)

    @property
    def total_dual_iters(self) -> int:
        return self.metrics.dual_rounds


def newton_solve(problem: BarrierProblem, config: SolverConfig) -> SolveResult:
    """Run the distributed inexact method on one barrier problem.

    Every iterate is strictly positive and satisfies flow conservation to
    within the declared tolerance; both are asserted. Terminates when the
    stepsize scalar drops to theta_term after the unit-step switch, or at
    the iteration cap.
    """
    if problem.mu < 1.0:
        raise ValueError("the inexact method needs barrier weight mu >= 1")
    net = problem.network
    S = net.num_sources
    aux = build_auxiliary_graph(net)
    x = feasible_init(net).values.copy()
    resid = feasibility_residual(net, x)
    # Bound once per solve: the utility methods. Each step's layers
    # allocate their own scratch, so no step reads what another left.
    mu, scale = problem.mu, problem.scale
    value, d1, d2 = (utility_method(net, m) for m in ("value", "d1", "d2"))
    w_warm = np.ones(net.num_links)
    damped = True
    trace: list[TraceRecord] = []
    converged = False

    for k in range(config.max_primal_iters):
        g = barrier_grad(x, S, mu, scale, d1)
        H = barrier_hessian_diag(x, S, mu, scale, d2)
        split = build_splitting(net, H, g)
        # no max cut per step: its exhaustive 2^(L-1) enumeration would dominate
        spectra = spectral_diagnostics(split, max_cut_limit=0) if config.record_spectra else None
        lam1 = spectral_radius(split) if spectra is None else spectra.lambda1
        dual_cfg = DualControlConfig.from_lambda1(lam1, config.p, config.epsilon, config.T)
        w, cert = run_dual_with_error_control(net, H, split, dual_cfg, w_warm)
        delta = primal_direction(net, H, g, w)
        theta, sum_rounds = compute_theta(net, aux, delta, H)
        if config.tau_noise:
            theta = max(0.0, theta + config.tau_noise * math.cos(float(k)))
        d, damped_next = stepsize_rule(theta, damped, config.V, config.b)
        d, damped_next = float(d), bool(damped_next)
        phase = "damped" if (damped and damped_next) else "quadratic"
        f, h = barrier_objective(x, S, mu, scale, value)
        rec = TraceRecord(
            k=k,
            f=f,
            h=h,
            lambda_tilde=float(inexact_decrement(delta, H)),
            theta=theta,
            stepsize=d,
            phase=phase,
            consensus_rounds=consensus_rounds(net, cert),
            summation_rounds=sum_rounds,
            min_slack=float(x[S:].min()),
            feas_residual=resid,
            certificate=cert,
            x=x.copy() if config.store_iterates else None,
            dual_graph=None if spectra is None else spectra.to_dict(),
        )
        trace.append(rec)
        damped = damped_next
        if not damped and theta <= config.theta_term:
            converged = True
            break
        x = x + d * delta
        if not np.all(x > 0):
            raise AssertionError(
                "iterate lost strict positivity; stepsize window violated"
            )
        resid = feasibility_residual(net, x)
        if resid > FEASIBILITY_RTOL:
            raise AssertionError(f"flow conservation drifted: residual {resid:.3e}")
        if config.dual_warm_start:
            w_warm = w

    f_final, h_final = barrier_objective(x, S, mu, scale, value)
    return SolveResult(
        x=x,
        trace=trace,
        converged=converged,
        metrics=MessageMetrics.from_trace(net, trace, aux.rounds),
        f_final=f_final,
        h_final=h_final,
    )


# The exact method's step cap, per reference_solve call and per stage of
# reference_optima's central path.
_REFERENCE_MAX_STEPS = 500


def _exact_newton(A, groups, x, mu: float, scale: float, tol: float) -> list:
    """The exact method on a stack of network_stacks, from a (T, S + L) stack
    of points x updated in place, at barrier weight mu and utility scale.
    Each step takes the dense exact direction and the stepsize rule at the
    default V and b. A trial keeps its own damped flag and leaves the stack
    when its decrement reaches tol or after _REFERENCE_MAX_STEPS steps.
    Returns, per step, the (decrements, stepsizes) of the trials still in it."""
    S = A.shape[2] - A.shape[1]
    config = SolverConfig()
    # the stack: its trials' indices into x, their points and damped flags
    active, xa, damped = np.arange(len(x)), x, np.ones(len(x), dtype=bool)
    steps = []
    for _ in range(_REFERENCE_MAX_STEPS):
        g = barrier_grad(xa, S, mu, scale, group_method(groups, "d1"))
        H = barrier_hessian_diag(xa, S, mu, scale, group_method(groups, "d2"))
        delta, _ = stacked_kkt_direction(A, H, g)
        lam = inexact_decrement(delta, H)
        d, damped = stepsize_rule(lam, damped, config.V, config.b)
        steps.append((lam, d))
        moving = ~(lam <= tol)
        if not moving.any():
            break
        if not moving.all():
            x[active] = xa
            active, xa, A, damped = active[moving], xa[moving], A[moving], damped[moving]
            d, delta, groups = d[moving], delta[moving], take_trials(groups, moving)
        xa = xa + d[:, None] * delta
        if not np.all(xa > 0):
            raise AssertionError("reference iterate lost strict positivity")
    x[active] = xa
    return steps


def reference_solve(problem: BarrierProblem, x0=None, tol: float = 1e-12) -> SolveResult:
    """Exact method: dense price solve and exact decrement every step.

    Used as the high-accuracy reference the distributed method is compared
    against; the batch of one of the stacked steps of reference_optima.
    A given start x0 must pass PrimalVector.checked. Its trace rows are
    (k, decrement, stepsize).
    """
    net = problem.network
    start = feasible_init(net) if x0 is None else PrimalVector.checked(net, x0)
    x = np.array(start.values, ndmin=2)
    (_, A, groups), = network_stacks([net])
    steps = _exact_newton(A, groups, x, problem.mu, problem.scale, tol)
    trace = [(k, float(lam[0]), float(d[0])) for k, (lam, d) in enumerate(steps)]
    x = x[0]
    return SolveResult(
        x=x,
        trace=trace,
        converged=trace[-1][1] <= tol,
        metrics=MessageMetrics(),
        f_final=eval_f(problem, x),
        h_final=eval_h(net, x),
    )


def reference_optimum(network: Network):
    """High-accuracy optimum of the capacity-constrained problem itself:
    the batch of one of reference_optima. Returns (x, h)."""
    return reference_optima([network])[0]


def reference_optima(networks) -> list:
    """High-accuracy optima of several capacity-constrained problems, as a
    list of (x, h) in input order.

    Each network follows the central path with warm starts: stage k runs
    the exact method at utility scale 10^k, for k = 0, ..., 8 (equivalent
    to shrinking the barrier weight to 1e-8), to decrement 1e-10, in the
    stacks of network_stacks.
    """
    xs = [None] * len(networks)
    for members, A, groups in network_stacks(networks):
        x = np.stack([feasible_init(networks[i]).values for i in members])
        for k in range(9):
            _exact_newton(A, groups, x, 1.0, 10.0**k, 1e-10)
        for i, x_i in zip(members, x):
            xs[i] = x_i.copy()
    return [(x, eval_h(net, x)) for net, x in zip(networks, xs)]


@dataclass
class TwoPassResult:
    """Both passes of two_pass_solve; x is pass 2's. When pass 2 would
    repeat pass 1 exactly, pass2 is pass1 and is counted once."""

    pass1: SolveResult
    pass2: SolveResult
    scale: float
    shift: float
    h_final: float

    @property
    def x(self) -> np.ndarray:
        return self.pass2.x

    @property
    def h_pass1(self) -> float:
        return self.pass1.h_final

    @property
    def pass2_reused(self) -> bool:
        return self.pass2 is self.pass1

    @property
    def _solves(self) -> tuple:
        return (self.pass1,) if self.pass2_reused else (self.pass1, self.pass2)

    @property
    def total_dual_iters(self) -> int:
        return sum(res.total_dual_iters for res in self._solves)

    @property
    def traces(self) -> list:
        return [rec for res in self._solves for rec in res.trace]

    @property
    def primal_iters(self) -> int:
        return sum(res.primal_iters for res in self._solves)

    @property
    def converged(self) -> bool:
        """Whether every pass that ran converged."""
        return all(res.converged for res in self._solves)

    def relative_error(self, h_ref: float) -> float:
        """Relative gap to a reference optimum, on the shifted scale the
        guarantee applies to. The scale is |h_ref + shift|, so a negative
        one cannot turn a gap into a pass."""
        return (self.h_final - h_ref) / abs(h_ref + self.shift)


def two_pass_solve(network: Network, config: SolverConfig) -> TwoPassResult:
    """Bound the barrier-induced utility error by the relative target a.

    The barrier carries one log term per variable, so the utility value at
    the barrier optimum overshoots the constrained optimum by at most
    mu * (S + L). Pass 1, run with the configured barrier weight, turns
    that into a computable lower bound on the optimal value. The negated
    utility is then rescaled by M = (S + L) / (a * (h1 - mu * (S + L)))
    and pass 2 runs with barrier weight 1, which caps the relative utility
    error of its result at a. When the pass-1 value does not admit a
    scale of at least 1 (needed to keep the rescaled objective
    self-concordant), a constant shift of the utility restores one. The
    shift never changes the chosen rates, only the value the relative
    target refers to, and is recorded on the result.

    With scale 1 and mu 1, pass 2 would solve pass 1's problem again from
    the same start; newton_solve is deterministic, so pass 1 is returned
    as pass 2 instead.
    """
    nu = network.num_sources + network.num_links
    prob1 = BarrierProblem(network, config.mu, 1.0)
    res1 = newton_solve(prob1, config)
    h1 = res1.h_final
    margin = h1 - config.mu * nu
    if margin > 0 and config.a * margin <= nu:
        shift = 0.0
        scale = nu / (config.a * margin)
    else:
        # shift the negated utility so the rescale lands exactly at 1
        shift = config.mu * nu + nu / config.a - h1
        scale = 1.0
    if scale == 1.0 and config.mu == 1.0:
        res2 = res1
    else:
        res2 = newton_solve(BarrierProblem(network, 1.0, scale), config)
    return TwoPassResult(
        pass1=res1,
        pass2=res2,
        scale=scale,
        shift=shift,
        h_final=res2.h_final,
    )


# ---------------------------------------------------------------------------
# convergence-phase diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    violations: list
    constants: dict
    assumption_checks: dict
    steps_checked: dict

    @property
    def ok(self) -> bool:
        return not self.violations


def _quad_constants(p: float, epsilon: float, phi: float):
    root = math.sqrt(epsilon)
    gap = 1.0 - p - phi - root
    if gap <= 0:
        return None, None
    xi = (phi * p + root) / gap + (2.0 * phi * root + epsilon) / gap**2
    v = 1.0 / gap**2
    return xi, v


def phase_diagnostics(
    result: SolveResult,
    problem: BarrierProblem,
    config: SolverConfig,
    f_ref: float | None = None,
    phi: float = 0.267,
) -> DiagnosticsReport:
    """Check the per-step guarantees of both convergence phases on a trace.

    Damped steps must decrease the objective by at least the constant the
    (V, b, p, epsilon) window admits; after the unit-step switch the exact
    decrement must contract quadratically up to the error-level offset; and
    once the exact decrement is below 0.68 the objective must be within
    its square of the reference optimum. Iterate snapshots are required.
    Violations are reported, never raised.
    """
    net = problem.network
    p, eps, V, b = config.p, config.epsilon, config.V, config.b
    violations = []
    trace = result.trace
    if any(rec.x is None for rec in trace):
        raise ValueError("phase diagnostics need stored iterates")

    xs = np.stack([rec.x for rec in trace])
    S = net.num_sources
    g = barrier_grad(xs, S, problem.mu, problem.scale, utility_method(net, "d1"))
    H = barrier_hessian_diag(xs, S, problem.mu, problem.scale, utility_method(net, "d2"))
    delta, _ = stacked_kkt_direction(net.incidence[None], H, g)
    exact = inexact_decrement(delta, H).tolist()
    fvals = [eval_f(problem, rec.x) for rec in trace]

    # damped phase: guaranteed decrease constant
    y_floor = (2.0 * V * b - V + b - 1.0) / b
    eps_cap = ((0.5 - p) * y_floor) ** 2 if p < 0.5 else None
    damped_ok = p < 0.5 and eps_cap is not None and eps < eps_cap
    alpha = None
    decrease_bound = None
    if damped_ok:
        alpha = (0.5 - p - math.sqrt(eps) * b / (2.0 * V * b - V + b - 1.0)) / (1.0 + p)
        decrease_bound = (
            -(2.0 * b - 1.0) * alpha * (1.0 + p) * y_floor**2 / (1.0 + y_floor)
        )
    n_damped = 0
    for idx, rec in enumerate(trace[:-1]):
        if rec.phase != "damped":
            continue
        n_damped += 1
        if damped_ok:
            drop = fvals[idx + 1] - fvals[idx]
            if drop > decrease_bound + 1e-9:
                violations.append(
                    {"kind": "damped_decrease", "k": rec.k, "lhs": drop,
                     "rhs": decrease_bound}
                )
        lam_t = rec.lambda_tilde
        lo = (2.0 * b - 1.0) / (lam_t + 1.0)
        mid = b / (rec.theta + 1.0)
        hi = 1.0 / (lam_t + 1.0)
        if not (lo <= mid * (1 + 1e-12) and mid <= hi * (1 + 1e-12)):
            violations.append(
                {"kind": "stepsize_sandwich", "k": rec.k, "lhs": lo, "mid": mid,
                 "rhs": hi}
            )

    # quadratic phase: contraction of the exact decrement
    xi, v = _quad_constants(p, eps, phi)
    n_quad = 0
    if xi is not None:
        for idx in range(len(trace) - 1):
            if trace[idx].phase != "quadratic":
                continue
            n_quad += 1
            lhs = exact[idx + 1]
            rhs = v * exact[idx] ** 2 + xi
            if lhs > rhs + 1e-9:
                violations.append(
                    {"kind": "quadratic_contraction", "k": trace[idx].k,
                     "lhs": lhs, "rhs": rhs}
                )
    else:
        violations.append(
            {"kind": "invalid_constants", "k": None,
             "lhs": f"1 - p - phi - sqrt(eps) <= 0 for phi={phi}", "rhs": None}
        )

    # suboptimality certificate from the exact decrement
    n_sub = 0
    if f_ref is not None:
        for idx, rec in enumerate(trace):
            if exact[idx] <= 0.68:
                n_sub += 1
                if f_ref < fvals[idx] - exact[idx] ** 2 - 1e-9:
                    violations.append(
                        {"kind": "suboptimality", "k": rec.k,
                         "lhs": f_ref, "rhs": fvals[idx] - exact[idx] ** 2}
                    )

    # error-level relations for the quadratic-phase analysis
    first_quad = next((i for i, r in enumerate(trace) if r.phase == "quadratic"), None)
    tau_bar = 0.0
    theta_bar = trace[first_quad].theta if first_quad is not None else None
    if first_quad is not None:
        tau_bar = abs(trace[first_quad].lambda_tilde - trace[first_quad].theta)
    root = math.sqrt(eps)
    assumption_checks = {
        "entry_below_phi": (
            None
            if theta_bar is None
            else (1.0 + p) * (theta_bar + tau_bar) + root <= phi
        ),
        "contraction_preserves_068": (
            None if xi is None else v * 0.68**2 + xi <= 0.68
        ),
        "decrement_ratio": (0.68 + root) / (1.0 - p) <= 1.0,
        "error_headroom": p + root <= 1.0 - (4.0 * phi**2) ** 0.25 - phi,
    }
    delta_min = None if xi is None else 4.0 * v * xi * (1.0 + v)
    assumption_checks["delta_min"] = delta_min
    assumption_checks["delta_exists"] = delta_min is not None and delta_min < 0.5

    constants = {
        "alpha": alpha,
        "damped_decrease_bound": decrease_bound,
        "xi": xi,
        "v": v,
        "phi": phi,
        "epsilon_cap_for_alpha": eps_cap,
    }
    steps = {"damped": n_damped, "quadratic": n_quad, "suboptimality": n_sub}
    return DiagnosticsReport(violations, constants, assumption_checks, steps)


# ---------------------------------------------------------------------------
# trace output
# ---------------------------------------------------------------------------

# The scalar TraceRecord fields each trace row carries, in CSV column
# order. The JSON rows also carry summation_rounds, which the CSV has never
# had; certificates and spectra are JSON-only too.
TRACE_COLUMNS = [
    "k", "f", "h", "lambda_tilde", "theta", "stepsize", "phase",
    "dual_iters", "consensus_rounds", "min_slack", "feas_residual",
]
_JSON_TRACE_COLUMNS = TRACE_COLUMNS + ["summation_rounds"]


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            # csv writes a float as str(), which is its repr
            writer.writerow([getattr(rec, c) for c in TRACE_COLUMNS])


def trace_to_json(result: SolveResult, config: SolverConfig | None = None) -> dict:
    doc = {
        "converged": result.converged,
        "primal_iters": result.primal_iters,
        "total_dual_iters": result.total_dual_iters,
        "f_final": result.f_final,
        "h_final": result.h_final,
        "metrics": result.metrics.totals(),
        "trace": [],
    }
    if config is not None:
        doc["config"] = {
            "mu": config.mu, "p": config.p, "epsilon": config.epsilon,
            "V": config.V, "b": config.b, "theta_term": config.theta_term,
            "a": config.a,
        }
    for rec in result.trace:
        row = {c: getattr(rec, c) for c in _JSON_TRACE_COLUMNS}
        row["certificate"] = rec.certificate.to_dict()
        if rec.dual_graph is not None:
            row["dual_graph"] = rec.dual_graph
        doc["trace"].append(row)
    return doc
