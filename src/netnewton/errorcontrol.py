"""Two-stage termination test for the price iteration.

The direction error a truncated price iteration induces must stay inside
the tolerance  gamma' H gamma <= p^2 * delta' H delta + epsilon.  Both
stages reduce to quantities each participant already holds (route
aggregates, local curvature) plus a max over the network, which a
max-consensus pass provides. Stage 1 runs a fixed budget of sweeps and
accepts when the certified relative error is within p. Otherwise stage 2
derives a sup-norm threshold on consecutive price changes that caps the
remaining absolute error by epsilon, and iterates until it is met.

A solve allocates its own scratch, two price vectors that the sweeps
write into in turn, and tests every stage-2 sweep before it runs the
next. Sweeping ahead in blocks, as the first-order loop does with its
256-row blocks, would make the test cheaper per sweep, but would execute
sweeps past the accepted one that the certificate, the message charge
and the traced sweep count never see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Network, _check_count
from .splitting import SplittingData, dual_step_matrix

__all__ = [
    "ErrorCertificate",
    "DualControlConfig",
    "stage1_beta",
    "stage2_h",
    "max_consensus",
    "run_dual_with_error_control",
]

_TINY_PRICE = 1e-14


@dataclass(frozen=True)
class ErrorCertificate:
    """Record of how a price solve was accepted.

    stage 1 acceptance means beta >= 1 (relative test alone suffices for
    any epsilon); stage 2 acceptance means consecutive prices moved less
    than h_threshold in sup norm. dual_iters counts the sweeps spent and
    consensus_passes the network-wide maxima taken; the message charge
    for both is MessageMetrics.count_price_solve.
    """

    stage: int
    beta: float
    h_threshold: float | None
    dual_iters: int
    F: float
    T: int
    consensus_passes: int

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "beta": None if np.isinf(self.beta) else self.beta,
            "h_threshold": self.h_threshold,
            "dual_iters": self.dual_iters,
            "F": self.F,
            "T": self.T,
        }


@dataclass(frozen=True)
class DualControlConfig:
    T: int
    p: float
    epsilon: float
    F: float
    iter_cap: int = 10**6

    def __post_init__(self):
        # Each check is written so that it also rejects NaN and infinity.
        if not 0 < self.F < 1:
            raise ValueError(f"F must lie in (0, 1), got {self.F!r}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie in (0, 1), got {self.p!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        for name in ("T", "iter_cap"):
            _check_count(name, getattr(self, name))

    @classmethod
    def from_lambda1(cls, lam1: float, p: float, epsilon: float, T: int | None = None):
        """Control for a price iteration whose contraction factor is lam1.

        F takes 5% headroom above lam1, but is never more pessimistic than
        halving its gap to 1, which keeps F in [lam1, 1). Without a given
        T, stage 1 runs the sweeps that shrink the error tenfold at rate F
        (at least two).
        """
        F = min(max(1.05 * lam1, 1e-6), 0.5 * (1.0 + lam1))
        if T is None:
            T = max(2, math.ceil(math.log(0.1) / math.log(F)))
        return cls(T=T, p=p, epsilon=epsilon, F=F)


def _checked_aggregates(network, *aggregates) -> None:
    """Reject aggregates that are not S per-source values, then L link sums."""
    n = network.num_sources + network.num_links
    for v in aggregates:
        if len(v) != n:
            raise ValueError(f"aggregates need S + L = {n} values: S per source, then L link sums")


def _largest(v):
    """The largest entry of a nonempty vector, NaN if any entry is NaN: the
    value of np.maximum.reduce(v) at a third of its call overhead on the
    short vectors of a price solve. Of zeros of both signs it returns the
    first; every caller takes it of absolute values, compares it with
    zero, or takes it of positive entries, where the sign cannot show."""
    return v[v.argmax()]


def stage1_beta(network, w_t, w_t1, big_pi0, big_pi_t, F, p) -> float:
    """Certified squared relative-error margin for the prices w_t.

    Per source:  rho_i = sqrt(L) * Pi0_i * ||w_t1 - w_t||_inf / ((1-F) |Pi_t_i|)
    Per link:    the same with both aggregates summed over crossing sources.

    A vanished denominator means the route price carries no information,
    so the ratio is treated as infinite (forcing more sweeps). Returns
    beta = (max rho / p)^-2, infinite when the prices did not move. The
    prices and aggregates are float arrays; each aggregate holds the S
    per-source values followed by their L link sums (routing @ them).
    """
    _checked_aggregates(network, big_pi0, big_pi_t)
    diff = float(_largest(np.abs(w_t1 - w_t)))
    if diff == 0.0:
        return math.inf
    S = network.num_sources
    amp = math.sqrt(network.num_links) * diff / (1.0 - F)
    den = np.abs(big_pi_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(den < _TINY_PRICE, np.inf, amp * big_pi0 / den)
    # the source maximum first, which a NaN link ratio leaves standing
    worst = max(float(_largest(rho[:S])), float(_largest(rho[S:])))
    if worst == 0.0:
        return math.inf
    return (worst / p) ** -2


def stage2_h(network, hessian_diag, big_pi0, pi0, beta, epsilon, F) -> float:
    """Sup-norm threshold on consecutive price changes for stage 2.

    Valid for beta in [0, 1); meeting ||w(t+1) - w(t)||_inf <= h certifies
    gamma' H gamma <= epsilon / (1 - beta). Shrinks like sqrt(epsilon).
    stage1_beta returns 0 when a route price vanishes; the cap is then
    epsilon alone. The curvature and aggregates are float arrays; big_pi0
    is laid out as in stage1_beta, and only its link sums are read.
    """
    _checked_aggregates(network, big_pi0)
    if not 0.0 <= beta < 1.0:
        raise ValueError("stage 2 applies only when beta is in [0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    S, L = network.num_sources, network.num_links
    c = math.sqrt(epsilon / ((1.0 - beta) * (L + S) * L)) * (1.0 - F)
    # The denominators are positive and c >= 0, and rounded division is
    # monotone, so the smallest c / a is c over the largest a, bit for bit.
    src = _largest(pi0 * hessian_diag[:S] ** -0.5)
    link = _largest(np.sqrt(hessian_diag[S:]) * big_pi0[S:])
    return c / max(float(src), float(link))


def max_consensus(values, neighbors, rounds: int | None = None):
    """Iterated neighborhood maximum; returns (values, rounds used).

    Every node replaces its value with the max over itself and its
    neighbors each round, until nothing changes (or for the given number
    of rounds). On a connected graph the result is the global maximum
    everywhere within diameter-many rounds; a disconnected graph raises.

    The solver takes its network-wide maxima directly and charges each
    one network.comm_diameter rounds; this routine is the oracle for that
    charge, and the tests check that it never needs more rounds.
    """
    v = np.array(values, dtype=float)
    n = len(v)
    if len(neighbors) != n:
        raise ValueError("one neighbor set per node required")
    closed = np.eye(n, dtype=bool)  # each node's neighbors and itself
    for i, nbrs in enumerate(neighbors):
        closed[i, list(nbrs)] = True
    limit = rounds if rounds is not None else n
    used = 0
    for _ in range(limit):
        new = np.where(closed, v, -np.inf).max(axis=1)
        used += 1
        if np.array_equal(new, v):
            used -= 1  # a no-op sweep carries no new information
            break
        v = new
    if rounds is None and not np.all(v == v.max()):
        raise ValueError("max consensus did not reach agreement; graph disconnected?")
    return v, used


def run_dual_with_error_control(
    network: Network,
    hessian_diag,
    split: SplittingData,
    cfg: DualControlConfig,
    warm_start_w=None,
):
    """Iterate prices until the direction-error tolerance is certified.

    Stage 1 performs T sweeps from the warm start and evaluates the
    relative test on the last pair (the accepted prices are the
    second-to-last iterate, whose error the final sweep measures). While
    the certified beta is below 1, stage 2 derives the change threshold h
    from it, sweeps until consecutive prices move less than h, and
    re-evaluates beta at the terminal pair. A retest that certifies less
    than the beta used to derive h tightens the threshold and iteration
    continues, so the returned pair always satisfies both stage bounds
    together.

    split is the splitting of the dual system at the current primal point
    (build_splitting of hessian_diag and the gradient). The warm start is
    copied, never written.

    Returns (accepted prices, ErrorCertificate); the certificate counts
    the sweeps and the max-consensus passes the solve executed.
    """
    H = np.asarray(hessian_diag, dtype=float)
    S, L = network.num_sources, network.num_links
    H_src = H[:S]
    R, R_t, pi0 = network.routing, network.routing.T, network.route_lengths
    # Pi0 = pi0 / H and its link sums serve every retest and threshold;
    # agg takes Pi_t and its link sums at each retest
    num, agg = np.empty(S + L), np.empty(S + L)
    big_pi = agg[:S]
    R.dot(np.divide(pi0, H_src, num[:S]), num[S:])

    def retest(w_prev, w_cur):
        R.dot(np.divide(R_t.dot(w_prev, big_pi), H_src, big_pi), agg[S:])
        return stage1_beta(network, w_prev, w_cur, num, agg, cfg.F, cfg.p)

    # Each sweep writes into the vector holding the iterate before w_prev,
    # and `change` takes the stage-2 test.
    w_prev = np.ones(L) if warm_start_w is None else np.array(warm_start_w, dtype=float)
    w_cur = dual_step_matrix(split, w_prev)
    change = np.empty(L)
    subtract, absolute = np.subtract, np.absolute
    for _ in range(cfg.T - 1):
        w_prev, w_cur = w_cur, dual_step_matrix(split, w_cur, w_prev)
    steps = cfg.T
    beta = retest(w_prev, w_cur)
    passes = 2  # the price change and beta
    h = None
    while not beta >= 1.0:  # a NaN beta goes on to stage2_h, which rejects it
        h = stage2_h(network, H, num, pi0, beta, cfg.epsilon, cfg.F)
        for steps in range(steps + 1, cfg.iter_cap + 1):
            w_prev, w_cur = w_cur, dual_step_matrix(split, w_cur, w_prev)
            if _largest(absolute(subtract(w_cur, w_prev, change), change)) <= h:
                break
        else:
            raise RuntimeError(
                "price iteration exceeded the cap; F may underestimate the "
                "contraction factor"
            )
        beta_final = retest(w_prev, w_cur)
        passes += 2  # agreeing on h, and the retest
        if beta <= beta_final < 1.0:
            # both certified bounds hold at w_prev with the tighter beta
            break
        beta = beta_final  # certifies stage 1, or tightens h
    return w_prev, ErrorCertificate(
        stage=1 if beta >= 1.0 else 2, beta=beta, h_threshold=h, dual_iters=steps,
        F=cfg.F, T=cfg.T,
        consensus_passes=passes + steps - cfg.T,  # one price-change max per stage-2 sweep
    )
