"""Price (dual) computation by matrix splitting.

The dual system (A H^-1 A') w = -A H^-1 grad is solved iteratively by
splitting A H^-1 A' into a diagonal part D + Bbar and a remainder
B - Bbar, where B is the off-diagonal coupling and Bbar its row sums.
The resulting fixed-point iteration only moves information between each
link and the sources crossing it, which is what makes it implementable
with route-aggregate message exchange. The same module owns the check
that H can be inverted, which the dense exact solve in direction shares,
and carries spectral diagnostics of the link coupling graph that governs
the iteration's convergence rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Network

__all__ = [
    "SplittingData",
    "DualState",
    "SpectralReport",
    "build_splitting",
    "dual_step_matrix",
    "init_dual_state",
    "dual_step_distributed",
    "build_dual_graph",
    "spectral_radius",
    "weighted_max_cut",
    "spectral_diagnostics",
]

MAX_CUT_ENUM_LIMIT = 20


@dataclass(frozen=True)
class SplittingData:
    """Split pieces of A H^-1 A' at a fixed primal point.

    dk:               diagonal of A H^-1 A' (strictly positive),
    bk:               off-diagonal part, symmetric and elementwise nonnegative,
    bbar:             row sums of bk,
    rhs:              -A H^-1 grad, the right-hand side of the dual system,
    denom:            dk + bbar, the diagonal of D + Bbar, the invertible half,
    iteration_matrix: M = (diag(Bbar) - B) / denom, row by row; a sweep maps
                      w to M w + offset, and its spectral radius is the
                      contraction factor. Read-only, since the sweeps and
                      the eigensolve share it,
    offset:           rhs / denom, the constant part of a sweep.
    """

    dk: np.ndarray
    bk: np.ndarray
    bbar: np.ndarray
    rhs: np.ndarray
    denom: np.ndarray
    iteration_matrix: np.ndarray
    offset: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """B / denom, row by row: the weighted coupling graph on links (an
        edge means two links share a flow) whose out-degrees and cuts bound
        the contraction factor."""
        return self.bk / self.denom[:, None]


def _checked_hessian(hessian_diag, grad, n: int, ndim: int = 1):
    """hessian_diag and grad as float arrays of one ndim-axis shape ending
    in n = S + L, after checking that H can be inverted."""
    H = np.asarray(hessian_diag, dtype=float)
    g = np.asarray(grad, dtype=float)
    if H.ndim != ndim or H.shape[-1] != n or g.shape != H.shape:
        raise ValueError("hessian_diag and grad must have length S + L")
    # the extremes, which a NaN turns NaN, decide all((H > 0) & (H < inf))
    if not (np.minimum.reduce(H, axis=None, initial=np.inf) > 0
            and np.maximum.reduce(H, axis=None, initial=-np.inf) < np.inf):
        raise ValueError("hessian diagonal must be finite and strictly positive")
    return H, g


def build_splitting(network: Network, hessian_diag, grad) -> SplittingData:
    """The split of the dual system at the point with this Hessian diagonal
    and gradient, each piece computed once into new arrays."""
    L = network.num_links
    H, g = _checked_hessian(hessian_diag, grad, network.num_sources + L)
    A = network.incidence
    scaled = np.multiply(A, np.divide(1.0, H))  # A H^-1, then its negation
    bk = scaled.dot(A.T)  # A H^-1 A', whose diagonal is dk
    np.negative(scaled, scaled)
    rhs = scaled.dot(g)
    bk_diag = bk.reshape(-1)[:: L + 1]
    dk = bk_diag.copy()
    bk_diag -= dk  # G - diag(dk) on the diagonal
    bbar = bk.sum(axis=1)

    # D + 2 Bbar - B must be strictly diagonally dominant with a positive
    # diagonal; this is what guarantees the iteration matrix is a contraction.
    # The row sums of |off-diagonal of Q| equal bbar.
    if not np.logical_and.reduce(dk + 2.0 * bbar > bbar):
        raise AssertionError("splitting lost strict diagonal dominance")
    denom = dk + bbar
    # diag(bbar) - bk: 0 - bk off the diagonal (+0.0 where -bk would give
    # -0.0), bbar - 0 on it
    m = 0.0 - bk
    m.reshape(-1)[:: L + 1] = bbar
    m /= denom[:, None]
    m.setflags(write=False)
    return SplittingData(dk=dk, bk=bk, bbar=bbar, rhs=rhs, denom=denom,
                         iteration_matrix=m, offset=rhs / denom)


def dual_step_matrix(split: SplittingData, w, out=None) -> np.ndarray:
    """One fixed-point sweep of the price iteration in matrix form.

    The sweep is written into out (a contiguous float vector other than w),
    which is allocated when absent, and out is returned. ndarray.dot runs
    the BLAS matrix-vector product of `@` and takes out with less call
    overhead than np.matmul; tests/test_errorcontrol.py pins that it
    agrees with `iteration_matrix @ w + offset` bit for bit.
    """
    if out is None:
        out = np.empty_like(split.offset)
    split.iteration_matrix.dot(w, out)
    out += split.offset
    return out


# ---------------------------------------------------------------------------
# per-link form of the iteration
#
# The solver sweeps in matrix form (dual_step_matrix). The per-link form
# below is its oracle: it computes each link's update from route aggregates
# alone, and acceptance criterion 2 and tests/test_splitting.py check the
# matrix sweep against it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualState:
    """Prices plus the route aggregates each participant would hold, as the
    per-link oracle carries them between sweeps.

    route_price[i]     = sum of w over the links of source i,
    weighted_price[i]  = route_price[i] / H_ii,
    weighted_price0[i] = the same aggregate computed with all-ones prices
                         (refreshed once per primal iteration, since it
                         depends on the current Hessian).
    """

    w: np.ndarray
    t: int
    route_price: np.ndarray
    weighted_price: np.ndarray
    weighted_price0: np.ndarray


def _route_aggregates(network: Network, hessian_diag, w):
    pi = network.routing.T @ np.asarray(w, dtype=float)
    big_pi = pi / np.asarray(hessian_diag, dtype=float)[: network.num_sources]
    return pi, big_pi


def init_dual_state(network: Network, hessian_diag, w_init) -> DualState:
    """Per-link oracle: run the initialization exchange (aggregate the
    all-ones price along every route, scale by the local inverse Hessian),
    then install the starting prices w_init."""
    ones = np.ones(network.num_links)
    _, big_pi0 = _route_aggregates(network, hessian_diag, ones)
    w = np.array(w_init, dtype=float)
    pi, big_pi = _route_aggregates(network, hessian_diag, w)
    return DualState(
        w=w, t=0, route_price=pi, weighted_price=big_pi, weighted_price0=big_pi0
    )


def dual_step_distributed(
    network: Network, hessian_diag, grad, state: DualState
) -> DualState:
    """Per-link oracle: one price sweep computed link by link from route
    aggregates only.

    Each link l sees: its own slack curvature and gradient entry, and the
    sums over the sources crossing it of 1/H_ii, of the weighted route
    prices (current and all-ones), and of the scaled gradient entries.
    Numerically identical to dual_step_matrix.
    """
    H = np.asarray(hessian_diag, dtype=float)
    g = np.asarray(grad, dtype=float)
    S, L = network.num_sources, network.num_links
    if state.weighted_price0 is None:
        raise ValueError("dual state missing the all-ones price aggregate")
    hinv_src = 1.0 / H[:S]
    new_w = np.empty(L)
    for l in range(L):
        crossing = network.link_sources[l]
        hinv_slack = 1.0 / H[S + l]
        sum_pi0 = sum(state.weighted_price0[i] for i in crossing)
        sum_hinv = sum(hinv_src[i] for i in crossing)
        sum_pit = sum(state.weighted_price[i] for i in crossing)
        sum_hg = sum(hinv_src[i] * g[i] for i in crossing)
        wl = state.w[l]
        new_w[l] = (
            (sum_pi0 - sum_hinv) * wl
            - sum_pit
            + sum_hinv * wl
            - sum_hg
            - hinv_slack * g[S + l]
        ) / (hinv_slack + sum_pi0)
    pi, big_pi = _route_aggregates(network, H, new_w)
    return replace(
        state, w=new_w, t=state.t + 1, route_price=pi, weighted_price=big_pi
    )


# ---------------------------------------------------------------------------
# spectral diagnostics of the link coupling graph
# ---------------------------------------------------------------------------


def build_dual_graph(network: Network, hessian_diag) -> SplittingData:
    """The split at a zero gradient: everything the spectral functions
    read, which does not depend on the gradient."""
    zero_grad = np.zeros(network.num_sources + network.num_links)
    return build_splitting(network, hessian_diag, zero_grad)


def spectral_radius(split: SplittingData) -> float:
    """Largest-magnitude eigenvalue of the iteration matrix, which is its
    top eigenvalue.

    M = D^-1 (diag(Bbar) - B), with D = denom, is similar to
    D^-1/2 (diag(Bbar) - B) D^-1/2. diag(Bbar) - B is the weighted
    Laplacian of the link coupling graph (B is symmetric and nonnegative,
    Bbar its row sums), so it is positive semidefinite and M has no
    negative eigenvalue. Computed on the symmetrized similar matrix for
    numerical stability; asserts the contraction property (< 1) that the
    splitting guarantees.
    """
    scale = np.sqrt(split.denom)
    sym = split.iteration_matrix * scale[:, None]
    sym /= scale
    both = np.add(sym, sym.T)
    both *= 0.5
    if not np.logical_and.reduce(np.isfinite(both), axis=None):
        raise ValueError("iteration matrix has non-finite entries")
    lam1 = float(np.linalg.eigvalsh(both)[-1])  # ascending
    if not lam1 < 1.0 + 1e-12:
        raise AssertionError(f"price iteration is not a contraction: {lam1}")
    return lam1


def weighted_max_cut(split: SplittingData) -> float:
    """Exact maximum over link subsets of the coupling weight crossing the
    cut, counting both directions. Exhaustive enumeration, so only sensible
    for small graphs; link 0 is pinned to one side by symmetry."""
    weights = split.weights
    both = weights + weights.T
    L = both.shape[0]
    if L > MAX_CUT_ENUM_LIMIT:
        raise ValueError(f"max-cut enumeration limited to {MAX_CUT_ENUM_LIMIT} links")
    if L == 1:
        return 0.0
    best = 0.0
    n_free = L - 1
    batch = 1 << min(n_free, 16)
    free_bits = np.arange(n_free)
    for start in range(0, 1 << n_free, batch):
        masks = np.arange(start, min(start + batch, 1 << n_free), dtype=np.int64)
        # membership matrix over the free nodes 1..L-1; node 0 stays out
        member = np.zeros((len(masks), L), dtype=float)
        member[:, 1:] = (masks[:, None] >> free_bits[None, :]) & 1
        crossing = ((member @ both) * (1.0 - member)).sum(axis=1)
        best = max(best, float(crossing.max()))
    return best


@dataclass(frozen=True)
class SpectralReport:
    lambda1: float
    upper_bound: float
    max_out_degree: float
    lower_bound: float | None = None
    max_cut: float | None = None

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lower": self.lower_bound,
            "upper": self.upper_bound,
            "max_cut": self.max_cut,
            "max_out_degree": self.max_out_degree,
        }


def spectral_diagnostics(
    split: SplittingData, max_cut_limit: int = MAX_CUT_ENUM_LIMIT
) -> SpectralReport:
    """Contraction factor of the price iteration with its graph bounds.

    The upper bound (twice the largest weighted out-degree, capped at 1)
    always holds. The cut-based lower bound 4 * mc / L is reported whenever
    the exact cut enumeration is affordable; it is a useful congestion
    indicator but is not a guaranteed bound on every instance.
    """
    lam1 = spectral_radius(split)
    max_deg = float(split.weights.sum(axis=1).max())
    upper = min(2.0 * max_deg, 1.0)
    L = len(split.denom)
    if L <= max_cut_limit:
        mc = weighted_max_cut(split)
        lower = 4.0 * mc / L
        return SpectralReport(lam1, upper, max_deg, lower, mc)
    return SpectralReport(lam1, upper, max_deg)
