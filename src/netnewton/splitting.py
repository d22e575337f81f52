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
from functools import cached_property

import numpy as np

from .model import Network

__all__ = [
    "SplittingData",
    "SplittingBuffers",
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

    dk:   diagonal of A H^-1 A' (strictly positive),
    bk:   off-diagonal part, symmetric and elementwise nonnegative,
    bbar: row sums of bk,
    rhs:  -A H^-1 grad, the right-hand side of the dual system.

    A split from build_splitting has denom, iteration_matrix and offset
    computed already; one built into SplittingBuffers holds their arrays.
    """

    dk: np.ndarray
    bk: np.ndarray
    bbar: np.ndarray
    rhs: np.ndarray

    @cached_property
    def denom(self) -> np.ndarray:
        """Diagonal of D + Bbar, the invertible half of the split."""
        return self.dk + self.bbar

    @cached_property
    def iteration_matrix(self) -> np.ndarray:
        """M = (diag(Bbar) - B) / denom, row by row; a sweep maps w to
        M w + offset, and its spectral radius is the contraction factor.
        Read-only, since the sweeps and the eigensolve share it."""
        m = (np.diag(self.bbar) - self.bk) / self.denom[:, None]
        m.setflags(write=False)
        return m

    @cached_property
    def weights(self) -> np.ndarray:
        """B / denom, row by row: the weighted coupling graph on links (an
        edge means two links share a flow) whose out-degrees and cuts bound
        the contraction factor."""
        return self.bk / self.denom[:, None]

    @cached_property
    def offset(self) -> np.ndarray:
        """rhs / denom, the constant part of a sweep."""
        return self.rhs / self.denom


class SplittingBuffers:
    """The arrays build_splitting writes one network's split into, and
    spectral_radius its symmetrized matrix. newton_solve allocates them
    once and every primal step overwrites them, so a split built into them
    is valid only until the next build."""

    def __init__(self, network: Network):
        L, n = network.num_links, network.num_sources + network.num_links
        self.incidence = network.incidence
        self.incidence_t = self.incidence.T
        self.hinv = np.empty(n)
        self.scaled = np.empty((L, n))  # A H^-1, then its negation
        self.bk, self.m, self.sym, self.sym_sum = (np.empty((L, L)) for _ in range(4))
        self.diag = np.zeros((L, L))  # diag(bbar)
        self.dk, self.bbar, self.rhs, self.denom, self.offset, self.row, self.scale = (
            np.empty(L) for _ in range(7)
        )
        self.bk_diag = self.bk.reshape(-1)[:: L + 1]
        self.diag_entries = self.diag.reshape(-1)[:: L + 1]
        self.denom_col = self.denom[:, None]
        self.m_view = self.m.view()  # the split's read-only iteration_matrix
        self.m_view.setflags(write=False)


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


def build_splitting(network: Network, hessian_diag, grad, out=None) -> SplittingData:
    """The split of the dual system at the point with this Hessian diagonal
    and gradient. With out (the SplittingBuffers of this network) the split
    is written into it; otherwise into fresh buffers."""
    H, g = _checked_hessian(hessian_diag, grad, network.num_sources + network.num_links)
    b = SplittingBuffers(network) if out is None else out
    np.divide(1.0, H, b.hinv)
    np.multiply(b.incidence, b.hinv, b.scaled)
    b.scaled.dot(b.incidence_t, b.bk)  # A H^-1 A', whose diagonal is dk
    np.negative(b.scaled, b.scaled)
    b.scaled.dot(g, b.rhs)
    np.copyto(b.dk, b.bk_diag)
    np.subtract(b.bk_diag, b.dk, b.bk_diag)  # G - diag(dk) on the diagonal
    np.add.reduce(b.bk, axis=1, out=b.bbar)

    # D + 2 Bbar - B must be strictly diagonally dominant with a positive
    # diagonal; this is what guarantees the iteration matrix is a contraction.
    # The row sums of |off-diagonal of Q| equal bbar.
    qk_diag = np.add(b.dk, np.multiply(2.0, b.bbar, b.row), b.row)
    if not np.logical_and.reduce(qk_diag > b.bbar):
        raise AssertionError("splitting lost strict diagonal dominance")
    np.add(b.dk, b.bbar, b.denom)
    np.copyto(b.diag_entries, b.bbar)
    np.divide(np.subtract(b.diag, b.bk, b.m), b.denom_col, b.m)
    np.divide(b.rhs, b.denom, b.offset)
    split = SplittingData(dk=b.dk, bk=b.bk, bbar=b.bbar, rhs=b.rhs)
    # fill the cached properties with the values they would compute
    vars(split).update(denom=b.denom, iteration_matrix=b.m_view, offset=b.offset)
    return split


def dual_step_matrix(split: SplittingData, w, out=None) -> np.ndarray:
    """One fixed-point sweep of the price iteration in matrix form.

    With out (a contiguous float vector other than w) the sweep is written
    into it and out is returned. Both forms run one BLAS matrix-vector
    product on the same operands, and tests/test_errorcontrol.py pins that
    they agree bit for bit; ndarray.dot takes out with less call overhead
    than np.matmul.
    """
    if out is None:
        return split.iteration_matrix @ w + split.offset
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


def spectral_radius(split: SplittingData, out=None) -> float:
    """Largest-magnitude eigenvalue of the iteration matrix.

    Computed on the symmetrized similar matrix for numerical stability;
    asserts the contraction property (< 1) that the splitting guarantees.
    With out (the SplittingBuffers of the split's network) the symmetrized
    matrix is written into it.
    """
    L = len(split.denom)
    scale, sym, both = (
        (np.empty(L), np.empty((L, L)), np.empty((L, L))) if out is None
        else (out.scale, out.sym, out.sym_sum)
    )
    np.sqrt(split.denom, scale)
    np.divide(np.multiply(split.iteration_matrix, scale[:, None], sym), scale, sym)
    np.multiply(0.5, np.add(sym, sym.T, both), both)
    if not np.logical_and.reduce(np.isfinite(both), axis=None):
        raise ValueError("iteration matrix has non-finite entries")
    # ascending, so the extremes hold the largest magnitude
    eigs = np.linalg.eigvalsh(both)
    lam1 = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    if not lam1 < 1.0 + 1e-12:
        raise AssertionError(f"price iteration is not a contraction: {lam1}")
    return lam1


def weighted_max_cut(split: SplittingData) -> float:
    """Exact maximum over link subsets of the coupling weight crossing the
    cut, counting both directions. Exhaustive enumeration, so only sensible
    for small graphs; link 0 is pinned to one side by symmetry."""
    both = split.weights + split.weights.T
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
