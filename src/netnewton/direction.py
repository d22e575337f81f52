"""Primal Newton directions and decrements.

The working direction is assembled in two stages so that flow conservation
survives an inexact price vector: rates move against the gradient plus
route price, and each link's slack absorbs exactly the rate change routed
through it. The exact direction is one dense saddle-system solve over a
stack of systems; one network's exact direction and prices are its batch
of one.
"""

from __future__ import annotations

import numpy as np

from .model import Network
from .splitting import _checked_hessian

__all__ = [
    "kkt_direction",
    "stacked_kkt_direction",
    "primal_direction",
    "inexact_decrement",
]


def kkt_direction(network: Network, hessian_diag, grad):
    """Exact direction and prices (delta, w) of one network's saddle
    system: the batch of one of stacked_kkt_direction."""
    H = np.asarray(hessian_diag, dtype=float)[None]
    g = np.asarray(grad, dtype=float)[None]
    delta, w = stacked_kkt_direction(network.incidence[None], H, g)
    return delta[0], w[0]


def stacked_kkt_direction(A, H, g):
    """Exact directions and prices (delta, w) of a stack of saddle systems:
    (T, L, N) incidence matrices A, where T is K or 1 (one network at K
    points), and (K, N) Hessian diagonals and gradients. Block elimination
    takes w from the dual system (A H^-1 A') w = -A H^-1 g by LU, then
    delta = -H^-1 (g + A' w). Checks H, then asserts each system's dual
    and saddle residuals."""
    H, g = _checked_hessian(H, g, A.shape[-1], ndim=2)
    A_T = A.transpose(0, 2, 1)
    AD = A * (1.0 / H)[:, None, :]
    G = AD @ A_T
    rhs = -(AD @ g[..., None])
    w = np.linalg.solve(G, rhs)
    resid = np.abs(G @ w - rhs).max(axis=(1, 2))
    if not np.all(resid <= 1e-10 * np.maximum(np.abs(rhs).max(axis=(1, 2)), 1.0)):
        raise AssertionError(f"dual solve residual {resid.max():.3e} too large")
    price = (A_T @ w)[..., 0]
    delta = -(g + price) / H
    _check_saddle(A, H, g, delta, price)
    return delta, w[..., 0]


def _check_saddle(A, H, g, delta, price) -> None:
    """Assert both blocks of each saddle system, H delta + A'w + g = 0 and
    A delta = 0, to 1e-8 of the size of their terms: the largest of
    |H delta|, |A'w| (price), |g| and 1 for the top block, and of
    A (|g| + |A'w|) / H, which bounds A |delta|, and 1 for the bottom (an
    incidence matrix is nonnegative). Rounding alone then passes at any
    scale of the utilities or capacities."""
    absolute, peak, maximum = np.absolute, np.maximum.reduce, np.maximum
    Hd = H * delta
    top = peak(absolute(Hd + price + g), axis=1)
    size_p, size_g = absolute(price), absolute(g)
    top_size = maximum(maximum(peak(absolute(Hd), axis=1), peak(size_p, axis=1)),
                       maximum(peak(size_g, axis=1), 1.0))
    bottom = peak(absolute(A @ delta[..., None]), axis=(1, 2))
    reach = peak(A @ ((size_g + size_p) / H)[..., None], axis=(1, 2))
    if not (np.all(top <= 1e-8 * top_size) and np.all(bottom <= 1e-8 * maximum(reach, 1.0))):
        raise AssertionError("saddle residual too large")


def primal_direction(network: Network, hessian_diag, grad, w) -> np.ndarray:
    """Two-stage direction delta = (rates, slacks) for an arbitrary price
    vector w.

    Rates:  delta_s[i] = -(grad_i + route price of i) / H_ii
    Slacks: delta_y    = -routing @ delta_s

    The slack stage zeroes A @ delta identically, so every stepsize keeps
    the iterate on the flow-conservation manifold regardless of how far w
    is from the exact prices.
    """
    H = np.asarray(hessian_diag, dtype=float)
    g = np.asarray(grad, dtype=float)
    S = network.num_sources
    pi = network.routing.T @ np.asarray(w, dtype=float)
    delta_s = -(g[:S] + pi) / H[:S]
    delta_y = -(network.routing @ delta_s)
    return np.concatenate([delta_s, delta_y])


def inexact_decrement(delta, hessian_diag):
    """Curvature norm sqrt(sum_i delta_i^2 H_ii) along the last axis: of a
    direction, or of each direction of a stack."""
    d = np.asarray(delta, dtype=float)
    H = np.asarray(hessian_diag, dtype=float)
    return np.sqrt(np.add.reduce(d * d * H, axis=-1))
