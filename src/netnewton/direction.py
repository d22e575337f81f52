"""Primal Newton directions and decrements.

The working direction is assembled in two stages so that flow conservation
survives an inexact price vector: rates move against the gradient plus
route price, and each link's slack absorbs exactly the rate change routed
through it. A dense saddle-system solve is kept alongside as the oracle
for exactness tests, and in a stacked form for the reference method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network
from .splitting import solve_dual_exact

__all__ = [
    "NewtonDirection",
    "kkt_direction",
    "stacked_kkt_direction",
    "primal_direction",
    "exact_decrement",
    "inexact_decrement",
]


@dataclass
class NewtonDirection:
    """Feasibility-preserving direction with its curvature norm.

    delta stacks the rate part and the slack part; decrement is
    sqrt(delta' H delta).
    """

    delta: np.ndarray
    decrement: float


def kkt_direction(network: Network, hessian_diag, grad):
    """Dense oracle for the full saddle system.

    Solves for the exact direction and multipliers by block elimination:
    prices from the reduced system, then delta = -H^-1 (grad + A' w).
    Asserts the assembled saddle-system residual before returning.
    """
    H = np.asarray(hessian_diag, dtype=float)
    g = np.asarray(grad, dtype=float)
    A = network.incidence
    w = solve_dual_exact(network, H, g)
    delta = -(g + A.T @ w) / H
    top = np.abs(H * delta + A.T @ w + g).max()
    bottom = np.abs(A @ delta).max()
    scale = max(np.abs(g).max(), 1.0)
    if not (top <= 1e-8 * scale and bottom <= 1e-8 * scale):
        raise AssertionError("saddle residual too large")
    return delta, w


def stacked_kkt_direction(A, H, g) -> np.ndarray:
    """kkt_direction's delta for a stack of networks: (T, L, N) incidence
    matrices, (T, N) Hessian diagonals and gradients. The dual systems are
    solved together by one batched LU, the factorization kkt_direction
    uses for each network alone, so the result matches kkt_direction's to
    rounding. kkt_direction's residual checks hold per network."""
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
    top = np.abs(H * delta + price + g).max(axis=1)
    bottom = np.abs(A @ delta[..., None]).max(axis=(1, 2))
    tol = 1e-8 * np.maximum(np.abs(g).max(axis=1), 1.0)
    if not (np.all(top <= tol) and np.all(bottom <= tol)):
        raise AssertionError("saddle residual too large")
    return delta


def primal_direction(network: Network, hessian_diag, grad, w) -> NewtonDirection:
    """Two-stage direction for an arbitrary price vector w.

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
    delta = np.concatenate([delta_s, delta_y])
    return NewtonDirection(delta=delta, decrement=inexact_decrement(delta, H))


def inexact_decrement(delta, hessian_diag) -> float:
    """Curvature norm sqrt(sum_i delta_i^2 H_ii) of a direction."""
    d = np.asarray(delta, dtype=float)
    H = np.asarray(hessian_diag, dtype=float)
    return float(np.sqrt(np.sum(d * d * H)))


def exact_decrement(network: Network, hessian_diag, grad) -> float:
    """Decrement of the dense-oracle direction; diagnostic use only."""
    delta, _ = kkt_direction(network, hessian_diag, grad)
    return inexact_decrement(delta, hessian_diag)
