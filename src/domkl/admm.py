"""Online consensus updates for a single kernel's linear parameters.

Each (learner, kernel) pair carries a parameter vector theta and a dual
vector lambda.  One round of the protocol is: predict with the current
theta, solve a small regularized least-squares problem that pulls theta
toward the neighborhood midpoints, then move the dual along the new
disagreement with the neighbors.  The loss is the squared prediction
error, so the solve is a rank-one system done in closed form.

All array functions broadcast over leading axes, so one code path serves
both a single (dim,) vector and a stacked (num_kernels, dim) block.
"""

from __future__ import annotations

import numpy as np


def gamma_hat(own_theta, neighbor_thetas):
    """Sum of midpoints between own parameters and each neighbor's.

    Returns sum_l (own + neighbor_l) / 2; a zero vector when the
    neighbor list is empty.  Neighbors are visited in the order given,
    which callers keep sorted by node id for reproducibility.
    """
    own = np.asarray(own_theta, dtype=np.float64)
    # Start from zeros, not the first term: 0.0 + (-0.0) is +0.0.
    total = np.zeros_like(own)
    term = np.empty_like(own)
    for nb in neighbor_thetas:
        np.add(own, nb, out=term)
        term *= 0.5
        total += term
    return total


def theta_update_quadratic(theta, lam, z, label, gamma, degree, cfg):
    """Closed-form round objective minimizer for the quadratic loss.

    Minimizes ``(theta.z - label)^2 + lam.theta
    + (rho/2) sum_l ||theta - midpoint_l||^2
    + (eta_local/2) ||theta - theta_old||^2``
    where the midpoint sum enters through ``gamma`` and ``degree``.  The
    system matrix is a rank-one update of a scaled identity, inverted
    explicitly, so the cost is linear in the dimension.
    """
    # In place, but in the operation order of
    #   b = 2 label z + eta_local theta + rho gamma - lam
    #   b / alpha - (2 (z.b) / (alpha (alpha + 2 (z.z)))) z
    # so the result is bitwise that of the expression.  ``theta``,
    # ``lam`` and ``gamma`` must have the shape of ``z``.
    alpha = cfg.eta_local + cfg.rho * degree
    out = z * (2.0 * label)
    term = np.multiply(theta, cfg.eta_local)
    out += term
    np.multiply(gamma, cfg.rho, out=term)
    out += term
    out -= lam
    np.multiply(z, z, out=term)
    zz = term.sum(axis=-1, keepdims=True)
    np.multiply(z, out, out=term)
    coef = term.sum(axis=-1, keepdims=True)
    coef *= 2.0
    zz *= 2.0
    zz += alpha
    zz *= alpha
    coef /= zz
    np.multiply(coef, z, out=term)
    out /= alpha
    out -= term
    if not np.isfinite(out).all():
        raise FloatingPointError("theta update produced non-finite values")
    return out


def lambda_update(lam, own_theta, neighbor_thetas, rho):
    """Dual ascent on the accumulated neighbor disagreement.

    Returns ``lam + (rho/2) sum_l (own - neighbor_l)`` where all thetas
    are the freshly updated ones.  With no neighbors the dual is
    returned unchanged.
    """
    own = np.asarray(own_theta, dtype=np.float64)
    total = np.zeros_like(own)
    term = np.empty_like(own)
    for nb in neighbor_thetas:
        np.subtract(own, nb, out=term)
        total += term
    total *= 0.5 * rho
    total += lam
    return total
