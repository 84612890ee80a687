"""Online consensus updates for a single kernel's linear parameters.

Each (learner, kernel) pair carries a parameter vector theta and a dual
vector lambda.  One round of the protocol is: predict with the current
theta, solve a small regularized least-squares problem that pulls theta
toward the neighborhood midpoints, then move the dual along the new
disagreement with the neighbors.  The quadratic-loss solve is rank-one
and is done in closed form; other convex losses fall back to damped
gradient descent.

All array functions broadcast over leading axes, so one code path serves
both a single (dim,) vector and a stacked (num_kernels, dim) block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty weights of the per-round objective.

    ``rho`` scales the consensus penalty toward neighborhood midpoints,
    ``eta_local`` the proximal pull toward the previous iterate.  Both
    must be positive; the defaults are the stock operating point.
    """

    rho: float = 100.0
    eta_local: float = 10.0

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        if not self.eta_local > 0.0:
            raise ValueError("eta_local must be positive")


@dataclass(frozen=True)
class LossModel:
    """A scalar loss and its derivative in the prediction argument."""

    name: str
    evaluate: Callable
    gradient_scalar: Callable


def squared_loss():
    """The quadratic loss (pred - label)^2 with derivative 2 (pred - label)."""
    return LossModel(
        name="squared",
        evaluate=lambda pred, label: (pred - label) ** 2,
        gradient_scalar=lambda pred, label: 2.0 * (pred - label),
    )


def gamma_hat(own_theta, neighbor_thetas):
    """Sum of midpoints between own parameters and each neighbor's.

    Returns sum_l (own + neighbor_l) / 2; a zero vector when the
    neighbor list is empty.  Neighbors are visited in the order given,
    which callers keep sorted by node id for reproducibility.
    """
    own = np.asarray(own_theta, dtype=np.float64)
    total = np.zeros_like(own)
    for nb in neighbor_thetas:
        total = total + 0.5 * (own + np.asarray(nb, dtype=np.float64))
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
    alpha = cfg.eta_local + cfg.rho * degree
    b = 2.0 * label * z + cfg.eta_local * theta + cfg.rho * gamma - lam
    zz = (z * z).sum(axis=-1, keepdims=True)
    zb = (z * b).sum(axis=-1, keepdims=True)
    out = b / alpha - (2.0 * zb / (alpha * (alpha + 2.0 * zz))) * z
    if not np.isfinite(out).all():
        raise FloatingPointError("theta update produced non-finite values")
    return out


def theta_update_general(theta, lam, loss, z, label, gamma, degree, cfg,
                         tol=1e-8, max_iters=500):
    """Minimize the round objective for arbitrary convex losses.

    Damped gradient descent with Armijo backtracking (slope 1e-4, step
    halving) starting from the previous iterate.  Stops when the
    gradient norm drops below ``tol``, or below the smallest norm whose
    progress is still resolvable in double precision, whichever comes
    first; raises :class:`ConvergenceError` carrying the last gradient
    norm when the iteration budget runs out or the line search stalls
    away from stationarity.  For the quadratic loss this agrees with
    :func:`theta_update_quadratic` to roughly the achievable tolerance.
    """
    theta0 = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)

    def objective(v):
        return (
            float(loss.evaluate(float(v @ z), label))
            + float(lam @ v)
            + 0.5 * cfg.rho * (degree * float(v @ v) - 2.0 * float(v @ gamma))
            + 0.5 * cfg.eta_local * float((v - theta0) @ (v - theta0))
        )

    def gradient(v):
        return (
            loss.gradient_scalar(float(v @ z), label) * z
            + lam
            + cfg.rho * (degree * v - gamma)
            + cfg.eta_local * (v - theta0)
        )

    current = theta0.copy()
    value = objective(current)
    grad_norm = np.inf
    curvature = cfg.eta_local + cfg.rho * degree + 2.0 * float(z @ z)
    for _ in range(max_iters):
        grad = gradient(current)
        grad_norm = float(np.linalg.norm(grad))
        # Below this norm the Armijo decrease drowns in float round-off,
        # so the point is stationary to working precision.
        floor = np.sqrt(4.0 * curvature * np.finfo(float).eps
                        * max(1.0, abs(value)))
        if grad_norm <= max(tol, floor):
            return current
        step = 1.0
        stalled = False
        while True:
            candidate = current - step * grad
            cand_value = objective(candidate)
            if cand_value <= value - 1e-4 * step * grad_norm ** 2:
                break
            step *= 0.5
            if step < 1e-20:
                stalled = True
                break
        if stalled:
            raise ConvergenceError(
                "backtracking stalled", gradient_norm=grad_norm
            )
        current = candidate
        value = cand_value
    raise ConvergenceError(
        "no convergence in %d iterations" % max_iters, gradient_norm=grad_norm
    )


def lambda_update(lam, own_theta, neighbor_thetas, rho):
    """Dual ascent on the accumulated neighbor disagreement.

    Returns ``lam + (rho/2) sum_l (own - neighbor_l)`` where all thetas
    are the freshly updated ones.  With no neighbors the dual is
    returned unchanged.
    """
    own = np.asarray(own_theta, dtype=np.float64)
    total = np.zeros_like(own)
    for nb in neighbor_thetas:
        total = total + (own - np.asarray(nb, dtype=np.float64))
    return lam + 0.5 * rho * total


def run_single_kernel(graph, feature_map, features, labels, cfg):
    """Reference loop for the single-kernel protocol on a full network.

    ``features`` has shape (rounds, num_nodes, input_dim) and ``labels``
    (rounds, num_nodes).  Every node predicts, updates theta against the
    neighbors' previous parameters, then all duals move using the new
    parameters.  Returns (predictions, thetas, lams) with predictions of
    shape (rounds, num_nodes) and the final parameter blocks.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    rounds, num_nodes = labels.shape
    dim = 2 * feature_map.num_features
    thetas = np.zeros((num_nodes, dim))
    lams = np.zeros((num_nodes, dim))
    predictions = np.zeros((rounds, num_nodes))
    for t in range(rounds):
        # Map one node at a time so the arithmetic matches a node that
        # only ever sees its own sample.
        z = np.stack([feature_map.map(features[t, k]) for k in range(num_nodes)])
        predictions[t] = (thetas * z).sum(axis=-1)
        new_thetas = np.empty_like(thetas)
        for k in range(num_nodes):
            nbrs = graph.neighbors[k]
            gam = gamma_hat(thetas[k], [thetas[l] for l in nbrs])
            new_thetas[k] = theta_update_quadratic(
                thetas[k], lams[k], z[k], labels[t, k], gam, len(nbrs), cfg
            )
        for k in range(num_nodes):
            nbrs = graph.neighbors[k]
            lams[k] = lambda_update(
                lams[k], new_thetas[k], [new_thetas[l] for l in nbrs], cfg.rho
            )
        thetas = new_thetas
    return predictions, thetas, lams
