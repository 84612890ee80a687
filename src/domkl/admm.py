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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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
            raise ConfigError("rho must be positive", key="rho")
        if not self.eta_local > 0.0:
            raise ConfigError("eta_local must be positive", key="eta_local")


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
