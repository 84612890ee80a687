"""Comparison algorithms: centralized mini-batch OMKL and diffusion OGD.

COMKL learns one central multi-kernel function from the whole network's
round batch: a mini-batch gradient step per kernel, run one kernel at a
time over the whole trace, and one hedge over the kernels' losses.
RFF-DOKL's state is one (K, D) array, a single-kernel parameter row per
node: each node takes a local gradient step, then averages over its
closed neighborhood, read from the graph's table (adapt-then-combine
diffusion).
"""

from __future__ import annotations

import numpy as np


def comkl_step(theta, samples, step_size):
    """Run one kernel of the central learner through a whole trace.

    ``samples`` pairs the kernel's (T, K, D) features of every learner's
    round-t sample with their (T, K) labels.  Each round steps on the
    round's summed squared loss, scaled by ``step_size / K``.  Returns
    the (T, K) dot products made before each step and the final
    parameters; raises ``FloatingPointError`` naming the first round
    with a non-finite dot product or parameter.
    """
    z, labels = samples
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    theta = np.array(theta, dtype=np.float64)
    if not step_size > 0.0:
        raise ValueError("step_size must be positive")
    if z.shape[:2] != labels.shape or z.shape[2:] != theta.shape:
        raise ValueError("need (T, K, D) features, (T, K) labels and a "
                         "(D,) parameter vector")
    num_rounds, num_nodes = labels.shape
    scale = step_size / num_nodes
    dots = np.empty((num_rounds, num_nodes))
    prod = np.empty(z.shape[1:])
    errors = np.empty((num_nodes, 1))
    gradient = np.empty_like(theta)
    # Bitwise the rows of a step over all kernels at once: per-row dot
    # products, and a gradient summed over learners in order.  The
    # factors 2.0 and scale apply one after the other, as
    # ``theta - scale * (2.0 * sum)`` rounds them.
    with np.errstate(over="ignore", invalid="ignore"):
        for z_t, dots_t, labels_t in zip(z, dots[:, :, None],
                                         labels[:, :, None]):
            np.multiply(z_t, theta, out=prod)
            np.add.reduce(prod, axis=1, keepdims=True, out=dots_t)
            np.subtract(dots_t, labels_t, out=errors)
            np.multiply(errors, z_t, out=prod)
            np.add.reduce(prod, axis=0, out=gradient)
            gradient *= 2.0
            gradient *= scale
            theta -= gradient
    # Feature vectors have unit norm, so a non-finite parameter makes
    # every later dot product non-finite: the first non-finite dot
    # product is the first round that either value went non-finite.
    finite = np.isfinite(dots).all(axis=1)
    if not finite.all():
        raise FloatingPointError(
            "comkl_step: non-finite dot product or parameter at round %d of %d"
            % (np.argmin(finite) + 1, num_rounds))
    if not np.isfinite(theta).all():
        raise FloatingPointError(
            "comkl_step: non-finite parameter after round %d of %d"
            % (num_rounds, num_rounds))
    return dots, theta


def comkl_hedge(dots, labels, eta_global):
    """Kernel weights and combined predictions of the central learner.

    Round t weights the kernels' (T, P, K) ``dots`` by the softmax of
    minus their batch losses before t over ``eta_global``; a batch loss
    sums the learners' squared errors (a hedge on their mean is this one
    at K times ``eta_global``, up to rounding).  Returns the (T, K)
    predictions, (T, P) weights and (T, P, K) squared errors; raises
    ``FloatingPointError`` naming the first round with a non-finite
    batch loss or prediction.
    """
    if not eta_global > 0.0:
        raise ValueError("eta_global must be positive")
    if dots.ndim != 3 or dots[:, 0].shape != labels.shape:
        raise ValueError("need (T, P, K) dot products and (T, K) labels")
    # Bitwise a round-by-round hedge: each round's batch loss sums a
    # contiguous row, the running totals add in round order, and each
    # round's softmax subtracts its own maximum.
    with np.errstate(over="ignore", invalid="ignore"):
        squared_errors = (dots - labels[:, None, :]) ** 2
        batch_losses = squared_errors.sum(axis=-1)
        cumulative = np.zeros_like(batch_losses)
        np.cumsum(batch_losses[:-1], axis=0, out=cumulative[1:])
        weights = -cumulative / eta_global
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        predictions = (weights[:, :, None] * dots).sum(axis=1)
    # A batch loss overflows in its own round; a prediction only once the
    # running losses before it have.
    finite = (np.isfinite(batch_losses).all(axis=1)
              & np.isfinite(predictions).all(axis=1))
    if not finite.all():
        raise FloatingPointError(
            "comkl_hedge: non-finite loss at round %d of %d"
            % (np.argmin(finite) + 1, len(finite)))
    return predictions, weights, squared_errors


def rff_dokl_step(thetas, graph, samples, step_size):
    """One adapt-then-combine round over the whole network.

    ``thetas`` (K, D) holds one row per node of ``graph``, and
    ``samples`` is a (features, labels) pair holding every node's
    mapped round feature vector, shape (K, D), and label.  Every node
    takes a gradient step of ``step_size`` on its own sample, then
    replaces its parameters with the unweighted average of the stepped
    parameters over its closed neighborhood.  Returns the new (K, D)
    parameters; raises ``FloatingPointError`` when a prediction error or
    a new parameter vector is not finite.
    """
    z, labels = samples
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    num_nodes = graph.num_nodes
    if not step_size > 0.0:
        raise ValueError("step_size must be positive")
    if (thetas.shape[:-1], z.shape, labels.shape) != (
            (num_nodes,), thetas.shape, (num_nodes,)):
        raise ValueError("need (K, D) parameters and one sample per node")
    # Bitwise the sums of a per-node loop: one dot product per row, as a
    # stack of (1, D) @ (D, 1) products (a matrix product's diagonal
    # rounds differently), and neighbor sums started from zero in
    # ascending id order.  A pad (row K) adds +0.0, which changes no
    # partial sum, since none of them is -0.0.
    neighborhoods, sizes = graph.closed_neighborhoods
    errors = np.matmul(thetas[:, None, :], z[:, :, None])[:, 0, 0] - labels
    stepped = np.zeros((num_nodes + 1, thetas.shape[1]))
    np.multiply(((step_size * 2.0) * errors)[:, None], z,
                out=stepped[:num_nodes])
    np.subtract(thetas, stepped[:num_nodes], out=stepped[:num_nodes])
    combined = np.add.reduce(stepped[neighborhoods], axis=1, initial=0.0)
    combined /= sizes[:, None]
    if not (np.isfinite(errors).all() and np.isfinite(combined).all()):
        raise FloatingPointError("rff_dokl step produced non-finite values")
    return combined
