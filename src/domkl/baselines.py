"""Comparison algorithms: centralized mini-batch OMKL and diffusion OGD.

COMKL learns one central multi-kernel function from the whole network's
round batch: a mini-batch gradient step per kernel, run one kernel at a
time over the whole trace, and one hedge over the kernels' losses.
RFF-DOKL keeps a single-kernel parameter per node, takes a local
gradient step, then averages over the closed neighborhood
(adapt-then-combine diffusion).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    theta = np.asarray(theta, dtype=np.float64)
    if not step_size > 0.0:
        raise ValueError("step_size must be positive")
    if z.shape[:2] != labels.shape or z.shape[2:] != theta.shape:
        raise ValueError("need (T, K, D) features, (T, K) labels and a "
                         "(D,) parameter vector")
    num_rounds, num_nodes = labels.shape
    scale = step_size / num_nodes
    dots = np.empty((num_rounds, num_nodes))
    # Bitwise the rows of a step over all kernels at once: per-row dot
    # products, and a gradient summed over learners in order.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(num_rounds):
            dots[t] = (z[t] * theta).sum(axis=-1)
            errors = dots[t] - labels[t]
            gradient = 2.0 * (errors[:, None] * z[t]).sum(axis=0)
            theta = theta - scale * gradient
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


def comkl_hedge(dots, labels, eta_global, loss_mode="sum"):
    """Kernel weights and combined predictions of the central learner.

    Round t weights the kernels' (T, P, K) ``dots`` by the softmax of
    minus their batch losses before t over ``eta_global``; a batch loss
    sums, or in "mean" ``loss_mode`` averages, the learners' squared
    errors.  Returns the (T, K) predictions, (T, P) weights and (T, P, K)
    squared errors; raises ``FloatingPointError`` naming the first round
    with a non-finite prediction.
    """
    if loss_mode not in ("sum", "mean"):
        raise ValueError("loss_mode must be 'sum' or 'mean'")
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
        if loss_mode == "mean":
            batch_losses = batch_losses / labels.shape[1]
        cumulative = np.zeros_like(batch_losses)
        np.cumsum(batch_losses[:-1], axis=0, out=cumulative[1:])
        weights = -cumulative / eta_global
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        predictions = (weights[:, :, None] * dots).sum(axis=1)
    finite = np.isfinite(predictions).all(axis=1)
    if not finite.all():
        raise FloatingPointError(
            "comkl_hedge: non-finite prediction at round %d of %d"
            % (np.argmin(finite) + 1, len(finite)))
    return predictions, weights, squared_errors


@dataclass(frozen=True)
class DiffusionState:
    """Single-kernel parameters of every node for diffusion OGD.

    ``thetas`` (K, D) holds one row per node.  ``neighborhoods`` (K, W)
    lists each node's closed neighborhood in ascending id order, padded
    with K, the index of an all-zero row; ``sizes`` (K,) holds the
    neighborhood sizes.
    """

    thetas: np.ndarray
    neighborhoods: np.ndarray
    sizes: np.ndarray
    step_size: float = 0.5

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")

    @classmethod
    def fresh(cls, graph, dim, step_size=0.5):
        num_nodes = graph.num_nodes
        members = [sorted((k,) + graph.neighbors[k]) for k in range(num_nodes)]
        sizes = np.array([len(m) for m in members], dtype=np.float64)
        table = np.full((num_nodes, int(sizes.max())), num_nodes, dtype=np.intp)
        for k, m in enumerate(members):
            table[k, :len(m)] = m
        table.setflags(write=False)
        sizes.setflags(write=False)
        return cls(thetas=np.zeros((num_nodes, dim)), neighborhoods=table,
                   sizes=sizes, step_size=step_size)


def rff_dokl_step(state, samples):
    """One adapt-then-combine round over the whole network.

    ``samples`` is a (features, labels) pair holding every node's
    mapped round feature vector, shape (K, D), and label.  Every node
    takes a gradient step on its own sample, then replaces its
    parameters with the unweighted average of the stepped parameters
    over its closed neighborhood.  Returns the new state; raises
    ``FloatingPointError`` when a prediction error or a new parameter
    vector is not finite.
    """
    z, labels = samples
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    thetas = state.thetas
    num_nodes = len(thetas)
    if z.shape != thetas.shape or labels.shape != (num_nodes,):
        raise ValueError("need one sample per node")
    # Bitwise the sums of a per-node loop: one dot product per row (a
    # matrix product's diagonal rounds differently), and neighbor sums
    # started from zero in ascending id order.  A pad adds +0.0, which
    # changes no partial sum, since none of them is -0.0.
    errors = np.array([thetas[k] @ z[k] for k in range(num_nodes)]) - labels
    stepped = np.zeros((num_nodes + 1, thetas.shape[1]))
    np.subtract(thetas, ((state.step_size * 2.0) * errors)[:, None] * z,
                out=stepped[:num_nodes])
    total = np.zeros_like(thetas)
    for column in state.neighborhoods.T:
        total += stepped[column]
    combined = total / state.sizes[:, None]
    if not (np.isfinite(errors).all() and np.isfinite(combined).all()):
        raise FloatingPointError("rff_dokl step produced non-finite values")
    return replace(state, thetas=combined)
