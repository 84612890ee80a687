"""Comparison algorithms: centralized mini-batch OMKL and diffusion OGD.

COMKL learns one central multi-kernel function from the whole network's
round batch (mini-batch gradient step per kernel, single hedge state).
RFF-DOKL keeps a single-kernel parameter per node, takes a local
gradient step, then averages over the closed neighborhood
(adapt-then-combine diffusion).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .features import map_batch
from .hedge import softmax_from_scores


@dataclass(frozen=True)
class ComklState:
    """Central multi-kernel learner state.

    ``loss_mode`` chooses whether the hedge sees the summed or the
    averaged per-kernel batch loss each round; summing is the default.
    """

    thetas: np.ndarray
    cumulative_loss: np.ndarray
    weights: np.ndarray
    eta_local: float = 0.5
    eta_global: float = 10.0
    loss_mode: str = "sum"
    expected_batch: int | None = None

    def __post_init__(self):
        if self.loss_mode not in ("sum", "mean"):
            raise ValueError("loss_mode must be 'sum' or 'mean'")
        if not self.eta_local > 0.0 or not self.eta_global > 0.0:
            raise ValueError("step sizes must be positive")

    @classmethod
    def fresh(cls, num_kernels, dim, eta_local=0.5, eta_global=10.0,
              loss_mode="sum", expected_batch=None):
        return cls(
            thetas=np.zeros((num_kernels, dim)),
            cumulative_loss=np.zeros(num_kernels),
            weights=np.full(num_kernels, 1.0 / num_kernels),
            eta_local=eta_local,
            eta_global=eta_global,
            loss_mode=loss_mode,
            expected_batch=expected_batch,
        )


def comkl_step(state, batch, feature_maps):
    """Advance the central learner by one round batch.

    ``batch`` is an (inputs, labels) pair covering every learner's
    sample for the round.  Returns the combined predictions for the
    batch and the (batch, kernels) squared errors of every kernel's
    prediction, both made before any update, and the new state.
    Raises ``FloatingPointError`` when the predictions or the new
    parameters are not finite.
    """
    inputs, labels = batch
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if inputs.ndim != 2 or len(inputs) != len(labels):
        raise ValueError("batch size mismatch")
    if state.expected_batch is not None and len(labels) != state.expected_batch:
        raise ValueError(
            "batch size mismatch: expected %d, got %d"
            % (state.expected_batch, len(labels))
        )
    batch_size = len(labels)

    round_weights = softmax_from_scores(
        -state.cumulative_loss / state.eta_global
    )
    z = map_batch(feature_maps, inputs)                     # (P, K, D)
    dots = (z * state.thetas[:, None, :]).sum(axis=-1)      # (P, K)
    predictions = (round_weights[:, None] * dots).sum(axis=0)

    errors = dots - labels[None, :]
    squared_errors = errors ** 2
    batch_losses = squared_errors.sum(axis=1)
    if state.loss_mode == "mean":
        batch_losses = batch_losses / batch_size
    gradients = 2.0 * (errors[:, :, None] * z).sum(axis=1)  # (P, D)
    new_thetas = state.thetas - (state.eta_local / batch_size) * gradients
    if not (np.isfinite(predictions).all() and np.isfinite(new_thetas).all()):
        raise FloatingPointError("comkl step produced non-finite values")

    new_state = replace(
        state,
        thetas=new_thetas,
        cumulative_loss=state.cumulative_loss + batch_losses,
        weights=round_weights,
    )
    return predictions, squared_errors.T, new_state


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
