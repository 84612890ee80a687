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
    z = np.stack([fm.map(inputs) for fm in feature_maps])  # (P, K, D)
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
    """One node's single-kernel parameters for diffusion OGD."""

    theta: np.ndarray
    step_size: float = 0.5

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")

    @classmethod
    def fresh(cls, dim, step_size=0.5):
        return cls(theta=np.zeros(dim), step_size=step_size)


def rff_dokl_step(states, graph, samples):
    """One adapt-then-combine round over the whole network.

    ``samples`` is a (features, labels) pair holding every node's
    mapped round feature vector, shape (K, D), and label.  Every node
    takes a gradient step on its own sample, then replaces its
    parameters with the unweighted average of the stepped parameters
    over its closed neighborhood.  Returns the new per-node states;
    raises ``FloatingPointError`` when a prediction error or a new
    parameter vector is not finite.
    """
    z, labels = samples
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if not len(states) == len(z) == len(labels) == graph.num_nodes:
        raise ValueError("need one state and one sample per node")
    predictions = [float(s.theta @ z[k]) for k, s in enumerate(states)]
    errors = np.array(predictions) - labels
    stepped = [s.theta - s.step_size * 2.0 * errors[k] * z[k]
               for k, s in enumerate(states)]
    combined = []
    for k, state in enumerate(states):
        members = (k,) + graph.neighbors[k]
        average = sum(stepped[m] for m in sorted(members)) / len(members)
        combined.append(replace(state, theta=average))
    if not (np.isfinite(errors).all()
            and np.isfinite([s.theta for s in combined]).all()):
        raise FloatingPointError("rff_dokl step produced non-finite values")
    return combined
