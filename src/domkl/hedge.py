"""Multiplicative kernel weighting from accumulated losses.

Weights live entirely in the log domain: a learner stores the running
sum of per-kernel losses and only ever exponentiates shifted scores, so
long runs cannot underflow the multiplicative-update form.  Two
combination rules are provided: the neighbor-product rule (sum your
neighbors' cumulative losses into your own) and a message-passing
variant for acyclic topologies that relays losses from beyond the
immediate neighborhood.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import is_forest


def softmax_from_scores(scores):
    """Numerically safe softmax with max-subtraction."""
    return _softmax_in_place(np.array(scores, dtype=np.float64))


def _softmax_in_place(scores):
    """Softmax of a float64 array that the caller owns, overwriting it."""
    scores -= scores.max()
    np.exp(scores, out=scores)
    scores /= scores.sum()
    return scores


@dataclass(frozen=True)
class HedgeState:
    """Per-learner cumulative kernel losses and the hedge step size."""

    eta_global: float
    cumulative_loss: np.ndarray

    def __post_init__(self):
        if not self.eta_global > 0.0:
            raise ValueError("eta_global must be positive")

    @classmethod
    def fresh(cls, num_kernels, eta_global=10.0):
        """Zero losses over ``num_kernels`` kernels."""
        if num_kernels < 1:
            raise ValueError("num_kernels must be at least 1")
        return cls(eta_global=eta_global, cumulative_loss=np.zeros(num_kernels))

    def log_w(self):
        """Log of the implied multiplicative weights, -cumulative/eta."""
        return -self.cumulative_loss / self.eta_global


def accumulate(state, instantaneous_losses):
    """Add one round of per-kernel losses, returning a new state.

    Losses must be nonnegative and finite.
    """
    losses = np.asarray(instantaneous_losses, dtype=np.float64)
    if losses.shape != state.cumulative_loss.shape:
        raise ValueError("loss vector has wrong length")
    if not np.isfinite(losses).all():
        raise FloatingPointError("non-finite loss")
    if (losses < 0.0).any():
        raise ValueError("losses must be nonnegative")
    return HedgeState(
        eta_global=state.eta_global,
        cumulative_loss=state.cumulative_loss + losses,
    )


def combine_weights(own_cumulative, neighbor_cumulatives, eta_global):
    """Neighbor-product weights from cumulative losses.

    Sums the neighbors' cumulative-loss vectors into the caller's own
    and softmaxes the scaled negatives, which equals normalizing the
    product of everyone's multiplicative weights.
    """
    total = np.array(own_cumulative, dtype=np.float64)
    for nb in neighbor_cumulatives:
        total += nb
    np.negative(total, out=total)
    total /= eta_global
    return _softmax_in_place(total)


@dataclass(frozen=True)
class MessageBoard:
    """Log-domain messages on every directed edge, one vector per kernel."""

    num_kernels: int
    messages: dict

    @classmethod
    def initial(cls, graph, num_kernels):
        """All-zero messages (multiplicative identity) on both edge directions."""
        messages = {}
        for k, l in graph.edges:
            messages[(k, l)] = np.zeros(num_kernels)
            messages[(l, k)] = np.zeros(num_kernels)
        return cls(num_kernels=num_kernels, messages=messages)


def mp_update_messages(board, graph, latest_log_w, allow_cycles=False):
    """One relay round: each edge forwards the sender's fresh log weight
    plus everything previously received from the sender's other edges.

    Exact loss relaying holds on forests only; on cyclic graphs the same
    loss can arrive along several walks, so the call refuses unless
    ``allow_cycles`` is set, and then warns.
    """
    if not is_forest(graph):
        if not allow_cycles:
            raise ValueError(
                "message passing on a cyclic graph duplicates losses; "
                "pass allow_cycles=True to proceed anyway"
            )
        warnings.warn(
            "message passing on a cyclic graph double counts losses",
            RuntimeWarning,
        )
    updated = {}
    for k, l in board.messages:
        total = np.array(latest_log_w[k], dtype=np.float64)
        for i in graph.neighbors[k]:
            if i != l:
                total = total + board.messages[(i, k)]
        updated[(k, l)] = total
    return MessageBoard(num_kernels=board.num_kernels, messages=updated)


def mp_combine_weights(own_log_w, incoming_log_messages):
    """Weights from own log weight plus incoming relayed messages.

    Inputs are already in log-weight units (scaled by -1/eta_global),
    so no step size enters here.
    """
    total = np.array(own_log_w, dtype=np.float64)
    for msg in incoming_log_messages:
        total += msg
    return _softmax_in_place(total)
