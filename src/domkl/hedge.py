"""Multiplicative kernel weighting from accumulated losses.

Weights live entirely in the log domain: a learner stores the running
sum of per-kernel losses and only ever exponentiates shifted scores, so
long runs cannot underflow the multiplicative-update form.  Two
combination rules are provided: the neighbor-product rule (sum your
neighbors' cumulative losses into your own) and a message-passing
variant for acyclic topologies that relays losses from beyond the
immediate neighborhood; its messages are a dict of (P,) log weights
keyed by directed edge (sender, receiver), from ``initial_messages``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError
from .graph import is_forest


def _softmax_in_place(scores):
    """Softmax of a float64 array that the caller owns, overwriting it."""
    scores -= scores.max()
    np.exp(scores, out=scores)
    scores /= scores.sum()
    return scores


def accumulate(cumulative_loss, instantaneous_losses):
    """Add one round of per-kernel losses to ``cumulative_loss``,
    returning a new array.

    Losses must be nonnegative and finite.
    """
    losses = np.asarray(instantaneous_losses, dtype=np.float64)
    if losses.shape != cumulative_loss.shape:
        raise ValueError("loss vector has wrong length")
    if not np.isfinite(losses).all():
        raise FloatingPointError("non-finite loss")
    if (losses < 0.0).any():
        raise ValueError("losses must be nonnegative")
    return cumulative_loss + losses


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


def initial_messages(graph, num_kernels, allow_cycles=False):
    """All-zero log messages (multiplicative identity) on every directed
    edge, a dict keyed by (sender, receiver).

    Relaying is exact on forests only, so a cyclic graph is refused
    unless ``allow_cycles`` is set, and then warned about.
    """
    if not is_forest(graph):
        if not allow_cycles:
            raise ConfigError(
                "message passing on a cyclic graph double counts "
                "losses; set allow_cycles = true to run it anyway",
                key="allow_cycles")
        warnings.warn(
            "message passing on a cyclic graph double counts losses",
            RuntimeWarning,
        )
    messages = {}
    for k, l in graph.edges:
        messages[(k, l)] = np.zeros(num_kernels)
        messages[(l, k)] = np.zeros(num_kernels)
    return messages


def mp_update_messages(messages, graph, latest_log_w):
    """One relay round: each edge forwards the sender's fresh log weight
    plus everything previously received from the sender's other edges.

    Row k of ``latest_log_w`` is node k's (P,) log weight.  ``messages``
    must descend from ``initial_messages`` on the same graph, which
    decides once whether the graph may carry messages.
    """
    updated = {}
    for k, l in messages:
        total = np.array(latest_log_w[k], dtype=np.float64)
        for i in graph.neighbors[k]:
            if i != l:
                total = total + messages[(i, k)]
        updated[(k, l)] = total
    return updated


def mp_combine_weights(own_log_w, incoming_log_messages):
    """Weights from own log weight plus incoming relayed messages.

    Inputs are already in log-weight units (scaled by -1/eta_global),
    so no step size enters here.
    """
    total = np.array(own_log_w, dtype=np.float64)
    for msg in incoming_log_messages:
        total += msg
    return _softmax_in_place(total)
