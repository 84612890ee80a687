"""Multiplicative kernel weighting from accumulated losses.

Weights live entirely in the log domain: a learner stores the running
sum of per-kernel losses and only ever exponentiates shifted scores, so
long runs cannot underflow the multiplicative-update form.  Two
combination rules are provided: the neighbor-product rule (sum your
neighbors' cumulative losses into your own) and a message-passing
variant that relays log weights over the graph's breadth-first spanning
forest.  That is exact on every graph: each learner hears every other
learner of its component once, one round later for each tree hop past
the first.  Its messages are one (K, K, P) array of log weights, row
[sender, receiver], that starts at zero, and a relay round writes them
into a second such buffer.
"""

from __future__ import annotations

import numpy as np


def _softmax_in_place(scores):
    """Softmax of a float64 array that the caller owns, overwriting it;
    a top score that is not finite raises ``FloatingPointError``."""
    top = scores.max()
    if not np.isfinite(top):
        raise FloatingPointError("non-finite kernel score")
    scores -= top
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


def mp_update_messages(messages, graph, latest_log_w, out):
    """One relay round: each tree edge forwards the sender's fresh log
    weight plus everything previously received over the sender's other
    tree edges, added in ascending id order.  Writes the new messages
    into the tree-edge rows of ``out``, a second (K, K, P) buffer, and
    returns it.

    Row k of the (K, P) ``latest_log_w`` is node k's log weight.  Arrays
    of other shapes, or an ``out`` that overlaps ``messages``, raise
    ``ValueError``.
    """
    shape = (graph.num_nodes, graph.num_nodes, messages.shape[-1])
    got = (messages.shape, out.shape, np.shape(latest_log_w))
    if got != (shape, shape, shape[1:]):
        raise ValueError("need %s messages and out and %s log weights, got "
                         "%s, %s and %s" % ((shape, shape[1:]) + got))
    if np.may_share_memory(out, messages):
        raise ValueError("out must not overlap messages")
    for k, neighbors in enumerate(graph.tree_neighbors):
        for l in neighbors:
            total = out[k, l]
            total[:] = latest_log_w[k]
            for i in neighbors:
                if i != l:
                    total += messages[i, k]
    return out


def mp_combine_weights(own_log_w, incoming_log_messages):
    """Weights from own log weight plus incoming relayed messages.

    Inputs are already in log-weight units (scaled by -1/eta_global),
    so no step size enters here.
    """
    total = np.array(own_log_w, dtype=np.float64)
    for msg in incoming_log_messages:
        total += msg
    return _softmax_in_place(total)
