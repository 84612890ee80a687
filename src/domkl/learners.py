"""Per-learner orchestration: many kernels, one node, one round at a time.

A node owns one consensus learner per kernel plus a hedge state over the
kernels.  Each round it finalizes the dual and weight updates that its
neighbors' latest broadcast enables, predicts with the round's state,
refits every kernel's parameters; its parameters and kernel-loss totals
are its broadcast, a row of each of the network's two broadcast arrays.
Running the dual/weight finalization on arrival instead of after the
broadcast gives exactly the trajectory of the mid-round-exchange
ordering, in a single call fed only by previous-round output; relayed
hedge messages, when ``step`` is given them, pick the relay rule.
With one feature map a network of nodes runs the single-kernel consensus
round that ``oracle.joint_round`` solves as one dense system; the
validation suite and the tests check ``step`` against it.
"""

from __future__ import annotations

import numpy as np

from .admm import gamma_hat, lambda_update, theta_update_quadratic
from .errors import ProtocolError
from .features import map_stack
from .hedge import accumulate, combine_weights, mp_combine_weights


def _combined_prediction(thetas, weights, z_stack):
    """Per-kernel dots and their weighted sum, shared by step and replay.

    Works on one node's (P, D) block or, via broadcasting, on a whole
    network's (K, P, D) stack; the per-row arithmetic is identical
    either way, down to the reduction order.
    """
    dots = (thetas * z_stack).sum(axis=-1)
    return dots, (weights * dots).sum(axis=-1)


class LearnerNode:
    """State of one learner: P kernel learners, hedge weights, feature maps.

    ``neighbors`` is the sorted tuple of adjacent node ids, whose rows of
    the network's broadcasts the node reads every round.
    """

    def __init__(self, node_id, feature_maps, neighbors, eta_global=10.0):
        if not feature_maps:
            raise ValueError("need at least one feature map")
        dims = {2 * fm.num_features for fm in feature_maps}
        if len(dims) != 1:
            raise ValueError("feature maps disagree on dimension")
        if not eta_global > 0.0:
            raise ValueError("eta_global must be positive")
        self.node_id = node_id
        self.feature_maps = tuple(feature_maps)
        self.neighbors = tuple(sorted(neighbors))
        self.dim = dims.pop()
        self.num_kernels = len(self.feature_maps)
        self.thetas = np.zeros((self.num_kernels, self.dim))
        self.lams = np.zeros((self.num_kernels, self.dim))
        self.cumulative_loss = np.zeros(self.num_kernels)
        self.eta_global = eta_global
        # Kernel weights of the round most recently stepped.
        self.round_weights = np.full(self.num_kernels, 1.0 / self.num_kernels)


def _check_inbox(node, thetas, cumulative_losses, incoming_messages):
    """Raise ProtocolError unless the broadcast arrays have a row of the
    node's own shapes for every neighbour, and the relayed messages are
    one per neighbour of the node's loss shape: a vector of another
    length would broadcast over the node's kernels, or fail inside numpy.
    """
    want = node.thetas.shape, node.cumulative_loss.shape
    got = thetas.shape, cumulative_losses.shape
    if ((got[0][1:], got[1][1:]) != want
            or min(got[0][0], got[1][0]) <= max(node.neighbors, default=-1)):
        raise ProtocolError("node %d expected rows of shapes %s and %s for "
                            "nodes %s, got arrays of %s and %s" % (
                                node.node_id, *want, node.neighbors, *got))
    if incoming_messages is None:
        return
    if len(incoming_messages) != len(node.neighbors):
        raise ProtocolError("node %d expected %d incoming messages, got %d"
                            % (node.node_id, len(node.neighbors),
                               len(incoming_messages)))
    for sender, message in zip(node.neighbors, incoming_messages):
        if message.shape != want[1]:
            raise ProtocolError(
                "node %d expected a message of shape %s from node %d, got %s"
                % (node.node_id, want[1], sender, message.shape))


def step(node, thetas, cumulative_losses, sample, cfg, incoming_messages=None):
    """Advance one node by one round.

    ``thetas`` (n, P, D) and ``cumulative_losses`` (n, P) are a network's
    previous-round broadcasts, one row per node id; the node reads only
    its neighbours' rows, in ascending id order.  Without
    ``incoming_messages`` the weights follow the neighbor-product rule;
    with them, one relayed log-message vector per neighbor in that
    order, the message-passing rule.  Arrays that miss a neighbour or
    whose rows differ in shape from the node's own, and a wrong message
    count or shape, raise ``ProtocolError`` before the node's state moves.

    The call finalizes the dual and weight updates owed to the arriving
    broadcasts, predicts the sample's label with the resulting round
    state, accumulates per-kernel prediction losses, refits every
    kernel, and returns (prediction, per_kernel_losses); the node's
    ``thetas`` and ``cumulative_loss`` are then its next broadcast.
    """
    _check_inbox(node, thetas, cumulative_losses, incoming_messages)
    x, y = sample

    # Dual ascent owed from the previous round, now that the neighbors'
    # refitted parameters have arrived.
    neighbor_thetas = [thetas[l] for l in node.neighbors]
    node.lams = lambda_update(node.lams, node.thetas, neighbor_thetas, cfg.rho)

    # Weight update owed from the previous round's loss broadcasts.
    if incoming_messages is None:
        neighbor_losses = [cumulative_losses[l] for l in node.neighbors]
        weights = combine_weights(node.cumulative_loss, neighbor_losses,
                                  node.eta_global)
    else:
        weights = mp_combine_weights(-node.cumulative_loss / node.eta_global,
                                     incoming_messages)

    z_stack = map_stack(node.feature_maps, x)
    node.round_weights = weights
    dots, prediction = _combined_prediction(node.thetas, weights, z_stack)
    per_kernel_losses = (dots - y) ** 2

    gamma = gamma_hat(node.thetas, neighbor_thetas)
    node.thetas = theta_update_quadratic(
        node.thetas, node.lams, z_stack, y, gamma, len(node.neighbors), cfg
    )
    node.cumulative_loss = accumulate(node.cumulative_loss, per_kernel_losses)
    return float(prediction), per_kernel_losses
