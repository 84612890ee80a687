"""Per-learner orchestration: many kernels, one node, one round at a time.

A node owns one consensus learner per kernel plus a hedge state over the
kernels.  Each round it finalizes the dual and weight updates that its
neighbors' latest broadcast enables, predicts with the round's state,
refits every kernel's parameters, and emits a new broadcast.  Running
the dual/weight finalization on arrival instead of after the exchange
produces the exact same trajectory as the mid-round-exchange ordering,
while keeping the step a single call fed only by previous-round output;
relayed hedge messages, when ``step`` is given them, pick the relay rule.
With one feature map a network of nodes runs the single-kernel consensus
round that ``oracle.joint_round`` solves as one dense system; the
validation suite and the tests check ``step`` against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import gamma_hat, lambda_update, theta_update_quadratic
from .errors import ProtocolError
from .features import map_stack
from .hedge import accumulate, combine_weights, mp_combine_weights


@dataclass(frozen=True)
class RoundExchange:
    """What a node broadcasts after a round: parameters and loss totals.

    ``thetas`` is the node's (P, D) block of refitted parameters and
    ``cumulative_losses`` its (P,) running kernel losses.  Raw samples
    never enter an exchange.
    """

    sender: int
    thetas: np.ndarray
    cumulative_losses: np.ndarray


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

    ``neighbors`` is the sorted tuple of adjacent node ids; exchanges
    from exactly that set are expected every round.
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

    def initial_exchange(self):
        """The zero broadcast that seeds a network before round one."""
        return RoundExchange(
            sender=self.node_id,
            thetas=self.thetas.copy(),
            cumulative_losses=self.cumulative_loss.copy(),
        )


def _check_inbox(node, exchanges, incoming_messages):
    """Raise ProtocolError unless a round's exchanges (sorted by sender)
    and relayed messages are what ``node`` expects: a vector of another
    length would broadcast over the node's kernels, or fail inside numpy.
    """
    senders = tuple(e.sender for e in exchanges)
    if senders != node.neighbors:
        raise ProtocolError("node %d expected exchanges from %s, got %s"
                            % (node.node_id, node.neighbors, senders))
    want = node.thetas.shape, node.cumulative_loss.shape
    for e in exchanges:
        if (e.thetas.shape, e.cumulative_losses.shape) != want:
            raise ProtocolError(
                "node %d expected thetas %s and losses %s from node %d, got "
                "%s and %s" % (node.node_id, want[0], want[1], e.sender,
                               e.thetas.shape, e.cumulative_losses.shape))
    if incoming_messages is None:
        return
    if len(incoming_messages) != len(senders):
        raise ProtocolError("node %d expected %d incoming messages, got %d"
                            % (node.node_id, len(senders),
                               len(incoming_messages)))
    for sender, message in zip(senders, incoming_messages):
        if message.shape != want[1]:
            raise ProtocolError(
                "node %d expected a message of shape %s from node %d, got %s"
                % (node.node_id, want[1], sender, message.shape))


def step(node, neighbor_exchanges, sample, cfg, incoming_messages=None):
    """Advance one node by one round.

    ``neighbor_exchanges`` must be the previous round's broadcasts of
    exactly the node's neighbors (any order; they are sorted by sender
    internally).  Without ``incoming_messages`` the weights follow the
    neighbor-product rule; with them, one relayed log-message vector per
    neighbor in sorted neighbor order, they follow the message-passing rule.
    Exchanges and messages hold numpy arrays; a wrong sender set,
    message count or array shape raises ``ProtocolError`` before the
    node's state moves.

    The call finalizes the dual and weight updates owed to the arriving
    broadcasts, predicts the sample's label with the resulting round
    state, accumulates per-kernel prediction losses, refits every
    kernel, and returns (prediction, per_kernel_losses, outgoing).
    """
    exchanges = sorted(neighbor_exchanges, key=lambda e: e.sender)
    _check_inbox(node, exchanges, incoming_messages)
    x, y = sample

    # Dual ascent owed from the previous round, now that the neighbors'
    # refitted parameters have arrived.
    neighbor_thetas = [e.thetas for e in exchanges]
    node.lams = lambda_update(node.lams, node.thetas, neighbor_thetas, cfg.rho)

    # Weight update owed from the previous round's loss broadcasts.
    if incoming_messages is None:
        weights = combine_weights(
            node.cumulative_loss,
            [e.cumulative_losses for e in exchanges],
            node.eta_global,
        )
    else:
        weights = mp_combine_weights(-node.cumulative_loss / node.eta_global,
                                     incoming_messages)

    z_stack = map_stack(node.feature_maps, x)
    node.round_weights = weights
    dots, prediction = _combined_prediction(node.thetas, weights, z_stack)
    prediction = float(prediction)
    per_kernel_losses = (dots - y) ** 2

    gamma = gamma_hat(node.thetas, neighbor_thetas)
    node.thetas = theta_update_quadratic(
        node.thetas, node.lams, z_stack, y, gamma, len(exchanges), cfg
    )
    node.cumulative_loss = accumulate(node.cumulative_loss, per_kernel_losses)

    outgoing = RoundExchange(
        sender=node.node_id,
        thetas=node.thetas.copy(),
        cumulative_losses=node.cumulative_loss.copy(),
    )
    return prediction, per_kernel_losses, outgoing
