"""Per-learner orchestration: many kernels, one node, one round at a time.

A network's state is arrays with one row per learner: each kernel's
parameters and dual, and the kernel-loss totals.  A learner's broadcast
is its row of the parameters and loss totals.  Each round a learner
finalizes the dual and weight updates that its neighbors' previous-round
broadcast enables, predicts, and refits every kernel into the next
round's buffers.  Finalizing on arrival instead of after the broadcast
gives exactly the trajectory of the mid-round-exchange ordering; relayed
hedge messages, when the network carries them, pick the relay rule.
With one feature map a network runs the single-kernel consensus round
that ``oracle.joint_round`` solves as one dense system; the validation
suite and the tests check ``step`` against it.
"""

from __future__ import annotations

import numpy as np

from .admm import gamma_hat, lambda_update, theta_update_quadratic
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


class NetworkState:
    """Every learner's round state; row k of each array is learner k's.

    ``thetas`` (K, P, D) and ``losses`` (K, P) are the previous round's
    broadcasts, which steps read; ``next_thetas`` and ``next_losses``
    take the round's new broadcasts, and ``end_round`` swaps the pairs.
    ``lams`` (K, P, D) holds the duals.  Under the product rule
    ``messages`` is None; with ``relay`` set it holds the relay's
    (K, K, P) log messages over the graph's spanning forest, row
    [sender, receiver], zero at the start.  A relay round writes into
    the spare ``next_messages``, and the caller swaps them.
    """

    def __init__(self, graph, feature_maps, eta_global, relay=False):
        if not feature_maps:
            raise ValueError("need at least one feature map")
        dims = {2 * fm.num_features for fm in feature_maps}
        if len(dims) != 1:
            raise ValueError("feature maps disagree on dimension")
        if not eta_global > 0.0:
            raise ValueError("eta_global must be positive")
        self.graph = graph
        self.feature_maps = tuple(feature_maps)
        self.eta_global = eta_global
        shape = (graph.num_nodes, len(self.feature_maps), dims.pop())
        self.messages = self.next_messages = None
        if relay:
            self.messages = np.zeros(shape[:1] + shape[:2])
            self.next_messages = np.zeros_like(self.messages)
        self.thetas, self.next_thetas = np.zeros(shape), np.empty(shape)
        self.lams = np.zeros(shape)
        self.losses, self.next_losses = np.zeros(shape[:2]), np.empty(shape[:2])

    def end_round(self):
        """Make the round's new broadcasts the ones the next round reads."""
        self.thetas, self.next_thetas = self.next_thetas, self.thetas
        self.losses, self.next_losses = self.next_losses, self.losses


def step(net, k, sample, cfg):
    """Advance learner ``k`` of the network ``net`` by one round.

    Reads the learner's own rows and its neighbours' rows of the
    previous round's broadcasts, in ascending id order, and with relayed
    messages its tree neighbours' messages to it; writes only row k of
    ``net.lams``, ``net.next_thetas`` and ``net.next_losses``.

    The call finalizes the dual and weight updates owed to the arriving
    broadcasts, predicts the sample's label with the resulting round
    state, accumulates per-kernel prediction losses, refits every
    kernel, and returns (prediction, per_kernel_losses, weights).
    """
    x, y = sample
    neighbors = net.graph.neighbors[k]
    theta = net.thetas[k]

    # Dual ascent owed from the previous round, now that the neighbors'
    # refitted parameters have arrived.
    neighbor_thetas = [net.thetas[l] for l in neighbors]
    lams = lambda_update(net.lams[k], theta, neighbor_thetas, cfg.rho)
    net.lams[k] = lams

    # Weight update owed from the previous round's loss broadcasts.
    if net.messages is None:
        weights = combine_weights(net.losses[k],
                                  [net.losses[l] for l in neighbors],
                                  net.eta_global)
    else:
        weights = mp_combine_weights(
            -net.losses[k] / net.eta_global,
            [net.messages[l, k] for l in net.graph.tree_neighbors[k]])

    z_stack = map_stack(net.feature_maps, x)
    dots, prediction = _combined_prediction(theta, weights, z_stack)
    per_kernel_losses = (dots - y) ** 2

    gamma = gamma_hat(theta, neighbor_thetas)
    net.next_thetas[k] = theta_update_quadratic(
        theta, lams, z_stack, y, gamma, len(neighbors), cfg
    )
    net.next_losses[k] = accumulate(net.losses[k], per_kernel_losses)
    return float(prediction), per_kernel_losses, weights
