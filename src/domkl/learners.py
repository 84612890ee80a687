"""Per-learner orchestration: many kernels, one node, one round at a time.

A node owns one consensus learner per kernel plus a hedge state over the
kernels.  Each round it finalizes the dual and weight updates that its
neighbors' latest broadcast enables, predicts with the round's state,
refits every kernel's parameters, and emits a new broadcast.  Running
the dual/weight finalization on arrival instead of after the exchange
produces the exact same trajectory as the mid-round-exchange ordering,
while keeping the step a single call fed only by previous-round output.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .admm import gamma_hat, lambda_update, theta_update_quadratic
from .errors import ProtocolError
from .features import map_stack
from .hedge import HedgeState, accumulate, combine_weights, mp_combine_weights

VARIANTS = ("product", "message_passing")


@dataclass(frozen=True)
class RoundExchange:
    """What a node broadcasts after a round: parameters and loss totals.

    Serialized field order (all little-endian): sender as int64, number
    of kernels P as int64, feature dimension D as int64, then the P*D
    theta block as float64 row-major, then the P cumulative losses as
    float64.  Raw samples never enter an exchange.
    """

    sender: int
    thetas: np.ndarray
    cumulative_losses: np.ndarray

    def to_bytes(self):
        p, d = self.thetas.shape
        header = struct.pack("<qqq", self.sender, p, d)
        body = np.ascontiguousarray(self.thetas, dtype="<f8").tobytes()
        tail = np.ascontiguousarray(self.cumulative_losses, dtype="<f8").tobytes()
        return header + body + tail

    @classmethod
    def from_bytes(cls, blob):
        sender, p, d = struct.unpack_from("<qqq", blob, 0)
        offset = struct.calcsize("<qqq")
        thetas = np.frombuffer(blob, dtype="<f8", count=p * d, offset=offset)
        offset += p * d * 8
        cumulative = np.frombuffer(blob, dtype="<f8", count=p, offset=offset)
        return cls(
            sender=sender,
            thetas=thetas.reshape(p, d).copy(),
            cumulative_losses=cumulative.copy(),
        )


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
        self.node_id = node_id
        self.feature_maps = tuple(feature_maps)
        self.neighbors = tuple(sorted(neighbors))
        self.dim = dims.pop()
        self.num_kernels = len(self.feature_maps)
        self.thetas = np.zeros((self.num_kernels, self.dim))
        self.lams = np.zeros((self.num_kernels, self.dim))
        self.hedge = HedgeState.fresh(self.num_kernels, eta_global)
        # Function used for predictions in the round most recently stepped.
        self.round_thetas = self.thetas.copy()
        self.round_weights = np.full(self.num_kernels, 1.0 / self.num_kernels)

    def initial_exchange(self):
        """The zero broadcast that seeds a network before round one."""
        return RoundExchange(
            sender=self.node_id,
            thetas=self.thetas.copy(),
            cumulative_losses=self.hedge.cumulative_loss.copy(),
        )


def step(node, neighbor_exchanges, sample, cfg, variant="product",
         incoming_messages=None):
    """Advance one node by one round.

    ``neighbor_exchanges`` must be the previous round's broadcasts of
    exactly the node's neighbors (any order; they are sorted by sender
    internally).  For ``variant="message_passing"``
    ``incoming_messages`` supplies one log-message vector per neighbor,
    aligned with the sorted neighbor order.

    The call finalizes the dual and weight updates owed to the arriving
    broadcasts, predicts the sample's label with the resulting round
    state, accumulates per-kernel prediction losses, refits every
    kernel, and returns (prediction, per_kernel_losses, outgoing).
    """
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    exchanges = sorted(neighbor_exchanges, key=lambda e: e.sender)
    senders = tuple(e.sender for e in exchanges)
    if senders != node.neighbors:
        raise ProtocolError(
            "node %d expected exchanges from %s, got %s"
            % (node.node_id, node.neighbors, senders)
        )
    x, y = sample

    # Dual ascent owed from the previous round, now that the neighbors'
    # refitted parameters have arrived.
    neighbor_thetas = [e.thetas for e in exchanges]
    node.lams = lambda_update(node.lams, node.thetas, neighbor_thetas, cfg.rho)

    # Weight update owed from the previous round's loss broadcasts.
    if variant == "product":
        weights = combine_weights(
            node.hedge.cumulative_loss,
            [e.cumulative_losses for e in exchanges],
            node.hedge.eta_global,
        )
    else:
        if incoming_messages is None:
            raise ProtocolError("message_passing variant needs incoming_messages")
        weights = mp_combine_weights(node.hedge.log_w(), incoming_messages)

    z_stack = map_stack(node.feature_maps, x)
    # No copy: theta_update_quadratic below returns a new array, and
    # nothing writes into node.thetas in place.
    node.round_thetas = node.thetas
    node.round_weights = weights
    dots, prediction = _combined_prediction(node.round_thetas, weights, z_stack)
    prediction = float(prediction)
    per_kernel_losses = (dots - y) ** 2

    gamma = gamma_hat(node.thetas, neighbor_thetas)
    node.thetas = theta_update_quadratic(
        node.thetas, node.lams, z_stack, y, gamma, len(exchanges), cfg
    )
    node.hedge = accumulate(node.hedge, per_kernel_losses)

    outgoing = RoundExchange(
        sender=node.node_id,
        thetas=node.thetas.copy(),
        cumulative_losses=node.hedge.cumulative_loss.copy(),
    )
    return prediction, per_kernel_losses, outgoing
