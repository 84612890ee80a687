"""Run traces and the evaluation quantities computed from them.

A trace records, per round and learner, the own-sample prediction, the
label, per-kernel losses, the combination weights, and the full cross
matrix of every learner's function evaluated on every learner's sample.
The running mean-square error and consensus violation are plain (T,)
arrays and follow the convention that their value at t=1 is pinned to
1, regardless of what the formulas would give there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Most squared gaps ``cv_curve`` holds at once (a few whole rounds' worth).
_GAP_VALUES = 1 << 15


@dataclass(frozen=True)
class RunTrace:
    """Everything one algorithm produced over one trial, keyed by algorithm.

    ``cross_predictions[t, k, l]`` is learner l's function evaluated on
    learner k's round-t sample; the diagonal repeats ``predictions``.
    """

    graph: object
    predictions: np.ndarray        # (T, K)
    labels: np.ndarray             # (T, K)
    per_kernel_losses: np.ndarray  # (T, K, P)
    cross_predictions: np.ndarray  # (T, K, K)
    weights: np.ndarray            # (T, K, P)

    def __post_init__(self):
        rounds, learners = self.predictions.shape
        if self.labels.shape != (rounds, learners):
            raise ValueError("labels shape mismatch")
        if self.cross_predictions.shape != (rounds, learners, learners):
            raise ValueError("cross matrix must be K x K per round")
        if self.per_kernel_losses.shape[:2] != (rounds, learners):
            raise ValueError("per-kernel losses shape mismatch")
        if self.weights.shape != self.per_kernel_losses.shape:
            raise ValueError("weights shape mismatch")

    @property
    def num_rounds(self):
        return self.predictions.shape[0]

    @property
    def num_learners(self):
        return self.predictions.shape[1]


def _running_mean(per_round, count):
    """Cumulative sums along the last (round) axis over t * count, with
    the value at t=1 pinned to 1."""
    values = np.cumsum(per_round, axis=-1) / (
        np.arange(1, per_round.shape[-1] + 1) * count)
    values[..., 0] = 1.0
    return values


def mse_curve(trace):
    """Running mean of squared own-sample errors, value 1 at t=1.

    MSE(t) = (1/(t K)) sum over rounds up to t and learners of the
    squared prediction error.  Returns the (T,) array of values.
    """
    per_round = ((trace.predictions - trace.labels) ** 2).sum(axis=1)
    return _running_mean(per_round, trace.num_learners)


def kernel_mse_curves(trace):
    """Running MSE of every kernel's own-sample predictions, as (T, P).

    Column p is ``mse_curve`` of the squared errors
    ``per_kernel_losses[:, :, p]``, summed from a contiguous copy because
    numpy's summation order depends on layout, and so bitwise the MSE
    curve of the single-kernel learner of kernel p on the same trial.
    """
    losses = trace.per_kernel_losses
    per_round = np.array([np.ascontiguousarray(losses[:, :, p]).sum(axis=1)
                          for p in range(losses.shape[2])])
    return _running_mean(per_round, trace.num_learners).T


def cv_curve(trace):
    """Running mean of pairwise cross-prediction gaps, value 1 at t=1.

    CV(t) = (1/(t K (K-1))) sum over rounds up to t, learners k, and
    other learners l of (f_k(x_k) - f_l(x_k))^2.  Undefined for a
    single learner.  Returns the (T,) array of values.

    The squared gaps are formed a few whole rounds at a time, at most
    ``_GAP_VALUES`` of them, never a (T, K, K) array; each round's sum is
    the same contiguous K^2 reduction as over all rounds at once.
    """
    learners = trace.num_learners
    if learners < 2:
        raise ValueError("consensus violation needs at least 2 learners")
    cross = trace.cross_predictions
    own = np.diagonal(cross, axis1=1, axis2=2)  # (T, K)
    per_round = np.empty(trace.num_rounds)
    step = max(1, _GAP_VALUES // learners ** 2)
    for lo in range(0, trace.num_rounds, step):
        hi = lo + step
        # The diagonal contributes zero.
        per_round[lo:hi] = ((own[lo:hi, :, None] - cross[lo:hi]) ** 2).sum(
            axis=(1, 2))
    return _running_mean(per_round, learners * (learners - 1))


def regret_accuracy(trace, hindsight_losses):
    """Cumulative own losses minus the supplied comparator losses.

    ``hindsight_losses[t, k]`` is the loss of the best fixed function
    on learner k's round-t sample; the result is one regret per learner.
    """
    hindsight_losses = np.asarray(hindsight_losses, dtype=np.float64)
    if hindsight_losses.shape != trace.predictions.shape:
        raise ValueError("hindsight losses must be per-round per-learner")
    own = (trace.predictions - trace.labels) ** 2
    return (own - hindsight_losses).sum(axis=0)


def regret_discrepancy(trace):
    """Per-learner cumulative squared neighbor-sum of prediction gaps.

    Each round contributes the square of the *summed* differences to
    the neighbors, so opposite gaps cancel within a round; this is not
    the pairwise average that cv_curve computes.
    """
    graph = trace.graph
    learners = trace.num_learners
    own = np.diagonal(trace.cross_predictions, axis1=1, axis2=2)
    out = np.zeros(learners)
    for k in range(learners):
        nbrs = list(graph.neighbors[k])
        if not nbrs:
            continue
        diffs = own[:, k, None] - trace.cross_predictions[:, k, nbrs]
        out[k] = (diffs.sum(axis=1) ** 2).sum()
    return out
