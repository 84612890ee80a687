"""Tests for run traces and the evaluation curves built from them."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from domkl.graph import Graph, sample_connected_er
from domkl.metrics import (
    _GAP_VALUES,
    RunTrace,
    _running_mean,
    cv_curve,
    mse_curve,
    regret_accuracy,
    regret_discrepancy,
)


def _trace(rng, rounds=7, learners=3, kernels=2, graph=None):
    if graph is None:
        graph = Graph(learners, tuple((k, k + 1) for k in range(learners - 1)))
    predictions = rng.normal(size=(rounds, learners))
    cross = rng.normal(size=(rounds, learners, learners))
    idx = np.arange(learners)
    cross[:, idx, idx] = predictions
    return RunTrace(
        graph=graph,
        predictions=predictions,
        labels=rng.normal(size=(rounds, learners)),
        per_kernel_losses=rng.random((rounds, learners, kernels)),
        cross_predictions=cross,
        weights=rng.random((rounds, learners, kernels)),
    )


def test_trace_shape_validation():
    good = _trace(np.random.default_rng(0))
    for name, cut, message in (("labels", np.s_[:, :2], "labels shape"),
                               ("cross_predictions", np.s_[:, :, :2], "cross"),
                               ("weights", np.s_[:, :, :1], "weights shape")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(good, **{name: getattr(good, name)[cut]})


def test_truncate_trace():
    # The first t rounds of a trace give the first t values of its curves,
    # which the checks at several horizons of one run rely on.
    trace = _trace(np.random.default_rng(1), rounds=9)
    short = dataclasses.replace(trace, **{
        name: getattr(trace, name)[:4] for name in (
            "predictions", "labels", "per_kernel_losses",
            "cross_predictions", "weights")})
    assert short.num_rounds == 4
    assert mse_curve(short).tobytes() == mse_curve(trace)[:4].tobytes()
    assert cv_curve(short).tobytes() == cv_curve(trace)[:4].tobytes()


def test_mse_curve_matches_naive_sum():
    rng = np.random.default_rng(2)
    trace = _trace(rng, rounds=6, learners=4)
    curve = mse_curve(trace)
    assert curve[0] == 1.0
    for t in range(1, 6):
        total = 0.0
        for s in range(t + 1):
            for k in range(4):
                total += (trace.predictions[s, k] - trace.labels[s, k]) ** 2
        assert abs(curve[t] - total / ((t + 1) * 4)) < 1e-12
    assert curve.shape == (6,)


def test_mse_convention_pins_first_round():
    trace = _trace(np.random.default_rng(3), rounds=1)
    assert mse_curve(trace)[0] == 1.0
    assert cv_curve(trace)[0] == 1.0


def test_cv_curve_matches_naive_sum():
    rng = np.random.default_rng(4)
    trace = _trace(rng, rounds=5, learners=3)
    curve = cv_curve(trace)
    for t in range(1, 5):
        total = 0.0
        for s in range(t + 1):
            for k in range(3):
                for l in range(3):
                    if l == k:
                        continue
                    gap = (trace.cross_predictions[s, k, k]
                           - trace.cross_predictions[s, k, l])
                    total += gap ** 2
        assert abs(curve[t] - total / ((t + 1) * 3 * 2)) < 1e-12


@pytest.mark.parametrize("learners, rounds", [
    (2, 997), (2, 3 * (_GAP_VALUES // 4) + 5), (5, 997), (7, 997),
    (12, 997), (20, 997), (33, 997), (64, 997), (200, 7),
])
def test_cv_curve_is_bitwise_the_one_shot_sum(learners, rounds):
    """Summed a few rounds at a time, with a last chunk shorter than the
    others (one round per chunk at K=200), the curve is the bytes of the
    sum over one (T, K, K) array of squared gaps."""
    trace = _trace(np.random.default_rng(learners), rounds=rounds,
                   learners=learners)
    cross = trace.cross_predictions
    own = np.diagonal(cross, axis1=1, axis2=2)
    per_round = ((own[:, :, None] - cross) ** 2).sum(axis=(1, 2))
    want = _running_mean(per_round, learners * (learners - 1))
    assert cv_curve(trace).tobytes() == want.tobytes()


def test_cv_curve_holds_no_cross_sized_temporary():
    """The squared gaps of a (1000, 60, 60) cross matrix, 28.8 MB at once,
    are formed a few rounds at a time."""
    trace = _trace(np.random.default_rng(8), rounds=1000, learners=60)
    cv_curve(trace)  # warm-up
    tracemalloc.start()
    try:
        cv_curve(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cv_requires_two_learners():
    rng = np.random.default_rng(5)
    graph = Graph(1, ())
    trace = RunTrace(
        graph=graph,
        predictions=rng.normal(size=(4, 1)),
        labels=rng.normal(size=(4, 1)),
        per_kernel_losses=rng.random((4, 1, 2)),
        cross_predictions=rng.normal(size=(4, 1, 1)),
        weights=rng.random((4, 1, 2)),
    )
    with pytest.raises(ValueError):
        cv_curve(trace)


def test_cv_zero_when_functions_agree():
    rng = np.random.default_rng(6)
    trace = _trace(rng, rounds=4, learners=3)
    cross = np.repeat(trace.predictions[:, :, None], 3, axis=2)
    agreed = dataclasses.replace(trace, cross_predictions=cross)
    values = cv_curve(agreed)
    assert values[0] == 1.0
    assert not values[1:].any()


def test_regret_accuracy_matches_naive():
    rng = np.random.default_rng(7)
    trace = _trace(rng, rounds=6, learners=3)
    hindsight = rng.random((6, 3))
    regrets = regret_accuracy(trace, hindsight)
    for k in range(3):
        total = 0.0
        for t in range(6):
            own = (trace.predictions[t, k] - trace.labels[t, k]) ** 2
            total += own - hindsight[t, k]
        assert abs(regrets[k] - total) < 1e-12
    with pytest.raises(ValueError):
        regret_accuracy(trace, hindsight[:, :2])


def test_regret_discrepancy_matches_naive():
    rng = np.random.default_rng(8)
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    trace = _trace(rng, rounds=5, learners=4, graph=graph)
    regrets = regret_discrepancy(trace)
    for k in range(4):
        total = 0.0
        for t in range(5):
            summed = 0.0
            for l in graph.neighbors[k]:
                summed += (trace.cross_predictions[t, k, k]
                           - trace.cross_predictions[t, k, l])
            total += summed ** 2
        assert abs(regrets[k] - total) < 1e-12


def _per_learner_regret_discrepancy(trace):
    """regret_discrepancy's per-learner loop, kept as written."""
    graph = trace.graph
    learners = trace.num_learners
    own = trace.cross_predictions[
        :, np.arange(learners), np.arange(learners)
    ]
    out = np.zeros(learners)
    for k in range(learners):
        nbrs = list(graph.neighbors[k])
        if not nbrs:
            continue
        diffs = own[:, k, None] - trace.cross_predictions[:, k, nbrs]
        out[k] = (diffs.sum(axis=1) ** 2).sum()
    return out


def test_regret_discrepancy_is_bitwise_the_per_learner_loop():
    # With 8 or more neighbours, another order of adding a learner's
    # neighbour gaps rounds differently; every learner here has that many.
    graph = sample_connected_er(33, 0.4, seed=2)
    assert min(len(n) for n in graph.neighbors) >= 8
    trace = _trace(np.random.default_rng(10), rounds=60, learners=33,
                   graph=graph)
    want = _per_learner_regret_discrepancy(trace)
    assert regret_discrepancy(trace).tobytes() == want.tobytes()


def test_regret_discrepancy_gaps_cancel_within_round():
    # A node whose two neighbor gaps are exact opposites accrues nothing.
    graph = Graph(3, ((0, 1), (0, 2)))
    predictions = np.zeros((3, 3))
    cross = np.zeros((3, 3, 3))
    cross[:, 0, 1] = 0.7   # f_1 on node 0's sample
    cross[:, 0, 2] = -0.7  # f_2 on node 0's sample
    cross[:, 1, 0] = 0.4   # f_0 on node 1's sample
    cross[:, 2, 0] = -0.3  # f_0 on node 2's sample
    trace = RunTrace(
        graph=graph,
        predictions=predictions, labels=np.zeros((3, 3)),
        per_kernel_losses=np.zeros((3, 3, 1)),
        cross_predictions=cross, weights=np.ones((3, 3, 1)),
    )
    regrets = regret_discrepancy(trace)
    assert regrets[0] == 0.0
    assert regrets[1] > 0.0 and regrets[2] > 0.0


def test_diagonal_carries_own_predictions():
    rng = np.random.default_rng(9)
    trace = _trace(rng)
    idx = np.arange(trace.num_learners)
    assert np.array_equal(
        trace.cross_predictions[:, idx, idx], trace.predictions
    )
