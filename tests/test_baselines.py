"""Tests for the centralized and diffusion baselines."""

import numpy as np
import pytest

from domkl.baselines import ComklState, DiffusionState, comkl_step, rff_dokl_step
from domkl.features import KernelSpec, build_feature_map
from domkl.graph import Graph
from domkl.hedge import softmax_from_scores


def _maps(num_kernels, dim, num_features=7, seed=30):
    specs = [KernelSpec(bandwidth=0.5 * (p + 1)) for p in range(num_kernels)]
    return [
        build_feature_map(spec, dim, num_features, seed + p)
        for p, spec in enumerate(specs)
    ]


def _batch(rng, num_nodes, dim):
    return rng.normal(size=(num_nodes, dim)), rng.normal(size=num_nodes)


def test_fresh_state_shapes():
    state = ComklState.fresh(4, 9)
    assert state.thetas.shape == (4, 9)
    assert not state.thetas.any()
    assert not state.cumulative_loss.any()
    assert np.array_equal(state.weights, np.full(4, 0.25))


def test_state_validation():
    with pytest.raises(ValueError):
        ComklState.fresh(3, 5, loss_mode="median")
    with pytest.raises(ValueError):
        ComklState.fresh(3, 5, eta_local=0.0)
    with pytest.raises(ValueError):
        ComklState.fresh(3, 5, eta_global=-1.0)


def test_batch_validation():
    maps = _maps(2, 3)
    state = ComklState.fresh(2, 7)
    with pytest.raises(ValueError):
        comkl_step(state, (np.zeros(3), np.zeros(3)), maps)
    with pytest.raises(ValueError):
        comkl_step(state, (np.zeros((4, 3)), np.zeros(3)), maps)
    fixed = ComklState.fresh(2, 7, expected_batch=5)
    with pytest.raises(ValueError, match="expected 5, got 3"):
        comkl_step(fixed, (np.zeros((3, 3)), np.zeros(3)), maps)


def test_first_round_predictions_are_zero():
    rng = np.random.default_rng(0)
    maps = _maps(3, 2)
    state = ComklState.fresh(3, 14)
    preds, _, new_state = comkl_step(state, _batch(rng, 5, 2), maps)
    assert np.array_equal(preds, np.zeros(5))
    assert new_state.thetas.any()


def test_step_matches_naive_ogd_oracle():
    # Recompute one round with plain Python loops and compare.
    rng = np.random.default_rng(11)
    num_kernels, num_nodes, dim, num_feat = 3, 4, 2, 5
    maps = _maps(num_kernels, dim, num_features=num_feat, seed=40)
    state = ComklState.fresh(num_kernels, 2 * num_feat, eta_local=0.3)
    inputs, labels = _batch(rng, num_nodes, dim)
    for _ in range(3):
        preds, _, state = comkl_step(state, (inputs, labels), maps)

    weights = softmax_from_scores(-state.cumulative_loss / state.eta_global)
    expected_preds = np.zeros(num_nodes)
    expected_thetas = np.array(state.thetas)
    expected_losses = np.zeros(num_kernels)
    expected_errors = np.zeros((num_nodes, num_kernels))
    for p in range(num_kernels):
        grad = np.zeros(2 * num_feat)
        for k in range(num_nodes):
            zk = maps[p].map(inputs[k])
            err = float(state.thetas[p] @ zk) - labels[k]
            expected_preds[k] += weights[p] * float(state.thetas[p] @ zk)
            expected_losses[p] += err ** 2
            expected_errors[k, p] = err ** 2
            grad += 2.0 * err * zk
        expected_thetas[p] = state.thetas[p] - (0.3 / num_nodes) * grad

    preds, kernel_losses, new_state = comkl_step(state, (inputs, labels), maps)
    assert np.allclose(preds, expected_preds, rtol=0, atol=1e-12)
    assert np.allclose(kernel_losses, expected_errors, rtol=0, atol=1e-12)
    assert np.allclose(new_state.thetas, expected_thetas, rtol=0, atol=1e-12)
    assert np.allclose(
        new_state.cumulative_loss,
        state.cumulative_loss + expected_losses,
        rtol=0,
        atol=1e-12,
    )
    assert np.array_equal(new_state.weights, weights)


def test_loss_mode_mean_scales_losses_only():
    rng = np.random.default_rng(3)
    maps = _maps(2, 2)
    batch = _batch(rng, 6, 2)
    sum_state = ComklState.fresh(2, 14, loss_mode="sum")
    mean_state = ComklState.fresh(2, 14, loss_mode="mean")
    _, _, sum_state = comkl_step(sum_state, batch, maps)
    _, _, mean_state = comkl_step(mean_state, batch, maps)
    # Parameter updates ignore the loss mode, only the hedge feed changes.
    assert np.array_equal(sum_state.thetas, mean_state.thetas)
    assert np.allclose(
        mean_state.cumulative_loss, sum_state.cumulative_loss / 6.0
    )


def test_stored_weights_are_the_round_weights():
    rng = np.random.default_rng(8)
    maps = _maps(3, 2)
    state = ComklState.fresh(3, 14)
    for _ in range(4):
        before = softmax_from_scores(-state.cumulative_loss / state.eta_global)
        _, _, state = comkl_step(state, _batch(rng, 5, 2), maps)
        assert np.array_equal(state.weights, before)


def test_comkl_determinism():
    rng_a = np.random.default_rng(21)
    rng_b = np.random.default_rng(21)
    maps = _maps(2, 3)
    state_a = ComklState.fresh(2, 14)
    state_b = ComklState.fresh(2, 14)
    for _ in range(5):
        preds_a, _, state_a = comkl_step(state_a, _batch(rng_a, 4, 3), maps)
        preds_b, _, state_b = comkl_step(state_b, _batch(rng_b, 4, 3), maps)
        assert np.array_equal(preds_a, preds_b)
        assert np.array_equal(state_a.thetas, state_b.thetas)


def test_diffusion_state_validation():
    with pytest.raises(ValueError):
        DiffusionState.fresh(4, step_size=0.0)


def test_diffusion_step_matches_oracle():
    graph = Graph(4, ((0, 1), (1, 2), (2, 3)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 6, seed=9)
    rng = np.random.default_rng(14)
    states = [DiffusionState.fresh(12, step_size=0.2) for _ in range(4)]
    inputs, labels = _batch(rng, 4, 2)
    z = fmap.map(inputs)
    for _ in range(2):
        states = rff_dokl_step(states, graph, (z, labels))

    stepped = []
    for k in range(4):
        zk = fmap.map(inputs[k])
        err = float(states[k].theta @ zk) - labels[k]
        stepped.append(states[k].theta - 0.2 * 2.0 * err * zk)
    new_states = rff_dokl_step(states, graph, (z, labels))
    for k in range(4):
        members = sorted((k,) + graph.neighbors[k])
        average = np.mean(np.stack([stepped[m] for m in members]), axis=0)
        assert np.allclose(new_states[k].theta, average, rtol=0, atol=1e-14)
        assert new_states[k].step_size == 0.2


def test_diffusion_validation():
    graph = Graph(3, ((0, 1), (1, 2)))
    states = [DiffusionState.fresh(8) for _ in range(2)]
    with pytest.raises(ValueError):
        rff_dokl_step(states, graph, (np.zeros((3, 8)), np.zeros(3)))
    states = [DiffusionState.fresh(8) for _ in range(3)]
    with pytest.raises(ValueError):
        rff_dokl_step(states, graph, (np.zeros((2, 8)), np.zeros(2)))
    with pytest.raises(ValueError):
        rff_dokl_step(states, graph, (np.zeros((2, 8)), np.zeros(3)))


def test_complete_graph_reaches_consensus_in_one_round():
    graph = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 5, seed=6)
    rng = np.random.default_rng(5)
    states = [DiffusionState.fresh(10) for _ in range(4)]
    # Break symmetry first with a structured round on a fresh start.
    inputs, labels = _batch(rng, 4, 2)
    states = rff_dokl_step(states, graph, (fmap.map(inputs), labels))
    for k in range(1, 4):
        assert np.array_equal(states[k].theta, states[0].theta)


def test_diffusion_tracks_stationary_target():
    graph = Graph(3, ((0, 1), (1, 2)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 40, seed=17)
    rng = np.random.default_rng(33)
    target = rng.normal(size=80)
    states = [DiffusionState.fresh(80, step_size=0.3) for _ in range(3)]
    first_err = None
    for t in range(300):
        inputs = rng.normal(size=(3, 2))
        z = fmap.map(inputs)
        labels = z @ target
        if t == 0:
            first_err = np.mean(
                [(float(states[k].theta @ z[k]) - labels[k]) ** 2 for k in range(3)]
            )
        states = rff_dokl_step(states, graph, (z, labels))
    final_err = np.mean(
        [
            (float(states[k].theta @ fmap.map(np.ones(2))) - float(fmap.map(np.ones(2)) @ target)) ** 2
            for k in range(3)
        ]
    )
    assert final_err < 0.05 * first_err


def test_diverging_comkl_step_raises():
    rng = np.random.default_rng(12)
    maps = _maps(2, 2)
    state = ComklState.fresh(2, 14, eta_local=1e300)
    batch = _batch(rng, 4, 2)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                  match="comkl"):
        for _ in range(3):
            _, _, state = comkl_step(state, batch, maps)


def test_diverging_diffusion_step_raises():
    graph = Graph(3, ((0, 1), (1, 2)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 4, seed=2)
    rng = np.random.default_rng(13)
    states = [DiffusionState.fresh(8, step_size=1e300) for _ in range(3)]
    inputs, labels = _batch(rng, 3, 2)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                  match="rff_dokl"):
        for _ in range(3):
            states = rff_dokl_step(states, graph, (fmap.map(inputs), labels))
