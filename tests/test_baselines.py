"""Tests for the centralized and diffusion baselines."""

import dataclasses
import warnings

import numpy as np
import pytest

from domkl.baselines import DiffusionState, comkl_hedge, comkl_step, rff_dokl_step
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


def _trace(rng, maps, rounds, num_nodes, dim):
    """Labels (T, K) and every kernel's (T, K, D) features of a random trace."""
    inputs = rng.normal(size=(rounds, num_nodes, dim))
    labels = rng.normal(size=(rounds, num_nodes))
    return labels, [m.map(inputs) for m in maps]


def _run_kernels(features, labels, step_size):
    """comkl_step on every kernel from zero parameters: (T, P, K) dots."""
    passes = [comkl_step(np.zeros(z.shape[-1]), (z, labels), step_size)
              for z in features]
    return np.stack([dots for dots, _ in passes], axis=1), [
        theta for _, theta in passes]


def test_state_validation():
    z, labels = np.zeros((4, 3, 6)), np.zeros((4, 3))
    with pytest.raises(ValueError, match="step_size"):
        comkl_step(np.zeros(6), (z, labels), 0.0)
    dots = np.zeros((4, 2, 3))
    with pytest.raises(ValueError, match="loss_mode"):
        comkl_hedge(dots, labels, 10.0, loss_mode="median")
    with pytest.raises(ValueError, match="eta_global"):
        comkl_hedge(dots, labels, -1.0)


def test_batch_validation():
    z, labels = np.zeros((4, 3, 6)), np.zeros((4, 3))
    with pytest.raises(ValueError):
        comkl_step(np.zeros(6), (z, np.zeros((4, 2))), 0.5)
    with pytest.raises(ValueError):
        comkl_step(np.zeros(6), (z[0], labels[0]), 0.5)
    with pytest.raises(ValueError):
        comkl_step(np.zeros(5), (z, labels), 0.5)
    with pytest.raises(ValueError):
        comkl_hedge(np.zeros((4, 2, 2)), labels, 10.0)
    with pytest.raises(ValueError):
        comkl_hedge(np.zeros((4, 3)), labels, 10.0)


def test_first_round_predictions_are_zero():
    rng = np.random.default_rng(0)
    maps = _maps(3, 2)
    labels, features = _trace(rng, maps, 4, 5, 2)
    dots, thetas = _run_kernels(features, labels, 0.5)
    assert not dots[0].any()
    assert all(theta.any() for theta in thetas)
    predictions, weights, _ = comkl_hedge(dots, labels, 10.0)
    assert np.array_equal(predictions[0], np.zeros(5))
    assert np.array_equal(weights[0], np.full(3, 1.0 / 3.0))


def test_step_matches_naive_ogd_oracle():
    # Recompute every round with plain Python loops and compare.
    rng = np.random.default_rng(11)
    num_kernels, num_nodes, dim, num_feat, rounds = 3, 4, 2, 5, 4
    maps = _maps(num_kernels, dim, num_features=num_feat, seed=40)
    labels, features = _trace(rng, maps, rounds, num_nodes, dim)
    dots, thetas = _run_kernels(features, labels, 0.3)
    predictions, weights, squared_errors = comkl_hedge(dots, labels, 10.0)

    expected_thetas = np.zeros((num_kernels, 2 * num_feat))
    cumulative = np.zeros(num_kernels)
    for t in range(rounds):
        scores = np.exp(-cumulative / 10.0)
        round_weights = scores / scores.sum()
        assert np.allclose(weights[t], round_weights, rtol=0, atol=1e-12)
        new_thetas = np.array(expected_thetas)
        for k in range(num_nodes):
            prediction = 0.0
            for p in range(num_kernels):
                zk = features[p][t, k]
                dot = float(expected_thetas[p] @ zk)
                err = dot - labels[t, k]
                assert dots[t, p, k] == pytest.approx(dot, rel=0, abs=1e-12)
                assert squared_errors[t, p, k] == pytest.approx(
                    err ** 2, rel=0, abs=1e-12)
                prediction += round_weights[p] * dot
                cumulative[p] += err ** 2
                new_thetas[p] -= (0.3 / num_nodes) * 2.0 * err * zk
            assert predictions[t, k] == pytest.approx(prediction, rel=0,
                                                      abs=1e-12)
        expected_thetas = new_thetas
    assert np.allclose(np.stack(thetas), expected_thetas, rtol=0, atol=1e-12)


def test_loss_mode_mean_scales_losses_only():
    rng = np.random.default_rng(3)
    maps = _maps(2, 2)
    labels, features = _trace(rng, maps, 5, 6, 2)
    dots, _ = _run_kernels(features, labels, 0.5)
    sum_mode = comkl_hedge(dots, labels, 10.0, loss_mode="sum")
    mean_mode = comkl_hedge(dots, labels, 10.0, loss_mode="mean")
    # The errors ignore the loss mode; only the hedge feed changes, as if
    # the summed losses met a six times larger eta_global.
    assert np.array_equal(sum_mode[2], mean_mode[2])
    assert not np.array_equal(sum_mode[1], mean_mode[1])
    assert np.allclose(mean_mode[1], comkl_hedge(dots, labels, 60.0)[1],
                       rtol=0, atol=1e-12)


def test_stored_weights_are_the_round_weights():
    # Each round's weights are bitwise a softmax of the running losses of
    # the rounds before it, accumulated one round at a time.
    rng = np.random.default_rng(8)
    maps = _maps(9, 2)
    labels, features = _trace(rng, maps, 6, 11, 2)
    dots, _ = _run_kernels(features, labels, 0.5)
    for loss_mode in ("sum", "mean"):
        _, weights, squared_errors = comkl_hedge(dots, labels, 10.0,
                                                 loss_mode=loss_mode)
        cumulative = np.zeros(len(maps))
        for t in range(len(labels)):
            want = softmax_from_scores(-cumulative / 10.0)
            assert weights[t].tobytes() == want.tobytes()
            batch_losses = squared_errors[t].sum(axis=1)
            if loss_mode == "mean":
                batch_losses = batch_losses / labels.shape[1]
            cumulative = cumulative + batch_losses


def test_comkl_determinism():
    maps = _maps(2, 3)
    labels, features = _trace(np.random.default_rng(21), maps, 5, 4, 3)
    dots_a, thetas_a = _run_kernels(features, labels, 0.5)
    dots_b, thetas_b = _run_kernels(features, labels, 0.5)
    assert dots_a.tobytes() == dots_b.tobytes()
    assert np.stack(thetas_a).tobytes() == np.stack(thetas_b).tobytes()
    for got, want in zip(comkl_hedge(dots_a, labels, 10.0),
                         comkl_hedge(dots_b, labels, 10.0)):
        assert got.tobytes() == want.tobytes()


def test_diffusion_state_validation():
    path = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        DiffusionState.fresh(path, 4, step_size=0.0)
    state = DiffusionState.fresh(path, 4)
    assert not state.thetas.any() and state.thetas.shape == (3, 4)
    # Closed neighborhoods in ascending order, padded with the zero row 3.
    assert state.neighborhoods.tolist() == [[0, 1, 3], [0, 1, 2], [1, 2, 3]]
    assert state.sizes.tolist() == [2.0, 3.0, 2.0]


def test_diffusion_step_matches_oracle():
    graph = Graph(4, ((0, 1), (1, 2), (2, 3)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 6, seed=9)
    rng = np.random.default_rng(14)
    state = DiffusionState.fresh(graph, 12, step_size=0.2)
    inputs, labels = _batch(rng, 4, 2)
    z = fmap.map(inputs)
    for _ in range(2):
        state = rff_dokl_step(state, (z, labels))

    stepped = []
    for k in range(4):
        zk = fmap.map(inputs[k])
        err = float(state.thetas[k] @ zk) - labels[k]
        stepped.append(state.thetas[k] - 0.2 * 2.0 * err * zk)
    new_state = rff_dokl_step(state, (z, labels))
    for k in range(4):
        members = sorted((k,) + graph.neighbors[k])
        average = np.mean(np.stack([stepped[m] for m in members]), axis=0)
        assert np.allclose(new_state.thetas[k], average, rtol=0, atol=1e-14)
    assert new_state.step_size == 0.2


def _reference_diffusion_step(thetas, graph, z, labels, step_size):
    """The per-node list loop the array step replaced, kept as written."""
    predictions = [float(thetas[k] @ z[k]) for k in range(len(thetas))]
    errors = np.array(predictions) - labels
    stepped = [thetas[k] - step_size * 2.0 * errors[k] * z[k]
               for k in range(len(thetas))]
    combined = []
    for k in range(len(thetas)):
        members = (k,) + graph.neighbors[k]
        combined.append(sum(stepped[m] for m in sorted(members)) / len(members))
    return np.stack(combined)


@pytest.mark.parametrize("graph", [
    Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),
    Graph(6, ((3, 0), (3, 1), (3, 2), (3, 4), (3, 5))),
], ids=["path", "star"])
def test_diffusion_step_is_bitwise_the_per_node_reference(graph):
    rng = np.random.default_rng(61)
    dim = 100
    state = DiffusionState.fresh(graph, dim, step_size=0.3)
    # Signed zeros in the parameters and the features: a stepped entry
    # of -0.0 must come out of the neighbor sums as the loop made it.
    thetas = rng.normal(size=(6, dim)) / 10.0
    thetas[:, ::7] = -0.0
    state = dataclasses.replace(state, thetas=thetas)
    want = thetas
    for _ in range(5):
        z = rng.normal(size=(6, dim)) / 10.0
        z[:, ::5] = -0.0
        labels = rng.normal(size=6)
        want = _reference_diffusion_step(want, graph, z, labels, 0.3)
        state = rff_dokl_step(state, (z, labels))
        assert state.thetas.tobytes() == want.tobytes()


def test_diffusion_validation():
    graph = Graph(3, ((0, 1), (1, 2)))
    state = DiffusionState.fresh(graph, 8)
    with pytest.raises(ValueError):
        rff_dokl_step(state, (np.zeros((2, 8)), np.zeros(2)))
    with pytest.raises(ValueError):
        rff_dokl_step(state, (np.zeros((3, 8)), np.zeros(2)))
    with pytest.raises(ValueError):
        rff_dokl_step(state, (np.zeros((3, 6)), np.zeros(3)))


def test_complete_graph_reaches_consensus_in_one_round():
    graph = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 5, seed=6)
    rng = np.random.default_rng(5)
    state = DiffusionState.fresh(graph, 10)
    # Break symmetry first with a structured round on a fresh start.
    inputs, labels = _batch(rng, 4, 2)
    state = rff_dokl_step(state, (fmap.map(inputs), labels))
    for k in range(1, 4):
        assert np.array_equal(state.thetas[k], state.thetas[0])


def test_diffusion_tracks_stationary_target():
    graph = Graph(3, ((0, 1), (1, 2)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 40, seed=17)
    rng = np.random.default_rng(33)
    target = rng.normal(size=80)
    state = DiffusionState.fresh(graph, 80, step_size=0.3)
    first_err = None
    for t in range(300):
        inputs = rng.normal(size=(3, 2))
        z = fmap.map(inputs)
        labels = z @ target
        if t == 0:
            first_err = np.mean(
                [(float(state.thetas[k] @ z[k]) - labels[k]) ** 2 for k in range(3)]
            )
        state = rff_dokl_step(state, (z, labels))
    final_err = np.mean(
        [
            (float(state.thetas[k] @ fmap.map(np.ones(2))) - float(fmap.map(np.ones(2)) @ target)) ** 2
            for k in range(3)
        ]
    )
    assert final_err < 0.05 * first_err


def test_diverging_comkl_step_raises():
    rng = np.random.default_rng(12)
    maps = _maps(2, 2)
    labels, features = _trace(rng, maps, 6, 4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match=r"^comkl_step: .* at round \d of 6$"):
            comkl_step(np.zeros(14), (features[0], labels), 1e300)


@pytest.mark.parametrize("bad_round, message", [
    (0, "non-finite dot product or parameter at round 2 of 6"),
    (3, "non-finite dot product or parameter at round 5 of 6"),
    (5, "non-finite parameter after round 6 of 6"),
], ids=["first_round", "middle_round", "last_round"])
def test_comkl_step_names_the_first_non_finite_round(bad_round, message):
    # A non-finite label in a round spoils the parameters it steps to, and
    # through them every later round's dot products.
    rng = np.random.default_rng(4)
    maps = _maps(1, 2)
    labels, features = _trace(rng, maps, 6, 3, 2)
    labels[bad_round, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^comkl_step: %s$"
                           % message):
            comkl_step(np.zeros(14), (features[0], labels), 0.5)
        theta = np.zeros(14)
        theta[3] = np.nan
        with pytest.raises(FloatingPointError, match="at round 1 of 6$"):
            comkl_step(theta, (features[0], labels), 0.5)


def test_non_finite_hedge_prediction_raises():
    # Finite but huge dot products overflow their squared errors, so from
    # round 2 on every kernel's running loss is infinite.
    dots = np.full((4, 3, 2), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match="^comkl_hedge: non-finite prediction at "
                                 "round 2 of 4$"):
            comkl_hedge(dots, np.zeros((4, 2)), 10.0)


def test_diverging_diffusion_step_raises():
    graph = Graph(3, ((0, 1), (1, 2)))
    fmap = build_feature_map(KernelSpec(1.0), 2, 4, seed=2)
    rng = np.random.default_rng(13)
    state = DiffusionState.fresh(graph, 8, step_size=1e300)
    inputs, labels = _batch(rng, 3, 2)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                  match="rff_dokl"):
        for _ in range(3):
            state = rff_dokl_step(state, (fmap.map(inputs), labels))
