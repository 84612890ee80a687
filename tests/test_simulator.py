"""Tests for experiment configuration, trial assembly, and aggregation."""

import dataclasses
import importlib.util
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from domkl.baselines import DiffusionState, rff_dokl_step
from domkl import features, simulator
from domkl.errors import ConfigError
from domkl.graph import sample_connected_er
from domkl.simulator import (
    ArTaskConfig,
    CsvTaskConfig,
    ExperimentConfig,
    SyntheticTaskConfig,
    _DATA,
    _MAPS,
    _pooled_pass,
    _run_comkl,
    build_trial_context,
    config_dictionary,
    derive_seed,
    run_experiment,
    run_trial,
    sweep,
    aggregate,
)
from domkl.features import FeatureMap, KernelSpec, build_feature_map, map_stack
from domkl.hedge import MessageBoard, mp_update_messages
from domkl.learners import LearnerNode, _combined_prediction, step
from domkl.metrics import regret_accuracy
from domkl import oracle
from domkl.oracle import hindsight_best


def _small_cfg(**overrides):
    base = dict(
        task="synthetic",
        algorithms=("domkl",),
        num_learners=3,
        connection_prob=0.7,
        bandwidths=(0.05, 0.1, 0.5),
        num_features=8,
        rounds=25,
        trials=1,
        master_seed=5,
        synthetic=SyntheticTaskConfig(bandwidth=0.1, noise_std=0.02),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        _small_cfg(task="clustering")
    with pytest.raises(ConfigError):
        _small_cfg(algorithms=())
    with pytest.raises(ConfigError):
        _small_cfg(algorithms=("domkl", "sgd"))
    with pytest.raises(ConfigError):
        _small_cfg(trials=0)
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers") as info:
            _small_cfg(workers=workers)
        assert info.value.key == "workers"
    with pytest.raises(ConfigError):
        _small_cfg(num_learners=1)
    with pytest.raises(ConfigError):
        _small_cfg(hedge_variant="softmax")
    with pytest.raises(ConfigError):
        _small_cfg(master_seed=-1)
    with pytest.raises(ConfigError):
        _small_cfg(rounds=None)
    bad_values = [
        (dict(rounds=0), "rounds"),
        (dict(rounds=-4), "rounds"),
        (dict(num_features=0), "num_features"),
        (dict(connection_prob=0.0), "connection_prob"),
        (dict(connection_prob=1.5), "connection_prob"),
        (dict(connection_prob=float("nan")), "connection_prob"),
        (dict(eta_global=0.0), "eta_global"),
        (dict(eta_global=-1.0), "eta_global"),
        (dict(max_attempts=0), "max_attempts"),
        (dict(comkl_loss_mode="avg"), "loss_mode"),
        (dict(comkl_step_size=0.0), "step_size"),
        (dict(diffusion_step_size=-0.5), "step_size"),
        (dict(bandwidths=(0.1, -0.1)), "bandwidths"),
        (dict(bandwidths=(0.0,)), "bandwidths"),
        (dict(bandwidths=(float("nan"),)), "bandwidths"),
        (dict(bandwidths=()), "bandwidths"),
        (dict(task="timeseries", num_learners=4,
              ar_synth=ArTaskConfig(num_samples=8, ar_order=5)), "ar_samples"),
    ]
    for overrides, key in bad_values:
        with pytest.raises(ConfigError) as info:
            _small_cfg(**overrides)
        assert info.value.key == key, overrides
    bad_data = [
        (SyntheticTaskConfig, dict(bandwidth=0.0), "bandwidth"),
        (SyntheticTaskConfig, dict(bandwidth=-0.1), "bandwidth"),
        (SyntheticTaskConfig, dict(input_dim=0), "input_dim"),
        (SyntheticTaskConfig, dict(noise_std=-1.0), "noise_std"),
        (SyntheticTaskConfig, dict(noise_std=float("nan")), "noise_std"),
        (ArTaskConfig, dict(coefficients=()), "ar_coefficients"),
        (ArTaskConfig, dict(noise_std=-1.0), "ar_noise_std"),
        (ArTaskConfig, dict(ar_order=0), "ar_order"),
        (ArTaskConfig, dict(num_samples=3), "ar_samples"),
        (ArTaskConfig, dict(num_samples=5, ar_order=5), "ar_samples"),
        (CsvTaskConfig, dict(path="series.csv", ar_order=0), "ar_order"),
    ]
    for cls, kwargs, key in bad_data:
        with pytest.raises(ConfigError) as info:
            cls(**kwargs)
        assert info.value.key == key, (cls.__name__, kwargs)
    with pytest.raises(ConfigError):
        ExperimentConfig(task="regression", num_learners=3)
    with pytest.raises(ConfigError):
        ExperimentConfig(task="timeseries", num_learners=3)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(5, 0, _MAPS) == derive_seed(5, 0, _MAPS)
    seen = {
        derive_seed(5, 0, _MAPS),
        derive_seed(5, 0, _DATA),
        derive_seed(5, 1, _MAPS),
        derive_seed(6, 0, _MAPS),
    }
    assert len(seen) == 4


def test_config_dictionary_custom_and_default():
    custom = config_dictionary(_small_cfg(), shared_seed=9)
    assert [s.bandwidth for s in custom.specs] == [0.05, 0.1, 0.5]
    assert custom.map_seed(2) == 12
    full = config_dictionary(_small_cfg(bandwidths=None), shared_seed=0)
    assert len(full) == 17


def test_trial_graph_uses_xored_seed():
    cfg = _small_cfg(master_seed=12)
    ctx = build_trial_context(cfg, trial_index=3)
    expected = sample_connected_er(3, 0.7, seed=12 ^ 3,
                                   max_attempts=cfg.max_attempts)
    assert ctx.graph == expected


def test_disconnected_topology_file_is_rejected(tmp_path):
    path = tmp_path / "split.txt"
    path.write_text("0 1\n2 3\n")
    cfg = _small_cfg(num_learners=4, topology_path=str(path))
    with pytest.raises(ConfigError, match=r"\[0, 1\], \[2, 3\]") as info:
        build_trial_context(cfg, 0)
    assert info.value.key == "topology"


def test_trial_context_shapes_and_horizon():
    ctx = build_trial_context(_small_cfg(), 0)
    assert ctx.horizon == 25
    assert ctx.inputs.shape == (25, 3, 2)
    assert ctx.labels.shape == (25, 3)
    for array in (ctx.inputs, ctx.labels):
        assert array.flags.c_contiguous and not array.flags.writeable
    assert len(ctx.maps) == 3


def _noiseless_labels(ctx, cfg, fmap):
    """The trial's labels as ``fmap`` computes them from its inputs, with
    the parameters drawn from the trial's data stream."""
    theta = np.random.default_rng(
        derive_seed(cfg.master_seed, 0, _DATA, 0)
    ).standard_normal(2 * cfg.num_features)
    pooled = ctx.inputs.transpose(1, 0, 2).reshape(-1, ctx.inputs.shape[2])
    return (fmap.map(pooled) @ theta).reshape(cfg.num_learners, -1).T


def test_synthetic_alignment_with_dictionary_kernel():
    # Generating bandwidth 0.1 sits at slot 1, so the labels are slot 1's
    # own map times the drawn parameters: exactly realizable there.
    cfg = _small_cfg(synthetic=SyntheticTaskConfig(bandwidth=0.1, noise_std=0.0))
    ctx = build_trial_context(cfg, 0)
    assert ctx.maps[1].seed == derive_seed(cfg.master_seed, 0, _MAPS) + 2
    assert np.array_equal(ctx.labels, _noiseless_labels(ctx, cfg, ctx.maps[1]))
    assert not np.array_equal(ctx.labels,
                              _noiseless_labels(ctx, cfg, ctx.maps[0]))


def test_synthetic_fallback_seed_off_dictionary():
    cfg = _small_cfg(synthetic=SyntheticTaskConfig(bandwidth=0.07, noise_std=0.0))
    ctx = build_trial_context(cfg, 0)
    generator = build_feature_map(KernelSpec(0.07), 2, cfg.num_features,
                                  seed=derive_seed(cfg.master_seed, 0, _DATA, 2))
    assert np.array_equal(ctx.labels, _noiseless_labels(ctx, cfg, generator))


def test_noiseless_synthetic_labels_match_generator():
    """Each learner's stream, labelled through the default dictionary's
    kernel at the default bandwidth 0.01 (slot 4), bit for bit."""
    for input_dim in (1, 2, 5):
        cfg = _small_cfg(bandwidths=None, synthetic=SyntheticTaskConfig(
            input_dim=input_dim, noise_std=0.0))
        ctx = build_trial_context(cfg, 0)
        want = _noiseless_labels(ctx, cfg, ctx.maps[4])
        assert ctx.dictionary.specs[4].bandwidth == 0.01
        assert ctx.labels.tobytes() == want.tobytes()


def test_kernel_index_gate_only_for_single_kernel_algorithms():
    build_trial_context(_small_cfg(kernel_index=7), 0)  # domkl ignores it
    with pytest.raises(ConfigError):
        build_trial_context(_small_cfg(algorithms=("dokl",), kernel_index=7), 0)


def test_csv_regression_context(tmp_path):
    path = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    rows = ["%f,%f,%f" % tuple(r) for r in rng.random((20, 3))]
    path.write_text("\n".join(rows) + "\n")
    cfg = ExperimentConfig(
        task="regression", algorithms=("comkl",), num_learners=2,
        bandwidths=(0.1,), num_features=4, rounds=5, master_seed=1,
        csv_data=CsvTaskConfig(path=str(path)),
    )
    ctx = build_trial_context(cfg, 0)
    assert ctx.horizon == 5           # truncated below the 10-row streams
    assert ctx.inputs.shape == (5, 2, 2) and ctx.labels.shape == (5, 2)
    full = build_trial_context(dataclasses.replace(cfg, rounds=None), 0)
    assert full.horizon == 10
    assert np.array_equal(ctx.inputs, full.inputs[:5])
    assert np.array_equal(ctx.labels, full.labels[:5])
    # Scaled features stay inside the unit box.
    assert full.inputs.min() >= 0.0 and full.inputs.max() <= 1.0


def test_timeseries_context_from_ar():
    cfg = ExperimentConfig(
        task="timeseries", algorithms=("domkl",), num_learners=2,
        bandwidths=(0.1, 1.0), num_features=4, master_seed=2,
        ar_synth=ArTaskConfig(num_samples=41, ar_order=3),
    )
    ctx = build_trial_context(cfg, 0)
    # 41 samples lose 3 to embedding, leaving 38 rows dealt to 2 nodes.
    assert ctx.horizon == 19
    assert ctx.inputs.shape == (19, 2, 3)
    # Interleaving: node k's sample t embeds global row k + 2 t, so node
    # 1's round-t sample lags node 0's by one step of the series.
    assert ctx.labels[0, 1] != ctx.labels[0, 0]
    assert np.array_equal(ctx.inputs[:, 1, 0], ctx.labels[:, 0])


def test_run_trial_deterministic():
    cfg = _small_cfg(algorithms=("domkl", "dokl", "comkl", "rff_dokl"),
                     kernel_index=1)
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    for algorithm in cfg.algorithms:
        ta, tb = a.traces[algorithm], b.traces[algorithm]
        assert np.array_equal(ta.predictions, tb.predictions)
        assert np.array_equal(ta.weights, tb.weights)
        assert np.array_equal(ta.cross_predictions, tb.cross_predictions)


def test_cross_diagonal_repeats_predictions():
    cfg = _small_cfg(algorithms=("domkl", "dokl", "comkl", "rff_dokl"),
                     kernel_index=1)
    result = run_trial(cfg, 0)
    idx = np.arange(cfg.num_learners)
    for algorithm in cfg.algorithms:
        trace = result.traces[algorithm]
        assert np.array_equal(
            trace.cross_predictions[:, idx, idx], trace.predictions
        )


def _reference_comkl(ctx, cfg):
    """comkl's trace arrays from the round-major loop that the kernel by
    kernel pass replaced, kept as written: each round maps its batch
    under every kernel, steps every kernel and updates one hedge."""
    num_kernels, num_nodes = len(ctx.maps), ctx.graph.num_nodes
    thetas = np.zeros((num_kernels, 2 * cfg.num_features))
    cumulative_loss = np.zeros(num_kernels)
    rows = {"predictions": [], "per_kernel_losses": [], "weights": [],
            "cross_predictions": []}
    for t in range(ctx.horizon):
        inputs, labels = ctx.inputs[t], ctx.labels[t]
        scores = -cumulative_loss / cfg.eta_global
        round_weights = np.exp(scores - scores.max())
        round_weights /= round_weights.sum()
        z = np.stack([m.map(inputs) for m in ctx.maps])        # (P, K, D)
        dots = (z * thetas[:, None, :]).sum(axis=-1)            # (P, K)
        predictions = (round_weights[:, None] * dots).sum(axis=0)
        errors = dots - labels[None, :]
        squared_errors = errors ** 2
        batch_losses = squared_errors.sum(axis=1)
        if cfg.comkl_loss_mode == "mean":
            batch_losses = batch_losses / num_nodes
        gradients = 2.0 * (errors[:, :, None] * z).sum(axis=1)  # (P, D)
        thetas = thetas - (cfg.comkl_step_size / num_nodes) * gradients
        cumulative_loss = cumulative_loss + batch_losses
        rows["predictions"].append(predictions)
        rows["per_kernel_losses"].append(squared_errors.T)
        rows["weights"].append(np.tile(round_weights, (num_nodes, 1)))
        rows["cross_predictions"].append(np.tile(predictions[:, None],
                                                 num_nodes))
    return rows


def test_baseline_traces_match_a_plain_step_loop(tmp_path):
    """comkl and rff_dokl traces, recomputed round by round from the
    round-major comkl loop and the public diffusion step, equal the
    simulator's bit for bit."""
    csv_path = tmp_path / "d.csv"
    table = np.random.default_rng(2).random((120, 5))
    csv_path.write_text("".join(",".join(map(repr, row.tolist())) + "\n"
                                for row in table))
    configs = [
        _small_cfg(algorithms=("comkl", "rff_dokl"), kernel_index=1,
                   num_learners=4, comkl_loss_mode=mode)
        for mode in ("sum", "mean")
    ] + [ExperimentConfig(
        task="regression", algorithms=("comkl", "rff_dokl"),
        num_learners=9, bandwidths=(0.05, 0.3, 1.0, 4.0), num_features=12,
        kernel_index=2, master_seed=3, csv_data=CsvTaskConfig(path=str(csv_path)),
    )]
    for cfg in configs:
        _check_baseline_traces(cfg)


def _check_baseline_traces(cfg):
    result = run_trial(cfg, 0)
    ctx = result.context
    num_nodes, dim = cfg.num_learners, 2 * cfg.num_features
    fmap = ctx.maps[cfg.kernel_index]
    diffusion = DiffusionState.fresh(ctx.graph, dim,
                                     step_size=cfg.diffusion_step_size)
    fields = ("predictions", "labels", "per_kernel_losses", "weights",
              "cross_predictions")
    expected = {alg: {name: [] for name in fields} for alg in cfg.algorithms}
    expected["comkl"].update(_reference_comkl(ctx, cfg))
    for t in range(ctx.horizon):
        x, y = ctx.inputs[t], ctx.labels[t]
        expected["comkl"]["labels"].append(y)

        z = fmap.map(x)
        cross = z @ diffusion.thetas.T
        rows = expected["rff_dokl"]
        rows["predictions"].append(np.diagonal(cross))
        rows["labels"].append(y)
        rows["per_kernel_losses"].append((np.diagonal(cross) - y)[:, None] ** 2)
        rows["weights"].append(np.ones((num_nodes, 1)))
        rows["cross_predictions"].append(cross)
        diffusion = rff_dokl_step(diffusion, (z, y))

    for algorithm, by_field in expected.items():
        trace = result.traces[algorithm]
        for name, rows in by_field.items():
            assert getattr(trace, name).tobytes() == np.stack(rows).tobytes(), (
                cfg.task, cfg.comkl_loss_mode, algorithm, name)


def test_diverging_rff_dokl_step_names_its_round():
    """A step that overflows while the round's losses are still finite
    is named, at its round, without a numpy warning."""
    cfg = _small_cfg(algorithms=("rff_dokl",), kernel_index=0,
                     diffusion_step_size=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match=r"^rff_dokl: rff_dokl step produced "
                                 r"non-finite values at round 1 of 25$"):
            run_trial(cfg, 0)


def test_diverging_comkl_names_kernel_and_round():
    cfg = _small_cfg(algorithms=("comkl",), comkl_step_size=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match=r"^comkl kernel 0: comkl_step: non-finite "
                                 r".* round \d+ of 25$"):
            run_trial(cfg, 0)


def _shuffled_order_run(ctx, cfg, kernel_indices, variant, rng):
    """Predictions, per-kernel losses, weights and cross predictions of a
    consensus run in which the learners step in a fresh random order
    every round.  Cross prediction [t, k, l] is learner l's round-t
    function, its previous broadcast under its round-t weights, at
    learner k's round-t input."""
    maps = tuple(ctx.maps[i] for i in kernel_indices)
    graph, num_nodes = ctx.graph, ctx.graph.num_nodes
    nodes = [LearnerNode(k, maps, graph.neighbors[k],
                         eta_global=cfg.eta_global) for k in range(num_nodes)]
    exchanges = [node.initial_exchange() for node in nodes]
    board = (MessageBoard.initial(graph, len(maps))
             if variant == "message_passing" else None)
    predictions = np.zeros(ctx.labels.shape)
    losses = np.zeros(ctx.labels.shape + (len(maps),))
    weights = np.zeros_like(losses)
    cross = np.zeros((ctx.horizon, num_nodes, num_nodes))
    orders = set()
    for t in range(ctx.horizon):
        if board is not None:
            board = mp_update_messages(
                board, graph,
                [-e.cumulative_losses / cfg.eta_global for e in exchanges])
        order = rng.permutation(num_nodes).tolist()
        orders.add(tuple(order))
        fresh = [None] * num_nodes
        for k in order:
            messages = (None if board is None else
                        [board.messages[(l, k)] for l in graph.neighbors[k]])
            predictions[t, k], losses[t, k], fresh[k] = step(
                nodes[k], [exchanges[l] for l in graph.neighbors[k]],
                (ctx.inputs[t, k], ctx.labels[t, k]), cfg.admm,
                variant=variant, incoming_messages=messages)
            weights[t, k] = nodes[k].round_weights
        for k in range(num_nodes):
            z_stack = map_stack(maps, ctx.inputs[t, k])
            for l in range(num_nodes):
                _, cross[t, k, l] = _combined_prediction(
                    exchanges[l].thetas, weights[t, l], z_stack)
        exchanges = fresh
    assert len(orders) > 1
    return {"predictions": predictions, "per_kernel_losses": losses,
            "weights": weights, "cross_predictions": cross}


def test_node_order_cannot_affect_results(tmp_path):
    """Stepping the learners of every round in a shuffled order gives
    run_trial's domkl and dokl traces bit for bit, for both hedges,
    cross predictions included."""
    tree = tmp_path / "tree.txt"
    tree.write_text("0 1\n1 2\n1 3\n3 4\n")
    product = _small_cfg(algorithms=("domkl", "dokl"), kernel_index=0)
    message_passing = dataclasses.replace(
        product, hedge_variant="message_passing", num_learners=5,
        topology_path=str(tree))
    rng = np.random.default_rng(99)
    for cfg in (product, message_passing):
        result = run_trial(cfg, 0)
        ctx = result.context
        scopes = {"domkl": (list(range(len(ctx.maps))), cfg.hedge_variant),
                  "dokl": ([cfg.kernel_index], "product")}
        for algorithm, (kernel_indices, variant) in scopes.items():
            shuffled = _shuffled_order_run(ctx, cfg, kernel_indices, variant,
                                           rng)
            for name, array in shuffled.items():
                got = getattr(result.traces[algorithm], name)
                assert got.tobytes() == array.tobytes(), (
                    cfg.hedge_variant, algorithm, name)


def test_contexts_are_algorithm_independent():
    base = _small_cfg()
    other = _small_cfg(algorithms=("comkl",))
    ctx_a = build_trial_context(base, 0)
    ctx_b = build_trial_context(other, 0)
    assert ctx_a.graph == ctx_b.graph
    for fm_a, fm_b in zip(ctx_a.maps, ctx_b.maps):
        assert fm_a.seed == fm_b.seed
        assert fm_a.weights.tobytes() == fm_b.weights.tobytes()
    assert np.array_equal(ctx_a.inputs, ctx_b.inputs)
    assert np.array_equal(ctx_a.labels, ctx_b.labels)


def test_parallel_matches_sequential():
    cfg = _small_cfg(trials=2, rounds=15, algorithms=("domkl", "comkl"),
                     compute_accuracy_regret=True)
    seq = run_experiment(dataclasses.replace(cfg, workers=1))
    par = run_experiment(dataclasses.replace(cfg, workers=2))
    for algorithm in cfg.algorithms:
        assert np.array_equal(seq.mse_mean[algorithm], par.mse_mean[algorithm])
        assert np.array_equal(seq.cv_mean[algorithm], par.cv_mean[algorithm])
        assert seq.final_regret_d[algorithm] == par.final_regret_d[algorithm]
        assert seq.final_regret_a[algorithm] == par.final_regret_a[algorithm]


@pytest.mark.parametrize("workers, trials, busy", [(2, 4, 2), (3, 2, 2)])
def test_pool_workers_split_maps_over_a_share_of_the_cpus(
        monkeypatch, workers, trials, busy):
    """Every worker of a trial pool first calls ``features._share_cpus``
    with the number of workers that run trials at once."""
    import concurrent.futures

    pools = []

    class InlinePool:
        """Runs the trials in this process, after the pool's initializer."""

        def __init__(self, max_workers, initializer, initargs):
            pools.append((max_workers, initargs))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(features, "_workers", 1)
    cfg = _small_cfg(trials=trials, rounds=5, workers=workers)
    run_experiment(cfg)
    assert pools == [(workers, (busy,))]
    assert features._workers == busy


def test_trial_failures_carry_the_trial_index():
    cfg = ExperimentConfig(
        task="regression", algorithms=("comkl",), num_learners=2,
        bandwidths=(0.1,), num_features=4, master_seed=1,
        csv_data=CsvTaskConfig(path="/nonexistent/file.csv"),
    )
    with pytest.raises(RuntimeError, match="trial 0 failed"):
        run_experiment(cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_trial_config_errors_stay_config_errors(tmp_path, workers):
    path = tmp_path / "split.txt"
    path.write_text("0 1\n2 3\n")
    cfg = _small_cfg(num_learners=4, topology_path=str(path), trials=2,
                     workers=workers)
    with pytest.raises(ConfigError, match="trial 0: topology") as info:
        run_experiment(cfg)
    assert info.value.key == "topology"


def _refit_per_stream_regret(ctx, trace, kernel_indices):
    """Accuracy regret with each stream mapped on its own: the reference."""
    horizon, num_streams = trace.num_rounds, ctx.labels.shape[1]
    pooled_x = np.concatenate([ctx.inputs[:horizon, k]
                               for k in range(num_streams)])
    pooled_y = np.concatenate([ctx.labels[:horizon, k]
                               for k in range(num_streams)])
    best = None
    for index in kernel_indices:
        theta, cum, _ = hindsight_best(ctx.maps[index].map(pooled_x), pooled_y)
        if best is None or cum < best[0]:
            best = (cum, index, theta)
    _, index, theta = best
    hindsight = np.zeros((horizon, num_streams))
    for k in range(num_streams):
        z = ctx.maps[index].map(ctx.inputs[:horizon, k])
        hindsight[:, k] = (z @ theta - ctx.labels[:horizon, k]) ** 2
    return regret_accuracy(trace, hindsight)


def test_accuracy_regret_is_bitwise_the_per_stream_refit():
    cfg = ExperimentConfig(
        task="timeseries", algorithms=("comkl", "rff_dokl"), num_learners=6,
        connection_prob=0.5, num_features=20, kernel_index=3, trials=2,
        master_seed=4, compute_accuracy_regret=True,
        ar_synth=ArTaskConfig(coefficients=(0.5, -0.2, 0.1),
                              num_samples=605),
    )
    results = [run_trial(cfg, i) for i in range(cfg.trials)]
    aggregated = aggregate(cfg, results)
    for algorithm in cfg.algorithms:
        scope = ([cfg.kernel_index] if algorithm == "rff_dokl"
                 else range(len(results[0].context.maps)))
        per_trial = []
        for r in results:
            want = _refit_per_stream_regret(r.context, r.traces[algorithm],
                                            scope)
            assert r.regrets[algorithm].tobytes() == want.tobytes()
            per_trial.append(want.mean())
        assert aggregated.final_regret_a[algorithm] == float(np.mean(per_trial))


_AR_CFG = dict(
    task="timeseries", num_learners=5, connection_prob=0.5, num_features=10,
    bandwidths=(0.05, 0.3, 1.0), kernel_index=1, master_seed=6,
    compute_accuracy_regret=True, ar_synth=ArTaskConfig(num_samples=166),
)


def _refit_alone(ctx, index):
    """Kernel ``index``'s pooled loss and (T, K) squared errors, from a
    hindsight fit of that kernel alone."""
    horizon, num_streams = ctx.labels.shape
    pooled_x = np.concatenate([ctx.inputs[:, k] for k in range(num_streams)])
    pooled_y = np.concatenate([ctx.labels[:, k] for k in range(num_streams)])
    _, cum, residual = hindsight_best(ctx.maps[index].map(pooled_x), pooled_y)
    return cum, np.ascontiguousarray(
        (residual ** 2).reshape(num_streams, horizon).T)


def _trial_comparators(cfg):
    """``(best, at_index)`` as ``run_trial`` gets them: from comkl's pass
    when comkl runs, else from a pass of their own."""
    ctx = build_trial_context(cfg, 0)
    if "comkl" in cfg.algorithms:
        return ctx, _run_comkl(ctx, cfg)[1]
    return ctx, _pooled_pass(ctx, cfg)


@pytest.mark.parametrize("algorithms", [
    ("comkl", "rff_dokl"), ("domkl",), ("dokl", "rff_dokl"),
], ids=["comkl", "domkl", "single_kernel"])
def test_trial_fits_are_bitwise_the_hindsight_refit(algorithms):
    """Both comparators are bitwise a fresh fit of their kernel alone: the
    best is the lowest pooled loss of every kernel, ``at_index`` is
    ``kernel_index``'s, and each is None when no regret reads it."""
    cfg = ExperimentConfig(algorithms=algorithms, **_AR_CFG)
    ctx, (best, at_index) = _trial_comparators(cfg)
    fresh = [_refit_alone(ctx, index) for index in range(len(ctx.maps))]
    if algorithms[0] == "dokl":
        assert best is None
    else:
        want = min(fresh, key=lambda fit: fit[0])[1]
        assert best.tobytes() == want.tobytes()
    if algorithms == ("domkl",):
        assert at_index is None
    else:
        assert at_index.tobytes() == fresh[cfg.kernel_index][1].tobytes()
    plain = dataclasses.replace(cfg, compute_accuracy_regret=False)
    assert _trial_comparators(plain)[1] == (None, None)


@pytest.mark.parametrize("algorithms, kernel_index, want_best, want_index", [
    (("comkl", "rff_dokl"), 1, 2, 1), (("domkl",), 1, 2, None),
    (("dokl", "rff_dokl"), 1, None, 1), (("domkl", "dokl"), 0, 2, 0),
    (("comkl", "rff_dokl"), 2, 2, 2), (("comkl",), 0, 2, None),
], ids=["comkl", "domkl", "single_kernel", "index_not_best", "index_best",
        "comkl_unread_index"])
def test_trial_keeps_losses_of_index_and_best_only(algorithms, kernel_index,
                                                   want_best, want_index):
    """A trial holds (T, K) hindsight losses for the lowest pooled loss
    when domkl or comkl is configured, and for ``kernel_index`` only
    when dokl or rff_dokl reads it; no other kernel's losses survive."""
    cfg = ExperimentConfig(**dict(_AR_CFG, algorithms=algorithms,
                                  kernel_index=kernel_index))
    ctx, comparators = _trial_comparators(cfg)
    for got, want in zip(comparators, (want_best, want_index)):
        if want is None:
            assert got is None
        else:
            assert got.shape == ctx.labels.shape
            assert got.tobytes() == _refit_alone(ctx, want)[1].tobytes()


@pytest.mark.parametrize("cums", [(2.0, 1.0, 1.0, 5.0), (1.0, 3.0, 1.0, 1.0)],
                         ids=["tie_after_first", "tie_with_first"])
def test_pooled_pass_breaks_ties_to_the_lower_index(monkeypatch, cums):
    """Of two kernels with equal pooled losses, the lower index is best."""
    cfg = ExperimentConfig(**dict(_AR_CFG, algorithms=("domkl",),
                                  bandwidths=(0.05, 0.3, 1.0, 2.0)))
    ctx = build_trial_context(cfg, 0)
    calls = []

    def fake_hindsight(z_pool, y_pool):
        p = len(calls)
        calls.append(p)
        return None, cums[p], np.full(len(y_pool), float(p))

    monkeypatch.setattr(oracle, "hindsight_best", fake_hindsight)
    best, at_index = _pooled_pass(ctx, cfg)
    assert calls == [0, 1, 2, 3] and at_index is None
    assert np.all(best == float(cums.index(min(cums))) ** 2)


@pytest.mark.parametrize("algorithms, regret, fitted", [
    (("comkl",), True, "all"), (("comkl",), False, "all"),
    (("domkl",), True, "all"), (("dokl", "rff_dokl"), True, 1),
    (("domkl",), False, 0),
], ids=["comkl", "comkl_no_regret", "domkl", "single_kernel",
        "domkl_no_regret"])
def test_comkl_trial_maps_each_kernel_once(monkeypatch, algorithms, regret,
                                           fitted):
    """A trial maps each kernel's pooled K*T rows at most once, and only
    for comkl's learners or a fit that a regret reads."""
    cfg = ExperimentConfig(**dict(_AR_CFG, algorithms=algorithms,
                                  compute_accuracy_regret=regret))
    rows = []
    original = FeatureMap.map

    def counting_map(fmap, x):
        rows.append(np.size(x) // fmap.input_dim)
        return original(fmap, x)

    monkeypatch.setattr(FeatureMap, "map", counting_map)
    ctx = run_trial(cfg, 0).context
    want = len(ctx.maps) if fitted == "all" else fitted
    assert rows.count(cfg.num_learners * ctx.horizon) == want


def test_pooled_pass_keeps_at_most_two_comparators():
    """Only the best fit so far and ``kernel_index``'s losses outlive their
    kernel's iteration.  With one random feature a pooled block is two
    (T, K) arrays, so kept losses would dominate the peak: keeping every
    kernel's 17 would add about as many arrays again."""
    cfg = ExperimentConfig(
        task="timeseries", algorithms=("domkl",), num_learners=4,
        num_features=1, compute_accuracy_regret=True,
        ar_synth=ArTaskConfig(num_samples=8005, ar_order=5),
    )
    ctx = build_trial_context(cfg, 0)
    assert len(ctx.maps) == 17
    losses = ctx.labels.size * 8
    tracemalloc.start()
    try:
        _pooled_pass(ctx, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * losses, peak / losses


def test_comkl_holds_one_feature_block_at_a_time():
    """Each kernel's pooled (K*T, 2M) block is freed before the next one is
    mapped, and mapping it allocates nothing beside the block."""
    cfg = ExperimentConfig(
        task="timeseries", algorithms=("comkl",), num_learners=4,
        num_features=50, compute_accuracy_regret=True,
        ar_synth=ArTaskConfig(num_samples=2005, ar_order=5),
    )
    ctx = build_trial_context(cfg, 0)
    assert ctx.labels.shape == (500, 4)
    block = ctx.labels.size * 2 * cfg.num_features * 8
    tracemalloc.start()
    try:
        _run_comkl(ctx, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * block, peak / block


@pytest.mark.parametrize("cfg, split_maps", [
    # Each of the 3 kernels' pooled (4 * 675, 100) blocks.
    (ExperimentConfig(**dict(_AR_CFG, algorithms=("comkl", "rff_dokl"),
                             num_learners=4, num_features=50,
                             ar_synth=ArTaskConfig(num_samples=2705))), 3),
    # The (3 * 900, 100) generating block that labels the data.
    (_small_cfg(rounds=900, num_features=50, bandwidths=(0.05, 0.1)), 1),
], ids=["comkl_rff_dokl_regret", "domkl_synthetic"])
def test_trial_is_bitwise_the_same_at_any_map_width(monkeypatch, cfg,
                                                   split_maps):
    """A stack's map splits its rows over the CPUs the process may run
    on; traces and regrets do not depend on how many there are."""
    splits = []
    original = features._map_blocks

    def recording(x, weights_t, scale, out, bounds):
        splits.append(len(bounds) - 1)
        original(x, weights_t, scale, out, bounds)

    monkeypatch.setattr(features, "_map_blocks", recording)
    results = []
    for width in (1, 2):
        monkeypatch.setattr(features, "_map_width", lambda: width)
        results.append(run_trial(cfg, 0))
    assert [n for n in splits if n > 1] == [2] * split_maps
    one, two = results
    for algorithm in cfg.algorithms:
        for field in ("predictions", "per_kernel_losses", "cross_predictions",
                      "weights"):
            assert (getattr(one.traces[algorithm], field).tobytes()
                    == getattr(two.traces[algorithm], field).tobytes()), field
        if cfg.compute_accuracy_regret:
            assert (one.regrets[algorithm].tobytes()
                    == two.regrets[algorithm].tobytes())
    assert one.context.labels.tobytes() == two.context.labels.tobytes()


def _write_path_and_csv(tmp_path):
    """A 3-node path topology file and a 40-row, 3-column CSV file."""
    topology = tmp_path / "path.txt"
    topology.write_text("0 1\n1 2\n")
    data = tmp_path / "d.csv"
    rows = np.random.default_rng(2).random((40, 3))
    data.write_text("".join("%f,%f,%f\n" % tuple(r) for r in rows))
    return topology, data


def _count_file_reads(monkeypatch):
    """Count the calls of the simulator's two file readers; each must come
    from this process, since a forked worker inherits the patch."""
    calls = {"from_edge_list": 0, "load_csv": 0}
    parent = os.getpid()
    for name in calls:
        original = getattr(simulator, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            assert os.getpid() == parent, "%s called in a worker" % _name
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(simulator, name, counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("task", ["regression", "timeseries"])
def test_experiment_reads_its_files_once(tmp_path, monkeypatch, task,
                                         workers):
    topology, data = _write_path_and_csv(tmp_path)
    cfg = ExperimentConfig(
        task=task, algorithms=("comkl", "rff_dokl"), num_learners=3,
        topology_path=str(topology), bandwidths=(0.1, 1.0), kernel_index=1,
        num_features=4, trials=3, master_seed=7, workers=workers,
        compute_accuracy_regret=True,
        csv_data=CsvTaskConfig(path=str(data), ar_order=2),
    )
    # Each trial set up on its own, reading the files itself.
    separate = aggregate(cfg, [run_trial(cfg, i) for i in range(cfg.trials)])
    calls = _count_file_reads(monkeypatch)
    result = run_experiment(cfg)
    assert calls == {"from_edge_list": 1, "load_csv": 1}
    for algorithm in cfg.algorithms:
        for field in ("mse_mean", "mse_std", "cv_mean", "cv_std"):
            got = getattr(result, field)[algorithm]
            assert got.tobytes() == getattr(separate, field)[algorithm].tobytes()
        assert result.final_regret_d[algorithm] == separate.final_regret_d[algorithm]
        assert result.final_regret_a[algorithm] == separate.final_regret_a[algorithm]


def test_aggregate_counts_results():
    cfg = _small_cfg(trials=2, rounds=10)
    results = [run_trial(cfg, 0)]
    with pytest.raises(ValueError):
        aggregate(cfg, results)


_ONE_TRIAL_AT_A_TIME = """\
import dataclasses, tracemalloc
from domkl.simulator import ExperimentConfig, run_experiment

cfg = ExperimentConfig(task="synthetic", algorithms=("dokl", "rff_dokl"),
                       num_learners=10, connection_prob=0.4, rounds=300,
                       master_seed=2)
# Warm-up: imports, and numpy's and Python's object caches, which grow
# with the number of trials run before they level off.
run_experiment(dataclasses.replace(cfg, trials=4))
for trials in (1, 4):
    tracemalloc.start()
    run_experiment(dataclasses.replace(cfg, trials=trials))
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_experiment_holds_one_trial_at_a_time():
    """Each trial is aggregated and released before the next one runs, so
    four trials peak no higher than one.  Measured in a fresh interpreter,
    so that the caches other tests left behind cannot move the peaks."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _ONE_TRIAL_AT_A_TIME], stdout=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=300,
        check=True,
    )
    peaks = [int(line) for line in done.stdout.split()]
    assert peaks[1] <= 1.2 * peaks[0], peaks[1] / peaks[0]


def test_aggregate_curves_and_regrets():
    cfg = _small_cfg(trials=2, rounds=12, algorithms=("domkl", "dokl"),
                     kernel_index=1, compute_accuracy_regret=True)
    result = run_experiment(cfg)
    assert result.rounds == 12
    for algorithm in cfg.algorithms:
        assert result.mse_mean[algorithm].shape == (12,)
        assert result.mse_mean[algorithm][0] == 1.0
        assert np.all(result.mse_std[algorithm] >= 0.0)
        assert np.isfinite(result.final_regret_d[algorithm])
        assert np.isfinite(result.final_regret_a[algorithm])
    plain = run_experiment(dataclasses.replace(cfg, compute_accuracy_regret=False))
    assert plain.final_regret_a is None


def test_sweep_grid_rows_and_order():
    cfg = _small_cfg(rounds=10)
    rows = sweep(cfg, rhos=(100.0, 10.0), eta_globals=(10.0,))
    assert [(r.eta_global, r.rho) for r in rows] == [(10.0, 10.0), (10.0, 100.0)]
    single = run_experiment(
        dataclasses.replace(
            cfg, admm=dataclasses.replace(cfg.admm, rho=10.0), eta_global=10.0
        )
    )
    assert rows[0].final_mse == float(single.mse_mean["domkl"][-1])
    assert rows[0].final_cv == float(single.cv_mean["domkl"][-1])


@pytest.mark.parametrize("algorithms, grid, named", [
    (("rff_dokl",), dict(rhos=(10.0, 100.0), eta_globals=(10.0,)), "rho"),
    (("comkl",), dict(rhos=(10.0, 100.0), eta_globals=(10.0,)), "rho"),
    (("dokl",), dict(rhos=(10.0,), eta_globals=(1.0, 10.0)), "eta_global"),
    (("rff_dokl",), dict(rhos=(10.0,), eta_globals=(1.0, 10.0)), "eta_global"),
])
def test_sweep_rejects_an_axis_no_algorithm_reads(algorithms, grid, named):
    cfg = _small_cfg(algorithms=algorithms, kernel_index=1, rounds=5)
    with pytest.raises(ConfigError, match="^%s takes 2 values" % named) as info:
        sweep(cfg, **grid)
    assert info.value.key == "grid"
    # A repeated value is one value; an algorithm that reads the axis
    # makes a mixed selection run.
    flat = {name: values[:1] * 2 for name, values in grid.items()}
    assert len(sweep(cfg, **flat)) == 4 * len(algorithms)
    mixed = dataclasses.replace(cfg, algorithms=algorithms + ("domkl",))
    assert len(sweep(mixed, **grid)) == 2 * len(mixed.algorithms)


def test_sweep_reads_its_files_once(tmp_path, monkeypatch):
    topology, data = _write_path_and_csv(tmp_path)
    cfg = ExperimentConfig(
        task="regression", algorithms=("domkl",), num_learners=3,
        topology_path=str(topology), bandwidths=(0.1, 1.0), num_features=4,
        trials=2, master_seed=7, csv_data=CsvTaskConfig(path=str(data)),
    )
    grid = dict(rhos=(10.0, 100.0), eta_globals=(1.0, 10.0))
    # Each cell run as its own experiment, reading the files itself.
    separate = {}
    for eta in grid["eta_globals"]:
        for rho in grid["rhos"]:
            cell = dataclasses.replace(
                cfg, eta_global=eta, admm=dataclasses.replace(cfg.admm, rho=rho))
            result = run_experiment(cell)
            separate[(eta, rho)] = (float(result.mse_mean["domkl"][-1]),
                                    float(result.cv_mean["domkl"][-1]))
    calls = _count_file_reads(monkeypatch)
    rows = sweep(cfg, **grid)
    assert calls == {"from_edge_list": 1, "load_csv": 1}
    assert {(r.eta_global, r.rho): (r.final_mse, r.final_cv)
            for r in rows} == separate


def test_benchmark_patch_points_resolve():
    """Every attribute the benchmark's tracer patches still exists where
    the tracer looks it up, so a rename fails here and not at bench time."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr_path, _ in tracing.PATCH_POINTS:
        owner, attr = tracing._owner(module_name, attr_path)
        if attr not in vars(owner):
            missing.append("%s.%s" % (module_name, attr_path))
    assert not missing


@pytest.mark.slow
def test_benchmark_selftest_passes():
    """The benchmark's own self-test: the call counts it pins per
    node-round, and that tracing leaves every patched name restored."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"], cwd=root,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout
    assert done.stdout.splitlines()[-1] == "all passed", done.stdout


def test_import_loads_no_process_pool():
    """One-process runs, the default, never pay for importing the pool,
    and a stack's map starts plain threads, not a futures executor."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, domkl; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures', 'concurrent.futures.process',"
            " 'concurrent.futures.thread', 'multiprocessing')))")
    done = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_public_api_is_the_documented_one():
    """The top-level names are the documented API; the rest of the
    package is reached through its submodules."""
    import domkl

    assert sorted(domkl.__all__) == [
        "AdmmConfig", "ArTaskConfig", "ConfigError", "CsvTaskConfig",
        "ExperimentConfig", "Graph", "KernelSpec",
        "MessageBoard", "SyntheticTaskConfig", "build_feature_map",
        "combine_weights", "comkl_step", "cv_curve", "gaussian_kernel",
        "mp_combine_weights", "mse_curve", "rff_dokl_step", "run_experiment",
        "run_trial", "sample_connected_er", "step", "sweep",
    ]
    for name in domkl.__all__:
        assert getattr(domkl, name) is not None
