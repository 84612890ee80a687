"""Tests for experiment configuration, trial assembly, and aggregation."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from domkl.baselines import ComklState, DiffusionState, comkl_step, rff_dokl_step
from domkl.errors import ConfigError
from domkl.graph import sample_connected_er
from domkl.simulator import (
    ArTaskConfig,
    CsvTaskConfig,
    ExperimentConfig,
    SyntheticTaskConfig,
    _DATA,
    _MAPS,
    build_trial_context,
    config_dictionary,
    derive_seed,
    run_experiment,
    run_trial,
    sweep,
    aggregate,
)
from domkl.data import generating_map


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
    with pytest.raises(ConfigError):
        _small_cfg(num_learners=1)
    with pytest.raises(ConfigError):
        _small_cfg(hedge_variant="softmax")
    with pytest.raises(ConfigError):
        _small_cfg(master_seed=-1)
    with pytest.raises(ConfigError):
        _small_cfg(rounds=None)
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
    assert len(ctx.streams) == 3
    assert ctx.horizon == 25
    for stream in ctx.streams:
        assert len(stream) == 25
        assert stream.features.shape == (25, 2)
    assert len(ctx.maps) == 3


def test_synthetic_alignment_with_dictionary_kernel():
    cfg = _small_cfg()
    ctx = build_trial_context(cfg, 0)
    shared = derive_seed(cfg.master_seed, 0, _MAPS)
    # Generating bandwidth 0.1 sits at slot 1, so the generating map is
    # that slot's map, seed shared + 1 + 1.
    assert ctx.synthetic_spec.seed == shared + 2
    gen = generating_map(ctx.synthetic_spec)
    assert np.array_equal(gen.weights, ctx.maps[1].weights)


def test_synthetic_fallback_seed_off_dictionary():
    cfg = _small_cfg(synthetic=SyntheticTaskConfig(bandwidth=0.07, noise_std=0.0))
    ctx = build_trial_context(cfg, 0)
    assert ctx.synthetic_spec.seed == derive_seed(cfg.master_seed, 0, _DATA, 2)


def test_noiseless_synthetic_labels_match_generator():
    cfg = _small_cfg(synthetic=SyntheticTaskConfig(bandwidth=0.1, noise_std=0.0))
    ctx = build_trial_context(cfg, 0)
    gen = generating_map(ctx.synthetic_spec)
    for stream in ctx.streams:
        z = gen.map(stream.features)
        assert np.allclose(z @ ctx.synthetic_spec.true_theta, stream.labels,
                           rtol=0, atol=1e-12)


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
    assert len(ctx.streams[0]) == 10
    # Scaled features stay inside the unit box.
    for stream in ctx.streams:
        assert stream.features.min() >= 0.0 and stream.features.max() <= 1.0


def test_timeseries_context_from_ar():
    cfg = ExperimentConfig(
        task="timeseries", algorithms=("domkl",), num_learners=2,
        bandwidths=(0.1, 1.0), num_features=4, master_seed=2,
        ar_synth=ArTaskConfig(num_samples=41, ar_order=3),
    )
    ctx = build_trial_context(cfg, 0)
    # 41 samples lose 3 to embedding, leaving 38 rows dealt to 2 nodes.
    assert ctx.horizon == 19
    assert ctx.streams[0].features.shape == (19, 3)
    # Interleaving: node k's sample t embeds global row k + 2 t.
    assert ctx.streams[1].labels[0] != ctx.streams[0].labels[0]


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


def test_baseline_traces_match_a_plain_step_loop():
    """comkl and rff_dokl traces, recomputed round by round from the
    public step functions, equal the simulator's bit for bit."""
    cfg = _small_cfg(algorithms=("comkl", "rff_dokl"), kernel_index=1,
                     num_learners=4, comkl_loss_mode="mean")
    result = run_trial(cfg, 0)
    ctx = result.context
    num_nodes, dim = cfg.num_learners, 2 * cfg.num_features
    fmap = ctx.maps[cfg.kernel_index]
    central = ComklState.fresh(
        len(ctx.maps), dim, eta_local=cfg.comkl_step_size,
        eta_global=cfg.eta_global, loss_mode=cfg.comkl_loss_mode,
    )
    diffusion = [DiffusionState.fresh(dim, step_size=cfg.diffusion_step_size)
                 for _ in range(num_nodes)]
    fields = ("predictions", "labels", "per_kernel_losses", "weights",
              "cross_predictions")
    expected = {alg: {name: [] for name in fields} for alg in cfg.algorithms}
    for t in range(ctx.horizon):
        x = np.stack([s.features[t] for s in ctx.streams])
        y = np.array([s.labels[t] for s in ctx.streams])

        preds, kernel_losses, central = comkl_step(central, (x, y), ctx.maps)
        rows = expected["comkl"]
        rows["predictions"].append(preds)
        rows["labels"].append(y)
        rows["per_kernel_losses"].append(kernel_losses)
        rows["weights"].append(np.tile(central.weights, (num_nodes, 1)))
        rows["cross_predictions"].append(np.tile(preds[:, None], num_nodes))

        z = fmap.map(x)
        cross = z @ np.stack([s.theta for s in diffusion]).T
        rows = expected["rff_dokl"]
        rows["predictions"].append(np.diagonal(cross))
        rows["labels"].append(y)
        rows["per_kernel_losses"].append((np.diagonal(cross) - y)[:, None] ** 2)
        rows["weights"].append(np.ones((num_nodes, 1)))
        rows["cross_predictions"].append(cross)
        diffusion = rff_dokl_step(diffusion, ctx.graph, (z, y))

    for algorithm, by_field in expected.items():
        trace = result.traces[algorithm]
        for name, rows in by_field.items():
            assert np.array_equal(getattr(trace, name), np.stack(rows)), (
                algorithm, name)


def test_node_order_cannot_affect_results():
    cfg = _small_cfg(algorithms=("domkl", "dokl"), kernel_index=0)
    plain = run_trial(cfg, 0)
    scrambled = run_trial(cfg, 0, node_order_seed=99)
    for algorithm in cfg.algorithms:
        assert np.array_equal(
            plain.traces[algorithm].predictions,
            scrambled.traces[algorithm].predictions,
        )
        assert np.array_equal(
            plain.traces[algorithm].weights,
            scrambled.traces[algorithm].weights,
        )


def test_contexts_are_algorithm_independent():
    base = _small_cfg()
    other = _small_cfg(algorithms=("comkl",))
    ctx_a = build_trial_context(base, 0)
    ctx_b = build_trial_context(other, 0)
    assert ctx_a.graph == ctx_b.graph
    for fm_a, fm_b in zip(ctx_a.maps, ctx_b.maps):
        assert fm_a.fingerprint() == fm_b.fingerprint()
    for sa, sb in zip(ctx_a.streams, ctx_b.streams):
        assert np.array_equal(sa.labels, sb.labels)


def test_parallel_matches_sequential():
    cfg = _small_cfg(trials=2, rounds=15, algorithms=("domkl", "comkl"))
    seq = run_experiment(dataclasses.replace(cfg, workers=1))
    par = run_experiment(dataclasses.replace(cfg, workers=2))
    for algorithm in cfg.algorithms:
        assert np.array_equal(seq.mse_mean[algorithm], par.mse_mean[algorithm])
        assert np.array_equal(seq.cv_mean[algorithm], par.cv_mean[algorithm])
        assert seq.final_regret_d[algorithm] == par.final_regret_d[algorithm]


def test_trial_failures_carry_the_trial_index():
    cfg = ExperimentConfig(
        task="regression", algorithms=("comkl",), num_learners=2,
        bandwidths=(0.1,), num_features=4, master_seed=1,
        csv_data=CsvTaskConfig(path="/nonexistent/file.csv"),
    )
    with pytest.raises(RuntimeError, match="trial 0 failed"):
        run_experiment(cfg)


def test_aggregate_counts_results():
    cfg = _small_cfg(trials=2, rounds=10)
    results = [run_trial(cfg, 0)]
    with pytest.raises(ValueError):
        aggregate(cfg, results)


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
