"""Tests for experiment configuration, trial assembly, and aggregation."""

import dataclasses
import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from domkl.baselines import DiffusionState, rff_dokl_step
from domkl.errors import ConfigError
from domkl.graph import sample_connected_er
from domkl.simulator import (
    ArTaskConfig,
    CsvTaskConfig,
    ExperimentConfig,
    SyntheticTaskConfig,
    _DATA,
    _MAPS,
    _hindsight_fits,
    _regret_scope,
    accuracy_regret_for_trace,
    build_trial_context,
    config_dictionary,
    derive_seed,
    run_experiment,
    run_trial,
    sweep,
    aggregate,
)
from domkl.data import generating_map
from domkl.features import FeatureMap
from domkl.hedge import softmax_from_scores
from domkl.metrics import regret_accuracy
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
        inputs = np.stack([s.features[t] for s in ctx.streams])
        labels = np.array([s.labels[t] for s in ctx.streams])
        round_weights = softmax_from_scores(-cumulative_loss / cfg.eta_global)
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
        x = np.stack([s.features[t] for s in ctx.streams])
        y = np.array([s.labels[t] for s in ctx.streams])
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


def test_diverging_comkl_names_kernel_and_round():
    cfg = _small_cfg(algorithms=("comkl",), comkl_step_size=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match=r"^comkl kernel 0: comkl_step: non-finite "
                                 r".* round \d+ of 25$"):
            run_trial(cfg, 0)


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
    cfg = _small_cfg(trials=2, rounds=15, algorithms=("domkl", "comkl"),
                     compute_accuracy_regret=True)
    seq = run_experiment(dataclasses.replace(cfg, workers=1))
    par = run_experiment(dataclasses.replace(cfg, workers=2))
    for algorithm in cfg.algorithms:
        assert np.array_equal(seq.mse_mean[algorithm], par.mse_mean[algorithm])
        assert np.array_equal(seq.cv_mean[algorithm], par.cv_mean[algorithm])
        assert seq.final_regret_d[algorithm] == par.final_regret_d[algorithm]
        assert seq.final_regret_a[algorithm] == par.final_regret_a[algorithm]


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
    horizon = trace.num_rounds
    pooled_x = np.concatenate([s.features[:horizon] for s in ctx.streams])
    pooled_y = np.concatenate([s.labels[:horizon] for s in ctx.streams])
    best = None
    for index in kernel_indices:
        theta, cum = hindsight_best(ctx.maps[index].map(pooled_x), pooled_y)
        if best is None or cum < best[0]:
            best = (cum, index, theta)
    _, index, theta = best
    hindsight = np.zeros((horizon, len(ctx.streams)))
    for k, stream in enumerate(ctx.streams):
        z = ctx.maps[index].map(stream.features[:horizon])
        hindsight[:, k] = (z @ theta - stream.labels[:horizon]) ** 2
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
        scope = _regret_scope(cfg, algorithm, len(results[0].context.maps))
        per_trial = []
        for r in results:
            want = _refit_per_stream_regret(r.context, r.traces[algorithm],
                                            scope)
            got = accuracy_regret_for_trace(r.context, r.traces[algorithm],
                                            scope)
            assert got.tobytes() == want.tobytes()
            per_trial.append(want.mean())
        assert aggregated.final_regret_a[algorithm] == float(np.mean(per_trial))


_AR_CFG = dict(
    task="timeseries", num_learners=5, connection_prob=0.5, num_features=10,
    bandwidths=(0.05, 0.3, 1.0), kernel_index=1, master_seed=6,
    compute_accuracy_regret=True, ar_synth=ArTaskConfig(num_samples=166),
)


@pytest.mark.parametrize("algorithms", [
    ("comkl", "rff_dokl"), ("domkl",), ("dokl", "rff_dokl"),
], ids=["comkl", "domkl", "single_kernel"])
def test_trial_fits_are_bitwise_the_hindsight_refit(algorithms):
    cfg = ExperimentConfig(algorithms=algorithms, **_AR_CFG)
    result = run_trial(cfg, 0)
    scope = [1] if algorithms[0] == "dokl" else [0, 1, 2]
    assert sorted(result.fits) == scope
    refit = _hindsight_fits(result.context, result.context.horizon, scope)
    for index in scope:
        assert result.fits[index][0] == refit[index][0]
        assert result.fits[index][1].tobytes() == refit[index][1].tobytes()
    plain = run_trial(dataclasses.replace(cfg, compute_accuracy_regret=False), 0)
    assert plain.fits == {}


def test_comkl_trial_maps_each_kernel_once(monkeypatch):
    cfg = ExperimentConfig(algorithms=("comkl",), **_AR_CFG)
    rows = []
    original = FeatureMap.map

    def counting_map(fmap, x):
        rows.append(np.size(x) // fmap.input_dim)
        return original(fmap, x)

    monkeypatch.setattr(FeatureMap, "map", counting_map)
    result = run_trial(cfg, 0)
    ctx = result.context
    assert len(result.fits) == len(ctx.maps)
    assert rows == [cfg.num_learners * ctx.horizon] * len(ctx.maps)


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
    """One-process runs, the default, never pay for importing the pool."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, domkl; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
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
        "ExperimentConfig", "Graph", "HedgeState", "KernelSpec",
        "MessageBoard", "SyntheticTaskConfig", "build_feature_map",
        "combine_weights", "comkl_step", "cv_curve", "gaussian_kernel",
        "mp_combine_weights", "mse_curve", "rff_dokl_step", "run_experiment",
        "run_single_kernel", "run_trial", "sample_connected_er", "step",
        "sweep",
    ]
    for name in domkl.__all__:
        assert getattr(domkl, name) is not None
