"""Synchronous round engine, trial runner, and aggregation.

A trial fixes one connected topology, one set of feature maps, and one
partition of the data, then runs every configured algorithm over the
same T rounds.  Rounds are strictly synchronous: a learner's step-t
inputs are its own sample and the round t-1 broadcasts of its
neighbors, so intra-round execution order cannot matter (a scrambling
knob exists to prove it).  Trials are independent and may run in
worker processes (``ExperimentConfig.workers``, or the INI ``workers``
key; one process by default); results are identical either way.

Seed discipline: the graph for trial i is sampled with seed
``master_seed XOR i``; feature maps, data, noise, and row shuffling each
draw from their own labeled stream derived from (master_seed, i), so
any one randomness source can be frozen independently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import oracle
from .admm import AdmmConfig
from .baselines import ComklState, DiffusionState, comkl_step, rff_dokl_step
from .data import (
    ARSpec,
    Dataset,
    SyntheticRegressionSpec,
    ar_embed,
    load_csv,
    normalize_minmax,
    partition_regression,
    partition_timeseries_interleaved,
    synth_ar,
    synth_regression,
)
from .errors import ConfigError
from .features import KernelDictionary, KernelSpec, default_dictionary
from .graph import connected_components, from_edge_list, sample_connected_er
from .hedge import MessageBoard, mp_update_messages
from .learners import LearnerNode, _combined_prediction, step
from .metrics import (
    RunTrace,
    cv_curve,
    mse_curve,
    regret_accuracy,
    regret_discrepancy,
)

ALGORITHMS = ("domkl", "dokl", "comkl", "rff_dokl")
TASKS = ("synthetic", "regression", "timeseries")

# Labels of the per-trial seed streams.
_MAPS, _DATA, _NOISE, _SHUFFLE = 1, 2, 3, 4


def derive_seed(*parts):
    """A reproducible 32-bit seed from labeled integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Regression data drawn from a known random-feature function."""

    bandwidth: float = 0.01
    input_dim: int = 2
    noise_std: float = 0.05
    theta_scale: float = 1.0


@dataclass(frozen=True)
class CsvTaskConfig:
    """A CSV-backed task; ``ar_order`` only matters for time series."""

    path: str
    label_column: int = -1
    has_header: bool = False
    normalize: bool = True
    shuffle: bool = True
    ar_order: int = 5


@dataclass(frozen=True)
class ArTaskConfig:
    """A synthetic autoregressive label sequence for time-series runs."""

    coefficients: tuple = (0.6, -0.2)
    intercept: float = 0.2
    noise_std: float = 0.05
    num_samples: int = 2000
    ar_order: int = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, picklable and immutable."""

    task: str = "synthetic"
    algorithms: tuple = ("domkl",)
    num_learners: int = 5
    connection_prob: float = 0.25
    topology_path: str | None = None
    max_attempts: int = 50
    admm: AdmmConfig = AdmmConfig()
    eta_global: float = 10.0
    num_features: int = 50
    bandwidths: tuple | None = None
    kernel_index: int = 8
    hedge_variant: str = "product"
    allow_cycles: bool = False
    trials: int = 1
    master_seed: int = 0
    rounds: int | None = None
    synthetic: SyntheticTaskConfig | None = None
    csv_data: CsvTaskConfig | None = None
    ar_synth: ArTaskConfig | None = None
    comkl_step_size: float = 0.5
    comkl_loss_mode: str = "sum"
    diffusion_step_size: float = 0.5
    workers: int = 1
    compute_accuracy_regret: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError("unknown task %r" % (self.task,), key="task")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError("unknown algorithm %r" % (alg,),
                                  key="algorithms")
        if not self.algorithms:
            raise ConfigError("no algorithms selected", key="algorithms")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1", key="trials")
        if self.num_learners < 2:
            raise ConfigError("need at least 2 learners", key="num_nodes")
        if self.hedge_variant not in ("product", "message_passing"):
            raise ConfigError("unknown hedge variant %r" % (self.hedge_variant,),
                              key="hedge_variant")
        if self.master_seed < 0:
            raise ConfigError("seed must be nonnegative", key="seed")
        if self.task == "synthetic":
            if self.rounds is None:
                raise ConfigError("synthetic task needs rounds", key="rounds")
        elif self.task == "regression":
            if self.csv_data is None:
                raise ConfigError("regression task needs a data path", key="path")
        elif self.csv_data is None and self.ar_synth is None:
            raise ConfigError("timeseries task needs a data path or AR spec",
                              key="path")


def config_dictionary(cfg, shared_seed=0):
    """The kernel dictionary a config implies, at a given map seed."""
    if cfg.bandwidths is None:
        return default_dictionary(shared_seed)
    return KernelDictionary(
        specs=tuple(KernelSpec(b) for b in cfg.bandwidths),
        shared_seed=shared_seed,
    )


@dataclass(frozen=True)
class TrialContext:
    """Shared inputs every algorithm of one trial consumes.

    ``inputs`` (T, K, d) and ``labels`` (T, K) hold the first ``horizon``
    samples of every stream in round-major order; they are read-only
    because every trace of the trial shares ``labels``.
    """

    trial_index: int
    graph: object
    dictionary: KernelDictionary
    maps: tuple
    streams: tuple
    horizon: int
    synthetic_spec: SyntheticRegressionSpec | None
    inputs: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class TrialResult:
    trial_index: int
    context: TrialContext
    traces: dict


@dataclass(frozen=True)
class AggregateResult:
    """Per-algorithm trial averages of the metric curves and regrets."""

    algorithms: tuple
    rounds: int
    trials: int
    mse_mean: dict
    mse_std: dict
    cv_mean: dict
    cv_std: dict
    final_regret_d: dict
    final_regret_a: dict | None


@dataclass(frozen=True)
class SweepRow:
    algorithm: str
    eta_global: float
    rho: float
    final_mse: float
    final_cv: float


def _scale_unit(series):
    lo, hi = series.min(), series.max()
    if hi == lo:
        return np.zeros_like(series)
    return (series - lo) / (hi - lo)


def build_trial_context(cfg, trial_index):
    """Sample graph, maps, and streams for one trial."""
    if cfg.topology_path is not None:
        with open(cfg.topology_path) as handle:
            graph = from_edge_list(handle.read(), num_nodes=cfg.num_learners)
        components = connected_components(graph)
        if len(components) > 1:
            named = ", ".join(str(list(c)) for c in components)
            raise ConfigError("topology %s is disconnected: components %s"
                              % (cfg.topology_path, named), key="topology")
    else:
        graph = sample_connected_er(
            cfg.num_learners, cfg.connection_prob,
            seed=cfg.master_seed ^ trial_index,
            max_attempts=cfg.max_attempts,
        )

    map_seed = derive_seed(cfg.master_seed, trial_index, _MAPS)
    dictionary = config_dictionary(cfg, shared_seed=map_seed)
    uses_index = any(alg in ("dokl", "rff_dokl") for alg in cfg.algorithms)
    if uses_index and not 0 <= cfg.kernel_index < len(dictionary):
        raise ConfigError("kernel_index %d outside dictionary of size %d"
                          % (cfg.kernel_index, len(dictionary)),
                          key="kernel_index")

    synthetic_spec = None
    if cfg.task == "synthetic":
        spec_cfg = cfg.synthetic or SyntheticTaskConfig()
        dim = 2 * cfg.num_features
        theta_rng = np.random.default_rng(
            derive_seed(cfg.master_seed, trial_index, _DATA, 0)
        )
        true_theta = spec_cfg.theta_scale * theta_rng.standard_normal(dim)
        # When the generating bandwidth sits in the dictionary, generate
        # with that kernel's very map so the recorded parameters are the
        # realizable comparator the regret checks need.
        gen_seed = derive_seed(cfg.master_seed, trial_index, _DATA, 2)
        for p, spec in enumerate(dictionary.specs):
            if abs(spec.bandwidth - spec_cfg.bandwidth) <= 1e-12 * spec.bandwidth:
                gen_seed = dictionary.map_seed(p)
                break
        synthetic_spec = SyntheticRegressionSpec(
            generating_bandwidth=spec_cfg.bandwidth,
            true_theta=true_theta,
            noise_std=spec_cfg.noise_std,
            input_dim=spec_cfg.input_dim,
            seed=gen_seed,
        )
        total = cfg.num_learners * cfg.rounds
        ds = synth_regression(
            synthetic_spec, total,
            seed=derive_seed(cfg.master_seed, trial_index, _DATA, 1),
            noise_seed=derive_seed(cfg.master_seed, trial_index, _NOISE),
        )
        streams = partition_regression(ds, cfg.num_learners)
        input_dim = spec_cfg.input_dim
    elif cfg.task == "regression":
        ds = load_csv(cfg.csv_data.path, cfg.csv_data.label_column,
                      cfg.csv_data.has_header)
        if cfg.csv_data.normalize:
            ds = normalize_minmax(ds)
        if cfg.csv_data.shuffle:
            rng = np.random.default_rng(
                derive_seed(cfg.master_seed, trial_index, _SHUFFLE)
            )
            perm = rng.permutation(len(ds))
            ds = Dataset(features=ds.features[perm], labels=ds.labels[perm],
                         name=ds.name)
        streams = partition_regression(ds, cfg.num_learners)
        input_dim = ds.features.shape[1]
    else:  # timeseries
        if cfg.csv_data is not None:
            raw = load_csv(cfg.csv_data.path, cfg.csv_data.label_column,
                           cfg.csv_data.has_header)
            series = raw.labels
            if cfg.csv_data.normalize:
                series = _scale_unit(series)
            order = cfg.csv_data.ar_order
        else:
            ar = cfg.ar_synth
            spec = ARSpec(order=len(ar.coefficients), intercept=ar.intercept,
                          coefficients=np.asarray(ar.coefficients),
                          noise_std=ar.noise_std)
            series = synth_ar(
                spec, ar.num_samples,
                seed=derive_seed(cfg.master_seed, trial_index, _DATA),
            )
            series = _scale_unit(series)
            order = ar.ar_order
        embedded = ar_embed(series, order)
        streams = partition_timeseries_interleaved(embedded, cfg.num_learners)
        input_dim = order

    horizon = min(len(s) for s in streams)
    if cfg.rounds is not None:
        horizon = min(horizon, cfg.rounds)
    maps = dictionary.build_maps(input_dim, cfg.num_features)
    inputs = np.stack([s.features[:horizon] for s in streams], axis=1)
    labels = np.stack([s.labels[:horizon] for s in streams], axis=1)
    inputs.setflags(write=False)
    labels.setflags(write=False)
    return TrialContext(
        trial_index=trial_index,
        graph=graph,
        dictionary=dictionary,
        maps=maps,
        streams=tuple(streams),
        horizon=horizon,
        synthetic_spec=synthetic_spec,
        inputs=inputs,
        labels=labels,
    )


def _map_stack(maps, x):
    return np.stack([fm.map(x) for fm in maps])


def _empty_trace(ctx, cfg, algorithm, num_kernels):
    """A zeroed trace over the trial's horizon that a round loop fills in."""
    horizon, num_nodes = ctx.labels.shape
    return RunTrace(
        algorithm=algorithm, trial_seed=cfg.master_seed ^ ctx.trial_index,
        graph=ctx.graph, predictions=np.zeros((horizon, num_nodes)),
        labels=ctx.labels,
        per_kernel_losses=np.zeros((horizon, num_nodes, num_kernels)),
        cross_predictions=np.zeros((horizon, num_nodes, num_nodes)),
        weights=np.zeros((horizon, num_nodes, num_kernels)),
    )


def _run_admm_family(ctx, cfg, kernel_indices, algorithm, variant="product",
                     order_rng=None):
    """Round loop shared by the multi-kernel and single-kernel runs."""
    maps = tuple(ctx.maps[i] for i in kernel_indices)
    graph = ctx.graph
    num_nodes = graph.num_nodes
    trace = _empty_trace(ctx, cfg, algorithm, len(maps))

    nodes = [
        LearnerNode(k, maps, graph.neighbors[k], eta_global=cfg.eta_global)
        for k in range(num_nodes)
    ]
    exchanges = {k: nodes[k].initial_exchange() for k in range(num_nodes)}
    board = (MessageBoard.initial(graph, len(maps))
             if variant == "message_passing" else None)

    for t in range(ctx.horizon):
        if board is not None:
            log_w = [
                -exchanges[k].cumulative_losses / cfg.eta_global
                for k in range(num_nodes)
            ]
            board = mp_update_messages(board, graph, log_w,
                                       allow_cycles=cfg.allow_cycles)
        order = (list(range(num_nodes)) if order_rng is None
                 else list(order_rng.permutation(num_nodes)))
        fresh = {}
        for k in order:
            inbox = [exchanges[l] for l in graph.neighbors[k]]
            messages = (
                [board.messages[(l, k)] for l in graph.neighbors[k]]
                if board is not None else None
            )
            pred, kernel_losses, outgoing = step(
                nodes[k], inbox, (ctx.inputs[t, k], ctx.labels[t, k]),
                cfg.admm, variant=variant, incoming_messages=messages,
            )
            trace.predictions[t, k] = pred
            trace.per_kernel_losses[t, k] = kernel_losses
            trace.weights[t, k] = nodes[k].round_weights
            fresh[k] = outgoing
        snap_thetas = np.stack([nodes[l].round_thetas for l in range(num_nodes)])
        snap_weights = np.stack([nodes[l].round_weights for l in range(num_nodes)])
        for k in range(num_nodes):
            z_stack = _map_stack(maps, ctx.inputs[t, k])
            _, trace.cross_predictions[t, k] = _combined_prediction(
                snap_thetas, snap_weights, z_stack[None, :, :]
            )
        exchanges = fresh
    return trace


def _run_comkl(ctx, cfg):
    trace = _empty_trace(ctx, cfg, "comkl", len(ctx.maps))
    state = ComklState.fresh(
        len(ctx.maps), 2 * cfg.num_features, eta_local=cfg.comkl_step_size,
        eta_global=cfg.eta_global, loss_mode=cfg.comkl_loss_mode,
        expected_batch=ctx.graph.num_nodes,
    )
    for t in range(ctx.horizon):
        preds, trace.per_kernel_losses[t], state = comkl_step(
            state, (ctx.inputs[t], ctx.labels[t]), ctx.maps
        )
        trace.predictions[t] = preds
        trace.weights[t] = state.weights
        # One central function: the same value in every column.
        trace.cross_predictions[t] = preds[:, None]
    return trace


def _run_rff_dokl(ctx, cfg):
    fmap = ctx.maps[cfg.kernel_index]
    trace = _empty_trace(ctx, cfg, "rff_dokl", 1)
    trace.weights.fill(1.0)
    states = [DiffusionState.fresh(2 * cfg.num_features,
                                   step_size=cfg.diffusion_step_size)
              for _ in range(ctx.graph.num_nodes)]
    for t in range(ctx.horizon):
        z = fmap.map(ctx.inputs[t])                 # (K, D)
        thetas = np.stack([s.theta for s in states])
        trace.cross_predictions[t] = z @ thetas.T   # [k, l] = theta_l . z_k
        trace.predictions[t] = np.diagonal(trace.cross_predictions[t])
        trace.per_kernel_losses[t, :, 0] = (trace.predictions[t]
                                            - ctx.labels[t]) ** 2
        states = rff_dokl_step(states, ctx.graph, (z, ctx.labels[t]))
    return trace


def run_trial(cfg, trial_index, node_order_seed=None):
    """Run every configured algorithm on one shared trial setup.

    ``node_order_seed`` scrambles the within-round execution order of
    the consensus algorithms; it exists to demonstrate that the order
    cannot affect results, and is never set by normal runs.
    """
    ctx = build_trial_context(cfg, trial_index)
    traces = {}
    for algorithm in cfg.algorithms:
        order_rng = (np.random.default_rng(node_order_seed)
                     if node_order_seed is not None else None)
        if algorithm == "domkl":
            traces[algorithm] = _run_admm_family(
                ctx, cfg, list(range(len(ctx.maps))), "domkl",
                variant=cfg.hedge_variant, order_rng=order_rng,
            )
        elif algorithm == "dokl":
            traces[algorithm] = _run_admm_family(
                ctx, cfg, [cfg.kernel_index], "dokl", order_rng=order_rng,
            )
        elif algorithm == "comkl":
            traces[algorithm] = _run_comkl(ctx, cfg)
        else:
            traces[algorithm] = _run_rff_dokl(ctx, cfg)
    return TrialResult(trial_index=trial_index, context=ctx, traces=traces)


def accuracy_regret_for_trace(ctx, trace, kernel_indices):
    """Per-learner regret against the pooled hindsight optimum.

    The comparator is the best fixed parameter vector over the pooled
    features of the whole network up to the trace's horizon, taken over
    the given dictionary slots (the best one wins).
    """
    horizon = trace.num_rounds
    pooled_x = np.concatenate(
        [s.features[:horizon] for s in ctx.streams], axis=0
    )
    pooled_y = np.concatenate([s.labels[:horizon] for s in ctx.streams])
    best = None
    for index in kernel_indices:
        z = ctx.maps[index].map(pooled_x)
        theta, cum = oracle.hindsight_best(z, pooled_y)
        if best is None or cum < best[0]:
            best = (cum, index, theta)
    _, index, theta = best
    hindsight = np.zeros((horizon, len(ctx.streams)))
    for k, stream in enumerate(ctx.streams):
        z = ctx.maps[index].map(stream.features[:horizon])
        hindsight[:, k] = (z @ theta - stream.labels[:horizon]) ** 2
    return regret_accuracy(trace, hindsight)


def _regret_scope(cfg, algorithm, num_kernels):
    if algorithm in ("dokl", "rff_dokl"):
        return [cfg.kernel_index]
    return list(range(num_kernels))


def _trial_worker(payload):
    cfg, index = payload
    return run_trial(cfg, index)


def run_experiment(cfg):
    """Run all trials (in ``cfg.workers`` processes) and aggregate."""
    indices = list(range(cfg.trials))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_trial_worker, (cfg, i)) for i in indices]
            results = []
            for i, fut in zip(indices, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:
                    raise RuntimeError("trial %d failed: %s" % (i, exc)) from exc
    else:
        results = []
        for i in indices:
            try:
                results.append(run_trial(cfg, i))
            except Exception as exc:
                raise RuntimeError("trial %d failed: %s" % (i, exc)) from exc
    return aggregate(cfg, results)


def aggregate(cfg, results):
    """Mean/std curves and final regrets across completed trials."""
    if len(results) != cfg.trials:
        raise ValueError("expected %d trials, got %d" % (cfg.trials, len(results)))
    mse_mean, mse_std, cv_mean, cv_std = {}, {}, {}, {}
    final_regret_d = {}
    final_regret_a = {} if cfg.compute_accuracy_regret else None
    rounds = results[0].context.horizon
    for algorithm in cfg.algorithms:
        mse_rows = np.stack(
            [mse_curve(r.traces[algorithm]).values for r in results]
        )
        cv_rows = np.stack(
            [cv_curve(r.traces[algorithm]).values for r in results]
        )
        mse_mean[algorithm] = mse_rows.mean(axis=0)
        mse_std[algorithm] = mse_rows.std(axis=0)
        cv_mean[algorithm] = cv_rows.mean(axis=0)
        cv_std[algorithm] = cv_rows.std(axis=0)
        final_regret_d[algorithm] = float(np.mean(
            [regret_discrepancy(r.traces[algorithm]).mean() for r in results]
        ))
        if final_regret_a is not None:
            scope = _regret_scope(cfg, algorithm, len(results[0].context.maps))
            final_regret_a[algorithm] = float(np.mean([
                accuracy_regret_for_trace(
                    r.context, r.traces[algorithm], scope
                ).mean()
                for r in results
            ]))
    return AggregateResult(
        algorithms=tuple(cfg.algorithms), rounds=rounds, trials=cfg.trials,
        mse_mean=mse_mean, mse_std=mse_std, cv_mean=cv_mean, cv_std=cv_std,
        final_regret_d=final_regret_d, final_regret_a=final_regret_a,
    )


def sweep(cfg, rhos, eta_globals):
    """Full experiments over the sorted grid of (eta_global, rho) cells."""
    rows = []
    for eta in sorted(eta_globals):
        for rho in sorted(rhos):
            cell = replace(cfg, eta_global=eta,
                           admm=replace(cfg.admm, rho=rho))
            result = run_experiment(cell)
            for algorithm in cfg.algorithms:
                rows.append(SweepRow(
                    algorithm=algorithm, eta_global=eta, rho=rho,
                    final_mse=float(result.mse_mean[algorithm][-1]),
                    final_cv=float(result.cv_mean[algorithm][-1]),
                ))
    return rows
