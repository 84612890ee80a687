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

import numpy as np

from . import oracle
from .admm import AdmmConfig
from .baselines import DiffusionState, comkl_hedge, comkl_step, rff_dokl_step
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
# Cross-evaluation's own name for map_stack, so that benchmarks/tracing.py
# can time it apart from the mapping inside learners.step.
from .features import map_stack as _map_stack
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

    def __post_init__(self):
        if not self.bandwidth > 0.0:
            raise ConfigError("bandwidth must be positive", key="bandwidth")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be at least 1", key="input_dim")
        if not self.noise_std >= 0.0:
            raise ConfigError("noise_std must be nonnegative", key="noise_std")


@dataclass(frozen=True)
class CsvTaskConfig:
    """A CSV-backed task; ``ar_order`` only matters for time series."""

    path: str
    label_column: int = -1
    has_header: bool = False
    normalize: bool = True
    shuffle: bool = True
    ar_order: int = 5

    def __post_init__(self):
        if self.ar_order < 1:
            raise ConfigError("ar_order must be at least 1", key="ar_order")


@dataclass(frozen=True)
class ArTaskConfig:
    """A synthetic autoregressive label sequence for time-series runs."""

    coefficients: tuple = (0.6, -0.2)
    intercept: float = 0.2
    noise_std: float = 0.05
    num_samples: int = 2000
    ar_order: int = 5

    def __post_init__(self):
        if len(self.coefficients) < 1:
            raise ConfigError("ar_coefficients needs at least one value",
                              key="ar_coefficients")
        if not self.noise_std >= 0.0:
            raise ConfigError("ar_noise_std must be nonnegative",
                              key="ar_noise_std")
        if self.ar_order < 1:
            raise ConfigError("ar_order must be at least 1", key="ar_order")
        if self.num_samples <= self.ar_order:
            raise ConfigError("ar_samples must exceed ar_order %d"
                              % self.ar_order, key="ar_samples")


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
        if self.workers < 1:
            raise ConfigError("workers must be at least 1", key="workers")
        if self.num_learners < 2:
            raise ConfigError("need at least 2 learners", key="num_nodes")
        if self.hedge_variant not in ("product", "message_passing"):
            raise ConfigError("unknown hedge variant %r" % (self.hedge_variant,),
                              key="hedge_variant")
        if self.master_seed < 0:
            raise ConfigError("seed must be nonnegative", key="seed")
        if self.rounds is not None and self.rounds < 1:
            raise ConfigError("rounds must be at least 1", key="rounds")
        if self.num_features < 1:
            raise ConfigError("num_features must be at least 1",
                              key="num_features")
        if self.bandwidths is not None and not (
                self.bandwidths and all(b > 0.0 for b in self.bandwidths)):
            raise ConfigError("bandwidths must be one or more positive values",
                              key="bandwidths")
        if not 0.0 < self.connection_prob <= 1.0:
            raise ConfigError("connection_prob must be in (0, 1]",
                              key="connection_prob")
        if not self.eta_global > 0.0:
            raise ConfigError("eta_global must be positive", key="eta_global")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be at least 1",
                              key="max_attempts")
        if self.comkl_loss_mode not in ("sum", "mean"):
            raise ConfigError("unknown comkl loss mode %r"
                              % (self.comkl_loss_mode,), key="loss_mode")
        if not self.comkl_step_size > 0.0:
            raise ConfigError("comkl step_size must be positive",
                              key="step_size")
        if not self.diffusion_step_size > 0.0:
            raise ConfigError("rff_dokl step_size must be positive",
                              key="step_size")
        if self.task == "synthetic":
            if self.rounds is None:
                raise ConfigError("synthetic task needs rounds", key="rounds")
        elif self.task == "regression":
            if self.csv_data is None:
                raise ConfigError("regression task needs a data path", key="path")
        elif self.csv_data is None and self.ar_synth is None:
            raise ConfigError("timeseries task needs a data path or AR spec",
                              key="path")
        elif (self.csv_data is None and self.ar_synth.num_samples
              - self.ar_synth.ar_order < self.num_learners):
            raise ConfigError("ar_samples leaves fewer windows than learners",
                              key="ar_samples")


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
    """One trial's traces and, for the accuracy regrets, the hindsight
    fit (see ``_hindsight_fits``) of every kernel in their scopes."""

    trial_index: int
    context: TrialContext
    traces: dict
    fits: dict


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
    """comkl's trace and, when accuracy regret is asked for, every
    kernel's hindsight fit, both from one pooled feature block per kernel."""
    horizon, num_nodes = ctx.labels.shape
    pooled_x, pooled_y = _pool(ctx, horizon)
    dots = np.empty((horizon, len(ctx.maps), num_nodes))
    fits = {}
    for p, fmap in enumerate(ctx.maps):
        block = fmap.map(pooled_x)
        # The pool is stream-major: round t's rows are z[t], shape (K, D).
        z = block.reshape(num_nodes, horizon, -1).transpose(1, 0, 2)
        try:
            dots[:, p], _ = comkl_step(np.zeros(block.shape[1]),
                                       (z, ctx.labels), cfg.comkl_step_size)
        except FloatingPointError as exc:
            raise FloatingPointError("comkl kernel %d: %s" % (p, exc)) from None
        if cfg.compute_accuracy_regret:
            fits[p] = _fit(block, pooled_y, num_nodes, horizon)
    trace = _empty_trace(ctx, cfg, "comkl", len(ctx.maps))
    trace.predictions[:], weights, squared_errors = comkl_hedge(
        dots, ctx.labels, cfg.eta_global, cfg.comkl_loss_mode)
    trace.per_kernel_losses[:] = squared_errors.transpose(0, 2, 1)
    trace.weights[:] = weights[:, None, :]
    # One central function: the same value in every column.
    trace.cross_predictions[:] = trace.predictions[:, :, None]
    return trace, fits


def _run_rff_dokl(ctx, cfg):
    fmap = ctx.maps[cfg.kernel_index]
    trace = _empty_trace(ctx, cfg, "rff_dokl", 1)
    trace.weights.fill(1.0)
    state = DiffusionState.fresh(ctx.graph, 2 * cfg.num_features,
                                 step_size=cfg.diffusion_step_size)
    for t in range(ctx.horizon):
        z = fmap.map(ctx.inputs[t])                       # (K, D)
        trace.cross_predictions[t] = z @ state.thetas.T   # [k, l] = theta_l . z_k
        trace.predictions[t] = np.diagonal(trace.cross_predictions[t])
        trace.per_kernel_losses[t, :, 0] = (trace.predictions[t]
                                            - ctx.labels[t]) ** 2
        state = rff_dokl_step(state, (z, ctx.labels[t]))
    return trace


def run_trial(cfg, trial_index, node_order_seed=None):
    """Run every configured algorithm on one shared trial setup.

    ``node_order_seed`` scrambles the within-round execution order of
    the consensus algorithms; it exists to demonstrate that the order
    cannot affect results, and is never set by normal runs.
    """
    ctx = build_trial_context(cfg, trial_index)
    traces, fits = {}, {}
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
            traces[algorithm], fits = _run_comkl(ctx, cfg)
        else:
            traces[algorithm] = _run_rff_dokl(ctx, cfg)
    if cfg.compute_accuracy_regret:
        # One fit per kernel, shared by every algorithm whose scope holds it.
        scope = set().union(*(_regret_scope(cfg, alg, len(ctx.maps))
                              for alg in cfg.algorithms))
        fits.update(_hindsight_fits(ctx, ctx.horizon, sorted(scope - set(fits))))
    return TrialResult(trial_index=trial_index, context=ctx, traces=traces,
                       fits=fits)


def _hindsight_fits(ctx, horizon, kernel_indices):
    """Pooled hindsight fit of each given kernel over the whole network.

    Maps the pooled features of all streams up to ``horizon`` once per
    kernel and returns ``{index: (cumulative loss, losses)}``, where
    ``losses[t, k]`` is the fitted comparator's squared error on learner
    k's round-t sample.  The pool is stream-major, so each stream's
    losses are one row block of the pooled residual.
    """
    pooled_x, pooled_y = _pool(ctx, horizon)
    return {index: _fit(ctx.maps[index].map(pooled_x), pooled_y,
                        len(ctx.streams), horizon)
            for index in kernel_indices}


def _pool(ctx, horizon):
    """The first ``horizon`` samples of every stream, stream after stream."""
    pooled_x = ctx.inputs[:horizon].transpose(1, 0, 2).reshape(
        -1, ctx.inputs.shape[2])
    return pooled_x, ctx.labels[:horizon].T.ravel()


def _fit(z, pooled_y, num_streams, horizon):
    """The hindsight fit to one kernel's mapped pool ``z``."""
    theta, cum = oracle.hindsight_best(z, pooled_y)
    losses = (z @ theta - pooled_y) ** 2
    return cum, np.ascontiguousarray(losses.reshape(num_streams, horizon).T)


def _regret_against_best(trace, fits, kernel_indices):
    """Regret against the fit with the lowest pooled loss (first on ties)."""
    best = min(kernel_indices, key=lambda index: fits[index][0])
    return regret_accuracy(trace, fits[best][1])


def accuracy_regret_for_trace(ctx, trace, kernel_indices):
    """Per-learner regret against the pooled hindsight optimum.

    The comparator is the best fixed parameter vector over the pooled
    features of the whole network up to the trace's horizon, taken over
    the given dictionary slots (the best one wins).
    """
    fits = _hindsight_fits(ctx, trace.num_rounds, kernel_indices)
    return _regret_against_best(trace, fits, kernel_indices)


def _regret_scope(cfg, algorithm, num_kernels):
    if algorithm in ("dokl", "rff_dokl"):
        return [cfg.kernel_index]
    return list(range(num_kernels))


def _trial_worker(payload):
    cfg, index = payload
    return run_trial(cfg, index)


def _trial_failure(index, exc):
    """The error reporting a failed trial: config errors stay config errors."""
    if isinstance(exc, ConfigError):
        return ConfigError("trial %d: %s" % (index, exc), key=exc.key)
    return RuntimeError("trial %d failed: %s" % (index, exc))


def run_experiment(cfg):
    """Run all trials (in ``cfg.workers`` processes) and aggregate."""
    indices = list(range(cfg.trials))
    if cfg.workers > 1:
        # Imported here: the pool modules take tens of ms to import and
        # the default run uses one process.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_trial_worker, (cfg, i)) for i in indices]
            results = []
            for i, fut in zip(indices, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:
                    raise _trial_failure(i, exc) from exc
    else:
        results = []
        for i in indices:
            try:
                results.append(run_trial(cfg, i))
            except Exception as exc:
                raise _trial_failure(i, exc) from exc
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
            scope = _regret_scope(cfg, algorithm,
                                  len(results[0].context.maps))
            final_regret_a[algorithm] = float(np.mean([
                _regret_against_best(r.traces[algorithm], r.fits, scope).mean()
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
