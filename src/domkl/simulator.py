"""Synchronous round engine, trial runner, and aggregation.

A trial fixes one connected topology, one set of feature maps, and one
partition of the data, then runs every configured algorithm over the
same T rounds.  Rounds are strictly synchronous: a learner's step-t
inputs are its own sample and the round t-1 broadcasts of its
neighbors, so intra-round execution order cannot matter.  Trials are
independent and may run in worker processes (``ExperimentConfig.workers``,
or the INI ``workers`` key; one process by default); results are
identical either way.  Each trial is aggregated as soon as it finishes.

Accuracy regret's comparator, a hindsight ridge fit to all learners'
samples pooled, is chosen by ``_pooled_pass`` alone: the best kernel for
domkl and comkl, ``kernel_index`` for dokl and rff_dokl.

Seed discipline: the graph for trial i is sampled with seed
``master_seed XOR i``; feature maps, data, noise, and row shuffling each
draw from their own labeled stream derived from (master_seed, i), so
any one randomness source can be frozen independently.  A synthetic
task whose bandwidth is in the dictionary is labelled through that
kernel's own map, so its learners can represent the generating function
exactly; any other bandwidth gets a map drawn from the data stream.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .admm import AdmmConfig
from .baselines import DiffusionState, comkl_hedge, comkl_step, rff_dokl_step
from .data import (
    Dataset,
    ar_embed,
    load_csv,
    normalize_minmax,
    partition_regression,
    partition_timeseries_interleaved,
    scale_unit,
    synth_ar,
    synth_regression,
)
from .errors import ConfigError
from .features import (
    KernelDictionary,
    KernelSpec,
    _share_cpus,
    build_feature_map,
    default_dictionary,
)
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
# The algorithms that read each parameter that ``sweep`` varies; the
# config keys that set them have the same readers.  dokl's one-kernel
# hedge weight is always 1, so eta_global changes nothing there.
GRID_READERS = {"rho": ("domkl", "dokl"), "eta_global": ("domkl", "comkl")}
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
    samples of every learner's stream in round-major: column k is
    learner k's stream.  They are read-only because every trace of the
    trial shares ``labels``.
    """

    graph: object
    dictionary: KernelDictionary
    maps: tuple
    inputs: np.ndarray
    labels: np.ndarray

    @property
    def horizon(self):
        """T, the rounds of the trial."""
        return len(self.labels)


@dataclass(frozen=True)
class TrialResult:
    """One trial's traces and each algorithm's per-learner (K,) accuracy
    regret against its comparator (see ``_pooled_pass``), or None when
    accuracy regret is off."""

    context: TrialContext
    traces: dict
    regrets: dict | None


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


@dataclass(frozen=True)
class ExperimentInputs:
    """What every trial of an experiment reads from files, loaded once.

    ``graph`` is the topology file's graph; ``dataset`` is the CSV task's
    data, min-max scaled (when ``normalize``) for regression and embedded
    into lagged windows for a time series.  Each is None when the config
    names no such file.
    """

    graph: object = None
    dataset: Dataset | None = None


def load_inputs(cfg):
    """Parse the topology file and the CSV data of ``cfg`` and check them."""
    graph = dataset = None
    if cfg.topology_path is not None:
        with open(cfg.topology_path) as handle:
            text = handle.read()
        try:
            graph = from_edge_list(text, num_nodes=cfg.num_learners)
        except ValueError as exc:
            raise ConfigError("topology %s: %s" % (cfg.topology_path, exc),
                              key="topology") from None
        components = connected_components(graph)
        if len(components) > 1:
            named = ", ".join(str(list(c)) for c in components)
            raise ConfigError("topology %s is disconnected: components %s"
                              % (cfg.topology_path, named), key="topology")
    if cfg.task == "regression":
        dataset = _load_regression(cfg.csv_data, cfg.num_learners)
    elif cfg.task == "timeseries" and cfg.csv_data is not None:
        dataset = _load_timeseries(cfg.csv_data, cfg.num_learners)
    return ExperimentInputs(graph=graph, dataset=dataset)


def _load_regression(csv_data, num_learners):
    ds = load_csv(csv_data.path, csv_data.label_column, csv_data.has_header)
    if ds.features.shape[1] == 0:
        raise ConfigError("%s has no feature column: a regression task needs"
                          " one besides the label column" % csv_data.path,
                          key="path")
    if csv_data.normalize and len(ds) < 2:
        raise ConfigError("normalize needs at least 2 rows; %s has %d"
                          % (csv_data.path, len(ds)), key="normalize")
    if len(ds) < num_learners:
        raise ConfigError("%s has %d rows, fewer than num_nodes = %d"
                          % (csv_data.path, len(ds), num_learners),
                          key="num_nodes")
    return normalize_minmax(ds) if csv_data.normalize else ds


def _load_timeseries(csv_data, num_learners):
    series = load_csv(csv_data.path, csv_data.label_column,
                      csv_data.has_header).labels
    if csv_data.normalize:
        series = scale_unit(series)
    order = csv_data.ar_order
    if len(series) - order < num_learners:
        raise ConfigError(
            "%s has %d values; ar_order = %d leaves fewer windows"
            " than num_nodes = %d" % (csv_data.path, len(series),
                                      order, num_learners),
            key="ar_order")
    return ar_embed(series, order)


def build_trial_context(cfg, trial_index, inputs=None):
    """Sample graph, maps, and the learners' data for one trial.

    ``inputs`` are the experiment's files as ``load_inputs(cfg)`` returns
    them; when omitted they are loaded here.
    """
    if inputs is None:
        inputs = load_inputs(cfg)
    if inputs.graph is not None:
        graph = inputs.graph
    else:
        graph = sample_connected_er(
            cfg.num_learners, cfg.connection_prob,
            seed=cfg.master_seed ^ trial_index,
            max_attempts=cfg.max_attempts,
        )

    map_seed = derive_seed(cfg.master_seed, trial_index, _MAPS)
    dictionary = config_dictionary(cfg, shared_seed=map_seed)
    index = _index_in_use(cfg)
    if index is not None and not 0 <= index < len(dictionary):
        raise ConfigError("kernel_index %d outside dictionary of size %d"
                          % (index, len(dictionary)), key="kernel_index")

    maps = None
    if cfg.task == "synthetic":
        synth = cfg.synthetic or SyntheticTaskConfig()
        maps = dictionary.build_maps(synth.input_dim, cfg.num_features)
        theta = synth.theta_scale * np.random.default_rng(
            derive_seed(cfg.master_seed, trial_index, _DATA, 0)
        ).standard_normal(2 * cfg.num_features)
        # Label with the map of the dictionary kernel at the generating
        # bandwidth, so the generating function is exactly realizable by
        # that kernel's learners.
        for fmap, spec in zip(maps, dictionary.specs):
            if abs(spec.bandwidth - synth.bandwidth) <= 1e-12 * spec.bandwidth:
                generator = fmap
                break
        else:
            generator = build_feature_map(
                KernelSpec(synth.bandwidth), synth.input_dim, cfg.num_features,
                seed=derive_seed(cfg.master_seed, trial_index, _DATA, 2))
        ds = synth_regression(
            generator, theta, synth.noise_std, cfg.num_learners * cfg.rounds,
            seed=derive_seed(cfg.master_seed, trial_index, _DATA, 1),
            noise_seed=derive_seed(cfg.master_seed, trial_index, _NOISE),
        )
        inputs, labels = partition_regression(ds, cfg.num_learners)
    elif cfg.task == "regression":
        ds = inputs.dataset
        if cfg.csv_data.shuffle:
            rng = np.random.default_rng(
                derive_seed(cfg.master_seed, trial_index, _SHUFFLE)
            )
            perm = rng.permutation(len(ds))
            ds = Dataset(features=ds.features[perm], labels=ds.labels[perm])
        inputs, labels = partition_regression(ds, cfg.num_learners)
    else:  # timeseries
        if inputs.dataset is not None:
            embedded = inputs.dataset
        else:
            ar = cfg.ar_synth
            series = synth_ar(
                ar.coefficients, ar.intercept, ar.noise_std, ar.num_samples,
                seed=derive_seed(cfg.master_seed, trial_index, _DATA),
            )
            embedded = ar_embed(scale_unit(series), ar.ar_order)
        inputs, labels = partition_timeseries_interleaved(embedded,
                                                          cfg.num_learners)

    horizon = len(labels)
    if cfg.rounds is not None:
        horizon = min(horizon, cfg.rounds)
    if maps is None:  # the synthetic task built them before its data
        maps = dictionary.build_maps(inputs.shape[2], cfg.num_features)
    # Copies: the partitions are views of a dataset that trials may share.
    inputs = inputs[:horizon].copy()
    labels = labels[:horizon].copy()
    inputs.setflags(write=False)
    labels.setflags(write=False)
    return TrialContext(
        graph=graph,
        dictionary=dictionary,
        maps=maps,
        inputs=inputs,
        labels=labels,
    )


def _empty_trace(ctx, algorithm, num_kernels):
    """A zeroed trace over the trial's horizon that a round loop fills in."""
    horizon, num_nodes = ctx.labels.shape
    return RunTrace(
        algorithm=algorithm, graph=ctx.graph,
        predictions=np.zeros((horizon, num_nodes)), labels=ctx.labels,
        per_kernel_losses=np.zeros((horizon, num_nodes, num_kernels)),
        cross_predictions=np.zeros((horizon, num_nodes, num_nodes)),
        weights=np.zeros((horizon, num_nodes, num_kernels)),
    )


def _run_admm_family(ctx, cfg, kernel_indices, algorithm, variant="product"):
    """Round loop shared by the multi-kernel and single-kernel runs.

    Raises ``FloatingPointError`` naming the learner and round whose
    step met a non-finite loss or parameter.
    """
    maps = tuple(ctx.maps[i] for i in kernel_indices)
    graph = ctx.graph
    num_nodes = graph.num_nodes
    trace = _empty_trace(ctx, algorithm, len(maps))

    nodes = [
        LearnerNode(k, maps, graph.neighbors[k], eta_global=cfg.eta_global)
        for k in range(num_nodes)
    ]
    exchanges = {k: nodes[k].initial_exchange() for k in range(num_nodes)}
    board = (MessageBoard.initial(graph, len(maps), cfg.allow_cycles)
             if variant == "message_passing" else None)

    try:
        for t in range(ctx.horizon):
            if board is not None:
                log_w = [
                    -exchanges[k].cumulative_losses / cfg.eta_global
                    for k in range(num_nodes)
                ]
                board = mp_update_messages(board, graph, log_w)
            fresh = {}
            for k in range(num_nodes):
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
            # Every learner predicted with its previous broadcast.
            broadcast = np.stack([exchanges[l].thetas for l in range(num_nodes)])
            for k in range(num_nodes):
                z_stack = _map_stack(maps, ctx.inputs[t, k])
                _, trace.cross_predictions[t, k] = _combined_prediction(
                    broadcast, trace.weights[t], z_stack[None, :, :]
                )
            exchanges = fresh
    except FloatingPointError as exc:
        raise FloatingPointError("%s learner %d: %s at round %d of %d"
                                 % (algorithm, k, exc, t + 1,
                                    ctx.horizon)) from None
    return trace


def _run_comkl(ctx, cfg):
    """comkl's trace and the trial's comparators (see ``_pooled_pass``),
    both from one pooled feature block per kernel."""
    dots = np.empty((ctx.horizon, len(ctx.maps), ctx.labels.shape[1]))
    comparators = _pooled_pass(ctx, cfg, dots)
    trace = _empty_trace(ctx, "comkl", len(ctx.maps))
    trace.predictions[:], weights, squared_errors = comkl_hedge(
        dots, ctx.labels, cfg.eta_global, cfg.comkl_loss_mode)
    trace.per_kernel_losses[:] = squared_errors.transpose(0, 2, 1)
    trace.weights[:] = weights[:, None, :]
    # One central function: the same value in every column.
    trace.cross_predictions[:] = trace.predictions[:, :, None]
    return trace, comparators


def _pooled_pass(ctx, cfg, dots=None):
    """The trial's accuracy-regret comparators, from one pass over the
    kernels' pooled features; every choice of comparator is made here.

    The pool holds every stream's samples, stream after stream.  Each
    kernel's (K*T, 2M) block is mapped at most once: when ``dots`` is
    given, comkl's learner of kernel p steps on it into ``dots[:, p]``,
    and when a regret reads the kernel, its hindsight ridge fit is taken.
    Returns ``(best, at_index)``, the (T, K) squared errors of the fit
    with the lowest pooled loss over every kernel (the lower index on
    ties; None unless domkl or comkl is configured) and of the fit of
    ``cfg.kernel_index`` (None unless dokl or rff_dokl is); both are None
    when accuracy regret is off.  One block is live at a time.
    """
    horizon, num_nodes = ctx.labels.shape
    fit_all = cfg.compute_accuracy_regret and any(
        alg in ("domkl", "comkl") for alg in cfg.algorithms)
    index = _index_in_use(cfg) if cfg.compute_accuracy_regret else None
    pooled_x = ctx.inputs.transpose(1, 0, 2).reshape(-1, ctx.inputs.shape[2])
    pooled_y = ctx.labels.T.ravel()
    best = best_loss = at_index = None
    for p, fmap in enumerate(ctx.maps):
        fit = fit_all or p == index
        if dots is None and not fit:
            continue
        block = fmap.map(pooled_x)
        # Round t's rows are z[t], shape (K, D).
        z = block.reshape(num_nodes, horizon, -1).transpose(1, 0, 2)
        if dots is not None:
            try:
                dots[:, p], _ = comkl_step(np.zeros(block.shape[1]),
                                           (z, ctx.labels),
                                           cfg.comkl_step_size)
            except FloatingPointError as exc:
                raise FloatingPointError("comkl kernel %d: %s"
                                         % (fmap.kernel_index, exc)) from None
        if fit:
            _, loss, residual = oracle.hindsight_best(block, pooled_y)
            losses = np.ascontiguousarray(
                (residual ** 2).reshape(num_nodes, horizon).T)
            if fit_all and (best is None or loss < best_loss):
                best, best_loss = losses, loss
            if p == index:
                at_index = losses
            del losses
        # Still bound, these would be live while the next block is mapped.
        del block, z
    return best, at_index


def _run_rff_dokl(ctx, cfg):
    """rff_dokl's trace; raises ``FloatingPointError`` naming the first
    round with a non-finite loss, or else the round whose step failed."""
    fmap = ctx.maps[cfg.kernel_index]
    trace = _empty_trace(ctx, "rff_dokl", 1)
    trace.weights.fill(1.0)
    state = DiffusionState.fresh(ctx.graph, 2 * cfg.num_features,
                                 step_size=cfg.diffusion_step_size)
    try:
        for t in range(ctx.horizon):
            z = fmap.map(ctx.inputs[t])                       # (K, D)
            trace.cross_predictions[t] = z @ state.thetas.T   # [k, l] = theta_l . z_k
            trace.predictions[t] = np.diagonal(trace.cross_predictions[t])
            trace.per_kernel_losses[t, :, 0] = (trace.predictions[t]
                                                - ctx.labels[t]) ** 2
            if not np.isfinite(trace.per_kernel_losses[t]).all():
                raise FloatingPointError("non-finite loss")
            state = rff_dokl_step(state, (z, ctx.labels[t]))
    except FloatingPointError as exc:
        raise FloatingPointError("rff_dokl: %s at round %d of %d"
                                 % (exc, t + 1, ctx.horizon)) from None
    return trace


def run_trial(cfg, trial_index, inputs=None):
    """Run every configured algorithm on one shared trial setup.

    ``inputs`` is passed on to ``build_trial_context``.
    """
    ctx = build_trial_context(cfg, trial_index, inputs)
    traces, comparators = {}, None
    # An overflow stops a run with a located FloatingPointError; numpy's
    # warning before it would be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for algorithm in cfg.algorithms:
            if algorithm == "domkl":
                traces[algorithm] = _run_admm_family(
                    ctx, cfg, list(range(len(ctx.maps))), "domkl",
                    variant=cfg.hedge_variant,
                )
            elif algorithm == "dokl":
                traces[algorithm] = _run_admm_family(
                    ctx, cfg, [cfg.kernel_index], "dokl",
                )
            elif algorithm == "comkl":
                traces[algorithm], comparators = _run_comkl(ctx, cfg)
            else:
                traces[algorithm] = _run_rff_dokl(ctx, cfg)
    regrets = None
    if cfg.compute_accuracy_regret:
        best, at_index = comparators or _pooled_pass(ctx, cfg)
        regrets = {
            alg: regret_accuracy(trace, at_index if alg in ("dokl", "rff_dokl")
                                 else best)
            for alg, trace in traces.items()
        }
    return TrialResult(context=ctx, traces=traces, regrets=regrets)


def _index_in_use(cfg):
    """``cfg.kernel_index`` when dokl or rff_dokl is configured to read
    it, else None."""
    if any(alg in ("dokl", "rff_dokl") for alg in cfg.algorithms):
        return cfg.kernel_index
    return None


def _trial_worker(payload):
    cfg, index, inputs = payload
    return run_trial(cfg, index, inputs=inputs)


def _trial_failure(index, exc):
    """The error reporting a failed trial: config errors stay config errors."""
    if isinstance(exc, ConfigError):
        return ConfigError("trial %d: %s" % (index, exc), key=exc.key)
    return RuntimeError("trial %d failed: %s" % (index, exc))


def _experiment_inputs(cfg):
    """``load_inputs(cfg)``, its errors reported as trial 0's."""
    try:
        return load_inputs(cfg)
    except Exception as exc:
        # Every trial reads the same files; trial 0 is the first to fail.
        raise _trial_failure(0, exc) from exc


def _trial_results(cfg, inputs):
    """Every trial's result in trial order (run in ``cfg.workers``
    processes), each trial run or collected only when asked for."""
    payloads = [(cfg, i, inputs) for i in range(cfg.trials)]
    with contextlib.ExitStack() as stack:
        if cfg.workers > 1:
            # Imported here: the pool modules take tens of ms to import
            # and the default run uses one process.
            from concurrent.futures import ProcessPoolExecutor

            # Each worker splits its feature maps over its own share of
            # the CPUs, so the pool does not run more threads than CPUs.
            busy = min(cfg.workers, cfg.trials)
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=cfg.workers, initializer=_share_cpus,
                initargs=(busy,)))
            results = pool.map(_trial_worker, payloads)
        else:
            results = map(_trial_worker, payloads)
        for i in range(cfg.trials):
            try:
                # Yielded unnamed, so this frame keeps no finished trial.
                yield next(results)
            except Exception as exc:
                raise _trial_failure(i, exc) from exc


def run_experiment(cfg):
    """Run all trials (in ``cfg.workers`` processes) and aggregate."""
    return aggregate(cfg, _trial_results(cfg, _experiment_inputs(cfg)))


def aggregate(cfg, results):
    """Mean/std curves and final regrets across trials.

    ``results`` is any iterable of the trials' ``TrialResult`` in trial
    order.  Each is reduced to its curves and regrets before the next is
    drawn, so a generator that runs the trials holds one at a time.
    """
    rows = {alg: ([], [], [], []) for alg in cfg.algorithms}
    for result in results:
        for algorithm, (mse, cv, regret_d, regret_a) in rows.items():
            trace = result.traces[algorithm]
            mse.append(mse_curve(trace))
            cv.append(cv_curve(trace))
            regret_d.append(regret_discrepancy(trace).mean())
            if cfg.compute_accuracy_regret:
                regret_a.append(result.regrets[algorithm].mean())
        # Still bound, these would keep the trial alive while the next runs.
        del result, trace
    got = len(rows[cfg.algorithms[0]][0])
    if got != cfg.trials:
        raise ValueError("expected %d trials, got %d" % (cfg.trials, got))
    mse_mean, mse_std, cv_mean, cv_std = {}, {}, {}, {}
    final_regret_d = {}
    final_regret_a = {} if cfg.compute_accuracy_regret else None
    for algorithm, (mse, cv, regret_d, regret_a) in rows.items():
        mse, cv = np.stack(mse), np.stack(cv)
        mse_mean[algorithm] = mse.mean(axis=0)
        mse_std[algorithm] = mse.std(axis=0)
        cv_mean[algorithm] = cv.mean(axis=0)
        cv_std[algorithm] = cv.std(axis=0)
        final_regret_d[algorithm] = float(np.mean(regret_d))
        if final_regret_a is not None:
            final_regret_a[algorithm] = float(np.mean(regret_a))
    return AggregateResult(
        algorithms=tuple(cfg.algorithms), rounds=mse.shape[1],
        trials=cfg.trials, mse_mean=mse_mean, mse_std=mse_std,
        cv_mean=cv_mean, cv_std=cv_std, final_regret_d=final_regret_d,
        final_regret_a=final_regret_a,
    )


def sweep(cfg, rhos, eta_globals):
    """Full experiments over the sorted grid of (eta_global, rho) cells.

    The cells differ only in parameters that ``load_inputs`` does not
    read, so the files are read once for the whole grid.  Raises
    ``ConfigError`` for an axis with more than one value that no
    selected algorithm reads: its cells would all be the same run.
    """
    for name, values in (("rho", rhos), ("eta_global", eta_globals)):
        readers = GRID_READERS[name]
        if len(set(values)) > 1 and set(readers).isdisjoint(cfg.algorithms):
            raise ConfigError(
                "%s takes %d values, but only %s read it and none is selected"
                % (name, len(set(values)), " and ".join(readers)), key="grid")
    inputs = _experiment_inputs(cfg)
    rows = []
    for eta in sorted(eta_globals):
        for rho in sorted(rhos):
            cell = replace(cfg, eta_global=eta,
                           admm=replace(cfg.admm, rho=rho))
            result = aggregate(cell, _trial_results(cell, inputs))
            for algorithm in cfg.algorithms:
                rows.append(SweepRow(
                    algorithm=algorithm, eta_global=eta, rho=rho,
                    final_mse=float(result.mse_mean[algorithm][-1]),
                    final_cv=float(result.cv_mean[algorithm][-1]),
                ))
    return rows
