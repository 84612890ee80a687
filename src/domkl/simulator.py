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

Every INI key is a row of ``KEYS``: the config field it sets, the kind
and rule of its value, and its readers.  Each config class checks its
fields against their rows, and the ``cli`` parses each key by its kind.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import features, oracle
from .baselines import comkl_hedge, comkl_step, rff_dokl_step
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
    DEFAULT_BANDWIDTHS,
    _share_cpus,
    build_feature_map,
    build_maps,
)
# Cross-evaluation's own name for map_stack, so that benchmarks/tracing.py
# can time it apart from the mapping inside learners.step.
from .features import map_stack as _map_stack
from .graph import connected_components, from_edge_list, sample_connected_er
from .hedge import mp_update_messages
from .learners import NetworkState, _combined_prediction, step
from .metrics import (
    RunTrace,
    cv_curve,
    mse_curve,
    regret_accuracy,
    regret_discrepancy,
)

ALGORITHMS = ("domkl", "dokl", "comkl", "rff_dokl")
# The algorithms that read each parameter that only some of them read;
# the config keys that set them have the same readers.  dokl's one-kernel
# hedge weight is always 1, so eta_global changes nothing there.  rho's
# readers are the ADMM learners, which also read the ADMM's eta_local.
READERS = {"rho": ("domkl", "dokl"), "eta_global": ("domkl", "comkl"),
           "kernel_index": ("dokl", "rff_dokl")}
TASKS = ("synthetic", "regression", "timeseries")

# Labels of the per-trial seed streams.
_MAPS, _DATA, _NOISE, _SHUFFLE = 1, 2, 3, 4


def derive_seed(*parts):
    """A reproducible 32-bit seed from labeled integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0])


def check_key(section, key, value):
    """Raise ``ConfigError``, keyed ``key``, unless ``value`` is of the kind
    of ``KEYS[section, key]`` and then meets its rule."""
    row = KEYS[section, key]
    kind, is_kind = _KINDS[row.kind]
    if not is_kind(value):
        raise ConfigError("%s must be %s, not %r" % (key, kind, value),
                          key=key)
    if row.rule is None:
        return
    rule, test = row.rule
    items = value if isinstance(value, tuple) else (value,)
    bad = [item for item in items if not test(item)]
    if bad or not items:
        # A name that is none of the choices is quoted back.
        also = ", not %r" % bad[0] if bad and isinstance(bad[0], str) else ""
        raise ConfigError("%s must be %s%s" % (key, rule, also), key=key)


def _check_fields(config):
    """``check_key`` each field of ``config`` that is not a None default;
    the ``__post_init__`` of every config class."""
    cls = type(config)
    for (section, key), row in KEYS.items():
        if cls.__name__ in row.holders:
            value = getattr(config, row.field)
            if value is not None or getattr(cls, row.field, 0) is not None:
                check_key(section, key, value)


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Regression data drawn from a known random-feature function."""

    bandwidth: float = 0.01
    input_dim: int = 2
    noise_std: float = 0.05
    theta_scale: float = 1.0

    __post_init__ = _check_fields


@dataclass(frozen=True)
class CsvTaskConfig:
    """A CSV-backed task; ``ar_order`` only matters for time series."""

    path: str
    label_column: int = -1
    has_header: bool = False
    normalize: bool = True
    shuffle: bool = True
    ar_order: int = 5

    __post_init__ = _check_fields


@dataclass(frozen=True)
class ArTaskConfig:
    """A synthetic autoregressive label sequence for time-series runs."""

    coefficients: tuple = (0.6, -0.2)
    intercept: float = 0.2
    noise_std: float = 0.05
    num_samples: int = 2000
    ar_order: int = 5

    def __post_init__(self):
        _check_fields(self)
        if self.num_samples <= self.ar_order:
            raise ConfigError("ar_samples must exceed ar_order %d"
                              % self.ar_order, key="ar_samples")


# Each data source's ExperimentConfig field and config class, and the field
# that an INI file's [data] must set to build that config (None: always).
SOURCES = {
    "synthetic": ("synthetic", SyntheticTaskConfig, None),
    "regression": ("csv_data", CsvTaskConfig, "path"),
    "csv_timeseries": ("csv_data", CsvTaskConfig, "path"),
    "ar_timeseries": ("ar_synth", ArTaskConfig, "coefficients"),
}


def data_source(task, from_csv):
    """Which ``SOURCES`` entry ``task`` reads, given whether it names a CSV."""
    if task == "timeseries":
        return "csv_timeseries" if from_csv else "ar_timeseries"
    return task


# One INI key: the field it sets; its value's kind (a type, or for a list
# a tuple of one item type); the (text, test) rule that the value, or each
# item of a list of one or more, meets; the algorithms or data sources that
# read it (none: every run does); and the names of the classes that hold it.
Key = collections.namedtuple("Key", "field kind rule readers holders",
                             defaults=(None, (), ("ExperimentConfig",)))


def _data(field, kind, rule, sources):
    """A [data] key, held by the config class of each source that reads it."""
    return Key(field, kind, rule, sources, tuple(dict.fromkeys(
        SOURCES[source][1].__name__ for source in sources)))


def _at_least(low):
    return "at least %d" % low, lambda v: v >= low


def _one_of(*names):
    return "one of " + ", ".join(names), names.__contains__


def _is_int(value):
    """An integer is what ``operator.index`` takes, but not a bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


# What a value of each kind must be, and the test of its type.
_KINDS = {
    int: ("an integer", _is_int),
    float: ("a number", lambda v: isinstance(v, float) or _is_int(v)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}
_KINDS[(float,)] = ("a tuple of numbers", lambda v: isinstance(v, tuple)
                    and all(map(_KINDS[float][1], v)))
_KINDS[(str,)] = ("a tuple of strings", lambda v: isinstance(v, tuple)
                  and all(map(_KINDS[str][1], v)))
_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = ("nonnegative and finite", lambda v: 0.0 <= v < math.inf)
_FINITE = ("finite", lambda v: -math.inf < v < math.inf)
_ADMM = ("AdmmConfig",)
_SYN, _AR = ("synthetic",), ("ar_timeseries",)
_CSV = ("regression", "csv_timeseries")

# Every INI key, by (section, key).  A topology file leaves connection_prob
# and max_attempts unread, but configs that keep both beside a topology
# load today, so they still do.
KEYS = {(section, key): row for section, rows in {
    "experiment": {
        "task": Key("task", str, _one_of(*TASKS)),
        "algorithms": Key("algorithms", (str,), ("one or more of "
                          + ", ".join(ALGORITHMS), ALGORITHMS.__contains__)),
        "trials": Key("trials", int, _at_least(1)),
        "rounds": Key("rounds", int, _at_least(1)),
        "seed": Key("master_seed", int, ("nonnegative", lambda v: v >= 0)),
        "workers": Key("workers", int, _at_least(1)),
        "accuracy_regret": Key("compute_accuracy_regret", bool),
    },
    "network": {
        "num_nodes": Key("num_learners", int, _at_least(2)),
        "connection_prob": Key("connection_prob", float,
                               ("in (0, 1]", lambda v: 0.0 < v <= 1.0)),
        "topology": Key("topology_path", str),
        "max_attempts": Key("max_attempts", int, _at_least(1)),
    },
    "algorithm.domkl": {
        "rho": Key("rho", float, _POSITIVE, READERS["rho"], _ADMM),
        "eta_local": Key("eta_local", float, _POSITIVE, READERS["rho"], _ADMM),
        "eta_global": Key("eta_global", float, _POSITIVE,
                          READERS["eta_global"]),
        "num_features": Key("num_features", int, _at_least(1), ALGORITHMS),
        "bandwidths": Key("bandwidths", (float,), (
            "one or more positive finite values", _POSITIVE[1]), ALGORITHMS),
        "kernel_index": Key("kernel_index", int, None,
                            READERS["kernel_index"]),
        "hedge_variant": Key("hedge_variant", str, _one_of(
            "product", "message_passing"), ("domkl",)),
    },
    "algorithm.comkl": {"step_size": Key("comkl_step_size", float,
                                         _POSITIVE, ("comkl",))},
    "algorithm.rff_dokl": {"step_size": Key("diffusion_step_size", float,
                                            _POSITIVE, ("rff_dokl",))},
    "data": {
        "path": _data("path", str, None, _CSV),
        "label_column": _data("label_column", int, None, _CSV),
        "has_header": _data("has_header", bool, None, _CSV),
        "normalize": _data("normalize", bool, None, _CSV),
        "shuffle": _data("shuffle", bool, None, ("regression",)),
        "ar_order": _data("ar_order", int, _at_least(1),
                          ("csv_timeseries",) + _AR),
        "bandwidth": _data("bandwidth", float, _POSITIVE, _SYN),
        "input_dim": _data("input_dim", int, _at_least(1), _SYN),
        "noise_std": _data("noise_std", float, _NONNEGATIVE, _SYN),
        "theta_scale": _data("theta_scale", float, _FINITE, _SYN),
        "ar_coefficients": _data("coefficients", (float,), (
            "one or more finite values", _FINITE[1]), _AR),
        "ar_intercept": _data("intercept", float, _FINITE, _AR),
        "ar_noise_std": _data("noise_std", float, _NONNEGATIVE, _AR),
        "ar_samples": _data("num_samples", int, None, _AR),
    },
}.items() for key, row in rows.items()}


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty weights of the per-round objective.

    ``rho`` scales the consensus penalty toward neighborhood midpoints,
    ``eta_local`` the proximal pull toward the previous iterate.  Both
    must be positive and finite; the defaults are the stock operating point.
    """

    rho: float = 100.0
    eta_local: float = 10.0

    __post_init__ = _check_fields


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
    bandwidths: tuple = DEFAULT_BANDWIDTHS
    kernel_index: int = 8
    hedge_variant: str = "product"
    trials: int = 1
    master_seed: int = 0
    rounds: int | None = None
    synthetic: SyntheticTaskConfig | None = None
    csv_data: CsvTaskConfig | None = None
    ar_synth: ArTaskConfig | None = None
    comkl_step_size: float = 0.5
    diffusion_step_size: float = 0.5
    workers: int = 1
    compute_accuracy_regret: bool = False

    def __post_init__(self):
        _check_fields(self)
        source = data_source(self.task, self.csv_data is not None)
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigError("algorithms lists a value twice: %s"
                              % ", ".join(self.algorithms), key="algorithms")
        size = len(self.bandwidths)
        if not 0 <= self.kernel_index < size and _index_in_use(self) is not None:
            raise ConfigError("kernel_index %d outside dictionary of size %d"
                              % (self.kernel_index, size), key="kernel_index")
        for name in ("synthetic", "csv_data", "ar_synth"):
            if name != SOURCES[source][0] and getattr(self, name) is not None:
                raise ConfigError("a %s task never reads %s"
                                  % (self.task, name), key=name)
        if self.task == "synthetic" and self.rounds is None:
            raise ConfigError("synthetic task needs rounds", key="rounds")
        if self.task == "regression" and self.csv_data is None:
            raise ConfigError("regression task needs a data path", key="path")
        if source == "ar_timeseries" and self.ar_synth is None:
            raise ConfigError("timeseries task needs a data path or AR spec",
                              key="path")
        if (source == "ar_timeseries" and self.ar_synth.num_samples
                - self.ar_synth.ar_order < self.num_learners):
            raise ConfigError("ar_samples leaves fewer windows than learners",
                              key="ar_samples")


@dataclass(frozen=True)
class TrialContext:
    """Shared inputs every algorithm of one trial consumes.

    ``inputs`` (T, K, d) and ``labels`` (T, K) hold the first ``horizon``
    samples of every learner's stream in round-major: column k is
    learner k's stream.  They are read-only because every trace of the
    trial shares ``labels``.
    """

    graph: object
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
    """Read, parse and check the topology file and the CSV data of
    ``cfg``; every problem with either raises ``ConfigError``."""
    graph = dataset = None
    if cfg.topology_path is not None:
        try:
            with open(cfg.topology_path, encoding="utf-8") as handle:
                graph = from_edge_list(handle.read(), cfg.num_learners)
        except OSError as exc:
            raise ConfigError("cannot read [network] topology: %s" % (exc,),
                              key="topology") from exc
        except ValueError as exc:  # also text that is not UTF-8
            raise ConfigError("topology %s: %s" % (cfg.topology_path, exc),
                              key="topology") from None
        components = connected_components(graph)
        if len(components) > 1:
            named = ", ".join(str(list(c)) for c in components)
            raise ConfigError("topology %s is disconnected: components %s"
                              % (cfg.topology_path, named), key="topology")
    try:
        if cfg.task == "regression":
            dataset = _load_regression(cfg.csv_data, cfg.num_learners)
        elif cfg.task == "timeseries" and cfg.csv_data is not None:
            dataset = _load_timeseries(cfg.csv_data, cfg.num_learners)
    except OSError as exc:
        raise ConfigError("cannot read [data] path: %s" % (exc,),
                          key="path") from exc
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
    files = load_inputs(cfg) if inputs is None else inputs
    if files.graph is not None:
        graph = files.graph
    else:
        graph = sample_connected_er(
            cfg.num_learners, cfg.connection_prob,
            seed=cfg.master_seed ^ trial_index,
            max_attempts=cfg.max_attempts,
        )

    map_seed = derive_seed(cfg.master_seed, trial_index, _MAPS)

    maps = None
    if cfg.task == "synthetic":
        synth = cfg.synthetic or SyntheticTaskConfig()
        maps = build_maps(cfg.bandwidths, synth.input_dim, cfg.num_features,
                          map_seed)
        theta = synth.theta_scale * np.random.default_rng(
            derive_seed(cfg.master_seed, trial_index, _DATA, 0)
        ).standard_normal(2 * cfg.num_features)
        # Label with the map of the dictionary kernel at the generating
        # bandwidth, so the generating function is exactly realizable by
        # that kernel's learners.
        for fmap in maps:
            if abs(fmap.bandwidth - synth.bandwidth) <= 1e-12 * fmap.bandwidth:
                generator = fmap
                break
        else:
            generator = build_feature_map(
                synth.bandwidth, synth.input_dim, cfg.num_features,
                seed=derive_seed(cfg.master_seed, trial_index, _DATA, 2))
        ds = synth_regression(
            generator, theta, synth.noise_std, cfg.num_learners * cfg.rounds,
            seed=derive_seed(cfg.master_seed, trial_index, _DATA, 1),
            noise_seed=derive_seed(cfg.master_seed, trial_index, _NOISE),
        )
        round_inputs, labels = partition_regression(ds, cfg.num_learners)
    elif cfg.task == "regression":
        ds = files.dataset
        if cfg.csv_data.shuffle:
            rng = np.random.default_rng(
                derive_seed(cfg.master_seed, trial_index, _SHUFFLE)
            )
            perm = rng.permutation(len(ds))
            ds = Dataset(features=ds.features[perm], labels=ds.labels[perm])
        round_inputs, labels = partition_regression(ds, cfg.num_learners)
    else:  # timeseries
        if files.dataset is not None:
            embedded = files.dataset
        else:
            ar = cfg.ar_synth
            series = synth_ar(
                ar.coefficients, ar.intercept, ar.noise_std, ar.num_samples,
                seed=derive_seed(cfg.master_seed, trial_index, _DATA),
            )
            embedded = ar_embed(scale_unit(series), ar.ar_order)
        round_inputs, labels = partition_timeseries_interleaved(
            embedded, cfg.num_learners)

    horizon = len(labels)
    if cfg.rounds is not None:
        horizon = min(horizon, cfg.rounds)
    if maps is None:  # the synthetic task built them before its data
        maps = build_maps(cfg.bandwidths, round_inputs.shape[2],
                          cfg.num_features, map_seed)
    # Copies: the partitions are views of a dataset that trials may share.
    round_inputs = round_inputs[:horizon].copy()
    labels = labels[:horizon].copy()
    round_inputs.setflags(write=False)
    labels.setflags(write=False)
    return TrialContext(
        graph=graph,
        maps=maps,
        inputs=round_inputs,
        labels=labels,
    )


def _empty_trace(ctx, num_kernels):
    """A zeroed trace over the trial's horizon that a round loop fills in."""
    horizon, num_nodes = ctx.labels.shape
    return RunTrace(
        graph=ctx.graph,
        predictions=np.zeros((horizon, num_nodes)), labels=ctx.labels,
        per_kernel_losses=np.zeros((horizon, num_nodes, num_kernels)),
        cross_predictions=np.zeros((horizon, num_nodes, num_nodes)),
        weights=np.zeros((horizon, num_nodes, num_kernels)),
    )


def _run_admm_family(ctx, cfg, kernel_indices, algorithm):
    """Round loop shared by the multi-kernel and single-kernel runs.

    Raises ``FloatingPointError`` naming the learner and round whose
    step met a non-finite loss or parameter.
    """
    maps = tuple(ctx.maps[i] for i in kernel_indices)
    graph = ctx.graph
    trace = _empty_trace(ctx, len(maps))
    net = NetworkState(graph, maps, cfg.eta_global, relay=(
        algorithm == "domkl" and cfg.hedge_variant == "message_passing"))

    try:
        for t in range(ctx.horizon):
            if net.messages is not None:  # relay into the spare, swap
                net.messages, net.next_messages = mp_update_messages(
                    net.messages, graph, -net.losses / cfg.eta_global,
                    net.next_messages), net.messages
            for k in range(graph.num_nodes):
                (trace.predictions[t, k], trace.per_kernel_losses[t, k],
                 trace.weights[t, k]) = step(
                    net, k, (ctx.inputs[t, k], ctx.labels[t, k]), cfg.admm)
            # Every learner predicted with its previous broadcast.
            for k in range(graph.num_nodes):
                z_stack = _map_stack(maps, ctx.inputs[t, k])
                _, trace.cross_predictions[t, k] = _combined_prediction(
                    net.thetas, trace.weights[t], z_stack[None, :, :]
                )
            net.end_round()
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
    trace = _empty_trace(ctx, len(ctx.maps))
    trace.predictions[:], weights, squared_errors = comkl_hedge(
        dots, ctx.labels, cfg.eta_global)
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
    and when a regret reads the kernel, its hindsight ridge fit is taken;
    when the process may use 2 or more CPUs (``features._map_width``),
    the fit runs on a helper thread while comkl steps, and comkl's error
    is raised first.  Returns ``(best, at_index)``, the (T, K) squared
    errors of the fit with the lowest pooled loss over every kernel (the
    lower index on ties; None unless domkl or comkl is configured) and
    of the fit of ``cfg.kernel_index`` (None unless dokl or rff_dokl
    is); both are None when accuracy regret is off.  One block is live
    at a time.
    """
    horizon, num_nodes = ctx.labels.shape
    fit_all = cfg.compute_accuracy_regret and any(
        alg not in READERS["kernel_index"] for alg in cfg.algorithms)
    index = _index_in_use(cfg) if cfg.compute_accuracy_regret else None
    pooled_x = ctx.inputs.transpose(1, 0, 2).reshape(-1, ctx.inputs.shape[2])
    pooled_y = ctx.labels.T.ravel()
    best = best_loss = at_index = None

    # Both read the current kernel's block from this frame, so neither
    # keeps a block alive once the loop drops it.
    def step_comkl():
        # Round t's rows are z[t], shape (K, D).
        z = block.reshape(num_nodes, horizon, -1).transpose(1, 0, 2)
        try:
            dots[:, p], _ = comkl_step(np.zeros(block.shape[1]),
                                       (z, ctx.labels), cfg.comkl_step_size)
        except FloatingPointError as exc:
            raise FloatingPointError("comkl kernel %d: %s" % (p, exc)) from None

    def fit_kernel():
        nonlocal best, best_loss, at_index
        _, loss, residual = oracle.hindsight_best(block, pooled_y)
        losses = np.ascontiguousarray(
            (residual ** 2).reshape(num_nodes, horizon).T)
        if fit_all and (best is None or loss < best_loss):
            best, best_loss = losses, loss
        if p == index:
            at_index = losses

    for p, fmap in enumerate(ctx.maps):
        calls = [step_comkl] if dots is not None else []
        if fit_all or p == index:
            calls.append(fit_kernel)
        if not calls:
            continue
        block = fmap.map(pooled_x)
        # The fit is BLAS, which releases the GIL, and comkl's steps are
        # mostly Python: on 2 or more CPUs they overlap.
        features._run_together(calls)
        # Still bound, it would be live while the next block is mapped.
        del block
    return best, at_index


def _run_rff_dokl(ctx, cfg):
    """rff_dokl's trace; raises ``FloatingPointError`` naming the first
    round with a non-finite loss, or else the round whose step failed."""
    fmap = ctx.maps[cfg.kernel_index]
    trace = _empty_trace(ctx, 1)
    trace.weights.fill(1.0)
    thetas = np.zeros((ctx.graph.num_nodes, 2 * cfg.num_features))
    try:
        for t in range(ctx.horizon):
            z = fmap.map(ctx.inputs[t])                       # (K, D)
            trace.cross_predictions[t] = z @ thetas.T         # [k, l] = theta_l . z_k
            trace.predictions[t] = np.diagonal(trace.cross_predictions[t])
            trace.per_kernel_losses[t, :, 0] = (trace.predictions[t]
                                                - ctx.labels[t]) ** 2
            if not np.isfinite(trace.per_kernel_losses[t]).all():
                raise FloatingPointError("non-finite loss")
            thetas = rff_dokl_step(thetas, ctx.graph, (z, ctx.labels[t]),
                                   cfg.diffusion_step_size)
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
            if algorithm in ("domkl", "dokl"):
                indices = (list(range(len(ctx.maps))) if algorithm == "domkl"
                           else [cfg.kernel_index])
                traces[algorithm] = _run_admm_family(ctx, cfg, indices,
                                                     algorithm)
            elif algorithm == "comkl":
                traces[algorithm], comparators = _run_comkl(ctx, cfg)
            else:
                traces[algorithm] = _run_rff_dokl(ctx, cfg)
    regrets = None
    if cfg.compute_accuracy_regret:
        best, at_index = comparators or _pooled_pass(ctx, cfg)
        regrets = {
            alg: regret_accuracy(
                trace, at_index if alg in READERS["kernel_index"] else best)
            for alg, trace in traces.items()
        }
    return TrialResult(context=ctx, traces=traces, regrets=regrets)


def _index_in_use(cfg):
    """``cfg.kernel_index`` when dokl or rff_dokl is configured to read
    it, else None."""
    if any(alg in READERS["kernel_index"] for alg in cfg.algorithms):
        return cfg.kernel_index
    return None


def _trial_results(cfg, inputs):
    """Every trial's result in trial order, each run or collected only
    when asked for.  ``busy = min(cfg.workers, cfg.trials)`` trials are
    out at a time, in a pool of that many processes when above 1, and the
    next starts when a result is collected: after a failure the pool
    waits only for the trials already running."""
    busy = min(cfg.workers, cfg.trials)
    if busy > 1:
        # Imported here: the pool modules take tens of ms to import and
        # the default run uses one process.
        from concurrent.futures import ProcessPoolExecutor

        # Each worker splits its feature maps over its own share of the
        # CPUs, so the pool does not run more threads than CPUs.
        pool = ProcessPoolExecutor(max_workers=busy, initializer=_share_cpus,
                                   initargs=(busy,))

        def start(i):
            return pool.submit(run_trial, cfg, i, inputs).result
    else:
        pool = contextlib.nullcontext()

        def start(i):
            return functools.partial(run_trial, cfg, i, inputs)
    with pool:
        pending = [start(i) for i in range(busy)]
        for i in range(cfg.trials):
            try:
                result = pending.pop(0)()
            except Exception as exc:
                raise RuntimeError("trial %d failed: %s" % (i, exc)) from exc
            if i + busy < cfg.trials:
                pending.append(start(i + busy))
            yield result
            # Unbound before the next trial runs: this frame holds none.
            del result


def run_experiment(cfg):
    """Read the files, then run all trials (in up to ``cfg.workers``
    processes) and aggregate."""
    return aggregate(cfg, _trial_results(cfg, load_inputs(cfg)))


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
        mse_mean=mse_mean, mse_std=mse_std, cv_mean=cv_mean, cv_std=cv_std,
        final_regret_d=final_regret_d, final_regret_a=final_regret_a,
    )


def sweep(cfg, rhos, eta_globals):
    """Full experiments over the sorted grid of (eta_global, rho) cells.

    The cells differ only in parameters that ``load_inputs`` does not
    read, so the files are read once for the whole grid.  Raises
    ``ConfigError`` for an empty axis, or for one that repeats a value or
    has more than one value and no selected algorithm reads it, since two
    of its cells would then be the same run.  Every cell is built, and so
    checked, before the files are read or a trial runs.
    """
    for name, values in (("rho", rhos), ("eta_global", eta_globals)):
        if not values:
            raise ConfigError("sweep needs at least one rho and one eta_g",
                              key="grid")
        if len(set(values)) < len(values):
            raise ConfigError("%s lists a value twice: %s" % (
                name, ", ".join(map(str, values))), key="grid")
        readers = READERS[name]
        if len(set(values)) > 1 and set(readers).isdisjoint(cfg.algorithms):
            raise ConfigError(
                "%s takes %d values, but only %s read it and none is selected"
                % (name, len(set(values)), " and ".join(readers)), key="grid")
    cells = [replace(cfg, eta_global=eta, admm=replace(cfg.admm, rho=rho))
             for eta in sorted(eta_globals) for rho in sorted(rhos)]
    inputs = load_inputs(cfg)
    rows = []
    for cell in cells:
        result = aggregate(cell, _trial_results(cell, inputs))
        for algorithm in cfg.algorithms:
            rows.append(SweepRow(
                algorithm=algorithm, eta_global=cell.eta_global,
                rho=cell.admm.rho,
                final_mse=float(result.mse_mean[algorithm][-1]),
                final_cv=float(result.cv_mean[algorithm][-1]),
            ))
    return rows
