"""Decentralized online multi-kernel regression over networks.

A group of learners, connected by a fixed communication graph, each
sees a private stream of (x, y) pairs.  Every round each learner
predicts with a weighted combination of random-feature kernel models,
then nudges its parameters toward consensus with its neighbors using
one step of an online alternating-direction method, while a
multiplicative-weights rule reweights the kernels by their running
losses.  Only parameters and loss totals travel over the wire, never
raw data.

The :mod:`domkl.simulator` module runs whole experiments on simulated
networks; :mod:`domkl.cli` exposes them as the ``domkl`` command.
"""

from .admm import AdmmConfig, run_single_kernel, squared_loss
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
from .errors import (
    ConfigError,
    ConvergenceError,
    GraphSamplingError,
    ProtocolError,
)
from .features import (
    FeatureMap,
    KernelDictionary,
    KernelSpec,
    build_feature_map,
    default_dictionary,
    gaussian_kernel,
)
from .graph import Graph, from_edge_list, sample_connected_er, to_edge_list
from .hedge import HedgeState, MessageBoard, combine_weights, mp_combine_weights
from .learners import LearnerNode, RoundExchange, step
from .metrics import (
    MetricCurve,
    RunTrace,
    cv_curve,
    mse_curve,
    regret_accuracy,
    regret_discrepancy,
    truncate_trace,
)
from .oracle import JointStepProblem, hindsight_best, joint_round
from .simulator import (
    ArTaskConfig,
    CsvTaskConfig,
    ExperimentConfig,
    SyntheticTaskConfig,
    run_experiment,
    run_trial,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "ARSpec",
    "ArTaskConfig",
    "ComklState",
    "ConfigError",
    "ConvergenceError",
    "CsvTaskConfig",
    "Dataset",
    "DiffusionState",
    "ExperimentConfig",
    "FeatureMap",
    "Graph",
    "GraphSamplingError",
    "HedgeState",
    "JointStepProblem",
    "KernelDictionary",
    "KernelSpec",
    "LearnerNode",
    "MessageBoard",
    "MetricCurve",
    "ProtocolError",
    "RoundExchange",
    "RunTrace",
    "SyntheticRegressionSpec",
    "SyntheticTaskConfig",
    "ar_embed",
    "build_feature_map",
    "combine_weights",
    "comkl_step",
    "cv_curve",
    "default_dictionary",
    "from_edge_list",
    "gaussian_kernel",
    "hindsight_best",
    "joint_round",
    "load_csv",
    "mp_combine_weights",
    "mse_curve",
    "normalize_minmax",
    "partition_regression",
    "partition_timeseries_interleaved",
    "regret_accuracy",
    "regret_discrepancy",
    "rff_dokl_step",
    "run_experiment",
    "run_single_kernel",
    "run_trial",
    "sample_connected_er",
    "squared_loss",
    "step",
    "sweep",
    "synth_ar",
    "synth_regression",
    "to_edge_list",
    "truncate_trace",
]
