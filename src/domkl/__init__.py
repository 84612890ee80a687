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
networks; :mod:`domkl.cli` exposes them as the ``domkl`` command.  The
names below are the documented surface; everything else stays
importable from its submodule as ``domkl.<module>.<name>``.
"""

from .baselines import comkl_step, rff_dokl_step
from .errors import ConfigError
from .features import build_feature_map, gaussian_kernel
from .graph import Graph, sample_connected_er
from .hedge import combine_weights, mp_combine_weights
from .learners import step
from .metrics import cv_curve, mse_curve
from .simulator import (
    AdmmConfig,
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
    "ArTaskConfig",
    "ConfigError",
    "CsvTaskConfig",
    "ExperimentConfig",
    "Graph",
    "SyntheticTaskConfig",
    "build_feature_map",
    "combine_weights",
    "comkl_step",
    "cv_curve",
    "gaussian_kernel",
    "mp_combine_weights",
    "mse_curve",
    "rff_dokl_step",
    "run_experiment",
    "run_trial",
    "sample_connected_er",
    "step",
    "sweep",
]
