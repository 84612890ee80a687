"""Dataset loading, scaling, distribution across learners, and synthesis.

Real datasets arrive as numeric CSV files and are min-max scaled so both
features and labels live in [0, 1].  Distribution over K learners either
cuts contiguous equal blocks (regression) or deals rows round-robin so
every learner keeps a thinned but ordered view of a time series.  The
synthetic generators produce regression data from a known random-feature
function and autoregressive label sequences.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import KernelSpec, build_feature_map


@dataclass(frozen=True)
class Dataset:
    """An in-memory numeric dataset: features (N, d), labels (N,)."""

    features: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree on length")
        if not np.isfinite(self.features).all() or not np.isfinite(self.labels).all():
            raise ValueError("dataset contains non-finite entries")

    def __len__(self):
        return len(self.labels)


def load_csv(path, label_column=-1, has_header=False):
    """Read a numeric CSV file into a Dataset.

    ``label_column`` indexes the label column (negative indices count
    from the right); the remaining columns become features in file
    order.  Every problem with the file's contents raises
    ``ConfigError``: a parse problem names its row and column under the
    key ``path``, or ``has_header`` when row 1 holds text and no header
    was declared; a ``label_column`` outside the table names that key.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for rownum, row in enumerate(reader, start=1):
            if has_header and rownum == 1:
                continue
            if not row:
                continue
            values = []
            for colnum, cell in enumerate(row, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    message = ("%s: row %d, column %d: non-numeric cell %r"
                               % (path, rownum, colnum, cell))
                    if rownum == 1:
                        raise ConfigError(
                            message + "; if row 1 is a header, set "
                            "has_header = true", key="has_header") from None
                    raise ConfigError(message, key="path") from None
            if rows and len(values) != len(rows[0]):
                raise ConfigError(
                    "%s: row %d: expected %d columns, got %d"
                    % (path, rownum, len(rows[0]), len(values)), key="path"
                )
            rows.append(values)
    if not rows:
        raise ConfigError("%s: no data rows" % path, key="path")
    table = np.asarray(rows, dtype=np.float64)
    width = table.shape[1]
    label_index = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_index < width:
        raise ConfigError("label_column %d out of range for %d columns"
                          % (label_column, width), key="label_column")
    labels = table[:, label_index]
    features = np.delete(table, label_index, axis=1)
    return Dataset(features=features, labels=labels, name=str(path))


def normalize_minmax(ds):
    """Scale every feature column and the label affinely onto [0, 1].

    Constant columns map to zero.  Requires at least two rows, otherwise
    every column would be constant and the scaling meaningless.
    """
    if len(ds) < 2:
        raise ValueError("need at least 2 rows to normalize")

    def scale(column):
        lo, hi = column.min(), column.max()
        if hi == lo:
            return np.zeros_like(column)
        return (column - lo) / (hi - lo)

    features = np.column_stack(
        [scale(ds.features[:, j]) for j in range(ds.features.shape[1])]
    )
    return Dataset(features=features, labels=scale(ds.labels), name=ds.name)


def partition_regression(ds, num_learners):
    """Cut the dataset into contiguous equal blocks, one per learner.

    Each learner receives T = floor(N / num_learners) samples; the
    trailing remainder is dropped.
    """
    if num_learners < 1:
        raise ValueError("num_learners must be at least 1")
    horizon = len(ds) // num_learners
    if horizon < 1:
        raise ValueError("more learners than samples")
    streams = []
    for k in range(num_learners):
        lo = k * horizon
        hi = lo + horizon
        streams.append(
            Dataset(
                features=ds.features[lo:hi].copy(),
                labels=ds.labels[lo:hi].copy(),
                name="%s[%d]" % (ds.name, k),
            )
        )
    return streams


def partition_timeseries_interleaved(ds, num_learners):
    """Deal rows round-robin so each learner sees an ordered thinning.

    Learner k (0-based) receives global rows k, k + K, k + 2K, ... for
    K = num_learners, which is the 1-based rule "sample t of learner k
    is global sample K(t-1) + k".  Within-stream temporal order is
    preserved.
    """
    if num_learners < 1:
        raise ValueError("num_learners must be at least 1")
    horizon = len(ds) // num_learners
    if horizon < 1:
        raise ValueError("more learners than samples")
    streams = []
    for k in range(num_learners):
        idx = k + num_learners * np.arange(horizon)
        streams.append(
            Dataset(
                features=ds.features[idx].copy(),
                labels=ds.labels[idx].copy(),
                name="%s[%d]" % (ds.name, k),
            )
        )
    return streams


def ar_embed(series, order, name="ar"):
    """Turn a label sequence into lagged-feature pairs.

    Sample t (0-based, t >= order) gets features
    [y_{t-1}, y_{t-2}, ..., y_{t-order}] and label y_t, yielding
    len(series) - order pairs in temporal order.
    """
    series = np.asarray(series, dtype=np.float64)
    if order < 1:
        raise ValueError("order must be at least 1")
    if len(series) <= order:
        raise ValueError("series too short for order %d" % order)
    count = len(series) - order
    features = np.empty((count, order))
    for lag in range(1, order + 1):
        features[:, lag - 1] = series[order - lag:order - lag + count]
    return Dataset(features=features, labels=series[order:].copy(), name=name)


@dataclass(frozen=True)
class SyntheticRegressionSpec:
    """A regression task with a known random-feature generating function.

    ``true_theta`` lives in the 2M-dimensional feature space of the map
    drawn with ``seed`` at bandwidth ``generating_bandwidth``, so
    oracles can reconstruct the exact generating function.
    """

    generating_bandwidth: float
    true_theta: np.ndarray
    noise_std: float
    input_dim: int
    seed: int

    def __post_init__(self):
        if len(self.true_theta) % 2 != 0:
            raise ValueError("true_theta length must be even (sin and cos blocks)")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")


def generating_map(spec):
    """Rebuild the feature map that defines the generating function."""
    return build_feature_map(
        KernelSpec(spec.generating_bandwidth),
        input_dim=spec.input_dim,
        num_features=len(spec.true_theta) // 2,
        seed=spec.seed,
    )


def synth_regression(spec, num_samples, seed, noise_seed=None):
    """Draw inputs uniform on the unit box and label them with the
    generating function plus Gaussian noise.

    ``noise_seed`` defaults to ``seed + 1``; passing it explicitly lets
    callers freeze the inputs while varying the noise, or vice versa.
    """
    rng = np.random.default_rng(seed)
    noise_rng = np.random.default_rng(seed + 1 if noise_seed is None else noise_seed)
    x = rng.random((num_samples, spec.input_dim))
    z = generating_map(spec).map(x)
    y = z @ spec.true_theta
    if spec.noise_std > 0.0:
        y = y + spec.noise_std * noise_rng.standard_normal(num_samples)
    return Dataset(features=x, labels=y, name="synthetic")


@dataclass(frozen=True)
class ARSpec:
    """Coefficients of a linear autoregression with Gaussian innovations."""

    order: int
    intercept: float
    coefficients: np.ndarray
    noise_std: float

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if len(self.coefficients) != self.order:
            raise ValueError("need one coefficient per lag")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")


def synth_ar(spec, num_samples, seed):
    """Run the autoregression forward from zero initial history.

    Warns when the coefficients are not summable below one in absolute
    value, since the recursion may then drift or explode.
    """
    if np.abs(spec.coefficients).sum() >= 1.0:
        warnings.warn("AR coefficients are not stable (sum |c| >= 1)",
                      RuntimeWarning)
    rng = np.random.default_rng(seed)
    noise = (spec.noise_std * rng.standard_normal(num_samples)
             if spec.noise_std > 0.0 else np.zeros(num_samples))
    series = np.zeros(num_samples)
    for t in range(num_samples):
        value = spec.intercept + noise[t]
        for lag in range(1, spec.order + 1):
            if t - lag >= 0:
                value += spec.coefficients[lag - 1] * series[t - lag]
        series[t] = value
    return series
