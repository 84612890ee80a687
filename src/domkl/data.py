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
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Rows of each block of the label product in ``synth_regression``.
_LABEL_ROWS = 1024
# Label blocks whose inputs ``synth_regression`` maps in one call: 4,096
# rows, at least 2 * 2**16 projected values from 32 random features on, so
# ``FeatureMap.map`` still splits a chunk over the CPUs.
_MAP_BLOCKS = 4


@dataclass(frozen=True)
class Dataset:
    """An in-memory numeric dataset: features (N, d), labels (N,)."""

    features: np.ndarray
    labels: np.ndarray

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
    ``ConfigError``: text that is not UTF-8 names the file, a parse problem
    or a non-finite cell (``nan``, ``inf``) its row and column, under the
    key ``path``, or ``has_header`` when row 1 holds text and no header
    was declared; a ``label_column`` outside the table names that key.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            for rownum, row in enumerate(reader, start=1):
                if has_header and rownum == 1:
                    continue
                if not row:
                    continue
                values = []
                for colnum, cell in enumerate(row, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        message = ("%s: row %d, column %d: non-numeric cell %r"
                                   % (path, rownum, colnum, cell))
                        if rownum == 1:
                            raise ConfigError(
                                message + "; if row 1 is a header, set "
                                "has_header = true", key="has_header") from None
                        raise ConfigError(message, key="path") from None
                    if not math.isfinite(value):
                        raise ConfigError(
                            "%s: row %d, column %d: non-finite cell %r"
                            % (path, rownum, colnum, cell), key="path")
                    values.append(value)
                if rows and len(values) != len(rows[0]):
                    raise ConfigError(
                        "%s: row %d: expected %d columns, got %d"
                        % (path, rownum, len(rows[0]), len(values)), key="path"
                    )
                rows.append(values)
        except UnicodeDecodeError as exc:
            raise ConfigError("%s: not UTF-8 text" % path, key="path") from exc
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
    return Dataset(features=features, labels=labels)


def scale_unit(column):
    """Scale a series affinely onto [0, 1]; a constant one maps to zero."""
    lo, hi = column.min(), column.max()
    if hi == lo:
        return np.zeros_like(column)
    return (column - lo) / (hi - lo)


def normalize_minmax(ds):
    """Scale every feature column and the label affinely onto [0, 1].

    Constant columns map to zero.  Requires at least two rows, otherwise
    every column would be constant and the scaling meaningless.
    """
    if len(ds) < 2:
        raise ValueError("need at least 2 rows to normalize")
    features = np.column_stack(
        [scale_unit(ds.features[:, j]) for j in range(ds.features.shape[1])]
    )
    return Dataset(features=features, labels=scale_unit(ds.labels))


def _rounds(ds, num_learners):
    """T = floor(N / num_learners), the samples each learner receives."""
    if num_learners < 1:
        raise ValueError("num_learners must be at least 1")
    horizon = len(ds) // num_learners
    if horizon < 1:
        raise ValueError("more learners than samples")
    return horizon


def partition_regression(ds, num_learners):
    """Cut the dataset into contiguous equal blocks, one per learner.

    Each learner receives T = floor(N / num_learners) samples; the
    trailing remainder is dropped.  Returns the round-major (T, K, d)
    features and (T, K) labels, views of ``ds``: learner k's round-t
    sample is row kT + t.
    """
    horizon = _rounds(ds, num_learners)
    used = num_learners * horizon
    inputs = ds.features[:used].reshape(
        num_learners, horizon, ds.features.shape[1]).transpose(1, 0, 2)
    return inputs, ds.labels[:used].reshape(num_learners, horizon).T


def partition_timeseries_interleaved(ds, num_learners):
    """Deal rows round-robin so each learner sees an ordered thinning.

    Learner k (0-based) receives global rows k, k + K, k + 2K, ... for
    K = num_learners, which is the 1-based rule "sample t of learner k
    is global sample K(t-1) + k".  Within-stream temporal order is
    preserved.  Returns the round-major (T, K, d) features and (T, K)
    labels, views of ``ds``, with T = floor(N / K).
    """
    horizon = _rounds(ds, num_learners)
    used = num_learners * horizon
    inputs = ds.features[:used].reshape(
        horizon, num_learners, ds.features.shape[1])
    return inputs, ds.labels[:used].reshape(horizon, num_learners)


def ar_embed(series, order):
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
    return Dataset(features=features, labels=series[order:].copy())


def synth_regression(fmap, theta, noise_std, num_samples, seed, noise_seed):
    """Draw inputs from ``seed`` uniform on the unit box and label them
    with ``fmap.map(x) @ theta`` plus Gaussian noise from ``noise_seed``.

    The product is taken in blocks of ``_LABEL_ROWS`` rows (at least 2
    each): one product over all rows splits across BLAS threads at
    places that depend on the thread count, and rounds differently.  The
    inputs are mapped ``_MAP_BLOCKS`` whole blocks at a time, so the
    mapped features never take more than one such chunk; a map treats
    each row on its own, so the labels are bitwise those of one map call
    over all rows.
    """
    if noise_std < 0.0:
        raise ValueError("noise_std must be nonnegative")
    x = np.random.default_rng(seed).random((num_samples, fmap.input_dim))
    y = np.empty(num_samples)
    bounds = list(range(0, num_samples, _LABEL_ROWS)) + [num_samples]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # a one-row product takes another BLAS kernel
    for i in range(0, len(bounds) - 1, _MAP_BLOCKS):
        blocks = bounds[i:i + _MAP_BLOCKS + 1]
        start = blocks[0]
        z = fmap.map(x[start:blocks[-1]])
        for lo, hi in zip(blocks, blocks[1:]):
            np.matmul(z[lo - start:hi - start], theta, out=y[lo:hi])
        del z  # before the next chunk is mapped
    if noise_std > 0.0:
        y += noise_std * np.random.default_rng(noise_seed).standard_normal(
            num_samples)
    return Dataset(features=x, labels=y)


def synth_ar(coefficients, intercept, noise_std, num_samples, seed):
    """Run the autoregression with lag coefficients ``coefficients`` and
    Gaussian innovations forward from zero initial history.

    Warns when the coefficients are not summable below one in absolute
    value, since the recursion may then drift or explode.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if np.abs(coefficients).sum() >= 1.0:
        warnings.warn("AR coefficients are not stable (sum |c| >= 1)",
                      RuntimeWarning)
    rng = np.random.default_rng(seed)
    noise = (noise_std * rng.standard_normal(num_samples)
             if noise_std > 0.0 else np.zeros(num_samples))
    # The recursion runs on Python floats, which round exactly as
    # float64 scalars do and cost a fraction of numpy's per-item access.
    # A memoryview gives the noise array's items as floats; entry t is
    # overwritten with the series value once its noise is read.  A list
    # of float objects would leave its freed arenas resident.
    series, coefficients = memoryview(noise), coefficients.tolist()
    for t in range(num_samples):
        value = intercept + series[t]
        for lag in range(1, len(coefficients) + 1):
            if t - lag >= 0:
                value += coefficients[lag - 1] * series[t - lag]
        series[t] = value
    return noise
