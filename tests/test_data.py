"""Tests for dataset loading, scaling, partitioning, and synthesis."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from domkl.data import (
    Dataset,
    ar_embed,
    load_csv,
    normalize_minmax,
    partition_regression,
    partition_timeseries_interleaved,
    synth_ar,
    synth_regression,
)
from domkl.errors import ConfigError
from domkl.features import KernelSpec, build_feature_map


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros(4), labels=np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((4, 2)), labels=np.zeros(3))
    bad = np.zeros((3, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        Dataset(features=bad, labels=np.zeros(3))


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,10\n3,4,20\n5,6,30\n")
    ds = load_csv(path)
    assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])
    assert np.array_equal(ds.labels, [10, 20, 30])


def test_load_csv_header_label_column_and_blank_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n7,1,2\n\n8,3,4\n")
    ds = load_csv(path, label_column=0, has_header=True)
    assert np.array_equal(ds.features, [[1, 2], [3, 4]])
    assert np.array_equal(ds.labels, [7, 8])


def test_load_csv_locates_bad_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="row 2, column 2"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_locates_non_finite_cell(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n%s,5\n" % cell)
    match = "row 3, column 1: non-finite cell '%s'" % cell
    with pytest.raises(ConfigError, match=match) as info:
        load_csv(path)
    assert info.value.key == "path"


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 2: expected 3 columns, got 2"):
        load_csv(path)


def test_load_csv_empty_and_bad_label_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError, match="label_column"):
        load_csv(path, label_column=5)


def test_normalize_minmax_ranges():
    rng = np.random.default_rng(1)
    ds = Dataset(features=rng.normal(size=(50, 3)) * 7 + 3,
                 labels=rng.normal(size=50) * 2 - 9)
    out = normalize_minmax(ds)
    for j in range(3):
        col = out.features[:, j]
        assert col.min() == 0.0 and col.max() == 1.0
    assert out.labels.min() == 0.0 and out.labels.max() == 1.0
    # Affine check: order statistics survive the rescale.
    assert np.array_equal(np.argsort(out.labels), np.argsort(ds.labels))


def test_normalize_minmax_constant_column_and_short_input():
    ds = Dataset(features=np.column_stack([np.full(4, 2.0), np.arange(4.0)]),
                 labels=np.arange(4.0))
    out = normalize_minmax(ds)
    assert not out.features[:, 0].any()
    with pytest.raises(ValueError):
        normalize_minmax(Dataset(features=np.zeros((1, 2)), labels=np.zeros(1)))


def _numbered(num_rows):
    """Row i has features (2i, 2i + 1) and label i."""
    return Dataset(features=np.arange(2.0 * num_rows).reshape(num_rows, 2),
                   labels=np.arange(float(num_rows)))


def test_partition_regression_blocks():
    # 11 rows over 3 learners: T = 3, rows 9 and 10 are dropped.
    ds = _numbered(11)
    inputs, labels = partition_regression(ds, 3)
    assert inputs.shape == (3, 3, 2) and labels.shape == (3, 3)
    for t in range(3):
        for k in range(3):
            # Learner k's round-t sample is row kT + t.
            assert labels[t, k] == 3 * k + t
            assert np.array_equal(inputs[t, k], ds.features[3 * k + t])
    assert np.array_equal(labels.T.ravel(), ds.labels[:9])
    assert np.shares_memory(labels, ds.labels)


def test_partition_interleaved_indexing():
    # 10 rows over 3 learners: T = 3, row 9 is dropped.
    ds = _numbered(10)
    inputs, labels = partition_timeseries_interleaved(ds, 3)
    assert inputs.shape == (3, 3, 2) and labels.shape == (3, 3)
    for t in range(3):
        for k in range(3):
            # Learner k's round-t sample is row k + Kt.
            assert labels[t, k] == k + 3 * t
            assert np.array_equal(inputs[t, k], ds.features[k + 3 * t])
    # Every learner's stream keeps the series order.
    assert np.all(np.diff(labels, axis=0) > 0)
    assert np.array_equal(labels.ravel(), ds.labels[:9])
    assert np.shares_memory(inputs, ds.features)


def test_partition_validation():
    ds = Dataset(features=np.zeros((3, 1)), labels=np.zeros(3))
    for partition in (partition_regression, partition_timeseries_interleaved):
        with pytest.raises(ValueError, match="at least 1"):
            partition(ds, 0)
        with pytest.raises(ValueError, match="more learners than samples"):
            partition(ds, 4)
        inputs, labels = partition(ds, 3)  # K = N: one round each
        assert inputs.shape == (1, 3, 1) and labels.shape == (1, 3)


def test_ar_embed_lag_alignment():
    series = np.array([10.0, 11.0, 12.0, 13.0, 14.0, 15.0])
    ds = ar_embed(series, order=2)
    assert len(ds) == 4
    # Sample for label y_t carries [y_{t-1}, y_{t-2}].
    for i in range(4):
        t = i + 2
        assert ds.labels[i] == series[t]
        assert np.array_equal(ds.features[i], [series[t - 1], series[t - 2]])


def test_ar_embed_validation():
    with pytest.raises(ValueError):
        ar_embed(np.arange(5.0), order=0)
    with pytest.raises(ValueError):
        ar_embed(np.arange(3.0), order=3)


def _generator(num_features=6):
    """A feature map and parameters that define a generating function."""
    fmap = build_feature_map(KernelSpec(0.5), input_dim=2,
                             num_features=num_features, seed=7)
    return fmap, np.random.default_rng(100).normal(size=2 * num_features)


def test_synth_regression_noiseless_labels_match_generator():
    fmap, theta = _generator()
    ds = synth_regression(fmap, theta, 0.0, 40, seed=5, noise_seed=6)
    assert np.array_equal(ds.labels, fmap.map(ds.features) @ theta)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_synth_regression_noise_seed():
    fmap, theta = _generator()
    a = synth_regression(fmap, theta, 0.3, 30, seed=5, noise_seed=6)
    b = synth_regression(fmap, theta, 0.3, 30, seed=5, noise_seed=99)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.labels, b.labels)
    c = synth_regression(fmap, theta, 0.3, 30, seed=8, noise_seed=6)
    assert not np.array_equal(a.features, c.features)
    clean = [synth_regression(fmap, theta, 0.0, 30, seed=seed, noise_seed=6)
             for seed in (5, 8)]
    # The same noise on other inputs.
    assert np.allclose(a.labels - clean[0].labels, c.labels - clean[1].labels,
                       rtol=0, atol=1e-12)


def test_synth_regression_noise_statistics():
    fmap, theta = _generator()
    clean = synth_regression(fmap, theta, 0.0, 4000, seed=5, noise_seed=6)
    noisy = synth_regression(fmap, theta, 0.2, 4000, seed=5, noise_seed=6)
    residual = noisy.labels - clean.labels
    assert abs(residual.std() - 0.2) < 0.01
    assert abs(residual.mean()) < 0.01


def test_synth_regression_validation():
    fmap, theta = _generator()
    with pytest.raises(ValueError):
        synth_regression(fmap, theta, -0.1, 10, seed=5, noise_seed=6)
    with pytest.raises(ValueError):
        synth_regression(fmap, theta[:-1], 0.1, 10, seed=5, noise_seed=6)


_LABEL_DIGESTS = """\
import hashlib
import numpy as np
from domkl.data import synth_regression
from domkl.features import KernelSpec, build_feature_map

theta = np.random.default_rng(0).standard_normal(100)
for dim in (1, 2, 5):
    fmap = build_feature_map(KernelSpec(0.1), dim, 50, seed=3)
    for num_samples in (8001, 16001, 40001):
        ds = synth_regression(fmap, theta, 0.0, num_samples, seed=4,
                              noise_seed=5)
        print(hashlib.sha256(ds.labels.tobytes()).hexdigest())
"""


def test_synth_regression_labels_do_not_depend_on_blas_threads():
    """Labels are the same bytes with one BLAS thread and with two, at
    sizes where one product over all rows rounds otherwise on two."""
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _LABEL_DIGESTS],
                              stdout=subprocess.PIPE, text=True, env=env,
                              timeout=120, check=True)
        digests.append(done.stdout.split())
    assert len(digests[0]) == 9 and digests[0] == digests[1]


def test_synth_ar_recursion_matches_manual():
    series = synth_ar((0.6, -0.2), 0.2, 0.0, 6, seed=0)
    expected = np.zeros(6)
    for t in range(6):
        expected[t] = 0.2
        if t >= 1:
            expected[t] += 0.6 * expected[t - 1]
        if t >= 2:
            expected[t] += -0.2 * expected[t - 2]
    assert np.array_equal(series, expected)
    # Stable AR settles near intercept / (1 - sum c).
    long = synth_ar((0.6, -0.2), 0.2, 0.0, 500, seed=0)
    assert abs(long[-1] - 0.2 / (1 - 0.4)) < 1e-10


def _numpy_scalar_synth_ar(coefficients, intercept, noise_std, num_samples,
                           seed):
    """The recursion as it ran on numpy scalars, kept as the reference."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    rng = np.random.default_rng(seed)
    noise = (noise_std * rng.standard_normal(num_samples)
             if noise_std > 0.0 else np.zeros(num_samples))
    series = np.zeros(num_samples)
    for t in range(num_samples):
        value = intercept + noise[t]
        for lag in range(1, len(coefficients) + 1):
            if t - lag >= 0:
                value += coefficients[lag - 1] * series[t - lag]
        series[t] = value
    return series


def test_synth_ar_is_bitwise_the_numpy_scalar_loop():
    """The noisy 8005-sample AR(3) series of the timeseries benchmark,
    bit for bit."""
    args = ((0.5, -0.3, 0.15), 0.2, 0.05, 8005)
    for seed in (0, 11):
        got = synth_ar(*args, seed=seed)
        want = _numpy_scalar_synth_ar(*args, seed=seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_synth_ar_unstable_warns():
    with pytest.warns(RuntimeWarning):
        synth_ar((1.05,), 0.0, 0.0, 10, seed=1)
