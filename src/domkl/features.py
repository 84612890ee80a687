"""Gaussian kernels and their random trigonometric feature maps.

A feature map draws M frequency rows from N(0, I/bandwidth) and sends an
input x to (1/sqrt(M)) [sin(Vx); cos(Vx)].  The map has exact unit norm
for every input and its inner products estimate the Gaussian kernel, so
kernel predictors reduce to linear ones in 2M dimensions.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

# Fewest projected values (rows x num_features) a block of a split stack
# may hold: several times the size at which two blocks start to beat one.
_BLOCK_VALUES = 1 << 16

# The stock 17-kernel ladder, bandwidths 10^((p-9)/2) for p = 1..17: its
# half-decade spacing from 1e-4 to 1e4 covers length scales from far
# below to far above the unit box that normalized data lives in.
DEFAULT_BANDWIDTHS = tuple(10.0 ** ((p - 9) / 2.0) for p in range(1, 18))


def gaussian_kernel(bandwidth, x, y):
    """Evaluate exp(-||x - y||^2 / (2 * bandwidth)), bandwidth = sigma^2.

    Accepts single vectors or broadcastable stacks of vectors; the last
    axis is the input dimension.
    """
    if not bandwidth > 0.0:  # at 0, x = y would give exp(0 / 0) = NaN
        raise ValueError("bandwidth must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sq = np.sum((x - y) ** 2, axis=-1)
    return np.exp(-sq / (2.0 * bandwidth))


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Frozen random feature map for one kernel; the kernel's index is
    the map's position in the trial's tuple of maps.

    Attributes
    ----------
    weights : ndarray, shape (num_features, input_dim)
        Frequency rows, drawn once and never resampled; the map's sizes
        are read from their shape.
    seed : int
        Seed the rows were drawn from, kept for reproducibility checks.
    bandwidth : float
        The Gaussian kernel's bandwidth, whose spectral measure the rows
        were drawn from.
    """

    weights: np.ndarray
    seed: int
    bandwidth: float
    num_features: int = field(init=False)
    input_dim: int = field(init=False)
    _weights_t: np.ndarray = field(init=False, repr=False)
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self.weights.setflags(write=False)
        num_features, input_dim = self.weights.shape
        object.__setattr__(self, "num_features", num_features)
        object.__setattr__(self, "input_dim", input_dim)
        object.__setattr__(self, "_weights_t", self.weights.T)
        object.__setattr__(self, "_scale", 1.0 / math.sqrt(num_features))

    def __reduce__(self):
        # Rebuild through __init__, so that a map sent to or from a worker
        # process again has read-only weights and a transposed view of them.
        return (FeatureMap, (self.weights, self.seed, self.bandwidth))

    def map(self, x):
        """Map inputs to the 2*num_features feature space.

        A single (input_dim,) vector yields a (2*num_features,) vector;
        a stack (..., input_dim) yields (..., 2*num_features).  Outputs
        have unit Euclidean norm.  A call allocates only its output: the
        projection x W^T is written into the cosine half, by np.dot for a
        single vector and by np.matmul for a stack, and taken in place
        from there.

        A stack whose leading axis splits into blocks of at least 2 rows
        and 2**16 projected values each (rows x num_features) is mapped
        in such blocks at the same time, one per CPU the process may run
        on; ``taskset`` or a cpuset narrows that, and each worker of a
        pool of trial processes takes an equal share of those CPUs.  Each
        block takes the same steps, so the output is bitwise the same at
        any width.
        """
        # Bitwise equal to scale * [sin(x W^T), cos(x W^T)].  Keep the
        # product as x @ W^T: other forms of it (W @ x^T) run through
        # other BLAS kernels, which need not round the same way.  np.dot is
        # cheaper, but it cannot write into a stack's strided cosine half.
        x = np.asarray(x, dtype=np.float64)
        m = self.num_features
        if x.ndim == 1:
            # Inline, not through _map_rows: domkl maps 34 single samples
            # per node-round, and one more Python call costs each of them
            # about 5% of its time.
            out = np.empty(2 * m)
            sines, projected = out[:m], out[m:]
            np.dot(x, self._weights_t, out=projected)
            np.sin(projected, out=sines)
            np.cos(projected, out=projected)
            out *= self._scale
            return out
        out = np.empty(x.shape[:-1] + (2 * m,))
        _map_blocks(x, self._weights_t, self._scale, out,
                    _row_blocks(len(x), out.size // 2))
        return out


# Trial workers that share this process's CPUs: a worker of a pool of
# that many maps its blocks on its own share of them.
_workers = 1


def _share_cpus(workers):
    """Map on a 1/``workers`` share of the CPUs from now on; run in each
    worker of a pool of ``workers`` trial processes."""
    global _workers
    _workers = workers


def _map_width():
    """How many blocks a stack may be mapped in at the same time: the
    CPUs this process may run on, divided among ``_workers``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, cpus // _workers)


def _row_blocks(rows, values):
    """Bounds of the contiguous blocks of leading rows that a stack of
    ``rows`` rows and ``values`` projected values is mapped in.

    There is at most one block per CPU of ``_map_width``.  Every block
    holds at least ``_BLOCK_VALUES`` projected values and at least 2
    rows: a one-row product takes another BLAS kernel, which need not
    round the same way.
    """
    if values < 2 * _BLOCK_VALUES:  # one block at any width
        return [0, rows]
    min_rows = max(2, -(-_BLOCK_VALUES * rows // values))
    count = max(1, min(rows // min_rows, _map_width()))
    return [rows * i // count for i in range(count + 1)]


def _map_rows(x, weights_t, scale, out):
    """``FeatureMap.map``'s steps for a block of a stack's rows."""
    m = weights_t.shape[1]
    sines, projected = out[..., :m], out[..., m:]
    np.matmul(x, weights_t, out=projected)
    np.sin(projected, out=sines)
    np.cos(projected, out=projected)
    out *= scale


def _run_together(calls):
    """Call each of ``calls`` with no arguments, all at the same time: the
    first on the calling thread, each other on a helper thread.

    Helpers run under the caller's floating-point error state.  Once
    every call has ended, the error of the first call in ``calls`` that
    raised one is raised here.  A single call, or any on fewer than 2
    CPUs (``_map_width``), starts no thread: they run one after another
    on the caller, the first error stopping them.  Nothing here outlives
    the calls: the threads and the error list die on return.
    """
    if len(calls) == 1 or _map_width() < 2:  # error state costs µs to read
        for call in calls:
            call()
        return
    errors = [None] * len(calls)
    errstate = dict(np.geterr(), call=np.geterrcall())

    def helper(i):
        try:
            with np.errstate(**errstate):
                calls[i]()
        except BaseException as exc:
            errors[i] = exc

    helpers = [threading.Thread(target=helper, args=(i,))
               for i in range(1, len(calls))]
    for thread in helpers:
        thread.start()
    try:
        calls[0]()
    except BaseException as exc:
        errors[0] = exc
    finally:
        for thread in helpers:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _map_blocks(x, weights_t, scale, out, bounds):
    """Map the row blocks ``x[bounds[i]:bounds[i + 1]]`` into the same
    rows of ``out`` at the same time (``_run_together``), the first on
    the calling thread; numpy releases the GIL in every step."""
    _run_together([
        functools.partial(_map_rows, x[lo:hi], weights_t, scale, out[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])])


def map_stack(maps, x):
    """Feature vectors of one input under every map, as a (P, D) block."""
    # One FeatureMap.map call per kernel: the benchmark's self-test pins
    # the number of map calls per domkl node-round.
    out = np.empty((len(maps), 2 * maps[0].num_features))
    for p, fmap in enumerate(maps):
        out[p] = fmap.map(x)
    return out


def build_feature_map(bandwidth, input_dim, num_features, seed):
    """Draw a Gaussian kernel's frequency rows and freeze them in a FeatureMap.

    Rows are i.i.d. N(0, I/bandwidth), the spectral measure of the
    Gaussian kernel, so inner products of mapped points are unbiased
    kernel estimates.
    """
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    if num_features < 1:
        raise ValueError("num_features must be at least 1")
    rng = np.random.default_rng(seed)
    std = 1.0 / math.sqrt(bandwidth)
    weights = rng.standard_normal((num_features, input_dim)) * std
    return FeatureMap(weights=weights, seed=seed, bandwidth=bandwidth)


def build_maps(bandwidths, input_dim, num_features, shared_seed):
    """One feature map per bandwidth, the kernel dictionary of a trial.

    Map p draws its rows with seed ``shared_seed + p + 1``, so maps
    differ across kernels but all of them are pinned by one integer.
    """
    if len(bandwidths) < 1:
        raise ValueError("dictionary needs at least one kernel")
    return tuple(
        build_feature_map(b, input_dim, num_features, seed=shared_seed + p + 1)
        for p, b in enumerate(bandwidths)
    )
