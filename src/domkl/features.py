"""Gaussian kernels and their random trigonometric feature maps.

A feature map draws M frequency rows from N(0, I/bandwidth) and sends an
input x to (1/sqrt(M)) [sin(Vx); cos(Vx)].  The map has exact unit norm
for every input and its inner products estimate the Gaussian kernel, so
kernel predictors reduce to linear ones in 2M dimensions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """A Gaussian kernel identified by its bandwidth (the variance sigma^2)."""

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")


def gaussian_kernel(spec, x, y):
    """Evaluate exp(-||x - y||^2 / (2 * bandwidth)).

    Accepts single vectors or broadcastable stacks of vectors; the last
    axis is the input dimension.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sq = np.sum((x - y) ** 2, axis=-1)
    return np.exp(-sq / (2.0 * spec.bandwidth))


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Frozen random feature map for one kernel.

    Attributes
    ----------
    weights : ndarray, shape (num_features, input_dim)
        Frequency rows, drawn once and never resampled.
    kernel_index : int
        Position of the kernel in its dictionary.
    seed : int
        Seed the rows were drawn from, kept for reproducibility checks.
    """

    weights: np.ndarray
    kernel_index: int
    seed: int
    num_features: int
    input_dim: int
    _weights_t: np.ndarray = field(init=False, repr=False)
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        self.weights.setflags(write=False)
        object.__setattr__(self, "_weights_t", self.weights.T)
        object.__setattr__(self, "_scale", 1.0 / math.sqrt(self.num_features))

    def __reduce__(self):
        # Rebuild through __init__, so that a map sent to or from a worker
        # process again has read-only weights and a transposed view of them.
        return (FeatureMap, (self.weights, self.kernel_index, self.seed,
                             self.num_features, self.input_dim))

    def map(self, x):
        """Map inputs to the 2*num_features feature space.

        A single (input_dim,) vector yields a (2*num_features,) vector;
        a stack (..., input_dim) yields (..., 2*num_features).  Outputs
        have unit Euclidean norm.
        """
        # Bitwise equal to scale * [sin(x W^T), cos(x W^T)].  Keep the
        # product as x @ W^T: other forms of it (W @ x^T) run through
        # other BLAS kernels, which need not round the same way.
        projected = np.asarray(x, dtype=np.float64) @ self._weights_t
        m = self.num_features
        out = np.empty(projected.shape[:-1] + (2 * m,))
        np.sin(projected, out=out[..., :m])
        np.cos(projected, out=out[..., m:])
        out *= self._scale
        return out

    def fingerprint(self):
        """Stable digest of the map contents, for sharing checks."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.weights, dtype=np.float64).tobytes())
        digest.update(
            ("%d,%d,%d,%d" % (self.kernel_index, self.seed,
                              self.num_features, self.input_dim)).encode()
        )
        return digest.hexdigest()


def map_stack(maps, x):
    """Feature vectors of one input under every map, as a (P, D) block."""
    # One FeatureMap.map call per kernel: the benchmark's self-test pins
    # the number of map calls per domkl node-round.
    out = np.empty((len(maps), 2 * maps[0].num_features))
    for p, fmap in enumerate(maps):
        out[p] = fmap.map(x)
    return out


def build_feature_map(spec, input_dim, num_features, seed, kernel_index=0):
    """Draw the frequency rows for ``spec`` and freeze them in a FeatureMap.

    Rows are i.i.d. N(0, I/bandwidth), the spectral measure of the
    Gaussian kernel, so inner products of mapped points are unbiased
    kernel estimates.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    if num_features < 1:
        raise ValueError("num_features must be at least 1")
    rng = np.random.default_rng(seed)
    std = 1.0 / math.sqrt(spec.bandwidth)
    weights = rng.standard_normal((num_features, input_dim)) * std
    return FeatureMap(
        weights=weights,
        kernel_index=kernel_index,
        seed=seed,
        num_features=num_features,
        input_dim=input_dim,
    )


@dataclass(frozen=True)
class KernelDictionary:
    """An ordered collection of kernels sharing one base seed.

    Kernel at position p draws its map with seed ``shared_seed + p + 1``,
    so maps differ across kernels but the whole dictionary is pinned by
    a single integer.
    """

    specs: tuple
    shared_seed: int = 0

    def __post_init__(self):
        if len(self.specs) < 1:
            raise ValueError("dictionary needs at least one kernel")

    def __len__(self):
        return len(self.specs)

    def map_seed(self, index):
        return self.shared_seed + index + 1

    def build_maps(self, input_dim, num_features):
        return tuple(
            build_feature_map(
                spec, input_dim, num_features,
                seed=self.map_seed(p), kernel_index=p,
            )
            for p, spec in enumerate(self.specs)
        )


def default_dictionary(shared_seed=0):
    """The stock 17-kernel grid: bandwidths 10^((p-9)/2) for p = 1..17.

    Half-decade spacing from 1e-4 to 1e4 covers length scales from far
    below to far above the unit box that normalized data lives in.
    """
    specs = tuple(KernelSpec(10.0 ** ((p - 9) / 2.0)) for p in range(1, 18))
    return KernelDictionary(specs=specs, shared_seed=shared_seed)
