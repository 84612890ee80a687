import hashlib
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from domkl import features
from domkl.features import (
    DEFAULT_BANDWIDTHS,
    FeatureMap,
    build_feature_map,
    build_maps,
    gaussian_kernel,
)


def test_bandwidth_must_be_positive():
    """A kernel is its bandwidth, so both of its users check it; at 0 the
    kernel would read NaN where x = y."""
    for bandwidth in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            build_feature_map(bandwidth, input_dim=2, num_features=3, seed=1)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            gaussian_kernel(bandwidth, np.zeros(2), np.zeros(2))


def test_gaussian_kernel_frozen_value():
    # exp(-||x-y||^2 / (2 sigma^2)) at distance sqrt(2), sigma^2 = 0.5
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 1.0])
    assert gaussian_kernel(0.5, x, y) == pytest.approx(0.1353352832366127, abs=1e-15)


def test_gaussian_kernel_broadcasts():
    x = np.zeros((4, 3))
    y = np.ones((4, 3))
    vals = gaussian_kernel(2.0, x, y)
    assert vals.shape == (4,)
    assert np.allclose(vals, np.exp(-3.0 / 4.0))


def test_feature_vectors_have_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        m = int(rng.integers(1, 40))
        fmap = build_feature_map(float(10 ** rng.uniform(-2, 1)),
                                 input_dim=d, num_features=m,
                                 seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal(d) * 10.0
        z = fmap.map(x)
        assert z.shape == (2 * m,)
        assert abs((z * z).sum() - 1.0) < 1e-12


def test_single_feature_inner_product_is_cosine_of_gap():
    """With M=1 the sin and cos blocks make z.z' = cos(v.(x - x'))."""
    fmap = build_feature_map(0.7, input_dim=3, num_features=1,
                             seed=21)
    rng = np.random.default_rng(9)
    for _ in range(25):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        inner = float((fmap.map(x) * fmap.map(y)).sum())
        expected = np.cos(float(fmap.weights[0] @ (x - y)))
        assert inner == pytest.approx(expected, abs=1e-12)


def test_map_batches_match_single_inputs():
    fmap = build_feature_map(0.3, input_dim=4, num_features=6,
                             seed=8)
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((10, 4))
    stacked = fmap.map(batch)
    for i in range(10):
        assert np.allclose(stacked[i], fmap.map(batch[i]), atol=1e-14)


def test_weight_rows_scale_with_inverse_bandwidth():
    # rows are N(0, I / sigma^2); at M=2000 the sample variance is close
    wide = build_feature_map(4.0, input_dim=3, num_features=2000,
                             seed=14)
    assert np.var(wide.weights) == pytest.approx(1.0 / 4.0, rel=0.1)
    sharp = build_feature_map(0.04, input_dim=3, num_features=2000,
                              seed=14)
    assert np.var(sharp.weights) == pytest.approx(25.0, rel=0.1)


def test_kernel_approximation_improves_with_m():
    rng = np.random.default_rng(4)
    x = rng.random((40, 5))
    y = rng.random((40, 5))
    exact = gaussian_kernel(1.0, x, y)
    errs = []
    for m in (10, 100, 1000):
        fmap = build_feature_map(1.0, input_dim=5, num_features=m, seed=33)
        approx = (fmap.map(x) * fmap.map(y)).sum(axis=-1)
        errs.append(float(np.abs(approx - exact).mean()))
    assert errs[2] < errs[0]


def test_weights_are_read_only():
    fmap = build_feature_map(1.0, input_dim=2, num_features=3,
                             seed=2)
    with pytest.raises(ValueError):
        fmap.weights[0, 0] = 5.0
    # Also after a round trip to a worker process, which keeps what the
    # map carries.
    copy = pickle.loads(pickle.dumps(fmap))
    with pytest.raises(ValueError):
        copy.weights[0, 0] = 5.0
    x = np.array([0.3, -1.2])
    assert copy.map(x).tobytes() == fmap.map(x).tobytes()
    assert ((copy.bandwidth, copy.seed, copy.num_features,
             copy.input_dim) == (1.0, 2, 3, 2))


def test_map_takes_its_sizes_from_its_weights():
    weights = np.random.default_rng(0).standard_normal((7, 3))
    fmap = FeatureMap(weights=weights, seed=5, bandwidth=0.5)
    assert (fmap.num_features, fmap.input_dim) == (7, 3)
    x = np.array([0.1, -0.4, 2.0])
    want = np.concatenate([np.sin(x @ weights.T), np.cos(x @ weights.T)])
    assert fmap.map(x).tobytes() == (want * (1.0 / math.sqrt(7))).tobytes()


def test_map_is_deterministic_in_seed():
    a = build_feature_map(1.0, 2, 5, seed=6)
    b = build_feature_map(1.0, 2, 5, seed=6)
    c = build_feature_map(1.0, 2, 5, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_fingerprint_matches_digest_recipe_and_frozen_value():
    fmap = build_feature_map(0.25, input_dim=1, num_features=2,
                             seed=1)
    digest = hashlib.sha256()
    digest.update(fmap.weights.tobytes())
    # 0: the index such a map had when maps carried their kernel's index
    digest.update(("%d,%d,%d,%d" % (0, fmap.seed, fmap.num_features,
                                    fmap.input_dim)).encode())
    # frozen: pins the generator stream that draws the weights
    assert digest.hexdigest() == (
        "e30b6d2bdf18e4ac53b73532ca9d85f4fea984a9544efc1b3fe9d697bc07e95e"
    )


def test_default_bandwidth_ladder():
    assert len(DEFAULT_BANDWIDTHS) == 17
    for p, bandwidth in enumerate(DEFAULT_BANDWIDTHS):
        assert bandwidth == pytest.approx(10.0 ** ((p + 1 - 9) / 2.0))
    ratios = [DEFAULT_BANDWIDTHS[p + 1] / DEFAULT_BANDWIDTHS[p]
              for p in range(16)]
    assert np.allclose(ratios, np.sqrt(10.0))


def test_dictionary_map_seeds_are_offset_from_shared_seed():
    maps = build_maps((0.1, 1.0), input_dim=3, num_features=4,
                      shared_seed=100)
    assert [fm.seed for fm in maps] == [101, 102]
    assert [fm.bandwidth for fm in maps] == [0.1, 1.0]
    for fm in maps:
        alone = build_feature_map(fm.bandwidth, 3, 4, fm.seed)
        assert fm.weights.tobytes() == alone.weights.tobytes()
    again = build_maps((0.1, 1.0), 3, 4, shared_seed=100)
    for a, b in zip(maps, again):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert ((a.seed, a.num_features, a.input_dim)
                == (b.seed, b.num_features, b.input_dim))


def test_dictionary_rejects_empty_specs():
    with pytest.raises(ValueError):
        build_maps((), 3, 4, shared_seed=0)


# A single input, a batch, a long batch and a stacked batch at each input
# dim; the map projects into a strided half of its output, which must
# not change the rounding for any of them.  d = 2 comes first, so the ids
# shape0-shape2 still name the d = 2 cases they named before.  A single
# input takes its own path through the map, so it is also checked at
# input scales from 1e-2 to 3e2.
_MAP_SHAPES = [shape for d in (2, 1, 3, 5, 8)
               for shape in ((d,), (10, d), (4000, d), (7, 3, d))]


@pytest.mark.parametrize("kernel", [0, 8, 16])
@pytest.mark.parametrize("shape", _MAP_SHAPES)
def test_map_is_bitwise_the_concatenated_expression(kernel, shape):
    """Smallest, middle and largest stock bandwidth, single, batched and
    stacked."""
    fmap = build_maps(DEFAULT_BANDWIDTHS, shape[-1], 50, 11)[kernel]
    x = np.random.default_rng(kernel).uniform(size=shape)
    for scale in (1e-2, 1.0, 3e1, 3e2) if len(shape) == 1 else (1.0,):
        projected = (scale * x) @ fmap.weights.T
        want = np.concatenate(
            [np.sin(projected), np.cos(projected)], -1
        ) * (1.0 / math.sqrt(50))
        got = fmap.map(scale * x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), scale


def test_map_allocates_only_its_output():
    fmap = build_maps(DEFAULT_BANDWIDTHS, 5, 50, 3)[8]
    x = np.random.default_rng(0).uniform(size=(20000, 5))
    tracemalloc.start()
    try:
        out = fmap.map(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes, peak / out.nbytes


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("rounds", [1, 3, 10, 20])
def test_pooled_map_is_bitwise_the_round_maps(dim, rounds):
    # comkl maps a kernel's whole stream-major pool in one call; round t's
    # rows of that block must be bitwise the map of round t's batch.  A
    # batch of one row takes another BLAS kernel and may round otherwise,
    # but a network has at least two learners.
    maps = build_maps(DEFAULT_BANDWIDTHS, dim, 50, 5)
    rng = np.random.default_rng(100 * dim + rounds)
    for learners in (2, 5, 10, 33):
        for scale in (1e-2, 1.0, 3e1, 3e2):
            x = scale * rng.uniform(-1.0, 1.0, size=(learners, rounds, dim))
            pooled = x.reshape(learners * rounds, dim)
            for fmap in maps:
                got = fmap.map(pooled).reshape(learners, rounds, 100)
                want = np.stack([fmap.map(x[:, t]) for t in range(rounds)],
                                axis=1)
                assert got.tobytes() == want.tobytes()


def _at_width(monkeypatch, width):
    """Let a stack's map use ``width`` CPUs, and record the row count of
    every block it maps."""
    monkeypatch.setattr(features, "_map_width", lambda: width)
    blocks = []
    original = features._map_rows

    def recording(x, weights_t, scale, out):
        blocks.append(len(x))
        original(x, weights_t, scale, out)

    monkeypatch.setattr(features, "_map_rows", recording)
    return blocks


def _block_count(width, most):
    """Blocks a stack is mapped in at ``width`` CPUs, when at most
    ``most`` blocks hold 2 rows and 2**16 projected values each."""
    return max(1, min(width, most))


# Stacks large enough to split at M = 50, each with the most blocks it
# splits into: 2-D with a row count that no width divides (16001) or
# that barely splits in two (2623), and 3-D, split along the leading axis.
_SPLIT_SHAPES = [((16001,), 12), ((2623,), 2), ((7, 600), 2), ((40, 401), 10)]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("lead, most", _SPLIT_SHAPES)
def test_map_is_bitwise_the_same_at_any_width(monkeypatch, d, lead, most):
    maps = build_maps(DEFAULT_BANDWIDTHS, d, 50, 13)
    x = np.random.default_rng(d).uniform(-1.0, 1.0, size=lead + (d,))
    for fmap in (maps[0], maps[8], maps[16]):
        for scale in (1e-2, 1.0, 3e1, 3e2):
            want = None
            for width in (1, 2, 3, 4):
                blocks = _at_width(monkeypatch, width)
                got = fmap.map(scale * x).tobytes()
                want = want or got
                assert got == want, (fmap.bandwidth, scale, width)
                assert len(blocks) == _block_count(width, most)
                assert sum(blocks) == lead[0]


@pytest.mark.parametrize("rows", [2, 3, 5, 9])
def test_wide_map_never_splits_off_one_row(monkeypatch, rows):
    """With more than 2**16 features one row holds enough values for a
    block, but a one-row block would take another BLAS kernel."""
    fmap = build_feature_map(0.5, input_dim=3,
                             num_features=70000, seed=4)
    x = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 3))
    want = None
    for width in (1, 2, 3, 4):
        blocks = _at_width(monkeypatch, width)
        got = fmap.map(x).tobytes()
        want = want or got
        assert got == want, width
        assert len(blocks) == _block_count(width, rows // 2)
        assert all(b >= 2 for b in blocks)


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
def test_pool_workers_share_the_cpus(monkeypatch, workers):
    """Each worker of a pool of trial processes splits its stacks over
    its own share of the CPUs, and over at least one."""
    monkeypatch.setattr(features, "_workers", 1)
    cpus = features._map_width()
    features._share_cpus(workers)
    assert features._map_width() == max(1, cpus // workers)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_split_map_keeps_the_callers_error_state(monkeypatch, width):
    """Every block runs under the caller's floating-point error state:
    a non-finite input raises where the caller asks for it and warns
    nowhere where the caller ignores it."""
    blocks = _at_width(monkeypatch, width)
    fmap = build_maps(DEFAULT_BANDWIDTHS, 2, 50, 2)[8]
    x = np.random.default_rng(0).uniform(size=(4000, 2))
    x[-1, 0] = np.inf  # in the last block at every width
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            fmap.map(x)
    assert len(blocks) == _block_count(width, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            out = fmap.map(x)
    assert np.isnan(out[-1]).any() and np.isfinite(out[:-1]).all()
