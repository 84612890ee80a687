import hashlib
import math
import pickle

import numpy as np
import pytest

from domkl.features import (
    FeatureMap,
    KernelDictionary,
    KernelSpec,
    build_feature_map,
    default_dictionary,
    gaussian_kernel,
)


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        KernelSpec(0.0)
    with pytest.raises(ValueError):
        KernelSpec(-1.0)


def test_gaussian_kernel_frozen_value():
    # exp(-||x-y||^2 / (2 sigma^2)) at distance sqrt(2), sigma^2 = 0.5
    spec = KernelSpec(0.5)
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 1.0])
    assert gaussian_kernel(spec, x, y) == pytest.approx(0.1353352832366127, abs=1e-15)


def test_gaussian_kernel_broadcasts():
    spec = KernelSpec(2.0)
    x = np.zeros((4, 3))
    y = np.ones((4, 3))
    vals = gaussian_kernel(spec, x, y)
    assert vals.shape == (4,)
    assert np.allclose(vals, np.exp(-3.0 / 4.0))


def test_feature_vectors_have_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        m = int(rng.integers(1, 40))
        fmap = build_feature_map(KernelSpec(float(10 ** rng.uniform(-2, 1))),
                                 input_dim=d, num_features=m,
                                 seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal(d) * 10.0
        z = fmap.map(x)
        assert z.shape == (2 * m,)
        assert abs((z * z).sum() - 1.0) < 1e-12


def test_single_feature_inner_product_is_cosine_of_gap():
    """With M=1 the sin and cos blocks make z.z' = cos(v.(x - x'))."""
    fmap = build_feature_map(KernelSpec(0.7), input_dim=3, num_features=1,
                             seed=21)
    rng = np.random.default_rng(9)
    for _ in range(25):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        inner = float((fmap.map(x) * fmap.map(y)).sum())
        expected = np.cos(float(fmap.weights[0] @ (x - y)))
        assert inner == pytest.approx(expected, abs=1e-12)


def test_map_batches_match_single_inputs():
    fmap = build_feature_map(KernelSpec(0.3), input_dim=4, num_features=6,
                             seed=8)
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((10, 4))
    stacked = fmap.map(batch)
    for i in range(10):
        assert np.allclose(stacked[i], fmap.map(batch[i]), atol=1e-14)


def test_weight_rows_scale_with_inverse_bandwidth():
    # rows are N(0, I / sigma^2); at M=2000 the sample variance is close
    wide = build_feature_map(KernelSpec(4.0), input_dim=3, num_features=2000,
                             seed=14)
    assert np.var(wide.weights) == pytest.approx(1.0 / 4.0, rel=0.1)
    sharp = build_feature_map(KernelSpec(0.04), input_dim=3, num_features=2000,
                              seed=14)
    assert np.var(sharp.weights) == pytest.approx(25.0, rel=0.1)


def test_kernel_approximation_improves_with_m():
    spec = KernelSpec(1.0)
    rng = np.random.default_rng(4)
    x = rng.random((40, 5))
    y = rng.random((40, 5))
    exact = gaussian_kernel(spec, x, y)
    errs = []
    for m in (10, 100, 1000):
        fmap = build_feature_map(spec, input_dim=5, num_features=m, seed=33)
        approx = (fmap.map(x) * fmap.map(y)).sum(axis=-1)
        errs.append(float(np.abs(approx - exact).mean()))
    assert errs[2] < errs[0]


def test_weights_are_read_only():
    fmap = build_feature_map(KernelSpec(1.0), input_dim=2, num_features=3,
                             seed=2)
    with pytest.raises(ValueError):
        fmap.weights[0, 0] = 5.0
    # Also after a round trip to a worker process.
    copy = pickle.loads(pickle.dumps(fmap))
    with pytest.raises(ValueError):
        copy.weights[0, 0] = 5.0
    x = np.array([0.3, -1.2])
    assert copy.map(x).tobytes() == fmap.map(x).tobytes()


def test_map_is_deterministic_in_seed():
    a = build_feature_map(KernelSpec(1.0), 2, 5, seed=6)
    b = build_feature_map(KernelSpec(1.0), 2, 5, seed=6)
    c = build_feature_map(KernelSpec(1.0), 2, 5, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_fingerprint_matches_digest_recipe_and_frozen_value():
    fmap = build_feature_map(KernelSpec(0.25), input_dim=1, num_features=2,
                             seed=1)
    digest = hashlib.sha256()
    digest.update(fmap.weights.tobytes())
    digest.update(("%d,%d,%d,%d" % (fmap.kernel_index, fmap.seed,
                                    fmap.num_features,
                                    fmap.input_dim)).encode())
    assert fmap.fingerprint() == digest.hexdigest()
    # frozen: pins the generator stream and the digest recipe together
    assert fmap.fingerprint() == (
        "e30b6d2bdf18e4ac53b73532ca9d85f4fea984a9544efc1b3fe9d697bc07e95e"
    )


def test_default_dictionary_bandwidth_ladder():
    dictionary = default_dictionary()
    assert len(dictionary) == 17
    for p, spec in enumerate(dictionary.specs):
        assert spec.bandwidth == pytest.approx(10.0 ** ((p + 1 - 9) / 2.0))
    ratios = [dictionary.specs[p + 1].bandwidth / dictionary.specs[p].bandwidth
              for p in range(16)]
    assert np.allclose(ratios, np.sqrt(10.0))


def test_dictionary_map_seeds_are_offset_from_shared_seed():
    dictionary = KernelDictionary(
        specs=(KernelSpec(0.1), KernelSpec(1.0)), shared_seed=100
    )
    assert dictionary.map_seed(0) == 101
    assert dictionary.map_seed(1) == 102
    maps = dictionary.build_maps(input_dim=3, num_features=4)
    assert [fm.seed for fm in maps] == [101, 102]
    assert [fm.kernel_index for fm in maps] == [0, 1]
    again = dictionary.build_maps(input_dim=3, num_features=4)
    assert [a.fingerprint() for a in maps] == [b.fingerprint() for b in again]


def test_dictionary_rejects_empty_specs():
    with pytest.raises(ValueError):
        KernelDictionary(specs=(), shared_seed=0)


@pytest.mark.parametrize("kernel", [0, 8, 16])
@pytest.mark.parametrize("shape", [(2,), (10, 2), (4000, 2)])
def test_map_is_bitwise_the_concatenated_expression(kernel, shape):
    """Smallest, middle and largest stock bandwidth, single and batched."""
    fmap = default_dictionary(shared_seed=11).build_maps(2, 50)[kernel]
    x = np.random.default_rng(kernel).uniform(size=shape)
    projected = x @ fmap.weights.T
    want = np.concatenate(
        [np.sin(projected), np.cos(projected)], -1
    ) * (1.0 / math.sqrt(50))
    got = fmap.map(x)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("rounds", [1, 3, 10, 20])
def test_map_batch_is_bitwise_the_stacked_maps(dim, rounds):
    # comkl maps a kernel's whole stream-major pool in one call; round t's
    # rows of that block must be bitwise the map of round t's batch.  A
    # batch of one row takes another BLAS kernel and may round otherwise,
    # but a network has at least two learners.
    maps = default_dictionary(shared_seed=5).build_maps(dim, 50)
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
