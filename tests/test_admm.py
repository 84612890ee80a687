import numpy as np
import pytest

from domkl.admm import (
    gamma_hat,
    lambda_update,
    theta_update_quadratic,
)
from domkl.graph import sample_connected_er
from domkl.simulator import AdmmConfig


def _round_objective(theta, theta_old, lam, z, label, gamma, degree, cfg):
    """The per-round objective, written out naively."""
    fit = (float(z @ theta) - label) ** 2
    consensus = (cfg.rho / 2.0) * (
        degree * float(theta @ theta) - 2.0 * float(gamma @ theta)
    )
    proximal = (cfg.eta_local / 2.0) * float((theta - theta_old) @ (theta - theta_old))
    return fit + float(lam @ theta) + consensus + proximal


def _dense_solve(theta, lam, z, label, gamma, degree, cfg):
    dim = len(z)
    matrix = 2.0 * np.outer(z, z) + (cfg.eta_local + cfg.rho * degree) * np.eye(dim)
    rhs = 2.0 * label * z + cfg.eta_local * theta + cfg.rho * gamma - lam
    return np.linalg.solve(matrix, rhs)


def test_config_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        AdmmConfig(rho=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(eta_local=-1.0)


def test_gamma_hat_matches_naive_midpoint_sum():
    rng = np.random.default_rng(5)
    for _ in range(30):
        own = rng.standard_normal(4)
        neighbors = [rng.standard_normal(4) for _ in range(int(rng.integers(0, 5)))]
        expected = np.zeros(4)
        for nb in neighbors:
            expected += (own + nb) / 2.0
        assert np.allclose(gamma_hat(own, neighbors), expected, atol=1e-14)


def _with_negative_zeros(rng, shape):
    """Normal draws with about a third of the entries set to -0.0."""
    values = rng.standard_normal(shape)
    values[rng.uniform(size=shape) < 0.35] = -0.0
    return values


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(6,), (17, 100)])
def test_kernels_are_bitwise_the_reference_expressions(shape):
    """The in-place kernels against the plain expressions, -0.0 included,
    and with every input left as it was."""
    rng = np.random.default_rng(41)
    cfg = AdmmConfig(rho=100.0, eta_local=10.0)
    for count in range(4):
        own = _with_negative_zeros(rng, shape)
        lam = _with_negative_zeros(rng, shape)
        z = _with_negative_zeros(rng, shape)
        neighbors = [_with_negative_zeros(rng, shape) for _ in range(count)]
        # Neighbors equal to -own give exact zero terms of either sign.
        if count:
            neighbors[0][::2] = -own[::2]
        label = np.float64(-0.0 if count == 0 else rng.standard_normal())
        inputs = [own, lam, z] + neighbors
        before = [a.copy() for a in inputs]

        gamma = np.zeros_like(own)
        for nb in neighbors:
            gamma = gamma + 0.5 * (own + nb)
        assert _bitwise(gamma_hat(own, neighbors), gamma)

        total = np.zeros_like(own)
        for nb in neighbors:
            total = total + (own - nb)
        assert _bitwise(lambda_update(lam, own, neighbors, cfg.rho),
                        lam + 0.5 * cfg.rho * total)

        alpha = cfg.eta_local + cfg.rho * count
        b = 2.0 * label * z + cfg.eta_local * own + cfg.rho * gamma - lam
        zz = (z * z).sum(axis=-1, keepdims=True)
        zb = (z * b).sum(axis=-1, keepdims=True)
        want = b / alpha - (2.0 * zb / (alpha * (alpha + 2.0 * zz))) * z
        got = theta_update_quadratic(own, lam, z, label, gamma, count, cfg)
        assert _bitwise(got, want)

        for a, a0 in zip(inputs, before):
            assert _bitwise(a, a0)


def test_closed_form_matches_dense_solve():
    """Rank-one inversion against an explicit linear system."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = int(rng.integers(1, 12))
        degree = int(rng.integers(0, 5))
        cfg = AdmmConfig(rho=float(10 ** rng.uniform(-1, 3)),
                         eta_local=float(10 ** rng.uniform(-1, 2)))
        theta = rng.standard_normal(dim)
        lam = rng.standard_normal(dim)
        z = rng.standard_normal(dim)
        gamma = rng.standard_normal(dim)
        label = float(rng.standard_normal())
        got = theta_update_quadratic(theta, lam, z, label, gamma, degree, cfg)
        want = _dense_solve(theta, lam, z, label, gamma, degree, cfg)
        assert np.allclose(got, want, atol=1e-10)


def test_closed_form_on_stacked_blocks_equals_per_row():
    rng = np.random.default_rng(23)
    cfg = AdmmConfig(rho=100.0, eta_local=10.0)
    theta = rng.standard_normal((5, 8))
    lam = rng.standard_normal((5, 8))
    z = rng.standard_normal((5, 8))
    gamma = rng.standard_normal((5, 8))
    stacked = theta_update_quadratic(theta, lam, z, 0.7, gamma, 3, cfg)
    for p in range(5):
        row = theta_update_quadratic(theta[p], lam[p], z[p], 0.7, gamma[p], 3, cfg)
        assert np.array_equal(stacked[p], row)


def test_closed_form_is_the_global_minimizer():
    rng = np.random.default_rng(29)
    cfg = AdmmConfig(rho=20.0, eta_local=5.0)
    theta = rng.standard_normal(6)
    lam = rng.standard_normal(6)
    z = rng.standard_normal(6)
    gamma = rng.standard_normal(6)
    new = theta_update_quadratic(theta, lam, z, 1.3, gamma, 2, cfg)
    best = _round_objective(new, theta, lam, z, 1.3, gamma, 2, cfg)
    for _ in range(100):
        other = new + rng.standard_normal(6) * rng.choice([1e-3, 1e-1, 1.0])
        assert best <= _round_objective(other, theta, lam, z, 1.3, gamma, 2, cfg) + 1e-12


def test_closed_form_rejects_nonfinite_inputs():
    cfg = AdmmConfig()
    bad = np.array([1.0, np.nan])
    with pytest.raises(FloatingPointError):
        theta_update_quadratic(bad, np.zeros(2), np.ones(2), 0.0,
                               np.zeros(2), 1, cfg)


def test_lambda_update_matches_naive_sum():
    rng = np.random.default_rng(43)
    lam = rng.standard_normal(3)
    own = rng.standard_normal(3)
    neighbors = [rng.standard_normal(3) for _ in range(4)]
    expected = lam + 50.0 * sum(own - nb for nb in neighbors)
    assert np.allclose(lambda_update(lam, own, neighbors, 100.0), expected,
                       atol=1e-12)
    assert np.array_equal(lambda_update(lam, own, [], 100.0), lam)


def test_network_dual_sum_stays_zero():
    """Summed over all nodes the dual increments cancel exactly."""
    rng = np.random.default_rng(47)
    for seed in range(10):
        graph = sample_connected_er(6, 0.5, seed=seed)
        thetas = rng.standard_normal((6, 5))
        lams = rng.standard_normal((6, 5))
        lams -= lams.mean(axis=0, keepdims=True)  # start from a zero-sum state
        updated = np.stack([
            lambda_update(lams[k], thetas[k],
                          [thetas[l] for l in graph.neighbors[k]], 77.0)
            for k in range(6)
        ])
        assert np.abs(updated.sum(axis=0)).max() < 1e-12

