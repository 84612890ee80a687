"""Tests for the dense joint-round reference implementation."""

import numpy as np
import pytest

from domkl.admm import AdmmConfig, run_single_kernel
from domkl.features import KernelSpec, build_feature_map
from domkl.graph import Graph
from domkl.oracle import (
    JointStepProblem,
    edge_dual_step,
    exhaustive_best_kernel,
    hindsight_best,
    joint_gamma_step,
    joint_round,
    joint_theta_step,
)
from domkl.simulator import ExperimentConfig, SyntheticTaskConfig


def _path3():
    return Graph(3, ((0, 1), (1, 2)))


def _advance(problem, rng, rounds, dim):
    for _ in range(rounds):
        z = rng.normal(size=(problem.graph.num_nodes, dim))
        y = rng.normal(size=problem.graph.num_nodes)
        problem = joint_round(problem, z, y)
    return problem


def test_initial_state_is_zero():
    graph = _path3()
    problem = JointStepProblem.initial(graph, dim=4, rho=2.0, eta_local=1.0)
    assert not problem.prev_thetas.any()
    assert set(problem.gammas) == set(graph.edges)
    assert set(problem.duals) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    for vec in problem.gammas.values():
        assert not vec.any()
    assert not problem.aggregated_dual(1).any()


def test_aggregated_dual_sums_outgoing():
    problem = JointStepProblem.initial(_path3(), dim=3, rho=1.0, eta_local=1.0)
    problem.duals[(1, 0)] = np.array([1.0, 2.0, 3.0])
    problem.duals[(1, 2)] = np.array([10.0, 0.0, -1.0])
    assert np.array_equal(problem.aggregated_dual(1), [11.0, 2.0, 2.0])
    assert not problem.aggregated_dual(0).any()


def test_joint_theta_step_is_stationary():
    # Finite-difference the full round objective at the returned point.
    rng = np.random.default_rng(2)
    dim = 3
    problem = JointStepProblem.initial(_path3(), dim, rho=4.0, eta_local=2.0)
    problem = _advance(problem, rng, 3, dim)
    z = rng.normal(size=(3, dim))
    y = rng.normal(size=3)
    import dataclasses
    problem = dataclasses.replace(problem, z=z, y=y)
    solution = joint_theta_step(problem)

    def objective(thetas):
        total = 0.0
        for k in range(3):
            pred = thetas[k] @ problem.z[k]
            total += (pred - problem.y[k]) ** 2
            total += problem.aggregated_dual(k) @ thetas[k]
            total += 0.5 * problem.eta_local * np.sum(
                (thetas[k] - problem.prev_thetas[k]) ** 2
            )
            for l in problem.graph.neighbors[k]:
                key = (k, l) if k < l else (l, k)
                total += 0.5 * problem.rho * np.sum(
                    (thetas[k] - problem.gammas[key]) ** 2
                )
        return total

    base = objective(solution)
    h = 1e-6
    for k in range(3):
        for j in range(dim):
            bump = solution.copy()
            bump[k, j] += h
            up = objective(bump)
            bump[k, j] -= 2 * h
            down = objective(bump)
            assert abs(up - down) / (2 * h) < 1e-6
            assert up >= base - 1e-12 and down >= base - 1e-12


def test_gamma_step_minimizes_edge_objective():
    # Fit a parabola per coordinate of the per-edge auxiliary objective
    # and check the analytic midpoint sits at its vertex.
    rng = np.random.default_rng(3)
    dim = 2
    problem = JointStepProblem.initial(_path3(), dim, rho=3.0, eta_local=1.0)
    problem = _advance(problem, rng, 4, dim)
    thetas = rng.normal(size=(3, dim))
    gammas = joint_gamma_step(problem, thetas)
    for (k, l), gamma in gammas.items():
        assert np.allclose(gamma, 0.5 * (thetas[k] + thetas[l]), rtol=0, atol=0)

        def edge_objective(g):
            return (
                -problem.duals[(k, l)] @ g
                - problem.duals[(l, k)] @ g
                + 0.5 * problem.rho * np.sum((thetas[k] - g) ** 2)
                + 0.5 * problem.rho * np.sum((thetas[l] - g) ** 2)
            )

        h = 0.5
        for j in range(dim):
            lo, mid, hi = gamma.copy(), gamma.copy(), gamma.copy()
            lo[j] -= h
            hi[j] += h
            f_lo, f_mid, f_hi = (edge_objective(v) for v in (lo, mid, hi))
            vertex = gamma[j] + h * (f_lo - f_hi) / (2 * (f_lo - 2 * f_mid + f_hi))
            assert abs(vertex - gamma[j]) < 1e-9


def test_duals_stay_exactly_antisymmetric():
    rng = np.random.default_rng(4)
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    problem = JointStepProblem.initial(graph, dim=5, rho=7.0, eta_local=2.0)
    problem = _advance(problem, rng, 6, 5)
    for k, l in graph.edges:
        assert problem.duals[(k, l)].any()
        assert np.array_equal(problem.duals[(k, l)], -problem.duals[(l, k)])


def test_dual_step_moves_along_residual():
    rng = np.random.default_rng(5)
    graph = _path3()
    problem = JointStepProblem.initial(graph, dim=2, rho=6.0, eta_local=1.0)
    thetas = rng.normal(size=(3, 2))
    gammas = joint_gamma_step(problem, thetas)
    duals = edge_dual_step(problem, thetas, gammas)
    for k, l in graph.edges:
        expected = problem.rho * (thetas[k] - gammas[(k, l)])
        assert np.allclose(duals[(k, l)], expected, rtol=0, atol=1e-12)


def test_joint_rounds_match_distributed_single_kernel():
    rng = np.random.default_rng(6)
    graph = _path3()
    fmap = build_feature_map(KernelSpec(0.5), input_dim=2, num_features=3, seed=8)
    rounds = 15
    features = rng.random((rounds, 3, 2))
    labels = rng.normal(size=(rounds, 3))
    cfg = AdmmConfig(rho=5.0, eta_local=3.0)
    predictions, thetas, lams = run_single_kernel(graph, fmap, features, labels, cfg)

    problem = JointStepProblem.initial(graph, dim=6, rho=5.0, eta_local=3.0)
    for t in range(rounds):
        z = np.stack([fmap.map(features[t, k]) for k in range(3)])
        problem = joint_round(problem, z, labels[t])
    assert np.allclose(problem.prev_thetas, thetas, rtol=0, atol=1e-8)
    for k in range(3):
        assert np.allclose(problem.aggregated_dual(k), lams[k], rtol=0, atol=1e-8)


def test_hindsight_best_normal_equations():
    rng = np.random.default_rng(9)
    z_pool = rng.normal(size=(40, 6))
    y_pool = rng.normal(size=40)
    theta, loss = hindsight_best(z_pool, y_pool)
    naive = float(np.sum((z_pool @ theta - y_pool) ** 2))
    assert abs(loss - naive) < 1e-9
    for _ in range(30):
        other = theta + 0.1 * rng.normal(size=6)
        assert np.sum((z_pool @ other - y_pool) ** 2) >= loss


def test_hindsight_best_interpolates_realizable_pool():
    rng = np.random.default_rng(10)
    target = rng.normal(size=5)
    z_pool = rng.normal(size=(30, 5))
    y_pool = z_pool @ target
    theta, loss = hindsight_best(z_pool, y_pool)
    assert loss < 1e-10
    assert np.allclose(theta, target, rtol=0, atol=1e-5)
    with pytest.raises(ValueError):
        hindsight_best(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        hindsight_best(np.zeros(3), np.zeros(3))


def test_exhaustive_search_recovers_generating_kernel():
    cfg = ExperimentConfig(
        task="synthetic",
        algorithms=("dokl",),
        num_learners=4,
        connection_prob=0.6,
        bandwidths=(0.001, 0.1, 10.0),
        kernel_index=0,
        num_features=30,
        rounds=150,
        trials=1,
        master_seed=3,
        synthetic=SyntheticTaskConfig(bandwidth=0.1, noise_std=0.01),
    )
    assert exhaustive_best_kernel(cfg) == 1
