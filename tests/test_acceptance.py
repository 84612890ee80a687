"""End-to-end acceptance checks.

Each test exercises one headline behavior of the package at a stated
tolerance and prints a single PASS/FAIL summary line.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines directly.
"""

import dataclasses
import time

import numpy as np
import pytest

from domkl.admm import (
    AdmmConfig,
    gamma_hat,
    lambda_update,
    theta_update_quadratic,
)
from domkl.features import KernelSpec, build_feature_map, gaussian_kernel
from domkl.graph import Graph
from domkl.hedge import mp_combine_weights
from domkl.metrics import cv_curve, kernel_mse_curves, mse_curve
from domkl.oracle import JointStepProblem, joint_round
from domkl.simulator import (
    ExperimentConfig,
    SyntheticTaskConfig,
    _pooled_pass,
    run_experiment,
    run_trial,
)
from domkl.metrics import regret_accuracy, regret_discrepancy
from domkl import validate


def truncate_trace(trace, rounds):
    """The first ``rounds`` rounds of a trace."""
    return dataclasses.replace(trace, **{
        name: getattr(trace, name)[:rounds] for name in (
            "predictions", "labels", "per_kernel_losses",
            "cross_predictions", "weights")})


def accuracy_regret_for_trace(ctx, cfg, trace):
    """Per-learner regret of a single-kernel trace over its rounds, by the
    path that ``run_trial`` runs: ``_pooled_pass`` over the trial's first
    rounds, whose fit of ``kernel_index`` is the comparator."""
    rounds = trace.num_rounds
    prefix = dataclasses.replace(ctx, inputs=ctx.inputs[:rounds],
                                 labels=ctx.labels[:rounds])
    _, at_index = _pooled_pass(
        prefix, dataclasses.replace(cfg, compute_accuracy_regret=True))
    return regret_accuracy(trace, at_index)


def _report(ok, label, detail):
    print("%s %-34s %s" % ("PASS" if ok else "FAIL", label, detail))
    return ok


# ----------------------------------------------------------------------
# 1. Per-round agreement between the distributed parameter updates and
#    the dense network-wide solve, on small graphs.

def test_distributed_updates_match_dense_joint_solve():
    started = time.perf_counter()
    graphs = {
        "path3": Graph(3, ((0, 1), (1, 2))),
        "star4": Graph(4, ((0, 1), (0, 2), (0, 3))),
        "triangle": Graph(3, ((0, 1), (1, 2), (0, 2))),
    }
    cfg = AdmmConfig(rho=7.0, eta_local=3.0)
    worst = 0.0
    for case, (name, graph) in enumerate(graphs.items()):
        for num_features in (1, 2):
            rng = np.random.default_rng(10 * case + num_features)
            fmap = build_feature_map(KernelSpec(0.5), 2, num_features,
                                     seed=num_features)
            num_nodes = graph.num_nodes
            dim = 2 * num_features
            thetas = np.zeros((num_nodes, dim))
            lams = np.zeros((num_nodes, dim))
            problem = JointStepProblem.initial(graph, dim, 7.0, 3.0)
            for _ in range(100):
                x = rng.random((num_nodes, 2))
                y = rng.normal(size=num_nodes)
                z = np.stack([fmap.map(x[k]) for k in range(num_nodes)])
                new_thetas = np.empty_like(thetas)
                for k in range(num_nodes):
                    nbrs = graph.neighbors[k]
                    gam = gamma_hat(thetas[k], [thetas[l] for l in nbrs])
                    new_thetas[k] = theta_update_quadratic(
                        thetas[k], lams[k], z[k], y[k], gam, len(nbrs), cfg
                    )
                for k in range(num_nodes):
                    nbrs = graph.neighbors[k]
                    lams[k] = lambda_update(
                        lams[k], new_thetas[k],
                        [new_thetas[l] for l in nbrs], cfg.rho,
                    )
                thetas = new_thetas
                problem = joint_round(problem, z, y)
                gap = np.abs(thetas - problem.prev_thetas).max()
                worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 5.0
    assert _report(ok, "distributed-vs-joint",
                   "max gap %.2e (tol 1e-6), %.1f s (< 5 s)" % (worst, elapsed))


# ----------------------------------------------------------------------
# 2 and 3 share one long single-kernel consensus run.

@pytest.fixture(scope="module")
def consensus_run():
    cfg = ExperimentConfig(
        task="synthetic",
        algorithms=("dokl",),
        num_learners=5,
        connection_prob=0.5,
        admm=AdmmConfig(rho=100.0, eta_local=100.0),
        num_features=50,
        kernel_index=8,
        rounds=8000,
        trials=1,
        master_seed=11,
        synthetic=SyntheticTaskConfig(bandwidth=1.0, noise_std=0.05),
    )
    started = time.perf_counter()
    result = run_trial(cfg, 0)
    elapsed = time.perf_counter() - started
    return cfg, result, elapsed


def test_accuracy_regret_grows_sublinearly(consensus_run):
    cfg, result, run_seconds = consensus_run
    started = time.perf_counter()
    trace = result.traces["dokl"]
    horizons = (500, 2000, 8000)
    regrets = {}
    for horizon in horizons:
        short = truncate_trace(trace, horizon)
        regrets[horizon] = accuracy_regret_for_trace(result.context, cfg,
                                                     short)
    ok = True
    for k in range(cfg.num_learners):
        r = [regrets[h][k] for h in horizons]
        ok &= r[0] > 0.0
        ok &= r[1] <= 2.5 * r[0] and r[2] <= 2.5 * r[1]
        ok &= r[0] / 500 > r[1] / 2000 > r[2] / 8000
    elapsed = run_seconds + (time.perf_counter() - started)
    ok = ok and elapsed < 120.0
    worst = max(
        max(regrets[2000][k] / regrets[500][k],
            regrets[8000][k] / regrets[2000][k])
        for k in range(cfg.num_learners)
    )
    assert _report(ok, "accuracy-regret-sublinear",
                   "worst 4T/T ratio %.2f (<= 2.5), %.1f s (< 120 s)"
                   % (worst, elapsed))


def test_discrepancy_regret_decays_and_consensus_tightens(consensus_run):
    cfg, result, _ = consensus_run
    trace = result.traces["dokl"]
    horizons = (500, 2000, 8000)
    rates = {}
    for horizon in horizons:
        short = truncate_trace(trace, horizon)
        rates[horizon] = regret_discrepancy(short) / horizon
    ok = True
    for k in range(cfg.num_learners):
        ok &= rates[500][k] > rates[2000][k] > rates[8000][k]
    final_cv = cv_curve(trace)[-1]
    ok &= final_cv <= 1e-2
    assert _report(ok, "discrepancy-regret-decays",
                   "per-round rate falls at every learner, CV(8000)=%.1e (<= 1e-2)"
                   % final_cv)


# ----------------------------------------------------------------------
# 4. Stronger coupling tightens consensus: final CV strictly decreasing
#    over rho in {10, 100, 1000} (mean of 20 trials).

@pytest.mark.slow
def test_final_consensus_violation_decreases_in_rho():
    finals = []
    for rho in (10.0, 100.0, 1000.0):
        cfg = ExperimentConfig(
            task="synthetic",
            algorithms=("domkl",),
            num_learners=5,
            connection_prob=0.5,
            admm=AdmmConfig(rho=rho, eta_local=10.0),
            eta_global=10.0,
            num_features=50,
            rounds=250,
            trials=20,
            master_seed=0,
            synthetic=SyntheticTaskConfig(),
        )
        result = run_experiment(cfg)
        finals.append(float(result.cv_mean["domkl"][-1]))
    ok = finals[0] > finals[1] > finals[2]
    assert _report(ok, "cv-decreases-in-rho",
                   "mean final CV %.1e > %.1e > %.1e" % tuple(finals))


# ----------------------------------------------------------------------
# 5. With data generated by dictionary kernel sigma^2 = 1e-2, the
#    exhaustive single-kernel search recovers that kernel, and the
#    multi-kernel learner matches the best single-kernel run.  The
#    single-kernel runs are read from the multi-kernel run's per-kernel
#    curves, which test_oracle pins bitwise to separate dokl runs.

@pytest.mark.slow
def test_best_kernel_recovery_and_multikernel_match():
    matching_slot = 4  # bandwidth 1e-2 in the default 17-kernel ladder
    seeds = range(20)
    recovery_hits = 0
    match_hits = 0
    for seed in seeds:
        cfg = ExperimentConfig(
            task="synthetic",
            algorithms=("domkl",),
            num_learners=5,
            connection_prob=0.5,
            admm=AdmmConfig(rho=10.0, eta_local=10.0),
            eta_global=10.0,
            num_features=50,
            kernel_index=0,
            rounds=800,
            trials=1,
            master_seed=seed,
            synthetic=SyntheticTaskConfig(bandwidth=0.01, noise_std=0.05),
        )
        multi_trace = run_trial(cfg, 0).traces["domkl"]
        kernel_finals = kernel_mse_curves(multi_trace)[-1]
        best = int(np.argmin(kernel_finals))
        recovery_hits += best == matching_slot
        multi_final = mse_curve(multi_trace)[-1]
        match_hits += multi_final <= 1.10 * kernel_finals[best]
    ok = recovery_hits >= 18 and match_hits >= 18
    assert _report(ok, "best-kernel-recovery",
                   "recovered %d/20 (>= 18), matched %d/20 (>= 18)"
                   % (recovery_hits, match_hits))


# ----------------------------------------------------------------------
# 6. Performance barely moves with network size under weak coupling;
#    consensus tightens as the network grows.

@pytest.mark.slow
def test_performance_stable_across_network_sizes():
    mse_finals = []
    cv_finals = []
    for num_learners in (5, 10, 20):
        cfg = ExperimentConfig(
            task="synthetic",
            algorithms=("domkl",),
            num_learners=num_learners,
            connection_prob=0.5,
            admm=AdmmConfig(rho=1.0, eta_local=10.0),
            eta_global=10.0,
            num_features=50,
            rounds=800,
            trials=5,
            master_seed=0,
            synthetic=SyntheticTaskConfig(bandwidth=1.0, noise_std=0.05),
        )
        result = run_experiment(cfg)
        mse_finals.append(float(result.mse_mean["domkl"][-1]))
        cv_finals.append(float(result.cv_mean["domkl"][-1]))
    ratio = max(mse_finals) / min(mse_finals)
    ok = ratio <= 1.25
    ok &= cv_finals[0] >= cv_finals[1] >= cv_finals[2]
    assert _report(ok, "network-size-robustness",
                   "MSE max/min %.3f (<= 1.25), CV %.1e >= %.1e >= %.1e"
                   % (ratio, cv_finals[0], cv_finals[1], cv_finals[2]))


# ----------------------------------------------------------------------
# 7. The built-in invariant suite passes, fast.

def test_invariant_suite_passes_quickly():
    started = time.perf_counter()
    results = validate.run_all()
    elapsed = time.perf_counter() - started
    failures = [name for name, passed, _ in results if not passed]
    ok = not failures and elapsed < 10.0
    assert _report(ok, "invariant-suite",
                   "%d/%d checks pass, %.1f s (< 10 s)"
                   % (len(results) - len(failures), len(results), elapsed))


# ----------------------------------------------------------------------
# 8. A wide random feature map reproduces the Gaussian kernel pointwise.

def test_feature_map_approximates_gaussian_kernel():
    spec = KernelSpec(1.0)
    fmap = build_feature_map(spec, input_dim=5, num_features=2000, seed=123)
    rng = np.random.default_rng(5)
    errors = np.empty(100)
    for i in range(100):
        x, y = rng.random(5), rng.random(5)
        approx = float(fmap.map(x) @ fmap.map(y))
        errors[i] = abs(approx - gaussian_kernel(spec, x, y))
    ok = errors.max() <= 0.05 and errors.mean() <= 0.02
    assert _report(ok, "feature-map-fidelity",
                   "max err %.3f (<= 0.05), mean %.4f (<= 0.02)"
                   % (errors.max(), errors.mean()))


# ----------------------------------------------------------------------
# 9. Exponential weighting over fixed random experts accrues regret
#    sublinearly: quadrupling the horizon cannot 2.5x the regret.

def test_hedge_regret_grows_sublinearly():
    rng = np.random.default_rng(77)
    means = 0.2 + 0.6 * rng.random(8)
    eta_global = 10.0
    cumulative = np.zeros(8)
    hedge_loss = 0.0
    checkpoints = {}
    for t in range(1, 8001):
        weights = mp_combine_weights(-cumulative / eta_global, [])
        losses = (rng.random(8) < means).astype(np.float64)
        hedge_loss += float(weights @ losses)
        cumulative += losses
        if t in (2000, 8000):
            checkpoints[t] = hedge_loss - cumulative.min()
    ratio = checkpoints[8000] / checkpoints[2000]
    ok = checkpoints[2000] > 0.0 and ratio <= 2.5
    assert _report(ok, "hedge-regret-sublinear",
                   "regret %.1f -> %.1f, ratio %.2f (<= 2.5)"
                   % (checkpoints[2000], checkpoints[8000], ratio))
