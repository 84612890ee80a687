"""Fast self-checks of the numerical invariants the solvers rely on.

Each check returns ``(name, passed, detail)``.  The suite is meant to
finish in seconds and to be run after any change that touches the
update rules, the feature maps, or the broadcast protocol.
"""

from __future__ import annotations

import numpy as np

from .features import build_feature_map, build_maps
from .graph import Graph, sample_connected_er
from .hedge import combine_weights
from .learners import NetworkState, step
from .oracle import JointStepProblem, joint_round
from .simulator import AdmmConfig, ExperimentConfig, run_trial


def check_feature_norm():
    """Random feature vectors sit on the unit sphere."""
    rng = np.random.default_rng(7)
    fmap = build_feature_map(0.1, input_dim=5, num_features=40,
                             seed=11)
    xs = rng.standard_normal((10_000, 5))
    z = fmap.map(xs)
    worst = float(np.abs((z * z).sum(axis=-1) - 1.0).max())
    return ("feature_norm", worst <= 1e-12, "max |norm^2 - 1| = %.3e" % worst)


def check_hedge_simplex():
    """Combined kernel weights form a probability vector."""
    rng = np.random.default_rng(19)
    worst = 0.0
    for trial in range(200):
        scale = 10.0 ** rng.uniform(0.0, 4.0)
        own = rng.gamma(1.0, scale, size=17)
        neighbors = [rng.gamma(1.0, scale, size=17) for _ in range(3)]
        q = combine_weights(own, neighbors, eta_global=10.0)
        if (q < 0.0).any():
            return ("hedge_simplex", False, "negative weight at trial %d" % trial)
        worst = max(worst, abs(float(q.sum()) - 1.0))
    return ("hedge_simplex", worst <= 1e-12, "max |sum - 1| = %.3e" % worst)


def check_lambda_sum(rounds=200):
    """Network-wide multiplier sums stay at zero as rounds accumulate."""
    rng = np.random.default_rng(23)
    graph = sample_connected_er(5, 0.5, seed=3)
    maps = build_maps((0.01, 0.1, 1.0), 2, 20, shared_seed=5)
    net = NetworkState(graph, maps, 10.0)
    cfg = AdmmConfig()
    worst = 0.0
    ok = True
    for t in range(rounds):
        for k in range(5):
            sample = (rng.standard_normal(2), float(rng.standard_normal()))
            step(net, k, sample, cfg)
        net.end_round()
        total = np.add.reduce(net.lams)
        drift = float(np.abs(total).max())
        worst = max(worst, drift / (t + 1))
        ok = ok and drift <= 1e-9 * (t + 1)
    return ("lambda_sum", ok, "max drift per round = %.3e" % worst)


def check_dual_antisymmetry():
    """Reference edge duals are exact negations of each other."""
    rng = np.random.default_rng(31)
    graph = Graph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    problem = JointStepProblem.initial(graph, dim=6, rho=100.0, eta_local=10.0)
    for _ in range(5):
        z = rng.standard_normal((4, 6))
        z /= np.sqrt((z * z).sum(axis=-1, keepdims=True))
        y = rng.standard_normal(4)
        problem = joint_round(problem, z, y)
        for k, l in graph.edges:
            if not np.array_equal(problem.duals[(k, l)], -problem.duals[(l, k)]):
                return ("dual_antisymmetry", False,
                        "edge (%d, %d) broke exact antisymmetry" % (k, l))
    return ("dual_antisymmetry", True, "exact over 5 rounds, 4 edges")


def _p1_config():
    return ExperimentConfig(
        task="synthetic",
        algorithms=("domkl", "dokl"),
        num_learners=5,
        connection_prob=0.5,
        bandwidths=(0.1,),
        kernel_index=0,
        num_features=25,
        rounds=50,
        master_seed=4,
    )


def check_single_kernel_reduction():
    """With one dictionary entry the multi-kernel run is the single-kernel run."""
    result = run_trial(_p1_config(), 0)
    a = result.traces["domkl"]
    b = result.traces["dokl"]
    same = (np.array_equal(a.predictions, b.predictions)
            and np.array_equal(a.per_kernel_losses, b.per_kernel_losses)
            and np.array_equal(a.cross_predictions, b.cross_predictions)
            and np.array_equal(a.weights, b.weights))
    return ("single_kernel_reduction", same,
            "bitwise over %d rounds" % a.num_rounds)


def check_determinism():
    """Two runs of the same trial are bitwise identical."""
    cfg = ExperimentConfig(
        task="synthetic",
        algorithms=("domkl",),
        num_learners=5,
        connection_prob=0.5,
        bandwidths=(0.01, 0.1, 1.0),
        kernel_index=0,
        num_features=25,
        rounds=40,
        master_seed=9,
    )
    first = run_trial(cfg, 0).traces["domkl"]
    second = run_trial(cfg, 0).traces["domkl"]
    same = (np.array_equal(first.predictions, second.predictions)
            and np.array_equal(first.weights, second.weights)
            and np.array_equal(first.cross_predictions, second.cross_predictions)
            and first.graph == second.graph)
    return ("determinism", same, "bitwise over %d rounds" % first.num_rounds)


def check_joint_equivalence():
    """One-map learner rounds track the monolithic reference solver."""
    rng = np.random.default_rng(41)
    graph = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    fmap = build_feature_map(0.5, input_dim=2, num_features=2,
                             seed=13)
    features = rng.standard_normal((20, 3, 2))
    labels = rng.standard_normal((20, 3))
    cfg = AdmmConfig(rho=50.0, eta_local=5.0)
    net = NetworkState(graph, (fmap,), 10.0)
    problem = JointStepProblem.initial(graph, dim=4, rho=50.0, eta_local=5.0)
    gap = 0.0
    for t in range(20):
        for k in range(3):
            step(net, k, (features[t, k], labels[t, k]), cfg)
        net.end_round()
        # step t finalizes the duals of round t-1, the oracle's current ones.
        duals = np.stack([problem.aggregated_dual(k) for k in range(3)])
        z = np.stack([fmap.map(features[t, k]) for k in range(3)])
        problem = joint_round(problem, z, labels[t])
        gap = max(gap, float(np.abs(duals - net.lams[:, 0]).max()),
                  float(np.abs(problem.prev_thetas - net.thetas[:, 0]).max()))
    return ("joint_equivalence", gap <= 1e-6,
            "max theta and dual gap over 20 rounds = %.3e" % gap)


CHECKS = (
    check_feature_norm,
    check_hedge_simplex,
    check_lambda_sum,
    check_dual_antisymmetry,
    check_single_kernel_reduction,
    check_determinism,
    check_joint_equivalence,
)


def run_all():
    """Run every check and return the (name, passed, detail) triples."""
    return [check() for check in CHECKS]
