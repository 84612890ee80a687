"""
Watching the kernel weights find the right bandwidth
====================================================

The multi-kernel learner runs all seventeen dictionary kernels in
parallel and mixes them with exponential weights driven by cumulative
per-kernel losses.  Data generated at bandwidth 0.01 (dictionary slot 4)
should pull the weight mass onto that slot and its neighbors.
"""

import numpy as np

from domkl import (
    AdmmConfig,
    ExperimentConfig,
    SyntheticTaskConfig,
    run_trial,
)

cfg = ExperimentConfig(
    task="synthetic",
    algorithms=("domkl",),
    num_learners=5,
    connection_prob=0.5,
    admm=AdmmConfig(rho=10.0, eta_local=10.0),
    eta_global=10.0,
    num_features=50,
    rounds=800,
    master_seed=1,
    synthetic=SyntheticTaskConfig(bandwidth=0.01, noise_std=0.05),
)
result = run_trial(cfg, 0)
trace = result.traces["domkl"]
bandwidths = [m.bandwidth for m in result.context.maps]

# Average the weight vector over the network at a few checkpoints.
print("%8s %10s %10s %22s" % ("round", "top slot", "weight", "bandwidth"))
for t in (1, 25, 100, 300, 800):
    w = trace.weights[t - 1].mean(axis=0)
    top = int(np.argmax(w))
    print("%8d %10d %10.3f %22.6g" % (t, top, w[top], bandwidths[top]))

w_final = trace.weights[-1].mean(axis=0)
mass = w_final[3:6].sum()
print("\nfinal weight mass on slots 3-5 (around the generating kernel): %.3f"
      % mass)
print("full final weight vector:")
for p, (bw, wp) in enumerate(zip(bandwidths, w_final)):
    bar = "#" * int(round(60 * wp))
    print("  slot %2d  bw %10.4g  %.4f %s" % (p, bw, wp, bar))
