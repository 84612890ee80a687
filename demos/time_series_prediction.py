"""
One-step-ahead prediction of an autoregressive series
=====================================================

A synthetic oscillatory AR(2) series is embedded into lagged feature
vectors and dealt round-robin over the network, so each learner sees an
ordered thinning of the same series.  The learners then predict each
next value from its recent past.  Compare the consensus multi-kernel
learner with the single-kernel diffusion baseline, and with the trivial
"predict the previous value" rule evaluated on the same streams; the
sign-flipping dynamics make that persistence rule genuinely bad.
"""

import numpy as np

from domkl import (
    AdmmConfig,
    ArTaskConfig,
    ExperimentConfig,
    mse_curve,
    run_trial,
)

cfg = ExperimentConfig(
    task="timeseries",
    algorithms=("domkl", "rff_dokl"),
    num_learners=4,
    connection_prob=0.6,
    admm=AdmmConfig(rho=10.0, eta_local=10.0),
    eta_global=10.0,
    num_features=40,
    kernel_index=8,
    master_seed=7,
    ar_synth=ArTaskConfig(coefficients=(-0.5, 0.3), intercept=0.2,
                          noise_std=0.05, num_samples=3000, ar_order=5),
)
result = run_trial(cfg, 0)

# Persistence baseline on every learner's stream: guess the most recent
# lag.  Column k of the round-major arrays is learner k's stream.
ctx = result.context
horizon = ctx.horizon
persistence = np.mean((ctx.inputs[:, :, 0] - ctx.labels) ** 2)

print("rounds per learner: %d (order-5 lag features)" % horizon)
print("%12s %14s" % ("predictor", "final MSE"))
for algorithm in cfg.algorithms:
    final = mse_curve(result.traces[algorithm])[-1]
    print("%12s %14.6f" % (algorithm, final))
print("%12s %14.6f" % ("persistence", persistence))
