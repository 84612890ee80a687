"""
How many random features does a Gaussian kernel need?
=====================================================

The feature map approximates the kernel through a Monte Carlo average,
so the pointwise error should shrink like 1/sqrt(M).  This script
measures the worst and mean absolute error between z(x)'z(y) and the
exact kernel over random pairs in the unit box, for growing M.
"""

import os

import numpy as np

from domkl import build_feature_map, gaussian_kernel

bandwidth = 1.0
rng = np.random.default_rng(5)
pairs = [(rng.random(5), rng.random(5)) for _ in range(200)]
exact = np.array([gaussian_kernel(bandwidth, x, y) for x, y in pairs])

print("%8s %12s %12s" % ("M", "max |err|", "mean |err|"))
sizes = (10, 50, 200, 1000, 2000, 8000)
curves = []
for num_features in sizes:
    fmap = build_feature_map(bandwidth, input_dim=5,
                             num_features=num_features, seed=123)
    approx = np.array([float(fmap.map(x) @ fmap.map(y)) for x, y in pairs])
    err = np.abs(approx - exact)
    curves.append((err.max(), err.mean()))
    print("%8d %12.5f %12.5f" % (num_features, err.max(), err.mean()))

# The error should drop roughly threefold per decade of M.
first, last = curves[0][1], curves[-1][1]
print("\nmean error shrank %.1fx from M=%d to M=%d (1/sqrt ratio %.1fx)"
      % (first / last, sizes[0], sizes[-1], np.sqrt(sizes[-1] / sizes[0])))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, ax = plt.subplots()
    ax.loglog(sizes, [c[0] for c in curves], "o-", label="max |err|")
    ax.loglog(sizes, [c[1] for c in curves], "s-", label="mean |err|")
    ax.loglog(sizes, 1.0 / np.sqrt(sizes), "k--", label="1/sqrt(M)")
    ax.set_xlabel("number of random features M")
    ax.set_ylabel("kernel approximation error")
    ax.legend()
    out = os.path.join(os.path.dirname(__file__), "random_feature_quality.png")
    fig.savefig(out, dpi=120)
    print("wrote %s" % out)
