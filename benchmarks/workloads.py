"""The fixed simulator workloads the benchmark runs.

One op is one whole experiment.  Every workload runs T = 800 rounds
with the stock 17-kernel dictionary and D = 2 x 50 features per
kernel; only the seed (the experiment's ``master_seed``) varies
between runs.  The module imports no numpy and no domkl at import
time, so the parent process can read the workload table cheaply and
the workload process can time ``import domkl`` itself.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random

ROUNDS = 800
NUM_FEATURES = 50


class Workload:
    """One workload at one seed; subclasses fill in the experiment."""

    name = None
    trials = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.cfg = None

    @property
    def node_rounds(self):
        """Learner-rounds of one op: K x T x trials x algorithms."""
        return (self.num_learners * ROUNDS * self.trials
                * len(self.algorithms))

    def prepare(self):
        """Write the input files the experiment reads; builds ``cfg``."""
        raise NotImplementedError

    def setup_calls(self):
        """The set-up work a user pays before the first round runs."""
        from domkl import simulator

        for i in range(self.cfg.trials):
            simulator.build_trial_context(self.cfg, i)

    def op(self):
        """Run one experiment through the public API; the timed part."""
        raise NotImplementedError

    def outputs(self, result):
        """The op's curves and regrets as bytes, for bitwise comparison.

        Raises ``FloatingPointError`` when an MSE or CV curve holds a
        non-finite value.
        """
        raise NotImplementedError


def _experiment_bytes(result):
    """Bitwise serialization of every curve and regret of a result."""
    import numpy as np

    parts = []
    for alg in result.algorithms:
        curves = (result.mse_mean[alg], result.mse_std[alg],
                  result.cv_mean[alg], result.cv_std[alg])
        for curve in curves:
            if not np.isfinite(curve).all():
                raise FloatingPointError("non-finite MSE or CV curve for %s"
                                         % alg)
            parts.append(np.ascontiguousarray(curve, dtype="<f8").tobytes())
        parts.append(repr(float(result.final_regret_d[alg])).encode())
        if result.final_regret_a is not None:
            parts.append(repr(float(result.final_regret_a[alg])).encode())
    return b"|".join(parts)


class _ExperimentWorkload(Workload):
    """A workload that calls ``simulator.run_experiment`` directly."""

    def op(self):
        from domkl import simulator

        return simulator.run_experiment(self.cfg)

    def outputs(self, result):
        return _experiment_bytes(result)


class DomklK5(_ExperimentWorkload):
    """domkl, product hedge, 5 learners on an Erdos-Renyi graph, d = 2."""

    name = "domkl_k5"
    num_learners = 5
    algorithms = ("domkl",)

    def prepare(self):
        from domkl import ExperimentConfig, SyntheticTaskConfig

        self.cfg = ExperimentConfig(
            task="synthetic", algorithms=self.algorithms,
            num_learners=self.num_learners, connection_prob=0.5,
            num_features=NUM_FEATURES, rounds=ROUNDS, trials=self.trials,
            master_seed=self.seed, synthetic=SyntheticTaskConfig(),
            hedge_variant="product", workers=1,
        )


def random_tree_edges(num_nodes, seed):
    """Edges of a random labelled spanning tree drawn from ``seed``.

    Node i (in a random order) attaches to a uniformly chosen earlier
    node, so the tree is connected and acyclic by construction.
    """
    rng = random.Random(seed)
    order = list(range(num_nodes))
    rng.shuffle(order)
    return [(order[i], order[rng.randrange(i)]) for i in range(1, num_nodes)]


class DomklK20(_ExperimentWorkload):
    """domkl with message-passing hedge plus dokl, 20 learners on a tree.

    The tree makes message passing exact, so no cycle warning fires.
    """

    name = "domkl_k20"
    num_learners = 20
    algorithms = ("domkl", "dokl")

    def prepare(self):
        from domkl import ExperimentConfig, SyntheticTaskConfig

        path = os.path.join(self.work_dir, "tree.txt")
        with open(path, "w") as handle:
            for k, l in random_tree_edges(self.num_learners, self.seed):
                handle.write("%d %d\n" % (k, l))
        self.cfg = ExperimentConfig(
            task="synthetic", algorithms=self.algorithms,
            num_learners=self.num_learners, topology_path=path,
            num_features=NUM_FEATURES, rounds=ROUNDS, trials=self.trials,
            master_seed=self.seed, synthetic=SyntheticTaskConfig(),
            hedge_variant="message_passing", workers=1,
        )


# 8005 samples embedded with order 5 leave 8000 windows, dealt
# round-robin to 10 learners: T = 800 rounds each.
_CLI_CONFIG = """\
[experiment]
task = timeseries
algorithms = comkl, rff_dokl
trials = 1
seed = {seed}
workers = 1
accuracy_regret = true

[network]
num_nodes = 10
connection_prob = 0.4

[data]
ar_coefficients = 0.5 -0.3 0.15
ar_samples = 8005
ar_order = 5
"""


class CliBaselines(Workload):
    """``domkl run`` on an AR(3) time series with both baselines."""

    name = "cli_baselines"
    num_learners = 10
    algorithms = ("comkl", "rff_dokl")

    def prepare(self):
        self.config_path = os.path.join(self.work_dir, "experiment.ini")
        self.out_dir = os.path.join(self.work_dir, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        with open(self.config_path, "w") as handle:
            handle.write(_CLI_CONFIG.format(seed=self.seed))

    def setup_calls(self):
        from domkl import cli

        self.cfg = cli.load_config(self.config_path)
        super().setup_calls()

    def op(self):
        from domkl import cli

        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["run", "--config", self.config_path,
                             "--out", self.out_dir])
        if code != 0:
            raise RuntimeError("domkl run exited with code %d" % code)
        return printed.getvalue()

    def outputs(self, printed):
        with open(os.path.join(self.out_dir, "results.csv"), "rb") as handle:
            table = handle.read()
        rows = csv.DictReader(io.StringIO(table.decode()))
        for row in rows:
            for column in ("mse_mean", "mse_std", "cv_mean", "cv_std"):
                if not math.isfinite(float(row[column])):
                    raise FloatingPointError("non-finite %s at t=%s"
                                             % (column, row["t"]))
        # The summary lines carry final MSE, CV and regret_a; the first
        # line names the output path and is left out of the digest.
        summary = printed.splitlines()[1:]
        return table + "\n".join(summary).encode()


WORKLOADS = {cls.name: cls for cls in (DomklK5, DomklK20, CliBaselines)}


def digest(outputs):
    return hashlib.sha256(outputs).hexdigest()
