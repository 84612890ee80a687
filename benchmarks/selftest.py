"""Self-tests of the benchmark: exact trace counts and clean removal.

Run from the root of a checkout:

    python3 benchmarks/selftest.py

Each workload runs one traced op in this process.  The test checks the
call counts the round loop must produce, that spans only appear on the
workloads that reach them, that every patched attribute is the
original object again afterwards, and that ``run.py`` prints exactly
the metrics ``BENCHMARK.json`` lists.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from workloads import ROUNDS, WORKLOADS  # noqa: E402

SEED = 3
FAILURES = []


def check(condition, message):
    print("%s %s" % ("PASS" if condition else "FAIL", message))
    if not condition:
        FAILURES.append(message)


def traced_op(name):
    """Spans and the workload of one traced op; checks the un-patching."""
    work_dir = os.path.join(ROOT, ".bench_out", "selftest-" + name)
    os.makedirs(work_dir, exist_ok=True)
    workload = WORKLOADS[name](SEED, work_dir)
    workload.prepare()
    before = tracing.snapshot()
    recorder = tracing.Recorder()
    op = recorder.wrap(workload.op, tracing.ROOT)
    recorder.install()
    try:
        workload.outputs(op())
    finally:
        recorder.remove()
    left = tracing.changed_points(before)
    check(not left, "%s: every patch point restored %s" % (name, left or ""))
    return recorder.arrays(), workload


def span_count(spans, prefix):
    names = [str(n) for n in spans["names"]]
    ids = [i for i, n in enumerate(names) if n.startswith(prefix)]
    return int(sum((spans["name_id"] == i).sum() for i in ids))


def check_domkl_k5():
    spans, workload = traced_op("domkl_k5")
    rounds = workload.node_rounds
    maps = tracing.ancestor_counts(
        spans, "features.map",
        ("simulator.run.domkl", "simulator.build_trial_context"))
    check(maps == {"simulator.run.domkl": 34 * rounds,
                   "simulator.build_trial_context": workload.trials},
          "domkl_k5: 34 map calls per node-round in the round loop and one "
          "per trial in set-up, got %s for %d node-rounds" % (maps, rounds))
    check(span_count(spans, "learners.step") == rounds,
          "domkl_k5: one step call per node-round")
    check(span_count(spans, "hedge.mp_") == 0,
          "domkl_k5: no hedge.mp_* spans")


def check_domkl_k20():
    spans, workload = traced_op("domkl_k20")
    per_algorithm = workload.num_learners * ROUNDS * workload.trials
    maps = tracing.ancestor_counts(
        spans, "features.map", ("simulator.run.domkl", "simulator.run.dokl"))
    check(maps.get("simulator.run.dokl") == 2 * per_algorithm,
          "domkl_k20: dokl makes 2 map calls per node-round, got %s for %d"
          % (maps.get("simulator.run.dokl"), per_algorithm))
    check(maps.get("simulator.run.domkl") == 34 * per_algorithm,
          "domkl_k20: domkl makes 34 map calls per node-round")
    check(span_count(spans, "hedge.mp_update") == ROUNDS * workload.trials
          and span_count(spans, "hedge.mp_combine") == per_algorithm,
          "domkl_k20: one mp_update per round, one mp_combine per node-round")
    check(span_count(spans, "graph.generate_er") == 0,
          "domkl_k20: the tree is read, not sampled")


def check_cli_baselines():
    spans, _ = traced_op("cli_baselines")
    for layer in ("learners.", "admm.", "hedge."):
        check(span_count(spans, layer) == 0,
              "cli_baselines: zero calls into %s*" % layer)
    for layer in ("baselines.comkl_step", "baselines.rff_dokl_step",
                  "oracle.hindsight", "cli.load_config", "cli.write_results"):
        check(span_count(spans, layer) > 0, "cli_baselines: reaches %s" % layer)
    check(span_count(spans, "hedge.mp_") == 0,
          "cli_baselines: no hedge.mp_* spans")
    rows = spans["map_rows"]
    check(float(sorted(rows)[len(rows) // 2]) == 10,
          "cli_baselines: median map call is batched, 10 rows")


def check_run_output(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "domkl_k5", "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(done.returncode == 0 and sorted(result) ==
          ["attempted", "correct", "failed", "metrics"]
          and result["correct"] and result["failed"] == 0,
          "run.py --trace %d exits 0 with a correct result" % trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == wanted, "run.py --trace %d prints exactly the listed "
          "metrics with their units" % trace)


def main():
    check_domkl_k5()
    check_domkl_k20()
    check_cli_baselines()
    check_run_output(0)
    check_run_output(1)
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
