"""Benchmark of the domkl simulator: microseconds per node-round.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload domkl_k5 --seed 0 --seconds 30 --trace 0

A node-round is one learner doing one round.  Each workload runs in a
fresh interpreter with BLAS pinned to one thread; one client runs one
whole experiment (an op) at a time, the next only after the last ends.

``--trace 0`` prints the end-to-end metrics: the median op time per
node-round scaled to a reference machine speed measured during each op
(``ref_us_per_node_round``; the unscaled median is printed as
``us_per_node_round``), the set-up time (median of several fresh
processes, scaled the same way), and the peak resident memory of the
workload process.
``--trace 1`` prints the per-layer metrics of a traced run instead and
writes its spans to ``.bench_out/``.  The last line of output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_PROBES = 8
DEADLINE_S = 170.0
# Op and set-up times are scaled to a machine on which one iteration
# of the reference loop (worker.py, _ReferenceLoop) takes this long.
REFERENCE_NOMINAL_S = 10e-6
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("DOMKL_WORKERS", None)
    return env


def _run_worker(args, mode, work_dir, deadline, spans=None):
    """Run worker.py to completion and return its JSON result."""
    command = [sys.executable, WORKER, "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--src", SRC]
    if spans:
        command += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the %s process" % mode)
    done = subprocess.run(command, env=_child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError("%s process exited with code %d"
                           % (mode, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    work_dir = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
    os.makedirs(work_dir, exist_ok=True)
    setups = []

    def probe_setup(count):
        for _ in range(count):
            probe = _run_worker(args, "setup", work_dir, deadline)
            setups.append((probe["setup_s"], probe["reference_s"]))

    # Set-up probes go half before and half after the ops, so they see
    # two different spells of a shared machine.
    if not args.trace:
        probe_setup(SETUP_PROBES // 2)
    # One span file per workload, overwritten by the next traced run.
    spans = (os.path.join(OUT, "spans-%s.npz" % args.workload)
             if args.trace else None)
    run = _run_worker(args, "ops", work_dir, deadline, spans)
    if not args.trace:
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    for key, value in run["environment"].items():
        print("env %s: %s" % (key, value))
    for error in run["errors"]:
        print("op failed: %s" % error, file=sys.stderr)
    times = run["op_times_s"]
    wall_us = 1e6 * statistics.median(times) / run["node_rounds"]
    print("%s: %d timed ops of %d node-rounds, %d attempted, %d failed, "
          "error_rate %.4f (ratio)"
          % (args.workload, len(times), run["node_rounds"], run["attempted"],
             run["failed"], run["failed"] / run["attempted"]))
    print("op_times_s %s" % " ".join("%.4f" % t for t in times))
    print("curves_sha256 %s seed=%d %s"
          % (args.workload, args.seed, run["curves_sha256"]))
    print("us_per_node_round %s (us)" % wall_us)
    if args.trace:
        metrics = {name: _metric(value, unit)
                   for name, (value, unit) in sorted(run["layers"].items())}
        print("traced ops %d, spans %s"
              % (len(run["traced_op_times_s"]), os.path.relpath(spans, ROOT)))
    else:
        refs = run["reference_s"]
        print("reference_us_per_iteration %s"
              % " ".join("%.3f" % (1e6 * ref) for ref in refs))
        ref_us = (1e6 * REFERENCE_NOMINAL_S / run["node_rounds"]
                  * statistics.median(t / ref for t, ref in zip(times, refs)))
        print("unscaled setup_s %s (s)"
              % statistics.median(t for t, _ in setups))
        setup_s = REFERENCE_NOMINAL_S * statistics.median(
            t / ref for t, ref in setups)
        metrics = {
            "ref_us_per_node_round": _metric(ref_us, "us"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(run["max_rss_kb"] / 1024.0, "MB"),
        }
    for name, metric in metrics.items():
        print("%s %s (%s)" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": metrics}))


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "domkl", "__init__.py")):
        print("no domkl sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        measure(args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, KeyError) as exc:
        print("benchmark failed: %s" % (exc,), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
