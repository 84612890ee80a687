"""The workload process: one fresh interpreter per set-up probe or run.

``run.py`` starts this script with BLAS pinned to one thread and
``PYTHONPATH`` pointing at the checkout's ``src``.  It prints one JSON
object as its last line of output.

Modes:
  setup  time ``import domkl`` and the workload's set-up calls once,
         then the reference loop;
  ops    run one untimed warm-up op, then timed ops while another one
         fits in ``--seconds``, sampling the machine's speed during
         each; with ``--trace 1`` traced and untraced ops alternate
         instead and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS, digest


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "ops"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", default=None)
    return parser.parse_args(argv)


def _import_domkl(src):
    start = time.perf_counter()
    import domkl
    elapsed = time.perf_counter() - start
    origin = os.path.dirname(os.path.dirname(os.path.abspath(domkl.__file__)))
    if origin != os.path.abspath(src):
        raise ImportError("domkl imported from %s, not %s" % (origin, src))
    return elapsed


def _setup(args):
    """Time ``import domkl`` plus the workload's set-up calls."""
    import_s = _import_domkl(args.src)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    workload.prepare()  # writes the benchmark's input files; not timed
    start = time.perf_counter()
    workload.setup_calls()
    setup_s = import_s + time.perf_counter() - start
    iterations = 5000
    return {"setup_s": setup_s,
            "reference_s": _ReferenceLoop().seconds(iterations) / iterations}


class _Checker:
    """Counts failed ops: raised, non-finite, or not bitwise the first."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, workload, op):
        """Run ``op`` once and return its wall time; check its outputs."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except Exception:
            self.fail(traceback.format_exc(limit=4))
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            outputs = workload.outputs(result)
        except FloatingPointError as exc:
            self.fail("op %d: %s" % (self.attempted, exc))
            return elapsed
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.fail("op %d outputs differ from the first op"
                      % self.attempted)
        return elapsed

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


class _ReferenceLoop:
    """A fixed loop of interpreter work and small-array numpy calls.

    It mixes the same kinds of work as a simulator round, so a slow
    spell of a shared machine slows it by about as much as the
    simulator.  ``run.py`` scales op and set-up times by its speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20210225)
        self._np = np
        self._freqs = rng.standard_normal((50, 2))
        self._inputs = rng.random((64, 2))
        self._theta = rng.standard_normal(100)

    def seconds(self, iterations):
        """Wall time of ``iterations`` iterations."""
        np = self._np
        total = 0.0
        start = time.perf_counter()
        for i in range(iterations):
            projected = self._inputs[i & 63] @ self._freqs.T
            z = np.concatenate([np.sin(projected), np.cos(projected)]) * 0.1
            total += float((self._theta * z).sum())
            sorted((j * 7) % 11 for j in range(8))
        return time.perf_counter() - start


class _SpeedSampler:
    """Gauges the machine's speed while an op runs.

    A shared machine runs the same op up to twice as slowly in some
    spells as in others.  Every ``INTERVAL_S`` of an op a timer signal
    runs ``ITERATIONS`` of the reference loop and keeps its time per
    iteration, so the op's own time (its wall time minus the sampling)
    can be set against the machine's speed during that very op.
    Python runs the handler between bytecodes of the main thread, so
    an op's results are unchanged.
    """

    INTERVAL_S = 0.1
    ITERATIONS = 250

    def __init__(self):
        self._loop = _ReferenceLoop()
        self.samples = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        elapsed = self._loop.seconds(self.ITERATIONS)
        self.samples.append(elapsed / self.ITERATIONS)
        self.spent_s += elapsed

    def __enter__(self):
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()
        return False


def _timed_rounds(seconds, *ops):
    """Call each op in turn, round after round, while another round fits.

    Returns one list of op times per op.
    """
    times = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        for op, op_times in zip(ops, times):
            op_times.append(op())
        elapsed = time.perf_counter() - start
        if elapsed + sum(statistics.median(t) for t in times) > seconds:
            return times


def _ops(args):
    _import_domkl(args.src)
    import tracing

    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    workload.prepare()
    checker = _Checker()
    checker.run(workload, workload.op)  # warm-up; its outputs are the reference
    out = {"node_rounds": workload.node_rounds}

    if not args.trace:
        sampler = _SpeedSampler()
        speeds = []

        def sampled_op():
            with sampler:
                return workload.op()

        def sampled():
            elapsed = checker.run(workload, sampled_op)
            speeds.append(statistics.fmean(sampler.samples))
            return elapsed - sampler.spent_s

        out["op_times_s"], = _timed_rounds(args.seconds, sampled)
        out["reference_s"] = speeds
    else:
        # Traced and untraced ops alternate, so a slow spell of the
        # machine lands on both sides of trace.overhead_frac.
        before = tracing.snapshot()
        recorder = tracing.Recorder()
        traced_op = recorder.wrap(workload.op, tracing.ROOT)

        def untraced():
            return checker.run(workload, workload.op)

        def traced():
            recorder.install()
            try:
                return checker.run(workload, traced_op)
            finally:
                recorder.remove()

        times, traced_times = _timed_rounds(args.seconds, untraced, traced)
        left_patched = tracing.changed_points(before)
        if left_patched:
            checker.fail("still patched: %s" % ", ".join(left_patched))
        layers = tracing.layer_metrics(recorder.arrays(), workload.node_rounds,
                                       len(traced_times), recorder.trace_bytes)
        layers["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(times) - 1.0,
            "ratio")
        out.update(op_times_s=times, traced_op_times_s=traced_times,
                   layers=layers)
        if args.spans:
            recorder.write(args.spans)
    out.update(max_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               attempted=checker.attempted, failed=checker.failed,
               errors=checker.errors,
               curves_sha256=digest(checker.reference)
               if checker.reference is not None else None,
               environment=_environment(args.seed))
    return out


def _environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None):
    args = _parse_args(argv)
    result = _setup(args) if args.mode == "setup" else _ops(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
