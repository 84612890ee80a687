"""Config-driven experiment runner.

Subcommands:

``run --config PATH [--seed N] [--out DIR] [--trials N]``
    Run the configured experiment, write ``results.csv`` (one row per
    algorithm and round), print final metrics per algorithm.

``sweep --config PATH --rho LIST --eta-g LIST [--out DIR]``
    Re-run the experiment over a parameter grid and write ``sweep.csv``
    with the final metrics of every cell.

``validate``
    Run the fast invariant suite and print one pass/fail line per check.

Config files are INI text.  ``_KEYS`` lists every section and key, the
config field each key sets and who reads it; a key left out keeps the
field's dataclass default.  These are config errors, so a typo cannot
silently fall back to a default:

- an unknown section or key, or a value that does not parse;
- a non-finite float, in a float key or in a list of floats;
- a key that the run never reads, because its task's data source and
  the selected algorithms are not among its readers.  ``[experiment]``
  and ``[network]`` are read by every run and exempt from this rule;
- a ``[data] path`` or ``[network] topology`` file that cannot be read or
  parsed: ``load_config`` opens only the INI file, and ``run`` and
  ``sweep`` read those files once, before the first trial.

Exit codes: 0 success, 1 runtime failure or failed invariant,
2 config error.  Float cells are written with ``repr`` so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from dataclasses import replace

from .admm import AdmmConfig
from .errors import ConfigError
from .simulator import (
    ALGORITHMS,
    READERS,
    TASKS,
    ArTaskConfig,
    CsvTaskConfig,
    ExperimentConfig,
    SyntheticTaskConfig,
    run_experiment,
    sweep,
)
from . import validate as validate_mod

_BOOLEAN = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}


def _parse_bool(text):
    try:
        return _BOOLEAN[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean: %r" % (text,))


def _parse_names(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number: %r" % (text.strip(),))
    return value


def _parse_floats(text):
    return tuple(_parse_float(tok) for tok in text.replace(",", " ").split())


# Each task's data source: the ExperimentConfig field that holds its data
# config, the config's class, and the field whose key must be present for
# the config to be built (None: always built).
_SOURCES = {
    "synthetic": ("synthetic", SyntheticTaskConfig, None),
    "regression": ("csv_data", CsvTaskConfig, "path"),
    "csv_timeseries": ("csv_data", CsvTaskConfig, "path"),
    "ar_timeseries": ("ar_synth", ArTaskConfig, "coefficients"),
}

# Readers: the algorithms or data sources that read a key.  Keys of
# [experiment] and [network] have none because every run reads them.  A
# topology file does leave connection_prob and max_attempts unread, but
# configs that keep both beside a topology load today, so they still do.
_EVERY = ()
_CSV = ("regression", "csv_timeseries")
_SYN = ("synthetic",)
_AR = ("ar_timeseries",)

# (section, key) -> (parser, config, field, readers), where ``config``
# names the object that holds the field: "experiment" (ExperimentConfig),
# "admm" (AdmmConfig) or "data" (the data source's config).
_KEYS = {
    ("experiment", "task"): (str, "experiment", "task", _EVERY),
    ("experiment", "algorithms"):
        (_parse_names, "experiment", "algorithms", _EVERY),
    ("experiment", "trials"): (int, "experiment", "trials", _EVERY),
    ("experiment", "rounds"): (int, "experiment", "rounds", _EVERY),
    ("experiment", "seed"): (int, "experiment", "master_seed", _EVERY),
    ("experiment", "workers"): (int, "experiment", "workers", _EVERY),
    ("experiment", "accuracy_regret"):
        (_parse_bool, "experiment", "compute_accuracy_regret", _EVERY),
    ("network", "num_nodes"): (int, "experiment", "num_learners", _EVERY),
    ("network", "connection_prob"):
        (_parse_float, "experiment", "connection_prob", _EVERY),
    ("network", "topology"): (str, "experiment", "topology_path", _EVERY),
    ("network", "max_attempts"): (int, "experiment", "max_attempts", _EVERY),
    ("algorithm.domkl", "rho"):
        (_parse_float, "admm", "rho", READERS["rho"]),
    ("algorithm.domkl", "eta_local"):
        (_parse_float, "admm", "eta_local", READERS["rho"]),
    ("algorithm.domkl", "eta_global"):
        (_parse_float, "experiment", "eta_global", READERS["eta_global"]),
    ("algorithm.domkl", "num_features"):
        (int, "experiment", "num_features", ALGORITHMS),
    ("algorithm.domkl", "bandwidths"):
        (_parse_floats, "experiment", "bandwidths", ALGORITHMS),
    ("algorithm.domkl", "kernel_index"):
        (int, "experiment", "kernel_index", READERS["kernel_index"]),
    ("algorithm.domkl", "hedge_variant"):
        (str, "experiment", "hedge_variant", ("domkl",)),
    ("algorithm.comkl", "step_size"):
        (_parse_float, "experiment", "comkl_step_size", ("comkl",)),
    ("algorithm.rff_dokl", "step_size"):
        (_parse_float, "experiment", "diffusion_step_size", ("rff_dokl",)),
    ("data", "path"): (str, "data", "path", _CSV),
    ("data", "label_column"): (int, "data", "label_column", _CSV),
    ("data", "has_header"): (_parse_bool, "data", "has_header", _CSV),
    ("data", "normalize"): (_parse_bool, "data", "normalize", _CSV),
    ("data", "shuffle"): (_parse_bool, "data", "shuffle", ("regression",)),
    ("data", "ar_order"): (int, "data", "ar_order", ("csv_timeseries",) + _AR),
    ("data", "bandwidth"): (_parse_float, "data", "bandwidth", _SYN),
    ("data", "input_dim"): (int, "data", "input_dim", _SYN),
    ("data", "noise_std"): (_parse_float, "data", "noise_std", _SYN),
    ("data", "theta_scale"): (_parse_float, "data", "theta_scale", _SYN),
    ("data", "ar_coefficients"): (_parse_floats, "data", "coefficients", _AR),
    ("data", "ar_intercept"): (_parse_float, "data", "intercept", _AR),
    ("data", "ar_noise_std"): (_parse_float, "data", "noise_std", _AR),
    ("data", "ar_samples"): (int, "data", "num_samples", _AR),
}
_SECTIONS = {section for section, _ in _KEYS}


def _read_keys(path):
    """The parsed value of every key in the file, by (section, key)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle, source=path)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("%s: not UTF-8 text" % path) from exc
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError("unknown section [%s]" % (section,), key=section)
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(
                    "unknown key %r in [%s]" % (key, section), key=key
                )
            try:
                values[section, key] = _KEYS[section, key][0](raw)
            except ValueError as exc:
                raise ConfigError(
                    "bad value for %r in [%s]: %s" % (key, section, exc),
                    key=key,
                ) from exc
    return values


def load_config(path):
    """Parse and validate an INI config into an ExperimentConfig."""
    values = _read_keys(path)
    task = values.get(("experiment", "task"), ExperimentConfig.task)
    algorithms = values.get(("experiment", "algorithms"),
                            ExperimentConfig.algorithms)
    if task not in TASKS:
        raise ConfigError("unknown task %r" % (task,), key="task")
    source = task
    if task == "timeseries":
        from_csv = ("data", "path") in values
        source = "csv_timeseries" if from_csv else "ar_timeseries"
    selected = {source}.union(algorithms)

    fields = {"experiment": {}, "admm": {}, "data": {}}
    for (section, key), value in values.items():
        _, config, field, readers = _KEYS[section, key]
        if readers and selected.isdisjoint(readers):
            raise ConfigError(
                "%r in [%s] is read only by %s; this run is %s with %s"
                % (key, section, ", ".join(readers), source,
                   ", ".join(algorithms)), key=key)
        fields[config][field] = value

    data_field, data_class, required = _SOURCES[source]
    if required is None or required in fields["data"]:
        fields["experiment"][data_field] = data_class(**fields["data"])
    return ExperimentConfig(admm=AdmmConfig(**fields["admm"]),
                            **fields["experiment"])


def _fmt(value):
    return repr(float(value))


def _write_results(path, result):
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["algorithm", "t", "mse_mean", "mse_std", "cv_mean", "cv_std"]
        )
        for algorithm in result.algorithms:
            for t in range(result.rounds):
                writer.writerow([
                    algorithm,
                    t + 1,
                    _fmt(result.mse_mean[algorithm][t]),
                    _fmt(result.mse_std[algorithm][t]),
                    _fmt(result.cv_mean[algorithm][t]),
                    _fmt(result.cv_std[algorithm][t]),
                ])
                rows += 1
    return rows


def cmd_run(config_path, out_dir=".", seed=None, trials=None):
    """Execute one configured experiment, with ``seed`` and ``trials``
    replacing the config's values when given.  Returns the exit code."""
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg = replace(cfg, master_seed=seed)
        if trials is not None:
            cfg = replace(cfg, trials=trials)
        result = run_experiment(cfg)
        out_path = os.path.join(out_dir, "results.csv")
        rows = _write_results(out_path, result)
    except ConfigError as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    except Exception as exc:
        print("run failed: %s" % (exc,), file=sys.stderr)
        return 1
    print("wrote %s (%d rows)" % (out_path, rows))
    for algorithm in result.algorithms:
        line = "%s final_mse=%s final_cv=%s" % (
            algorithm,
            _fmt(result.mse_mean[algorithm][-1]),
            _fmt(result.cv_mean[algorithm][-1]),
        )
        if result.final_regret_a is not None:
            line += " regret_a=%s" % _fmt(result.final_regret_a[algorithm])
        print(line)
    return 0


def cmd_sweep(config_path, rhos, eta_globals, out_dir="."):
    """Run the grid and write sweep.csv.  Returns the exit code."""
    try:
        rows = sweep(load_config(config_path), rhos, eta_globals)
        out_path = os.path.join(out_dir, "sweep.csv")
        with open(out_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["algorithm", "eta_g", "rho", "final_mse", "final_cv"])
            for row in rows:
                writer.writerow([
                    row.algorithm, _fmt(row.eta_global), _fmt(row.rho),
                    _fmt(row.final_mse), _fmt(row.final_cv),
                ])
    except ConfigError as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    except Exception as exc:
        print("sweep failed: %s" % (exc,), file=sys.stderr)
        return 1
    print("wrote %s (%d rows)" % (out_path, len(rows)))
    return 0


def cmd_validate():
    """Run the invariant suite; exit 0 only if every check passes."""
    results = validate_mod.run_all()
    failures = 0
    for name, passed, detail in results:
        print("%s %s: %s" % ("PASS" if passed else "FAIL", name, detail))
        failures += 0 if passed else 1
    if failures:
        print("%d check(s) failed" % failures, file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="domkl",
        description="Decentralized online multi-kernel regression runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configured experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--out", default=".")

    sweep_p = sub.add_parser("sweep", help="grid over rho and eta_g")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--rho", required=True,
                         help="comma-separated list, e.g. 10,100,1000")
    sweep_p.add_argument("--eta-g", required=True, dest="eta_g",
                         help="comma-separated list")
    sweep_p.add_argument("--out", default=".")

    sub.add_parser("validate", help="run the fast invariant suite")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed, args.trials)
    if args.command == "sweep":
        try:
            rhos = _parse_floats(args.rho)
            eta_globals = _parse_floats(args.eta_g)
        except ValueError as exc:
            print("config error: bad grid flag: %s" % (exc,), file=sys.stderr)
            return 2
        return cmd_sweep(args.config, rhos, eta_globals, out_dir=args.out)
    return cmd_validate()


if __name__ == "__main__":
    sys.exit(main())
