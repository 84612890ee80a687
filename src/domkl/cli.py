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

Config files are INI text with four sections.  Every key is optional
unless the task needs it; unknown sections or keys are rejected so a
typo cannot silently fall back to a default.

  [experiment]   task, algorithms, trials, rounds, seed, workers,
                 accuracy_regret
  [network]      num_nodes, connection_prob, topology, max_attempts
  [algorithm.<name>]
                 domkl: rho, eta_local, eta_global, num_features,
                        bandwidths, kernel_index, hedge_variant,
                        allow_cycles (dokl reads this section too)
                 comkl: step_size, loss_mode
                 rff_dokl: step_size
  [data]         path, label_column, has_header, normalize, shuffle,
                 ar_order (CSV tasks); bandwidth, input_dim, noise_std,
                 theta_scale (synthetic); ar_coefficients, ar_intercept,
                 ar_noise_std, ar_samples (synthetic time series)

Exit codes: 0 success, 1 runtime failure or failed invariant,
2 config error.  Float cells are written with ``repr`` so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import replace

from .admm import AdmmConfig
from .errors import ConfigError
from .simulator import (
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


def _parse_floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


_SCHEMA = {
    "experiment": {
        "task": str,
        "algorithms": _parse_names,
        "trials": int,
        "rounds": int,
        "seed": int,
        "workers": int,
        "accuracy_regret": _parse_bool,
    },
    "network": {
        "num_nodes": int,
        "connection_prob": float,
        "topology": str,
        "max_attempts": int,
    },
    "algorithm.domkl": {
        "rho": float,
        "eta_local": float,
        "eta_global": float,
        "num_features": int,
        "bandwidths": _parse_floats,
        "kernel_index": int,
        "hedge_variant": str,
        "allow_cycles": _parse_bool,
    },
    "algorithm.comkl": {
        "step_size": float,
        "loss_mode": str,
    },
    "algorithm.rff_dokl": {
        "step_size": float,
    },
    "data": {
        "path": str,
        "label_column": int,
        "has_header": _parse_bool,
        "normalize": _parse_bool,
        "shuffle": _parse_bool,
        "ar_order": int,
        "bandwidth": float,
        "input_dim": int,
        "noise_std": float,
        "theta_scale": float,
        "ar_coefficients": _parse_floats,
        "ar_intercept": float,
        "ar_noise_std": float,
        "ar_samples": int,
    },
}


def _read_sections(path):
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as handle:
        parser.read_file(handle, source=path)
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section [%s]" % (section,), key=section)
        table = _SCHEMA[section]
        parsed = {}
        for key, raw in parser.items(section):
            if key not in table:
                raise ConfigError(
                    "unknown key %r in [%s]" % (key, section), key=key
                )
            try:
                parsed[key] = table[key](raw)
            except ValueError as exc:
                raise ConfigError(
                    "bad value for %r in [%s]: %s" % (key, section, exc),
                    key=key,
                ) from exc
        values[section] = parsed
    return values


def load_config(path):
    """Parse and validate an INI config into an ExperimentConfig."""
    values = _read_sections(path)
    experiment = values.get("experiment", {})
    network = values.get("network", {})
    consensus = values.get("algorithm.domkl", {})
    comkl = values.get("algorithm.comkl", {})
    rff = values.get("algorithm.rff_dokl", {})
    data = values.get("data", {})

    task = experiment.get("task", "synthetic")
    synthetic = None
    csv_data = None
    ar_synth = None
    if task == "synthetic":
        synthetic = SyntheticTaskConfig(
            bandwidth=data.get("bandwidth", 0.01),
            input_dim=data.get("input_dim", 2),
            noise_std=data.get("noise_std", 0.05),
            theta_scale=data.get("theta_scale", 1.0),
        )
    elif "path" in data:
        csv_data = CsvTaskConfig(
            path=data["path"],
            label_column=data.get("label_column", -1),
            has_header=data.get("has_header", False),
            normalize=data.get("normalize", True),
            shuffle=data.get("shuffle", True),
            ar_order=data.get("ar_order", 5),
        )
    elif task == "timeseries" and "ar_coefficients" in data:
        ar_synth = ArTaskConfig(
            coefficients=data["ar_coefficients"],
            intercept=data.get("ar_intercept", 0.2),
            noise_std=data.get("ar_noise_std", 0.05),
            num_samples=data.get("ar_samples", 2000),
            ar_order=data.get("ar_order", 5),
        )

    admm = AdmmConfig(
        rho=consensus.get("rho", 100.0),
        eta_local=consensus.get("eta_local", 10.0),
    )
    return ExperimentConfig(
        task=task,
        algorithms=experiment.get("algorithms", ("domkl",)),
        num_learners=network.get("num_nodes", 5),
        connection_prob=network.get("connection_prob", 0.25),
        topology_path=network.get("topology"),
        max_attempts=network.get("max_attempts", 50),
        admm=admm,
        eta_global=consensus.get("eta_global", 10.0),
        num_features=consensus.get("num_features", 50),
        bandwidths=consensus.get("bandwidths"),
        kernel_index=consensus.get("kernel_index", 8),
        hedge_variant=consensus.get("hedge_variant", "product"),
        allow_cycles=consensus.get("allow_cycles", False),
        trials=experiment.get("trials", 1),
        master_seed=experiment.get("seed", 0),
        rounds=experiment.get("rounds"),
        synthetic=synthetic,
        csv_data=csv_data,
        ar_synth=ar_synth,
        comkl_step_size=comkl.get("step_size", 0.5),
        comkl_loss_mode=comkl.get("loss_mode", "sum"),
        diffusion_step_size=rff.get("step_size", 0.5),
        workers=experiment.get("workers", 1),
        compute_accuracy_regret=experiment.get("accuracy_regret", False),
    )


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


def cmd_run(config_path, overrides=None, out_dir="."):
    """Execute one configured experiment.  Returns the exit code."""
    overrides = overrides or {}
    try:
        cfg = load_config(config_path)
        if "seed" in overrides:
            cfg = replace(cfg, master_seed=overrides["seed"])
        if "trials" in overrides:
            cfg = replace(cfg, trials=overrides["trials"])
    except (ConfigError, configparser.Error, OSError) as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg)
        out_path = os.path.join(out_dir, "results.csv")
        rows = _write_results(out_path, result)
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
        cfg = load_config(config_path)
        if not rhos or not eta_globals:
            raise ConfigError("sweep needs at least one rho and one eta_g",
                              key="grid")
    except (ConfigError, configparser.Error, OSError) as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return 2
    try:
        rows = sweep(cfg, rhos, eta_globals)
        out_path = os.path.join(out_dir, "sweep.csv")
        with open(out_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["algorithm", "eta_g", "rho", "final_mse", "final_cv"])
            for row in rows:
                writer.writerow([
                    row.algorithm, _fmt(row.eta_global), _fmt(row.rho),
                    _fmt(row.final_mse), _fmt(row.final_cv),
                ])
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
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        return cmd_run(args.config, overrides, out_dir=args.out)
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
