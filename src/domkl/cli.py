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

Config files are INI text.  ``simulator.KEYS`` lists every key, the
field it sets, the kind of its value and who reads it; a key left out
keeps the field's default.  ``load_config`` parses each value by its
kind, and the config classes check them.  These are config errors, so a
typo cannot silently fall back to a default:

- an unknown section or key, or a value that does not parse or that its
  config class refuses, such as a non-finite float;
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
import os
import sys
from dataclasses import replace

from .errors import ConfigError
from .simulator import (
    KEYS,
    SOURCES,
    AdmmConfig,
    ExperimentConfig,
    check_key,
    data_source,
    run_experiment,
    sweep,
)
from . import validate as validate_mod


def _parse_bool(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean: %r" % (text,))


def _parse_names(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# The parser of each kind of value in ``simulator.KEYS``.
_PARSERS = {int: int, float: float, bool: _parse_bool, str: str,
            (float,): _parse_floats, (str,): _parse_names}
_SECTIONS = {section for section, _ in KEYS}


def _read_keys(path):
    """The parsed value of every key in the file, by (section, key)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
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
            if (section, key) not in KEYS:
                raise ConfigError("unknown key %r in [%s]" % (key, section),
                                  key=key)
            try:
                values[section, key] = _PARSERS[KEYS[section, key].kind](raw)
            except ValueError as exc:
                raise ConfigError("bad value for %r in [%s]: %s"
                                  % (key, section, exc), key=key) from exc
    return values


def load_config(path):
    """Parse an INI config into an ExperimentConfig, which checks it; the
    task and algorithms first, as they decide which keys the run reads."""
    values = _read_keys(path)
    task = values.get(("experiment", "task"), ExperimentConfig.task)
    algorithms = values.get(("experiment", "algorithms"),
                            ExperimentConfig.algorithms)
    check_key("experiment", "task", task)
    check_key("experiment", "algorithms", algorithms)
    source = data_source(task, ("data", "path") in values)
    selected = {source}.union(algorithms)

    fields, data = {"ExperimentConfig": {}, "AdmmConfig": {}}, {}
    for (section, key), value in values.items():
        row = KEYS[section, key]
        if row.readers and selected.isdisjoint(row.readers):
            raise ConfigError(
                "%r in [%s] is read only by %s; this run is %s with %s"
                % (key, section, ", ".join(row.readers), source,
                   ", ".join(algorithms)), key=key)
        fields.get(row.holders[0], data)[row.field] = value

    data_field, data_class, required = SOURCES[source]
    if required is None or required in data:
        fields["ExperimentConfig"][data_field] = data_class(**data)
    return ExperimentConfig(admm=AdmmConfig(**fields["AdmmConfig"]),
                            **fields["ExperimentConfig"])


def _fmt(value):
    return repr(float(value))


def _write_results(path, result):
    curves = ("mse_mean", "mse_std", "cv_mean", "cv_std")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("algorithm", "t") + curves)
        for algorithm in result.algorithms:
            columns = [getattr(result, name)[algorithm] for name in curves]
            for t in range(result.rounds):
                writer.writerow([algorithm, t + 1]
                                + [_fmt(column[t]) for column in columns])
    return len(result.algorithms) * result.rounds


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
        with open(out_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["algorithm", "eta_g", "rho", "final_mse", "final_cv"])
            writer.writerows([row.algorithm] + [_fmt(value) for value in (
                row.eta_global, row.rho, row.final_mse, row.final_cv)]
                for row in rows)
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
