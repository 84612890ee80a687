"""Tests for the config loader and the command-line entry points."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import domkl.learners
from domkl import cli
from domkl.cli import cmd_run, cmd_sweep, cmd_validate, load_config, main
from domkl.errors import ConfigError
from domkl.simulator import (
    KEYS,
    SOURCES,
    AdmmConfig,
    ArTaskConfig,
    CsvTaskConfig,
    ExperimentConfig,
    SyntheticTaskConfig,
    load_inputs,
    run_trial,
    sweep,
)

_BASE_INI = """\
[experiment]
task = synthetic
algorithms = domkl
trials = 1
rounds = 12
seed = 3

[network]
num_nodes = 3
connection_prob = 0.7

[algorithm.domkl]
rho = 50
eta_local = 10
eta_global = 10
num_features = 6
bandwidths = 0.05, 0.1

[data]
bandwidth = 0.1
noise_std = 0.02
"""


def _write_ini(tmp_path, text=_BASE_INI, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_load_config_full(tmp_path):
    cfg = load_config(_write_ini(tmp_path))
    assert cfg.task == "synthetic"
    assert cfg.algorithms == ("domkl",)
    assert cfg.num_learners == 3
    assert cfg.admm.rho == 50.0
    assert cfg.admm.eta_local == 10.0
    assert cfg.bandwidths == (0.05, 0.1)
    assert cfg.num_features == 6
    assert cfg.rounds == 12
    assert cfg.master_seed == 3
    assert cfg.synthetic.bandwidth == 0.1
    assert cfg.synthetic.noise_std == 0.02


def test_load_config_timeseries_ar(tmp_path):
    text = """\
[experiment]
task = timeseries
algorithms = domkl, rff_dokl

[algorithm.domkl]
bandwidths = 0.1, 1.0
kernel_index = 0

[data]
ar_coefficients = 0.6 -0.2
ar_samples = 100
ar_order = 4
"""
    cfg = load_config(_write_ini(tmp_path, text))
    assert cfg.task == "timeseries"
    assert cfg.algorithms == ("domkl", "rff_dokl")
    assert cfg.ar_synth.coefficients == (0.6, -0.2)
    assert cfg.ar_synth.num_samples == 100
    assert cfg.ar_synth.ar_order == 4


def test_unknown_section_is_named(tmp_path):
    path = _write_ini(tmp_path, _BASE_INI + "\n[tuning]\nlr = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[tuning\]"):
        load_config(path)


def test_unknown_key_is_named(tmp_path):
    path = _write_ini(tmp_path, _BASE_INI + "\n[algorithm.comkl]\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match="unknown key 'momentum'"):
        load_config(path)


def test_bad_value_is_located(tmp_path):
    bad = _BASE_INI.replace("trials = 1", "trials = soon")
    with pytest.raises(ConfigError, match=r"bad value for 'trials'"):
        load_config(_write_ini(tmp_path, bad))


def test_run_exit_codes(tmp_path, capsys):
    assert cmd_run(str(tmp_path / "missing.ini")) == 2
    assert "config error" in capsys.readouterr().err
    bad = _BASE_INI.replace("task = synthetic", "task = clustering")
    assert cmd_run(_write_ini(tmp_path, bad)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_ini_and_out_dir_exit_codes(tmp_path, capsys, command):
    """An INI that cannot be opened or parsed exits 2; an output directory
    that does not exist fails the run after it ran, with exit 1."""
    grid = ["--rho", "10", "--eta-g", "10"] if command == "sweep" else []

    def run(path, out):
        return main([command, "--config", path, "--out", out] + grid)

    assert run(str(tmp_path / "missing.ini"), str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(
        "config error: [Errno 2] No such file or directory: ")
    headless = _write_ini(tmp_path, "rounds = 5\n" + _BASE_INI)
    assert run(headless, str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(
        "config error: File contains no section headers.")
    assert run(_write_ini(tmp_path), str(tmp_path / "absent")) == 1
    assert capsys.readouterr().err.startswith(
        "%s failed: [Errno 2] No such file or directory: " % command)


def test_repeated_algorithm_exits_2(tmp_path, capsys):
    text = _BASE_INI.replace("algorithms = domkl", "algorithms = domkl, domkl")
    _run_and_sweep_exit_2(tmp_path, capsys, text, "config error: algorithms "
                          "lists a value twice: domkl, domkl\n")


def test_workers_below_one_exit_2(tmp_path, capsys):
    text = _BASE_INI.replace("seed = 3", "seed = 3\nworkers = 0")
    assert cmd_run(_write_ini(tmp_path, text), out_dir=str(tmp_path)) == 2
    assert "config error: workers must be at least 1" in capsys.readouterr().err


_TIMESERIES = [
    ("task = synthetic", "task = timeseries"),
    ("bandwidth = 0.1\nnoise_std = 0.02",
     "ar_coefficients = 0.5 -0.2\nar_samples = 60"),
]


@pytest.mark.parametrize("edits", [
    [("rho = 50", "rho = 0")],
    [("connection_prob = 0.7", "connection_prob = 1.5")],
    [("noise_std = 0.02", "noise_std = 0.02\ninput_dim = 0")],
    [("noise_std = 0.02", "noise_std = -1")],
    [("bandwidth = 0.1", "bandwidth = 0")],
    [("bandwidths = 0.05, 0.1", "bandwidths = -0.1")],
    [("bandwidths = 0.05, 0.1", "bandwidths =")],
    _TIMESERIES + [("ar_coefficients = 0.5 -0.2", "ar_coefficients =")],
    _TIMESERIES + [("ar_samples = 60", "ar_samples = 60\nar_order = 0")],
    _TIMESERIES + [("ar_samples = 60", "ar_samples = 3")],
    _TIMESERIES + [("ar_samples = 60", "ar_samples = 60\nar_noise_std = -1")],
    [("num_nodes = 3", "num_nodes = 1")],
], ids=["rho", "connection_prob", "input_dim", "noise_std", "bandwidth",
        "bandwidths", "bandwidths_empty", "ar_coefficients", "ar_order",
        "ar_samples", "ar_noise_std", "num_nodes"])
def test_bad_values_exit_2(tmp_path, capsys, edits):
    text = _BASE_INI
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    assert cmd_run(_write_ini(tmp_path, text), out_dir=str(tmp_path)) == 2
    # The error names the key that the last edit set.
    key = edits[-1][1].splitlines()[-1].split(" =")[0]
    assert capsys.readouterr().err.startswith("config error: %s " % key)
    assert not (tmp_path / "results.csv").exists()


def _run_and_sweep_exit_2(tmp_path, capsys, text, expected):
    """Both commands stop with exit 2 and an error starting ``expected``."""
    path = _write_ini(tmp_path, text)
    assert cmd_run(path, out_dir=str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(expected)
    assert main(["sweep", "--config", path, "--rho", "10",
                 "--eta-g", "10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(expected)
    assert not (tmp_path / "results.csv").exists()
    assert not (tmp_path / "sweep.csv").exists()


def _trial_setup_errors(tmp_path):
    """INI texts that parse but name a bad file or kernel: errors found
    before the first trial is set up."""
    topo = tmp_path / "split.txt"
    topo.write_text("0 1\n2 3\n")
    disconnected = _BASE_INI.replace(
        "num_nodes = 3", "num_nodes = 4\ntopology = %s" % topo)
    bad_index = _edit(
        _DOKL + [_after("bandwidths = 0.05, 0.1", "kernel_index = 2")])
    return [(disconnected, "topology"), (bad_index, "kernel_index 2")]


def test_trial_setup_config_errors_exit_2(tmp_path, capsys):
    for text, named in _trial_setup_errors(tmp_path):
        _run_and_sweep_exit_2(tmp_path, capsys, text,
                              "config error: %s" % named)


def test_run_writes_results(tmp_path, capsys):
    path = _write_ini(tmp_path)
    assert cmd_run(path, out_dir=str(tmp_path)) == 0
    out = capsys.readouterr().out
    rows = _read_csv(tmp_path / "results.csv")
    assert rows[0] == ["algorithm", "t", "mse_mean", "mse_std", "cv_mean", "cv_std"]
    assert len(rows) == 1 + 12
    assert "wrote" in out and "(12 rows)" in out
    # The summary line repeats the last CSV row's final metrics.
    final = rows[-1]
    assert "domkl final_mse=%s final_cv=%s" % (final[2], final[4]) in out


def test_run_reruns_byte_identical(tmp_path):
    path = _write_ini(tmp_path)
    assert cmd_run(path, out_dir=str(tmp_path)) == 0
    first = (tmp_path / "results.csv").read_bytes()
    assert cmd_run(path, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "results.csv").read_bytes() == first


def test_seed_override_changes_results(tmp_path):
    path = _write_ini(tmp_path)
    assert cmd_run(path, out_dir=str(tmp_path)) == 0
    first = (tmp_path / "results.csv").read_bytes()
    assert cmd_run(path, out_dir=str(tmp_path), seed=4) == 0
    seeded = (tmp_path / "results.csv").read_bytes()
    assert seeded != first
    # main hands --seed and --trials to the same keywords.
    run = ["run", "--config", path, "--out", str(tmp_path)]
    assert main(run + ["--seed", "4"]) == 0
    assert (tmp_path / "results.csv").read_bytes() == seeded
    assert main(run + ["--trials", "2"]) == 0
    two_trials = (tmp_path / "results.csv").read_bytes()
    assert two_trials not in (first, seeded)
    assert cmd_run(path, out_dir=str(tmp_path), trials=2) == 0
    assert (tmp_path / "results.csv").read_bytes() == two_trials


def test_run_through_main_with_topology(tmp_path):
    topo = tmp_path / "net.txt"
    topo.write_text("0 1\n1 2\n")
    text = _BASE_INI + "topology = %s\n" % topo
    # The topology key belongs in [network]; append inside that section.
    text = _BASE_INI.replace(
        "connection_prob = 0.7",
        "connection_prob = 0.7\ntopology = %s" % topo,
    )
    path = _write_ini(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0


def test_regret_column_appears_when_requested(tmp_path, capsys):
    text = _BASE_INI.replace("seed = 3", "seed = 3\naccuracy_regret = true")
    path = _write_ini(tmp_path, text)
    assert cmd_run(path, out_dir=str(tmp_path)) == 0
    assert "regret_a=" in capsys.readouterr().out


def test_sweep_single_cell_matches_run(tmp_path, capsys):
    path = _write_ini(tmp_path)
    assert cmd_run(path, out_dir=str(tmp_path)) == 0
    final = _read_csv(tmp_path / "results.csv")[-1]
    assert cmd_sweep(path, (50.0,), (10.0,), out_dir=str(tmp_path)) == 0
    capsys.readouterr()
    rows = _read_csv(tmp_path / "sweep.csv")
    assert rows[0] == ["algorithm", "eta_g", "rho", "final_mse", "final_cv"]
    assert len(rows) == 2
    assert rows[1][0] == "domkl"
    assert rows[1][3] == final[2]
    assert rows[1][4] == final[4]


def test_sweep_grid_shape_and_order(tmp_path):
    path = _write_ini(tmp_path)
    assert main([
        "sweep", "--config", path, "--rho", "100,10,1000",
        "--eta-g", "10,1", "--out", str(tmp_path),
    ]) == 0
    rows = _read_csv(tmp_path / "sweep.csv")[1:]
    assert len(rows) == 6
    grid = [(float(r[1]), float(r[2])) for r in rows]
    assert grid == [
        (1.0, 10.0), (1.0, 100.0), (1.0, 1000.0),
        (10.0, 10.0), (10.0, 100.0), (10.0, 1000.0),
    ]


def test_sweep_bad_grid_flags(tmp_path, capsys):
    path = _write_ini(tmp_path)
    assert main(["sweep", "--config", path, "--rho", "ten", "--eta-g", "1"]) == 2
    assert "bad grid flag" in capsys.readouterr().err
    assert cmd_sweep(path, (), (1.0,)) == 2


def _single_algorithm_ini(algorithm):
    """The base config with only ``algorithm`` selected and no key that it
    leaves unread."""
    text = _BASE_INI.replace("algorithms = domkl",
                             "algorithms = %s" % algorithm).replace(
        "bandwidths = 0.05, 0.1", "bandwidths = 0.05, 0.1\nkernel_index = 1")
    if algorithm == "rff_dokl":
        text = text.replace("rho = 50\neta_local = 10\neta_global = 10\n", "")
    if algorithm == "dokl":
        text = text.replace("eta_global = 10\n", "")
    return text


@pytest.mark.parametrize("algorithm, rho, eta_g, axis", [
    ("rff_dokl", "10,100", "10", "rho"),
    ("rff_dokl", "10", "1,10", "eta_global"),
    ("dokl", "10", "1,10", "eta_global"),
])
def test_sweep_axis_no_algorithm_reads_exits_2(tmp_path, capsys, algorithm,
                                               rho, eta_g, axis):
    """Sweeping a parameter that no selected algorithm reads would write
    the same run under every value of it."""
    path = _write_ini(tmp_path, _single_algorithm_ini(algorithm))

    def sweep_main(rho, eta_g):
        return main(["sweep", "--config", path, "--rho", rho,
                     "--eta-g", eta_g, "--out", str(tmp_path)])

    assert sweep_main(rho, eta_g) == 2
    assert capsys.readouterr().err.startswith(
        "config error: %s takes 2 values, but only " % axis)
    assert not (tmp_path / "sweep.csv").exists()
    # A repeated value would write one cell twice, on any axis.
    assert sweep_main("10,10,100", "10") == 2
    assert capsys.readouterr().err == (
        "config error: rho lists a value twice: 10.0, 10.0, 100.0\n")
    assert not (tmp_path / "sweep.csv").exists()
    # One value on each axis runs, and so do several on an axis that the
    # algorithm reads.
    rhos = "10,100" if algorithm == "dokl" else "10"
    assert sweep_main(rhos, "10") == 0
    rows = _read_csv(tmp_path / "sweep.csv")[1:]
    assert [row[0] for row in rows] == [algorithm] * len(rhos.split(","))


def test_validate_all_pass(capsys):
    assert cmd_validate() == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 7
    assert all(l.startswith("PASS ") for l in lines)


def test_validate_catches_injected_dual_fault(monkeypatch, capsys):
    # Corrupt the dual update with a constant drift; the network dual sum
    # then grows round by round and the invariant suite must notice.
    original = domkl.learners.lambda_update

    def drifting(lam, own_theta, neighbor_thetas, rho):
        return original(lam, own_theta, neighbor_thetas, rho) + 0.01

    monkeypatch.setattr(domkl.learners, "lambda_update", drifting)
    assert cmd_validate() == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "check(s) failed" in captured.err


def _edit(edits, **subs):
    text = _BASE_INI
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    for name, value in subs.items():
        text = text.replace("{%s}" % name, str(value))
    return text


def _write_data_csv(tmp_path):
    """A 3-column, 60-row numeric CSV: enough rows for 3 nodes x 12 rounds."""
    path = tmp_path / "data.csv"
    rows = np.random.default_rng(5).random((60, 3))
    path.write_text("".join("%f,%f,%f\n" % tuple(row) for row in rows))
    return path


_SYNTH_DATA = "bandwidth = 0.1\nnoise_std = 0.02"
_REGRESSION = [("task = synthetic", "task = regression"),
               (_SYNTH_DATA, "path = {csv}")]
_CSV_TIMESERIES = [("task = synthetic", "task = timeseries"),
                   (_SYNTH_DATA, "path = {csv}")]


def _after(line, added):
    return (line, line + "\n" + added)


# Edits that select dokl alone, which reads no eta_global.
_DOKL = [("algorithms = domkl", "algorithms = dokl"),
         ("eta_global = 10\n", "")]


@pytest.mark.parametrize("edits, key", [
    ([_after("noise_std = 0.02", "label_column = 3")], "label_column"),
    ([_after("noise_std = 0.02", "ar_samples = 100")], "ar_samples"),
    (_TIMESERIES + [_after("ar_samples = 60", "path = {csv}")],
     "ar_coefficients"),
    (_TIMESERIES + [_after("ar_samples = 60", "input_dim = 7")], "input_dim"),
    (_REGRESSION + [_after("path = {csv}", "ar_order = 3")], "ar_order"),
    (_CSV_TIMESERIES + [_after("path = {csv}", "shuffle = false")], "shuffle"),
    ([_after("noise_std = 0.02", "\n[algorithm.comkl]\nstep_size = 0.3")],
     "step_size"),
    ([_after("noise_std = 0.02", "\n[algorithm.rff_dokl]\nstep_size = 0.3")],
     "step_size"),
    (_DOKL + [_after("bandwidths = 0.05, 0.1",
                     "kernel_index = 0\nhedge_variant = message_passing")],
     "hedge_variant"),
    ([("algorithms = domkl", "algorithms = dokl"),
      _after("bandwidths = 0.05, 0.1", "kernel_index = 0")], "eta_global"),
    ([_after("bandwidths = 0.05, 0.1", "kernel_index = 0")], "kernel_index"),
], ids=["synthetic_label_column", "synthetic_ar_samples",
        "timeseries_path_and_ar", "ar_input_dim", "regression_ar_order",
        "csv_timeseries_shuffle", "comkl_section_unselected",
        "rff_dokl_section_unselected", "hedge_variant_without_domkl",
        "eta_global_with_only_dokl",
        "kernel_index_without_dokl"])
def test_unread_keys_exit_2(tmp_path, capsys, edits, key):
    text = _edit(edits, csv=_write_data_csv(tmp_path))
    assert cmd_run(_write_ini(tmp_path, text), out_dir=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %r in [" % key)
    assert "is read only by " in err
    assert not (tmp_path / "results.csv").exists()


_POSITIVE = "must be positive and finite"
_NONNEGATIVE = "must be nonnegative and finite"


@pytest.mark.parametrize("edits, key, message", [
    ([_after("noise_std = 0.02", "theta_scale = nan")], "theta_scale",
     "must be finite"),
    ([_after("noise_std = 0.02", "theta_scale = inf")], "theta_scale",
     "must be finite"),
    ([("noise_std = 0.02", "noise_std = inf")], "noise_std", _NONNEGATIVE),
    ([("bandwidth = 0.1", "bandwidth = inf")], "bandwidth", _POSITIVE),
    ([("bandwidths = 0.05, 0.1", "bandwidths = inf")], "bandwidths",
     "must be one or more positive finite values"),
    (_TIMESERIES + [_after("ar_samples = 60", "ar_intercept = nan")],
     "ar_intercept", "must be finite"),
    (_TIMESERIES + [("ar_coefficients = 0.5 -0.2",
                     "ar_coefficients = 0.5 nan")],
     "ar_coefficients", "must be one or more finite values"),
    (_TIMESERIES + [_after("ar_samples = 60", "ar_noise_std = inf")],
     "ar_noise_std", _NONNEGATIVE),
], ids=["theta_scale_nan", "theta_scale_inf", "noise_std_inf",
        "bandwidth_inf", "bandwidths_inf", "ar_intercept_nan",
        "ar_coefficients_nan", "ar_noise_std_inf"])
def test_non_finite_values_exit_2(tmp_path, capsys, edits, key, message):
    path = _write_ini(tmp_path, _edit(edits))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.key == key
    assert cmd_run(path, out_dir=str(tmp_path)) == 2
    assert capsys.readouterr().err == "config error: %s %s\n" % (key, message)
    assert not (tmp_path / "results.csv").exists()


def test_non_finite_grid_flag_exit_2(tmp_path, capsys):
    path = _write_ini(tmp_path)
    assert main(["sweep", "--config", path, "--rho", "10,inf",
                 "--eta-g", "10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: rho %s\n" % _POSITIVE
    with pytest.raises(ConfigError) as info:
        sweep(load_config(path), (10.0, float("inf")), (10.0,))
    assert info.value.key == "rho"
    assert not (tmp_path / "sweep.csv").exists()


# CSV texts that do not parse, and the start of the error each one gives
# after "config error: <path>: ".
_BAD_CSV = {
    "non_numeric": ("0.1,0.2,0.3\n0.4,x,0.6\n",
                    "row 2, column 2: non-numeric cell 'x'"),
    "ragged": ("0.1,0.2,0.3\n0.4,0.5\n", "row 2: expected 3 columns, got 2"),
    "no_rows": ("\n\n", "no data rows"),
    "nan": ("0.1,0.2,0.3\n0.4,nan,0.6\n",
            "row 2, column 2: non-finite cell 'nan'"),
    "inf": ("0.1,0.2,0.3\n0.4,0.5,-inf\n",
            "row 2, column 3: non-finite cell '-inf'"),
    "header": ("a,b,c\n0.1,0.2,0.3\n",
               "row 1, column 1: non-numeric cell 'a'; if row 1 is a header,"
               " set has_header = true"),
}


@pytest.mark.parametrize("case", ["missing_path", "label_column"]
                         + sorted(_BAD_CSV))
def test_csv_errors_exit_2(tmp_path, capsys, case):
    csv_path = _write_data_csv(tmp_path)
    for task_edits in (_REGRESSION, _CSV_TIMESERIES):
        if case == "missing_path":
            text = _edit(task_edits, csv=tmp_path / "absent.csv")
            expected = "config error: cannot read [data] path: "
        elif case == "label_column":
            text = _edit(
                task_edits + [_after("path = {csv}", "label_column = 9")],
                csv=csv_path)
            expected = "config error: label_column 9 out of range"
        else:
            contents, error = _BAD_CSV[case]
            bad_path = tmp_path / "bad.csv"
            bad_path.write_text(contents)
            text = _edit(task_edits, csv=bad_path)
            expected = "config error: %s: %s" % (bad_path, error)
        _run_and_sweep_exit_2(tmp_path, capsys, text, expected)


@pytest.mark.parametrize("case", ["ini", "path", "topology"])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, case):
    """Bytes ff fe stop run and sweep before any trial, naming the file."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\n")
    path = str(bad) if case == "ini" else _write_ini(tmp_path, _edit(
        _REGRESSION if case == "path"
        else [_after("num_nodes = 3", "topology = {csv}")], csv=bad))
    expected = ("topology %s: 'utf-8' codec can't decode byte 0xff in"
                " position 0: invalid start byte" if case == "topology"
                else "%s: not UTF-8 text") % bad
    for grid in ([], ["--rho", "10", "--eta-g", "10"]):
        command = "sweep" if grid else "run"
        assert main([command, "--config", path, "--out", str(tmp_path)]
                    + grid) == 2
        assert capsys.readouterr().err == "config error: %s\n" % expected
    assert list(tmp_path.glob("*.csv")) == []
    if case != "ini":
        with pytest.raises(ConfigError) as info:
            load_inputs(load_config(path))
        assert info.value.key == case


def test_text_is_read_as_utf8_in_the_c_locale(tmp_path):
    """An INI comment and a CSV header cell outside ASCII load even where
    the locale would decode text as ASCII."""
    csv_path = _write_data_csv(tmp_path)
    csv_path.write_text("x,y,café\n" + csv_path.read_text(), encoding="utf-8")
    ini = tmp_path / "exp.ini"
    ini.write_text("# é\n" + _edit(
        _REGRESSION + [_after("path = {csv}", "has_header = true")],
        csv=csv_path), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from domkl.cli import main; sys.exit(main())",
         "run", "--config", str(ini), "--out", str(tmp_path)],
        stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, env=env,
        timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("normalize", ["true", "false"])
def test_regression_csv_without_feature_column_exits_2(tmp_path, capsys,
                                                       normalize):
    # A time series needs only the label column; a regression does not.
    csv_path = tmp_path / "labels.csv"
    csv_path.write_text("".join("0.%d\n" % i for i in range(9)))
    text = _edit(_REGRESSION + [_after("path = {csv}",
                                       "normalize = %s" % normalize)],
                 csv=csv_path)
    _run_and_sweep_exit_2(tmp_path, capsys, text,
                          "config error: %s has no feature column"
                          % csv_path)
    assert cmd_run(_write_ini(tmp_path, _edit(_CSV_TIMESERIES, csv=csv_path)),
                   out_dir=str(tmp_path)) == 0


_OVERFLOW_INI = """\
[experiment]
task = regression
algorithms = {algorithm}
rounds = 10

[network]
num_nodes = 2
connection_prob = 1.0

[algorithm.domkl]
bandwidths = 0.1, 1.0
{kernel_index}
[data]
path = {csv}
normalize = false
shuffle = false
"""


@pytest.mark.parametrize("algorithm, message", [
    ("domkl", "domkl learner 0: non-finite loss at round 3 of 10"),
    ("dokl", "dokl learner 0: non-finite loss at round 3 of 10"),
    ("comkl", "comkl_hedge: non-finite loss at round 3 of 10"),
    ("rff_dokl", "rff_dokl: non-finite loss at round 3 of 10"),
], ids=["domkl", "dokl", "comkl", "rff_dokl"])
def test_non_finite_loss_is_located(tmp_path, capsys, algorithm, message):
    """A label of 1e200 in row 3, learner 0's round-3 sample, overflows
    the squared loss: the run stops with the algorithm, round and (for
    the consensus learners) learner, and no warning escapes."""
    rows = np.random.default_rng(0).random((40, 3))
    rows[2, 2] = 1e200
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("".join(",".join(map(repr, row.tolist())) + "\n"
                                for row in rows))
    kernel_index = ("kernel_index = 0\n" if algorithm in ("dokl", "rff_dokl")
                    else "")
    path = _write_ini(tmp_path, _OVERFLOW_INI.format(
        algorithm=algorithm, kernel_index=kernel_index, csv=csv_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "run failed: trial 0 failed: %s\n" % message)
    assert not (tmp_path / "results.csv").exists()


def test_missing_topology_exits_2(tmp_path, capsys):
    text = _BASE_INI.replace(
        "num_nodes = 3", "num_nodes = 3\ntopology = %s" % (tmp_path / "no.txt"))
    _run_and_sweep_exit_2(tmp_path, capsys, text,
                          "config error: cannot read [network] topology: ")
    # load_config opens no file but the INI; the run's files are read
    # once, by load_inputs.
    cfg = load_config(_write_ini(tmp_path, text))
    with pytest.raises(ConfigError, match="^cannot read") as info:
        load_inputs(cfg)
    assert info.value.key == "topology"


# Topology files for 3 nodes that do not parse, and the error each gives.
_BAD_TOPOLOGY = {
    "out_of_range": ("0 1\n1 5\n", "edge (1, 5) out of range for 3 nodes"),
    "one_index": ("0 1\n2\n", "line 2: expected two indices"),
    "non_integer": ("0 1\n1 x\n", "line 2: non-integer index"),
    "self_loop": ("0 1\n1 1\n", "self loop at node 1"),
    "duplicate": ("0 1\n1 2\n1 0\n", "duplicate edge (0, 1)"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TOPOLOGY))
def test_malformed_topology_exits_2(tmp_path, capsys, case):
    contents, error = _BAD_TOPOLOGY[case]
    topo = tmp_path / "net.txt"
    topo.write_text(contents)
    text = _BASE_INI.replace("num_nodes = 3",
                             "num_nodes = 3\ntopology = %s" % topo)
    _run_and_sweep_exit_2(tmp_path, capsys, text,
                          "config error: topology %s: %s"
                          % (topo, error))


def test_message_passing_on_a_triangle_runs(tmp_path, capsys):
    """The relay runs over the spanning tree, so a cycle needs no
    switch, and the old one is an unknown key."""
    topo = tmp_path / "triangle.txt"
    topo.write_text("0 1\n1 2\n0 2\n")
    text = _edit([("num_nodes = 3", "num_nodes = 3\ntopology = %s" % topo),
                  _after("bandwidths = 0.05, 0.1",
                         "hedge_variant = message_passing")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cmd_run(_write_ini(tmp_path, text), out_dir=str(tmp_path)) == 0
    assert (tmp_path / "results.csv").exists()
    (tmp_path / "results.csv").unlink()
    capsys.readouterr()
    switched = text.replace("hedge_variant = message_passing",
                            "hedge_variant = message_passing\n"
                            "allow_cycles = true")
    _run_and_sweep_exit_2(tmp_path, capsys, switched,
                          "config error: unknown key 'allow_cycles'")


# CSV contents too short for a 3-node run, the task edits, and the error
# each gives after "config error: ".
_SHORT_CSV = {
    "regression_rows_below_nodes": (2, _REGRESSION,
                                    "{csv} has 2 rows, fewer than"
                                    " num_nodes = 3"),
    "normalize_one_row": (1, _REGRESSION,
                          "normalize needs at least 2 rows; {csv} has 1"),
    "timeseries_below_ar_order": (4, _CSV_TIMESERIES,
                                  "{csv} has 4 values; ar_order = 5 leaves"
                                  " fewer windows than num_nodes = 3"),
    "timeseries_windows_below_nodes": (7, _CSV_TIMESERIES,
                                       "{csv} has 7 values; ar_order = 5"
                                       " leaves fewer windows than"
                                       " num_nodes = 3"),
}


@pytest.mark.parametrize("case", sorted(_SHORT_CSV))
def test_csv_too_short_for_the_run_exits_2(tmp_path, capsys, case):
    rows, task_edits, error = _SHORT_CSV[case]
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("".join("0.%d,0.5,0.%d\n" % (i, 9 - i)
                                for i in range(rows)))
    _run_and_sweep_exit_2(tmp_path, capsys, _edit(task_edits, csv=csv_path),
                          "config error: " + error.format(csv=csv_path))


def test_unread_key_error_names_the_run(tmp_path, capsys):
    # A selected algorithm that reads no [algorithm.domkl] ADMM key; the
    # error shows why the key is unread.
    text = _edit([("algorithms = domkl", "algorithms = comkl")])
    assert cmd_run(_write_ini(tmp_path, text), out_dir=str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(
        "config error: 'rho' in [algorithm.domkl] is read only by domkl, dokl;"
        " this run is synthetic with comkl")


@pytest.mark.parametrize("edit, key, message", [
    (("algorithms = domkl", "algorithms = domkl, dmkl"), "algorithms",
     "one or more of domkl, dokl, comkl, rff_dokl, not 'dmkl'"),
    (("task = synthetic", "task = synthetc"), "task",
     "one of synthetic, regression, timeseries, not 'synthetc'"),
], ids=["algorithms", "task"])
def test_unknown_choice_is_named_before_unread_keys(tmp_path, capsys, edit,
                                                     key, message):
    """A misspelt algorithm or task is named under its own key, not hidden
    behind an unread-key error for a section that it leaves unread."""
    text = _edit([edit, _after("noise_std = 0.02",
                               "\n[algorithm.comkl]\nstep_size = 0.3")])
    with pytest.raises(ConfigError) as info:
        load_config(_write_ini(tmp_path, text))
    assert info.value.key == key
    _run_and_sweep_exit_2(tmp_path, capsys, text,
                          "config error: %s must be %s\n" % (key, message))


# Each config class by name, as ``KEYS`` names the holders of a key.
_CLASSES = {cls.__name__: cls for cls in (
    ExperimentConfig, AdmmConfig, SyntheticTaskConfig, CsvTaskConfig,
    ArTaskConfig)}


def test_every_config_field_has_one_key():
    nested = {"admm", "synthetic", "csv_data", "ar_synth"}
    for name, cls in _CLASSES.items():
        for field in dataclasses.fields(cls):
            if cls is ExperimentConfig and field.name in nested:
                continue
            rows = [row for row, entry in KEYS.items()
                    if entry.field == field.name and name in entry.holders]
            assert len(rows) == 1, (name, field.name, rows)
    for row, entry in KEYS.items():
        assert set(entry.holders) <= set(_CLASSES), row


# Values of the wrong type for each kind of key: every one is refused
# where the config class is built, before a trial could fail on it.
_WRONG_TYPES = {int: (3.5, True), bool: ("no", 1), float: (True, "0.5"),
                str: (3,), (float,): ("0.5",), (str,): ("domkl",)}
_TYPE_CASES = [(row, holder, bad) for row, entry in sorted(KEYS.items())
               for holder in entry.holders
               for bad in _WRONG_TYPES[entry.kind]]


@pytest.mark.parametrize("row, holder, bad", _TYPE_CASES, ids=[
    "%s.%s-%s-%r" % (row + (holder, bad)) for row, holder, bad in _TYPE_CASES])
def test_value_of_the_wrong_type_is_refused_at_construction(row, holder, bad):
    section, key = row
    entry = KEYS[row]
    kwargs = {"path": "data.csv"} if holder == "CsvTaskConfig" else {}
    kwargs[entry.field] = bad
    with pytest.raises(ConfigError) as info:
        _CLASSES[holder](**kwargs)
    assert info.value.key == key
    assert str(info.value).startswith("%s must be " % key)


def test_integers_pass_as_operator_index_takes_them():
    """An integer field takes what ``operator.index`` takes, a float field
    also takes an integer, and neither value is converted."""
    cfg = ExperimentConfig(rounds=np.int64(5), num_learners=np.int32(3),
                           eta_global=2, admm=AdmmConfig(rho=100))
    assert (cfg.rounds, cfg.num_learners) == (5, 3)
    assert type(cfg.eta_global) is int and type(cfg.admm.rho) is int
    with pytest.raises(ConfigError, match="^rounds must be at least 1$"):
        ExperimentConfig(rounds=np.int64(0))


# A value unlike the dataclass default for every key, as INI text.
_SAMPLE_VALUES = {
    "task": "regression", "algorithms": "comkl", "trials": "3",
    "rounds": "7", "seed": "9", "workers": "2", "accuracy_regret": "yes",
    "num_nodes": "4", "connection_prob": "0.5", "topology": "net.txt",
    "max_attempts": "7", "rho": "7.5", "eta_local": "2.5",
    "eta_global": "3.5", "num_features": "9", "bandwidths": "0.3 0.7",
    "kernel_index": "1", "hedge_variant": "message_passing",
    "path": "series.csv", "label_column": "0",
    "has_header": "true", "normalize": "false", "shuffle": "false",
    "ar_order": "3", "bandwidth": "0.2", "input_dim": "4",
    "noise_std": "0.1", "theta_scale": "2.0", "ar_coefficients": "0.4",
    "ar_intercept": "0.1", "ar_noise_std": "0.2", "ar_samples": "50",
    "algorithm.comkl.step_size": "0.25",
    "algorithm.rff_dokl.step_size": "0.75",
}
# The task and the [data] keys that select each data source.
_SOURCE_CONTEXT = {
    "synthetic": ("synthetic", {}),
    "regression": ("regression", {"path": "data.csv"}),
    "csv_timeseries": ("timeseries", {"path": "data.csv"}),
    "ar_timeseries": ("timeseries", {"ar_coefficients": "0.5"}),
}


def _setting_ini(row, raw, source):
    """INI text that sets the key of ``row`` to ``raw`` in a run with data
    source ``source`` and the first algorithm that reads the key."""
    section, key = row
    readers = KEYS[row].readers
    algorithm = readers[0] if section.startswith("algorithm.") else "domkl"
    task, data = _SOURCE_CONTEXT[source]
    sections = {
        "experiment": {"task": task, "algorithms": algorithm, "rounds": "5"},
        "data": dict(data),
    }
    sections.setdefault(section, {})[key] = raw
    return "".join(
        "[%s]\n%s\n" % (name, "".join("%s = %s\n" % kv
                                      for kv in keys.items()))
        for name, keys in sections.items())


@pytest.mark.parametrize("row", sorted(KEYS),
                         ids=["%s.%s" % row for row in sorted(KEYS)])
def test_key_sets_its_field(tmp_path, row):
    # The files named here do not exist: load_config opens none of them.
    section, key = row
    entry = KEYS[row]
    raw = _SAMPLE_VALUES.get("%s.%s" % row, _SAMPLE_VALUES.get(key))
    if section == "data":
        sources = entry.readers
    else:
        sources = ("regression" if key == "task" else "synthetic",)
    for source in sources:
        cfg = load_config(_write_ini(tmp_path, _setting_ini(row, raw, source)))
        if entry.holders == ("ExperimentConfig",):
            target = cfg
        elif entry.holders == ("AdmmConfig",):
            target = cfg.admm
        else:
            target = getattr(cfg, SOURCES[source][0])
        default = {f.name: f.default for f in dataclasses.fields(target)}
        assert getattr(target, entry.field) == cli._PARSERS[entry.kind](raw)
        assert getattr(target, entry.field) != default[entry.field]


_FLOAT_ROWS = sorted(row for row, entry in KEYS.items()
                     if entry.kind in (float, (float,)))


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", _FLOAT_ROWS,
                         ids=["%s.%s" % row for row in _FLOAT_ROWS])
def test_non_finite_value_fails_alike_in_python_and_ini(tmp_path, row, raw):
    """The config class that holds a float field refuses a non-finite
    value with the same error whether it is built directly or from INI."""
    section, key = row
    entry = KEYS[row]
    (holder,) = entry.holders
    with pytest.raises(ConfigError) as built:
        _CLASSES[holder](**{entry.field: cli._PARSERS[entry.kind](raw)})
    source = entry.readers[0] if section == "data" else "synthetic"
    with pytest.raises(ConfigError) as loaded:
        load_config(_write_ini(tmp_path, _setting_ini(row, raw, source)))
    assert str(loaded.value) == str(built.value)
    assert loaded.value.key == built.value.key == key


# One four-algorithm synthetic trial with accuracy regret on.  Every key
# that only some algorithms read is left at its default or, for
# kernel_index, set apart from its sample value.
_READERS_INI = {
    "experiment": {"task": "synthetic",
                   "algorithms": "domkl, dokl, comkl, rff_dokl",
                   "rounds": "30", "seed": "3", "accuracy_regret": "yes"},
    "network": {"num_nodes": "4", "connection_prob": "0.6"},
    "algorithm.domkl": {"num_features": "6", "bandwidths": "0.05 0.1 1.0",
                        "kernel_index": "2"},
    "data": {"bandwidth": "0.1"},
}


def _trial_outputs(tmp_path, sections):
    """Each algorithm's trace arrays and regrets, as bytes."""
    text = "".join(
        "[%s]\n%s\n" % (name, "".join("%s = %s\n" % kv for kv in keys.items()))
        for name, keys in sections.items())
    result = run_trial(load_config(_write_ini(tmp_path, text)), 0)
    return {
        algorithm: [getattr(trace, name).tobytes() for name in (
            "predictions", "per_kernel_losses", "cross_predictions",
            "weights")] + [result.regrets[algorithm].tobytes()]
        for algorithm, trace in result.traces.items()
    }


@pytest.mark.parametrize("row", [
    ("algorithm.domkl", "rho"), ("algorithm.domkl", "eta_local"),
    ("algorithm.domkl", "eta_global"), ("algorithm.domkl", "kernel_index"),
    ("algorithm.domkl", "hedge_variant"), ("algorithm.comkl", "step_size"),
    ("algorithm.rff_dokl", "step_size"),
], ids="{0[0]}.{0[1]}".format)
def test_algorithm_key_changes_exactly_its_readers(tmp_path, row):
    """Changing a key that only some algorithms read changes the outputs
    of exactly the readers that ``simulator.KEYS`` lists for it."""
    section, key = row
    readers = KEYS[row].readers
    before = _trial_outputs(tmp_path, _READERS_INI)
    changed = {name: dict(keys) for name, keys in _READERS_INI.items()}
    changed.setdefault(section, {})[key] = _SAMPLE_VALUES.get(
        "%s.%s" % row, _SAMPLE_VALUES.get(key))
    after = _trial_outputs(tmp_path, changed)
    assert {alg for alg in before if after[alg] != before[alg]} == set(readers)


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = load_config(_write_ini(tmp_path, blocks[0]))
    assert cfg.task == "synthetic" and cfg.rounds is not None
