"""Tests for the config loader and the command-line entry points."""

import csv

import numpy as np
import pytest

import domkl.learners
from domkl.cli import cmd_run, cmd_sweep, cmd_validate, load_config, main
from domkl.errors import ConfigError

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
    [("noise_std = 0.02", "noise_std = 0.02\n\n[algorithm.comkl]\nloss_mode = avg")],
    [("noise_std = 0.02", "noise_std = 0.02\ninput_dim = 0")],
    [("noise_std = 0.02", "noise_std = -1")],
    [("bandwidth = 0.1", "bandwidth = 0")],
    [("bandwidths = 0.05, 0.1", "bandwidths = -0.1")],
    [("bandwidths = 0.05, 0.1", "bandwidths =")],
    _TIMESERIES + [("ar_coefficients = 0.5 -0.2", "ar_coefficients =")],
    _TIMESERIES + [("ar_samples = 60", "ar_samples = 60\nar_order = 0")],
    _TIMESERIES + [("ar_samples = 60", "ar_samples = 3")],
    _TIMESERIES + [("ar_samples = 60", "ar_samples = 60\nar_noise_std = -1")],
], ids=["rho", "connection_prob", "loss_mode", "input_dim", "noise_std",
        "bandwidth", "bandwidths", "bandwidths_empty", "ar_coefficients",
        "ar_order", "ar_samples", "ar_noise_std"])
def test_bad_values_exit_2(tmp_path, capsys, edits):
    text = _BASE_INI
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    assert cmd_run(_write_ini(tmp_path, text), out_dir=str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "results.csv").exists()


def _trial_setup_errors(tmp_path):
    """INI texts that load cleanly but fail while trial 0 is set up."""
    topo = tmp_path / "split.txt"
    topo.write_text("0 1\n2 3\n")
    disconnected = _BASE_INI.replace(
        "num_nodes = 3", "num_nodes = 4\ntopology = %s" % topo)
    bad_index = _BASE_INI.replace(
        "algorithms = domkl", "algorithms = dokl").replace(
        "bandwidths = 0.05, 0.1", "bandwidths = 0.05, 0.1\nkernel_index = 2")
    return [(disconnected, "topology"), (bad_index, "kernel_index 2")]


def test_trial_setup_config_errors_exit_2(tmp_path, capsys):
    for text, named in _trial_setup_errors(tmp_path):
        path = _write_ini(tmp_path, text)
        assert cmd_run(path, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: trial 0: %s" % named)
        assert main(["sweep", "--config", path, "--rho", "10",
                     "--eta-g", "10", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: trial 0: %s" % named)
    assert not (tmp_path / "results.csv").exists()
    assert not (tmp_path / "sweep.csv").exists()


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
    assert cmd_run(path, overrides={"seed": 4}, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "results.csv").read_bytes() != first


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
