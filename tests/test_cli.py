import contextlib
import io
import json
import math
import os
import subprocess
import tempfile
import warnings
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrf
from specrf.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK, main
from specrf.estimator import load_model, mse
from specrf.filters import audit_filter, make_filter
from specrf.harness import ExperimentPlan, ingest_csv_dataset


def _tiny_plan(seed=0):
    return ExperimentPlan(
        experiment="heatmap",
        base_seed=seed,
        repetitions=2,
        n_train=200,
        n_test=200,
        m_grid=[8, 16],
        t_grid=[1, 4],
    )


def _tiny_plan_file(tmp_path, seed=0):
    path = tmp_path / "plan.json"
    path.write_text(_tiny_plan(seed).to_json())
    return path


def test_heatmap_command_writes_outputs(tmp_path, capsys):
    plan = _tiny_plan_file(tmp_path)
    out = tmp_path / "out"
    assert main(["heatmap", "--config", str(plan), "--out-dir", str(out)]) == EXIT_OK
    assert (out / "results.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "plan.resolved.json").exists()
    assert "8 rows" in capsys.readouterr().out


def test_heatmap_outputs_identical_across_worker_counts(tmp_path):
    plan = _tiny_plan_file(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["heatmap", "--config", str(plan), "--out-dir", str(a), "--workers", "1"]) == EXIT_OK
    assert main(["heatmap", "--config", str(plan), "--out-dir", str(b), "--workers", "4"]) == EXIT_OK
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_audit_filters_command(tmp_path, capsys):
    out = tmp_path / "audits"
    assert main(["audit-filters", "--out-dir", str(out)]) == EXIT_OK
    reports = json.loads((out / "filter_audits.json").read_text())
    assert {r["filter"] for r in reports} == {
        "tikhonov", "landweber", "heavyball", "spectral_cutoff"
    }
    lines = capsys.readouterr().out.strip().split("\n")
    assert all(line.endswith("PASS") for line in lines)


def test_audit_filters_file_is_the_json_of_each_report(tmp_path):
    # the bytes the command wrote when it round-tripped each report through to_json
    out = tmp_path / "audits"
    assert main(["audit-filters", "--out-dir", str(out)]) == EXIT_OK
    filters = (make_filter("tikhonov"), make_filter("landweber", alpha=1.0),
               make_filter("heavyball", alpha=0.1, beta=0.9), make_filter("spectral_cutoff"))
    q_values = (0.5, 1.0, 1.5, 2.0, 4.0)
    reports = [json.loads(audit_filter(f, q_values=q_values).to_json()) for f in filters]
    assert (out / "filter_audits.json").read_text() == json.dumps(reports, indent=2) + "\n"


def test_fit_command_designer(tmp_path, capsys):
    config = {
        "data": {"designer": {"J": 8, "b": 1.0, "r": 0.5, "noise_std": 0.1}, "n": 100},
        "feature_map": {
            "kind": "designer_finite_rank",
            "num_samples": 8,
            "params": {"decay_exponent": 1.0},
        },
        "filter": {"kind": "tikhonov"},
        "lambda": 0.1,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "model"
    assert main(["fit", "--config", str(cfg), "--out-dir", str(out), "--seed", "3"]) == EXIT_OK
    assert (out / "model.json").exists()
    report = json.loads(capsys.readouterr().out)
    assert report["fit_path"] == "spectral"
    assert report["train_mse"] > 0


def test_fit_command_csv_data(tmp_path, capsys):
    data = tmp_path / "train.csv"
    rows = ["%f,%f" % (0.3 * i % 1.0, 0.1 * i % 1.0) for i in range(40)]
    data.write_text("\n".join(rows) + "\n")
    config = {
        "data": {"path": str(data)},
        "feature_map": {"kind": "gaussian_rff", "num_samples": 16},
        "filter": {"kind": "landweber", "alpha": 0.5},
        "iterations": 8,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(config))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["fit_path"] == "iterative"
    assert report["iterations"] == 8


def test_diagnose_command(tmp_path):
    out = tmp_path / "diag"
    code = main([
        "diagnose", "--out-dir", str(out), "--rank", "16", "--grid-points", "5"
    ])
    assert code == EXIT_OK
    records = json.loads((out / "diagnostics.json").read_text())
    assert len(records) == 5
    assert all("effective_dimension" in r for r in records)


def test_fit_requires_config(capsys):
    assert main(["fit"]) == EXIT_ERROR
    assert "requires --config" in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    code = main(["heatmap", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "rate-sweep"])
@pytest.mark.parametrize("content,named", [
    (b'{"data": ', "Expecting value: line 1 column 10 (char 9)"),
    (b'\xff{"data": {}}', "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["truncated-json", "not-utf8"])
def test_unreadable_config_exits_1_naming_the_file(tmp_path, capsys, command, content, named):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {named}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("filt", [
    {"kind": "landweber", "alpha": 0.5}, {"kind": "heavyball", "alpha": 0.05, "beta": 0.5},
], ids=["landweber", "heavyball"])
def test_an_iterative_filter_given_lambda_fits_the_derived_T_to_the_byte(tmp_path, capsys, filt):
    # the filter picks fit_iterative for lambda as for iterations: the same T and theta
    lam, base = 0.05, {key: v for key, v in _FIT_CONFIG.items() if key != "lambda"}
    T = specrf.make_filter(**filt).resolve(lam)[1]
    reports, thetas = [], []
    for given in ({"lambda": lam}, {"iterations": T}):
        cfg, out = tmp_path / "fit.json", tmp_path / str(len(thetas))
        cfg.write_text(json.dumps({**base, "filter": filt, **given}))
        assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
        thetas.append(json.loads((out / "model.json").read_text())["theta_b64"])
    assert [(r["fit_path"], r["iterations"]) for r in reports] == [("iterative", T)] * 2
    assert reports[0]["lambda"] == lam
    assert thetas[0] == thetas[1]


def test_an_iterative_filter_given_lambda_is_not_capped_by_the_eigensolver(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(specrf.filters, "EIG_DIM_CAP", 8)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({**_FIT_CONFIG, "feature_map": {"kind": "gaussian_rff", "num_samples": 24},
                               "filter": {"kind": "landweber", "alpha": 0.5}}))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert (report["embedding_dim"], report["fit_path"]) == (24, "iterative")


def test_plateau_command_exit_codes(tmp_path):
    # n = 100 makes the anchor columns 40 and 200; small enough to run fast
    plan = ExperimentPlan(
        experiment="heatmap",
        base_seed=1,
        repetitions=10,
        n_train=100,
        n_test=100,
        m_grid=[40, 200],
        t_grid=[1, 4, 16],
    )
    cfg = tmp_path / "plan.json"
    cfg.write_text(plan.to_json())
    code = main(["plateau", "--config", str(cfg), "--out-dir", str(tmp_path / "p")])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert summary["plateau"]["pass"] == (code == EXIT_OK)


def test_plateau_exits_2_with_a_reason_when_every_cell_fails(tmp_path, capsys):
    # NTK tau = gamma = 10 puts alpha * ||Sigma|| far past 2 for Landweber alpha = 0.5
    plan = ExperimentPlan(
        experiment="heatmap",
        base_seed=1,
        repetitions=10,
        n_train=100,
        n_test=100,
        m_grid=[40, 200],
        t_grid=[1, 4],
        feature_map={"kind": "ntk_one_layer", "params": {"tau": 10.0, "gamma": 10.0}},
    )
    cfg = tmp_path / "plan.json"
    cfg.write_text(plan.to_json())
    code = main(["plateau", "--config", str(cfg), "--out-dir", str(tmp_path / "p")])
    assert code == EXIT_CHECK_FAILED
    assert capsys.readouterr().out == "plateau check: FAIL\n"
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert summary["plateau"]["pass"] is False
    assert summary["plateau"]["reason"] == (
        "anchor best cells below 10 repetitions: M = 40 has 0, M = 200 has 0"
    )
    assert summary["aggregates"] == []
    # every cell says why it failed: 2 M values x 10 reps x 2 T values
    assert len(summary["failures"]) == 40
    assert all(f["error"].startswith("DivergenceError(") for f in summary["failures"])


def test_fit_rejects_non_finite_csv_cell(tmp_path, capsys):
    data = tmp_path / "train.csv"
    rows = ["%f,%f" % (0.3 * i % 1.0, 0.1 * i % 1.0) for i in range(40)]
    rows[7] = "nan,0.5"
    data.write_text("\n".join(rows) + "\n")
    config = {
        "data": {"path": str(data)},
        "feature_map": {"kind": "gaussian_rff", "num_samples": 16},
        "filter": {"kind": "tikhonov"},
        "lambda": 0.1,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(config))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "m" / "model.json").exists()


def test_fit_on_a_csv_with_an_unclosed_quote_exits_1_naming_its_line(tmp_path, capsys):
    # csv reads the rest of the 20000-row file into one field, past csv's field size limit
    data = tmp_path / "train.csv"
    rows = ["%d,0.5,0.25" % (i % 3) for i in range(20000)]
    rows[1] = '"1,0.5,0.25'
    data.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({**_FIT_CONFIG, "data": {"path": str(data)}}))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_ERROR
    limit = "field larger than field limit (131072)"
    assert capsys.readouterr().err == f"error: {data}:2: unreadable csv record ({limit})\n"


def test_fit_on_a_singular_tikhonov_system_names_the_filter_and_lambda(tmp_path, capsys):
    # identity NTK with tau = 1e153 on 1000 rows of 0.5: Sigma_hat + 0.1 I is singular
    data = tmp_path / "train.csv"
    data.write_text("1.0,0.5,0.5\n" * 1000)
    config = {
        "data": {"path": str(data)},
        "feature_map": {"kind": "ntk_one_layer", "num_samples": 1, "params": {
            "tau": 1e153, "rho_max": 1.0, "activation": "identity"}},
        "filter": {"kind": "tikhonov"},
        "lambda": 0.1,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(config))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: tikhonov: Sigma_hat + lam I is singular at lam = 0.1\n"
    assert not (tmp_path / "m" / "model.json").exists()


def test_fit_config_missing_keys_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"data": {"designer": {"J": 8, "b": 1.0, "r": 0.5}}}))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "feature_map, filter" in err


@pytest.mark.parametrize("change,named", [
    ({"feature_map": {"kind": "gaussian_rff"}}, "num_samples"),
    ({"data": {"n": 100}}, "path or designer"),
    ({"data": {"path": "train.csv", "standardize": True}}, "standardize"),
    ({"data": {"designer": {"J": 8, "b": 1.0, "r": 0.5, "foo": 1}}},
     "data.designer keys not taken by make_designer_problem: foo"),
    ({"data": {"designer": {"J": 8, "b": 1.0}}}, "data.designer is missing required keys: r"),
    ({"data": {"path": "train.csv", "options": {"stdz": True}}},
     "data.options keys not taken by ingest_csv_dataset: stdz"),
    ({"data": {"path": "train.csv", "options": {"path": "b.csv"}}}, "ingest_csv_dataset: path"),
    ({"filter": {"alpha": 0.5}}, "filter is missing required keys: kind"),
    ({"filter": {"kind": "tikhonov", "alpha": 0.5}}, "filter tikhonov keys not taken by Tikhonov: alpha"),
])
def test_fit_config_nested_key_errors(tmp_path, capsys, change, named):
    config = {
        "data": {"designer": {"J": 8, "b": 1.0, "r": 0.5}, "n": 100},
        "feature_map": {"kind": "gaussian_rff", "num_samples": 16},
        "filter": {"kind": "tikhonov"},
        "lambda": 0.1,
        **change,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(config))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def test_unknown_plan_key_is_an_error(tmp_path, capsys):
    plan = json.loads(_tiny_plan_file(tmp_path).read_text())
    plan["repetitons"] = 3
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(plan))
    assert main(["heatmap", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "repetitons" in err


def _tiny_rate_plan():
    return json.loads(ExperimentPlan(
        experiment="rate_sweep",
        repetitions=1,
        n_grid=[64, 128, 256, 512, 1024],
        problem={"type": "designer", "J": 8, "b": 1.0, "r": 0.5},
        filter={"kind": "tikhonov"},
    ).to_json())


_FIT_CONFIG = {
    "data": {"designer": {"J": 8, "b": 1.0, "r": 0.5}, "n": 100},
    "feature_map": {"kind": "gaussian_rff", "num_samples": 16},
    "filter": {"kind": "tikhonov"},
    "lambda": 0.1,
}
_DESIGNER = {"type": "designer", "J": 8, "b": 1.0, "r": 0.5}


@pytest.mark.parametrize("command,change,named", [
    ("heatmap", {"filter": {"alpha": 0.5}}, "filter is missing required keys: kind"),
    ("heatmap", {"feature_map": {"params": {"bandwidth": 1.0}}}, "missing required keys: kind"),
    ("heatmap", {"feature_map": {"kind": "gaussian_rff", "bandwith": 2.0}}, "bandwith"),
    ("heatmap", {"feature_map": {"kind": "gaussian_rff", "params": {"bandwith": 2.0}}}, "bandwith"),
    ("heatmap", {"problem": _DESIGNER}, "'designer'"),
    ("heatmap", {"problem": {"type": "synthetc", "input_dim": 1}}, "'synthetc'"),
    ("heatmap", {"problem": {"input_dim": 1, "noise_std": 0.3}}, "problem type"),
    ("heatmap", {"problem": {"type": "synthetic", "noise_sd": 0.1}}, "noise_sd"),
    ("heatmap", {"schedule": {"C_lamda": 2.0}}, "C_lamda"),
    ("rate-sweep", {"problem": {**_DESIGNER, "seed": 3}}, "seed"),
    ("rate-sweep", {"problem": {**_DESIGNER, "noise": 0.1}}, "noise"),
    ("fit", {"filter": {"kind": "landweber", "alpha": 0.5}, "iteration": 3}, "iteration"),
    ("fit", {"feature_map": {"kind": "gaussian_rff", "num_samples": 16, "bandwith": 2.0}},
     "bandwith"),
    ("rate-sweep", {"problem": {**_DESIGNER, "h_weights": [1.0] * 8}}, "h_weights"),
    ("rate-sweep", {"problem": {**_DESIGNER, "J": 8.5}}, "rank J"),
    ("heatmap", {"schedule": None}, "plan schedule must be a JSON object, not null"),
    ("heatmap", {"feature_map": None}, "plan feature_map must be a JSON object, not null"),
    ("heatmap", {"filter": []}, "plan filter must be a JSON object, not list"),
    ("heatmap", {"problem": None}, "plan problem must be a JSON object, not null"),
    ("fit", {"filter": None}, "fit config filter must be a JSON object, not null"),
    ("fit", {"data": None}, "fit config data must be a JSON object, not null"),
    ("fit", {"feature_map": {"kind": "gaussian_rff", "num_samples": 16, "params": None}},
     "feature map params must be a JSON object"),
    ("fit", {"lambda": "0.1"}, "lam must be a real number, not '0.1'"),
    ("fit", {"filter": {"kind": "landweber", "alpha": 0.5}, "iterations": 2.5},
     "iterations must be an integer >= 1, not 2.5"),
    ("fit", {"filter": {"kind": "landweber", "alpha": 0.5}, "lambda": 0.5, "iterations": 40},
     "fit config gives both lambda and iterations"),
    ("fit", {"data": {"designer": {"J": 8, "b": 1.0, "r": 0.5, "h_weights": [1.0] * 8}, "n": 100}},
     "fit config data.designer keys not taken by make_designer_problem: h_weights"),
    ("heatmap", {"t_grid": [0, 4]}, "plan t_grid: iterations must be an integer >= 1, not 0"),
    ("heatmap", {"t_grid": [2.5, 4]}, "plan t_grid: iterations must be an integer >= 1, not 2.5"),
    ("heatmap", {"n_train": 0}, "plan n_train must be an integer >= 1, not 0"),
    ("fit", {"feature_map": {"kind": "gaussian_rff", "num_samples": 8.5}},
     "num_samples must be an integer >= 1, not 8.5"),
    ("heatmap", {"m_grid": [8.5, 16]}, "plan m_grid entry must be an integer >= 1, not 8.5"),
    ("rate-sweep", {"n_grid": [64, 128, 256, 512, 1024.5]},
     "plan n_grid entry must be an integer >= 1, not 1024.5"),
    ("heatmap", {"repetitions": 2.5}, "plan repetitions must be an integer >= 1, not 2.5"),
    ("heatmap", {"n_train": "200"}, "plan n_train must be an integer >= 1, not '200'"),
    ("heatmap", {"base_seed": "x"}, "plan base_seed must be an integer >= 0, not 'x'"),
    ("rate-sweep", {"schedule": {"C_M": "4"}}, "plan schedule C_M must be a real number, not '4'"),
    ("rate-sweep", {"schedule": {"r": 0.5}}, "plan schedule keys not taken by lambda_schedule or m_schedule: r"),
    ("rate-sweep", {"schedule": {"C_M": -1}}, "C_M must be positive, not -1"),
    ("rate-sweep", {"schedule": {"C_M": 0}}, "C_M must be positive, not 0"),
    ("rate-sweep", {"schedule": {"C_lambda": 0}}, "C_lambda must be positive, not 0"),
    ("heatmap", {"filter": {"kind": "tikhonov"}},
     "plan t_grid: filter tikhonov is not iterative and takes no iteration count"),
    ("heatmap", {"plateau_tol": "x"}, "plan plateau_tol must be a real number, not 'x'"),
    ("heatmap", {"plateau_tol": -3.0}, "plan plateau_tol must be >= 0, not -3.0"),
    *[("fit", {"data": {**_FIT_CONFIG["data"], "n": n}}, f"fit config data n must be an integer >= 1, not {n!r}")
      for n in (100.5, "100", True)],
    ("fit", {"filter": {"kind": "landweber", "alpha": "0.5"}}, "landweber alpha must be a real number"),
    ("fit", {"filter": {"kind": "heavyball", "beta": None}}, "heavyball beta must be a real number"),
    *[("fit", {"data": {"designer": {"J": 8, "b": 1.0, "r": 0.5, key: value}, "n": 100}},
       f"designer {key} must be a real number")
      for key, value in (("b", "1.0"), ("noise_std", None), ("R", [1]), ("eigenvalue_scale", "2"))],
    ("heatmap", {"m_grid": 3}, "plan m_grid must be a list, not 3"),
    ("rate-sweep", {"n_grid": 12345}, "plan n_grid must be a list, not 12345"),
    *[("fit", {"feature_map": {"kind": "gaussian_rff", "num_samples": 16, "params": {"bandwidth": value}}},
       "gaussian_rff param bandwidth must be a real number")
      for value in (None, "2", True, [1])],
    ("fit", {"feature_map": {"kind": "ntk_one_layer", "num_samples": 8, "params": {"tau": None}}},
     "ntk_one_layer param tau must be a real number, not None"),
    *[("fit", {"feature_map": {"kind": "designer_finite_rank", "num_samples": 2,
                               "params": {"eigenvalues": mu}}}, "eigenvalues must be finite")
      for mu in ([float("nan"), 0.5], [None, 0.5], [float("inf"), 1.0])],
    *[("fit", {"feature_map": {"kind": "designer_finite_rank", "num_samples": 4,
                               "params": {"decay_exponent": d}}}, "decay_exponent must be positive")
      for d in (0, -1)],
    ("fit", {"feature_map": {"kind": "gaussian_rff", "num_samples": 16, "params": {"bandwidth": 1e-320}}},
     "bandwidth must be positive with finite frequencies, not 1e-320"),
    ("fit", {"feature_map": {"kind": "ntk_one_layer", "num_samples": 8, "params": {"tau": 1e200}}},
     "kappa_sq overflows: tau=1e+200"),
    ("fit", {"feature_map": {"kind": "ntk_one_layer", "num_samples": 8, "params": {"tau": 1e154}}},
     "kappa_sq overflows: tau=1e+154"),
    # finite data and kappa_sq, but the mean of tau * gamma * y = 1e10 * 7.9e299 is past the double range
    ("fit", {"data": {"designer": {"J": 8, "b": 1.0, "r": 0.5, "R": 1e300}, "n": 100},
             "feature_map": {"kind": "ntk_one_layer", "num_samples": 1, "params": {
                 "tau": 1e10, "activation": "identity"}}},
     "ntk_one_layer map embeds the data to a non-finite Sigma_hat or s_hat"),
    ("fit", {"feature_map": {"kind": "designer_finite_rank", "num_samples": 8,
                             "params": {"eigenvalues": [5.0, 2.5, 1.6, 1.2, 1.0, 0.8, 0.7, 0.6]}},
             "filter": {"kind": "landweber", "alpha": 1.0}, "lambda": 0.001},
     "step size 1.0 unstable: alpha * ||Sigma|| = "),
    # labels.csv, which the test writes, has one column: a label and no feature
    ("fit", {"data": {"path": "labels.csv"}},
     "labels.csv: needs a label column and at least one feature column"),
    ("heatmap", {"problem": {"type": "dataset", "path": "labels.csv"}},
     "labels.csv: needs a label column and at least one feature column"),
    ("rate-sweep", {"feature_map": {"kind": "ntk_one_layer", "params": {}}},
     "plan feature_map is not read by a rate_sweep plan; leave it out"),
    ("rate-sweep", {"m_grid": [5]}, "plan m_grid is not read by a rate_sweep plan"),
    ("rate-sweep", {"t_grid": [3]}, "plan t_grid is not read by a rate_sweep plan"),
    ("rate-sweep", {"n_train": 7}, "plan n_train is not read by a rate_sweep plan"),
    ("rate-sweep", {"n_test": 7}, "plan n_test is not read by a rate_sweep plan"),
    ("rate-sweep", {"plateau_tol": 0.9}, "plan plateau_tol is not read by a rate_sweep plan"),
    ("heatmap", {"n_grid": [64, 128, 256, 512, 1024]}, "plan n_grid is not read by a heatmap plan"),
    ("heatmap", {"schedule": {"C_M": 0.5}}, "plan schedule is not read by a heatmap plan; leave it out"),
    ("heatmap", {"experiment": "plateau_check", "n_grid": [64]},
     "plan n_grid is not read by a plateau_check plan"),
    ("heatmap", {"experiment": "plateau_check", "schedule": {"C_lambda": 0.1}},
     "plan schedule is not read by a plateau_check plan"),
    # values that changed no output: delta repeated C_lambda, a heatmap scales each split by
    # its training rows anyway, and the designer map of a fit draws nothing from its seed
    ("rate-sweep", {"schedule": {"delta": 0.1}},
     "plan schedule keys not taken by lambda_schedule or m_schedule: delta"),
    ("heatmap", {"schedule": {"delta": 2 / math.e}},
     "plan schedule keys not taken by lambda_schedule or m_schedule: delta"),
    ("heatmap", {"problem": {"type": "dataset", "path": "labels.csv", "standardize": True}},
     "dataset problem keys not taken by ingest_csv_dataset: standardize"),
    ("heatmap", {"experiment": "plateau_check",
                 "problem": {"type": "dataset", "path": "labels.csv", "standardize": False}},
     "dataset problem keys not taken by ingest_csv_dataset: standardize"),
    ("fit", {"data": {"designer": {"J": 8, "b": 1.0, "r": 0.5, "seed": 0}, "n": 100}},
     "fit config data.designer keys not taken by make_designer_problem: seed"),
    # decay_exponent only generates eigenvalues, so the pair is one value given twice
    ("fit", {"feature_map": {"kind": "designer_finite_rank", "num_samples": 8, "params": {
        "eigenvalues": [1.0 / j for j in range(1, 9)], "decay_exponent": 1.0}}},
     "designer map takes eigenvalues or decay_exponent, not both"),
], ids=[
    "plan-filter-without-kind", "plan-feature_map-without-kind", "plan-feature_map-typo",
    "plan-feature_map-params-typo", "heatmap-problem-designer", "heatmap-problem-type-typo",
    "plan-problem-without-type", "synthetic-problem-typo", "schedule-typo", "rate-problem-seed",
    "rate-problem-typo", "fit-top-level-typo", "fit-feature_map-typo", "rate-problem-h_weights",
    "rate-problem-fractional-rank", "plan-schedule-null", "plan-feature_map-null",
    "plan-filter-list", "plan-problem-null", "fit-filter-null", "fit-data-null",
    "fit-feature_map-params-null", "fit-lambda-string", "fit-fractional-iterations",
    "fit-lambda-and-iterations", "fit-designer-h_weights",
    "heatmap-t_grid-zero", "heatmap-t_grid-fraction", "heatmap-n_train-zero",
    "fit-fractional-num_samples", "heatmap-fractional-m_grid", "rate-fractional-n_grid",
    "plan-fractional-repetitions", "plan-string-n_train", "plan-string-base_seed",
    "rate-schedule-string", "rate-schedule-r", "rate-negative-C_M", "rate-zero-C_M",
    "rate-zero-C_lambda", "heatmap-tikhonov", "plan-string-plateau_tol",
    "plan-negative-plateau_tol",
    "fit-fractional-n", "fit-string-n", "fit-bool-n", "fit-landweber-string-alpha",
    "fit-heavyball-null-beta", "fit-designer-string-b", "fit-designer-null-noise_std",
    "fit-designer-list-R", "fit-designer-string-eigenvalue_scale", "heatmap-scalar-m_grid",
    "rate-scalar-n_grid", "fit-null-bandwidth", "fit-string-bandwidth", "fit-bool-bandwidth",
    "fit-list-bandwidth", "fit-null-tau", "fit-nan-eigenvalue", "fit-null-eigenvalue",
    "fit-inf-eigenvalue", "fit-zero-decay_exponent", "fit-negative-decay_exponent",
    "fit-tiny-bandwidth", "fit-overflowing-tau", "fit-overflowing-kappa_sq", "fit-non-finite-moments",
    "fit-unstable-landweber", "fit-label-only-csv", "heatmap-label-only-csv", "rate-feature_map",
    "rate-m_grid", "rate-t_grid", "rate-n_train",
    "rate-n_test", "rate-plateau_tol", "heatmap-n_grid", "heatmap-schedule", "plateau-n_grid",
    "plateau-schedule", "rate-schedule-delta", "heatmap-schedule-delta", "heatmap-dataset-standardize",
    "plateau-dataset-standardize", "fit-designer-seed", "fit-eigenvalues-and-decay_exponent",
])
def test_bad_config_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch, command, change, named):
    (tmp_path / "labels.csv").write_text("1\n2\n3\n")
    monkeypatch.chdir(tmp_path)
    base = {
        "heatmap": json.loads(_tiny_plan_file(tmp_path).read_text()),
        "rate-sweep": _tiny_rate_plan(),
        "fit": _FIT_CONFIG,
    }[command]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**base, **change}))
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # nothing is written for a config that fails


@pytest.mark.parametrize("command", ["heatmap", "rate-sweep"])
def test_seed_flag_overrides_the_plan_base_seed(tmp_path, command):
    plan = json.loads(_tiny_plan().to_json()) if command == "heatmap" else _tiny_rate_plan()
    runs = {"flag": (plan, ["--seed", "3"]), "plan": ({**plan, "base_seed": 3}, []),
            "seed0": (plan, [])}
    for name, (given, flags) in runs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(given))
        assert main([command, "--config", str(cfg), *flags, "--out-dir", str(tmp_path / name)]) == EXIT_OK
    flag, written, seed0 = (tmp_path / name for name in runs)
    resolved = (flag / "plan.resolved.json").read_text()
    assert json.loads(resolved)["base_seed"] == 3
    assert ExperimentPlan(**json.loads(resolved)).to_json() + "\n" == resolved  # it loads as a plan
    for out in ("results.csv", "plan.resolved.json", "summary.json"):
        assert (flag / out).read_bytes() == (written / out).read_bytes()
    assert (flag / "results.csv").read_bytes() != (seed0 / "results.csv").read_bytes()


def test_audit_filters_rejects_flags_it_does_not_read(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit-filters", "--config", "x", "--out-dir", str(tmp_path / "audits")])
    assert exc.value.code != EXIT_OK
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["audit-filters", "--seed", "1"], ["heatmap", "--bogus"],
                                  ["diagnose", "--seed", "7"]],
                         ids=["audit-filters-seed", "heatmap-bogus", "diagnose-seed"])
def test_usage_error_exits_1_with_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv,named", [
    (["fit", "--seed", "-1"], "argument --seed: must be an integer >= 0, not '-1'"),
    (["heatmap", "--seed", "x"], "argument --seed: must be an integer >= 0, not 'x'"),
    (["heatmap", "--workers", "0"], "argument --workers: must be an integer >= 1, not '0'"),
    (["rate-sweep", "--workers", "1.5"], "argument --workers: must be an integer >= 1, not '1.5'"),
    (["diagnose", "--grid-points", "-1"], "argument --grid-points: must be an integer >= 1, not '-1'"),
    (["diagnose", "--rank", "1"], "argument --rank: must be an integer >= 2, not '1'"),
    (["diagnose", "--rank", "16.5"], "argument --rank: must be an integer >= 2, not '16.5'"),
], ids=["fit-negative-seed", "heatmap-string-seed", "heatmap-zero-workers", "rate-fractional-workers",
        "diagnose-negative-grid-points", "diagnose-rank-1", "diagnose-fractional-rank"])
def test_bad_flag_value_exits_1_naming_the_flag(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out


@pytest.mark.parametrize("fit_path,fit", [
    ("spectral", {"filter": {"kind": "tikhonov"}, "lambda": 0.01}),
    ("iterative", {"filter": {"kind": "landweber", "alpha": 0.5}, "iterations": 20}),
], ids=["spectral", "iterative"])
def test_fit_train_mse_is_the_mse_of_the_saved_model(tmp_path, capsys, fit_path, fit):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((300, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(300)
    data = tmp_path / "train.csv"
    np.savetxt(data, np.column_stack([y, X]), delimiter=",")
    config = {
        "data": {"path": str(data)},
        "feature_map": {"kind": "gaussian_rff", "num_samples": 32},
        **fit,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "m"
    assert main(["fit", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["fit_path"] == fit_path
    X, y = ingest_csv_dataset(str(data))
    want = mse(load_model(str(out / "model.json")), X, y)
    assert report["train_mse"] == pytest.approx(want, rel=1e-9, abs=0.0)


def test_integral_float_rank_runs_on_both_designer_paths(tmp_path):
    plan, fit = _tiny_rate_plan(), json.loads(json.dumps(_FIT_CONFIG))
    plan["problem"]["J"] = fit["data"]["designer"]["J"] = 8.0
    for command, conf in (("rate-sweep", plan), ("fit", fit)):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(conf))
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / command)]) == EXIT_OK


def test_cli_imports_without_scipy():
    src = str(Path(specrf.__file__).resolve().parents[1])
    code = "import sys, specrf.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("option,named", [
    ({"label_col": "x"}, "label_col must be an integer >= -3, not 'x'"),
    ({"label_col": 3}, "label_col 3: label column out of range for width 3"),
    ({"max_rows": "2"}, "max_rows must be an integer >= 1, not '2'"),
    ({"max_rows": 0}, "max_rows must be an integer >= 1, not 0"),
    ({"max_rows": -1}, "max_rows must be an integer >= 1, not -1"),
    ({"delimiter": 5}, "delimiter must be a one-character string, not 5"),
    ({"feature_cols": "x"}, "feature_cols must be null or a nonempty list, not 'x'"),
    ({"feature_cols": [5]}, "feature_cols entry 5: feature column out of range for width 2"),
    ({"feature_cols": [0, 0]}, "feature_cols repeats entries: 0"),
    ({"feature_cols": [0, -2]}, "feature_cols repeats entries: 0"),
    ({"feature_cols": [1, 0, -1, -2]}, "feature_cols repeats entries: 0, 1"),
    ({"has_header": "yes"}, "has_header must be true or false, not 'yes'"),
    ({"standardize": 1}, "standardize must be true or false, not 1"),
])
def test_bad_csv_option_exits_1_naming_the_option(tmp_path, capsys, option, named):
    data = tmp_path / "train.csv"
    data.write_text("1,0.1,0.2\n2,0.3,0.4\n3,0.5,0.6\n")
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({**_FIT_CONFIG, "data": {"path": str(data), "options": option}}))
    assert main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {named}\n"


def test_empty_csv_writes_only_its_error_line(tmp_path):
    # in a fresh interpreter, so that a warning np.loadtxt gives would reach stderr
    (tmp_path / "empty.csv").write_text("")
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({**_FIT_CONFIG, "data": {"path": str(tmp_path / "empty.csv")}}))
    src = str(Path(specrf.__file__).resolve().parents[1])
    code = "import sys; from specrf.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run([sys.executable, "-c", code, "fit", "--config", str(cfg), "--out-dir",
                          str(tmp_path / "out")], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert run.returncode == EXIT_ERROR
    assert run.stderr == f"error: {tmp_path / 'empty.csv'}: no data rows\n"


@pytest.mark.parametrize("filt", [
    {"kind": "tikhonov"}, {"kind": "landweber", "alpha": 0.5},
    {"kind": "heavyball", "alpha": 0.05, "beta": 0.5},
], ids=["tikhonov", "landweber", "heavyball"])
def test_rate_sweep_records_the_steps_an_iterative_filter_ran(tmp_path, filt):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({**_tiny_rate_plan(), "filter": filt}))
    assert main(["rate-sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == "n,M,T,lambda,rep,metric,value"
    f = specrf.make_filter(**filt)
    for line in lines[1:]:
        _, _, T, lam, *_ = line.split(",")
        assert int(T) == (f.iterations_for_lambda(float(lam)) if f.iterative else 0)
    if f.iterative:
        assert len({line.split(",")[2] for line in lines[1:]}) == 5  # one T for each n
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["qualification_sufficient"] is True  # r = 0.5


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_degenerate_rate_sweep_writes_a_null_slope(tmp_path, capsys):
    # noiseless, J = 8 and spectral cutoff at a small lambda recover g exactly: no risk to take a log of
    plan = {**_tiny_rate_plan(), "repetitions": 2, "n_grid": [32, 64, 128, 256, 512],
            "problem": {**_DESIGNER, "noise_std": 0.0}, "filter": {"kind": "spectral_cutoff"},
            "schedule": {"C_lambda": 0.01}}
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(plan))
    assert main(["rate-sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "rate sweep: degenerate, a mean excess risk vanishes, so no slope (target -0.2500)\n"
    summary = _strict_json((tmp_path / "out" / "summary.json").read_text())
    assert summary["degenerate"] is True
    assert summary["slope"] is None and summary["slope_stderr"] is None


def test_failing_rate_sweep_cell_names_itself(tmp_path, capsys):
    plan = {**_tiny_rate_plan(), "filter": {"kind": "landweber", "alpha": 1.0}}
    plan["problem"] = {**_DESIGNER, "J": 16, "eigenvalue_scale": 5.0}
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(plan))
    assert main(["rate-sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: rate sweep cell n = 64, rep = 0: step size 1.0 unstable: alpha * ||Sigma|| = 5.55 >= 2\n"
    )


_BAD_VALUES = (None, [1], "x", float("nan"), -1, 0.5)
# a fit on train.csv, which the property test writes next to its config
_CSV_FIT_CONFIG = {
    **_FIT_CONFIG,
    "data": {"path": "train.csv", "options": {
        "label_col": 0, "delimiter": ",", "has_header": True, "max_rows": 5,
        "feature_cols": [0, 1], "standardize": True,
    }},
}
_CSV = "y,a,b\n" + "".join(f"{i},{i / 7:.3f},{(-1) ** i / 3:.3f}\n" for i in range(6))
_ADDED_KEYS = ("zzz", "seed", "iterations", "h_weights", "eigenvalue_scale", "eigenvalues", "n")


def _key_paths(conf, prefix=()):
    """The path of every dict key and list entry in a JSON config, outermost first."""
    items = conf.items() if isinstance(conf, dict) else enumerate(conf) if isinstance(conf, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _at(conf, path):
    for key in path:
        conf = conf[key]
    return conf


def _mutated(conf, path, value=None, drop=False):
    """A copy of `conf` with the key or entry at `path` dropped or set to `value`."""
    conf = json.loads(json.dumps(conf))
    parent = _at(conf, path[:-1])
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return conf


@settings(max_examples=800, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_mutation_of_a_valid_config_exits_0_or_1_with_one_error_line(data):
    command, conf = data.draw(st.sampled_from([
        ("fit", _FIT_CONFIG),
        ("fit", _CSV_FIT_CONFIG),
        ("heatmap", json.loads(_tiny_plan().to_json())),
        ("rate-sweep", _tiny_rate_plan()),
    ]))
    paths = list(_key_paths(conf))
    how = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if how == "drop":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        conf = _mutated(conf, path, drop=True)
    elif how == "add":
        dicts = [p for p in [()] + paths if isinstance(_at(conf, p), dict)]
        path = data.draw(st.sampled_from(dicts)) + (data.draw(st.sampled_from(_ADDED_KEYS)),)
        conf = _mutated(conf, path, data.draw(st.sampled_from(_BAD_VALUES)))
    else:
        path = data.draw(st.sampled_from(paths))
        conf = _mutated(conf, path, data.draw(st.sampled_from(_BAD_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(conf))
        (Path(tmp) / "train.csv").write_text(_CSV)
        err = io.StringIO()
        # a warning is printed to stderr by the command line, but recorded under pytest
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cwd = os.getcwd()
            os.chdir(tmp)  # the CSV config's path is relative
            try:
                code = main([command, "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])
            finally:
                os.chdir(cwd)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_ERROR), (command, conf)
    if code == EXIT_ERROR:
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert [str(w.message) for w in caught] == [], (command, conf)
