import csv
import json
from pathlib import Path

import pytest

import dimlab.data as dp
import dimlab.experiments as ex
import dimlab.training as tr
from dimlab import cli
from dimlab.cli import build_parser, main
from dimlab.errors import ConfigError, NumericError


def write_config(tmp_path, **overrides):
    raw = {
        "dataset": {"synthetic": {"n": 60, "seed": 2}},
        "model": {"architecture": "ann"},
        "train": {"batch_size": 32, "max_epochs": 2},
        "grid": [0.0, 0.5],
        "seeds": [0],
        "monotonic_sets": [["x3"]],
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_generate_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "synth.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "x4", "y"]
    assert len(rows) == 61
    assert "wrote 60 rows" in capsys.readouterr().out


def test_generate_without_a_config_writes_the_default_benchmark(
        tmp_path, monkeypatch, capsys):
    # README's first command; the seed is resolved once
    calls = []
    real = cli._resolve_seed
    monkeypatch.setattr(cli, "_resolve_seed",
                        lambda args: calls.append(args) or real(args))
    out = tmp_path / "synth.csv"
    assert main(["generate", "--out", str(out), "--seed", "0"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3", "x4", "y"]
    assert len(rows) == 5001
    assert "wrote 5000 rows" in capsys.readouterr().out
    assert len(calls) == 1


def test_generate_env_seed_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    flagged = tmp_path / "a.csv"
    env = tmp_path / "b.csv"
    assert main(["generate", "--config", str(cfg), "--seed", "9",
                 "--out", str(flagged)]) == 0
    monkeypatch.setenv("DIMLAB_SEED", "9")
    assert main(["generate", "--config", str(cfg), "--out", str(env)]) == 0
    assert flagged.read_bytes() == env.read_bytes()
    monkeypatch.setenv("DIMLAB_SEED", "not-a-number")
    assert main(["generate", "--config", str(cfg),
                 "--out", str(tmp_path / "c.csv")]) == 2


def test_train_single_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "single"
    code = main(["train", "--config", str(cfg), "--lambda", "0.4",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    report = tr.report_from_json(capsys.readouterr().out)
    assert report.lam == 0.4
    assert report.seed == 1
    assert report.test_metrics is not None
    assert (out / "run_lam0.4_seed1.json").exists()
    assert (out / "run_lam0.4_seed1.npz").exists()


def test_a_negative_zero_lambda_is_written_as_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, grid=[-0.0])
    assert main(["sweep", "--config", str(cfg)]) == 0
    row = tmp_path / "out" / "x3"
    assert sorted(p.name for p in row.iterdir()) == ["run_lam0_seed0.csv",
                                                     "run_lam0_seed0.json"]
    assert '"lam": 0.0' in (row / "run_lam0_seed0.json").read_text()
    summary = (tmp_path / "out" / "summary.csv").read_text()
    assert list(csv.DictReader(summary.splitlines()))[0]["selected_lambda"] == "0"

    out = tmp_path / "single"
    assert main(["train", "--config", str(cfg), "--lambda", "-0",
                 "--seed", "1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "run_lam0_seed1.csv", "run_lam0_seed1.json", "run_lam0_seed1.npz"]


def test_sweep_then_report_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    summary = tmp_path / "out" / "summary.csv"
    original = summary.read_bytes()
    sweep_stdout = capsys.readouterr().out

    assert main(["report", str(tmp_path / "out")]) == 0
    assert summary.read_bytes() == original
    assert capsys.readouterr().out.encode() == original
    assert sweep_stdout.encode() == original


def test_sweep_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, grid=[0.0])
    out = tmp_path / "override"
    code = main(["sweep", "--config", str(cfg), "--arch", "mlp3",
                 "--monotonic", "x2", "--out", str(out), "--seed", "3"])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "x2"
    assert row[1] == "mlp3"
    assert (out / "x2" / "run_lam0_seed3.json").exists()


def write_one_epoch_config(tmp_path):
    return write_config(tmp_path, grid=[0.0, 1.0],
                        train={"batch_size": 32, "max_epochs": 1})


def test_sweep_protocol_flags_reach_the_written_config(tmp_path):
    cfg = write_one_epoch_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--validate-on-test",
                 "--norm-fit-on-train", "--baseline-mode", "coupled"]) == 0
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["validate_on_test"] is True
    assert written["norm_fit_on_train"] is True
    assert written["train"]["baseline_mode"] == "coupled"


def test_train_baseline_mode_flag_reaches_the_report(tmp_path, capsys):
    cfg = write_one_epoch_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--lambda", "1",
                 "--baseline-mode", "coupled"]) == 0
    report = tr.report_from_json(capsys.readouterr().out)
    assert report.config["train"]["baseline_mode"] == "coupled"


def test_report_finds_the_run_directory_through_the_config(tmp_path, capsys):
    cfg = write_one_epoch_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    summary = (tmp_path / "out" / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.encode() == summary


def test_sweep_failed_cell_exits_one(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    real_train = tr.train

    def failing(model, ds, config, val_ds=None):
        if config.lam > 0:
            raise NumericError("boom")
        return real_train(model, ds, config, val_ds=val_ds)

    monkeypatch.setattr(tr, "train", failing)
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "error [sweep]" in capsys.readouterr().err
    # failed cell's report is still on disk with the error recorded
    report = tr.report_from_json(
        (tmp_path / "out" / "x3" / "run_lam0.5_seed0.json").read_text())
    assert report.error == "boom"


def test_sweep_that_trains_no_epoch_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, train={"batch_size": 32, "max_epochs": 0})
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "error [config]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_whose_val_fraction_leaves_no_training_rows_is_a_config_error(
        tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={"synthetic": {"n": 10}},
                       train={"val_fraction": 0.95, "max_epochs": 1},
                       grid=[0, 1], seeds=[1])
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error [config]" in err and "val_fraction" in err
    assert not list((tmp_path / "out").glob("**/run_*"))


@pytest.mark.parametrize("section,key,value", [
    ("train", "batch_size", 16.0), ("train", "max_epochs", 1.5),
    ("train", "early_stop_patience", 2.5), ("train", "batch_size", True),
    ("model", "hidden_sizes", [64.7])])
def test_sweep_with_a_non_integer_count_is_a_config_error(
        section, key, value, tmp_path, capsys):
    base = {"train": {"batch_size": 32, "max_epochs": 2},
            "model": {"architecture": "ann"}}[section]
    cfg = write_config(tmp_path, **{section: {**base, key: value}})
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error [config]" in err and "integer" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    {"dataset": {"synthetic": {"n": 300.5, "seed": 2}}},
    {"dataset": {"synthetic": {"n": 60, "bins": 2.5, "seed": 2}}},
    {"dataset": {"synthetic": {"n": 60, "seed": 1.5}}},
    {"seeds": [1.5]},
    {"seeds": [-1]},
], ids=["n", "bins", "synthetic_seed", "seeds", "negative_seeds"])
def test_sweep_with_a_non_integer_data_count_or_seed_is_a_config_error(
        overrides, tmp_path, capsys):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error [config]" in err and "integer" in err
    assert not (tmp_path / "out").exists()


def test_sweep_with_a_single_seed_for_a_list_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds=5)
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error [config]: seeds must be integers >= 0, got 5" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("synthetic", [
    {"n": 60, "seed": 2, "noise_sd": float("nan")},
    {"n": 60, "seed": 2, "bump_sds": [1.0, float("inf"), 0.0, 0.0]},
    {"n": 60, "seed": 2, "noise_sd": True},
    {"n": 60, "seed": 2, "bump_sds": [1.0, "2", 0.0, 0.0]},
], ids=["noise_sd", "bump_sds", "noise_sd_true", "bump_sds_string"])
def test_sweep_with_a_non_finite_spread_is_a_config_error(
        synthetic, tmp_path, capsys):
    # json writes NaN and Infinity, and reads them back
    cfg = write_config(tmp_path, dataset={"synthetic": synthetic})
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error [config]" in err and "finite" in err
    assert not (tmp_path / "out").exists()


def test_audit_cli(tmp_path, capsys):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    preds.write_text("pred\n0\n3\n3\n", encoding="utf-8")
    feats.write_text("x\n0\n1\n2\n", encoding="utf-8")

    assert main(["audit", str(preds), str(feats), "--monotonic", "x"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["compliance"] == pytest.approx(0.5)
    assert payload["penalty_total"] == pytest.approx(0.75)

    out = tmp_path / "audit.json"
    assert main(["audit", str(preds), str(feats), "--monotonic", "x",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == payload


def test_audit_requires_monotonic(tmp_path, capsys):
    preds = tmp_path / "p.csv"
    preds.write_text("pred\n1\n", encoding="utf-8")
    assert main(["audit", str(preds), str(preds)]) == 2
    assert "error [config]" in capsys.readouterr().err
    # a flag that names no feature once split at commas
    assert main(["audit", str(preds), str(preds), "--monotonic", ","]) == 2
    assert "error [config]" in capsys.readouterr().err


def test_audit_of_a_name_that_is_not_a_feature_is_a_config_error(tmp_path,
                                                                 capsys):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    preds.write_text("pred\n0\n3\n", encoding="utf-8")
    feats.write_text("x\n0\n1\n", encoding="utf-8")
    assert main(["audit", str(preds), str(feats), "--monotonic", "z"]) == 2
    err = capsys.readouterr().err
    assert "error [config]" in err and "['z']" in err


def test_audit_of_a_repeated_name_is_a_config_error(tmp_path, capsys):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    preds.write_text("pred\n0\n3\n", encoding="utf-8")
    feats.write_text("x\n0\n1\n", encoding="utf-8")
    assert main(["audit", str(preds), str(feats), "--monotonic", "x,x"]) == 2
    err = capsys.readouterr().err
    assert "error [config]: duplicate monotonic names ['x']" in err


@pytest.mark.parametrize("output_dir", [5, None, ""],
                         ids=["number", "null", "empty"])
@pytest.mark.parametrize("command", ["sweep", "train"])
def test_an_output_dir_that_is_not_a_path_is_a_config_error(
        command, output_dir, tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, output_dir=output_dir)
    monkeypatch.chdir(tmp_path)  # a relative write would land here
    assert main([command, "--config", str(cfg)]) == 2
    assert "error [config]: output_dir" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_report_needs_artifacts(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert "error [report]" in capsys.readouterr().err
    assert main(["report"]) == 2
    assert "error [config]" in capsys.readouterr().err


def test_bad_config_is_stage_tagged(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": [-1.0]}', encoding="utf-8")
    assert main(["sweep", "--config", str(bad)]) == 2
    assert "error [config]" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error [config]" in capsys.readouterr().err


# every (subcommand, flag) pair the subcommand does not read
UNREAD_FLAGS = [
    ("generate", ["--lambda", "0.4"]),
    ("generate", ["--arch", "ann"]),
    ("generate", ["--monotonic", "x3"]),
    ("generate", ["--validate-on-test"]),
    ("generate", ["--baseline-mode", "coupled"]),
    ("generate", ["--norm-fit-on-train"]),
    ("sweep", ["--lambda", "0.4"]),
    ("audit", ["--config", "c.json"]),
    ("audit", ["--seed", "1"]),
    ("audit", ["--lambda", "0.4"]),
    ("audit", ["--arch", "ann"]),
    ("audit", ["--validate-on-test"]),
    ("audit", ["--baseline-mode", "coupled"]),
    ("audit", ["--norm-fit-on-train"]),
    ("report", ["--seed", "1"]),
    ("report", ["--lambda", "0.4"]),
    ("report", ["--arch", "ann"]),
    ("report", ["--monotonic", "x3"]),
    ("report", ["--validate-on-test"]),
    ("report", ["--baseline-mode", "coupled"]),
    ("report", ["--norm-fit-on-train"]),
]
POSITIONALS = {"audit": ["p.csv", "f.csv"], "report": ["runs"]}


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in UNREAD_FLAGS])
def test_subcommand_rejects_flags_it_does_not_read(command, flag, capsys):
    argv = [command, *POSITIONALS.get(command, []), *flag]
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _csv_dataset(tmp_path):
    path = tmp_path / "d.csv"
    dp.write_csv(dp.generate_synthetic(dp.SyntheticConfig(n=60, seed=1)), path)
    return str(path)


MALFORMED_SECTIONS = {
    "csv_without_target": lambda p: {"dataset": {"csv": {"path": p}}},
    "csv_not_an_object": lambda p: {"dataset": {"csv": "d.csv"}},
    "model_not_an_object": lambda p: {"model": "mlp3"},
    "csv_misspelled_key": lambda p: {
        "dataset": {"csv": {"path": p, "target": "y", "monotonc": ["x3"]}}},
    "model_seed": lambda p: {"model": {"architecture": "ann", "seed": 3}},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SECTIONS))
def test_malformed_section_is_a_config_error(name, tmp_path, capsys):
    path = write_config(tmp_path,
                        **MALFORMED_SECTIONS[name](_csv_dataset(tmp_path)))
    with pytest.raises(ConfigError):
        ex.run_experiment(ex.load_experiment_config(path))
    assert not (tmp_path / "out").exists()
    assert main(["sweep", "--config", str(path)]) == 2
    assert "error [config]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_seed_applies_to_synthetic_section_only(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={
        "csv": {"path": _csv_dataset(tmp_path), "target": "y"}})
    out = tmp_path / "gen.csv"
    assert main(["generate", "--config", str(cfg), "--seed", "3",
                 "--out", str(out)]) == 2
    assert "error [config]" in capsys.readouterr().err
    assert not out.exists()


# features CSV text and the line of its first ragged row
RAGGED_FEATURES = {
    "short_row_among_full": ("a,b\n1,2\n3\n5,6\n", 3),
    "every_row_wider": ("a,b\n1,2,9\n3,4,9\n5,6,9\n", 2),
    "every_row_narrower": ("a,b,c\n1,2\n3,4\n5,6\n", 2),
}


@pytest.mark.parametrize("name", sorted(RAGGED_FEATURES))
def test_audit_rejects_rows_of_another_width(name, tmp_path, capsys):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    preds.write_text("pred\n0\n1\n2\n", encoding="utf-8")
    text, line = RAGGED_FEATURES[name]
    feats.write_text(text, encoding="utf-8")
    assert main(["audit", str(preds), str(feats), "--monotonic", "b"]) == 2
    err = capsys.readouterr().err
    assert "error [audit]" in err and f"{feats}, line {line}:" in err


# predictions CSV, features CSV, the one holding the non-finite cell, its line
NON_FINITE_AUDIT = {
    "nan_prediction": ("pred\n0\nnan\n2\n", "a,b\n1,2\n3,4\n5,6\n", "p", 3),
    "inf_prediction": ("pred\n0\n1\ninf\n", "a,b\n1,2\n3,4\n5,6\n", "p", 4),
    "minus_inf_feature": ("pred\n0\n1\n2\n", "a,b\n1,2\n3,-inf\n5,6\n",
                          "f", 3),
    "nan_in_unaudited_feature": ("pred\n0\n1\n2\n",
                                 "a,b\nNaN,2\n3,4\n5,6\n", "f", 2),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_AUDIT))
def test_audit_rejects_non_finite_cells(name, tmp_path, capsys):
    preds_text, feats_text, bad, line = NON_FINITE_AUDIT[name]
    files = {"p": tmp_path / "p.csv", "f": tmp_path / "f.csv"}
    files["p"].write_text(preds_text, encoding="utf-8")
    files["f"].write_text(feats_text, encoding="utf-8")
    out = tmp_path / "audit.json"
    assert main(["audit", str(files["p"]), str(files["f"]), "--monotonic", "b",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error [audit]" in err and f"{files[bad]}, line {line}:" in err
    assert "non-finite" in err
    assert not out.exists()


def test_non_utf8_csv_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(b"x1,y\n1,2\n\xff\xfe,3\n")
    cfg = write_config(tmp_path, dataset={
        "csv": {"path": str(data), "target": "y"}}, monotonic_sets=[["x1"]])
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "error [sweep]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    preds = tmp_path / "p.csv"
    preds.write_text("pred\n0\n1\n", encoding="utf-8")
    assert main(["audit", str(preds), str(data), "--monotonic", "x1"]) == 2
    assert "error [audit]" in capsys.readouterr().err


def edit_report(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload).encode()


def edit_config(text, edit):
    return edit_report(text, lambda report: edit(report["config"]))


DAMAGED_REPORTS = {
    "truncated": lambda text: text[:len(text) // 2].encode(),
    "no_test_metrics": lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items()
         if k != "test_metrics"}).encode(),
    "not_utf8": lambda text: b"\xff" + text.encode(),
    "no_train_config": lambda text: edit_config(
        text, lambda config: config.pop("train")),
    "no_model_architecture": lambda text: edit_config(
        text, lambda config: config["model"].pop("architecture")),
    "schema_version_2": lambda text: edit_report(
        text, lambda report: report.update(schema_version=2)),
    "history_extra_key": lambda text: edit_report(
        text, lambda report: report["history"][0].update(extra=1.0)),
    "no_train_lam": lambda text: edit_config(
        text, lambda config: config["train"].pop("lam")),
}


@pytest.mark.parametrize("name", sorted(DAMAGED_REPORTS))
def test_report_names_a_damaged_run_report(name, tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "x3" / "run_lam0.5_seed0.json"
    path.write_bytes(DAMAGED_REPORTS[name](path.read_text(encoding="utf-8")))
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error [report]" in err and str(path) in err


# (where, key, value): a field of the lam=0.5 report set to a wrong type
DAMAGED_FIELDS = {
    "train_is_a_list": (("config",), "train", ["lam", "seed"]),
    "train_is_a_string": (("config",), "train", "lam seed"),
    "lam_is_a_string": (("config", "train"), "lam", "0.5"),
    "lam_is_a_bool": (("config", "train"), "lam", True),
    "seed_is_a_float": (("config", "train"), "seed", 0.5),
    "seed_is_a_string": (("config", "train"), "seed", "0"),
    "test_mse_is_a_string": (("test_metrics",), "mse", "1.0"),
    "test_mae_is_null": (("test_metrics",), "mae", None),
    "test_mape_is_a_list": (("test_metrics",), "mape", [1.0]),
    "val_mse_is_a_bool": (("val_metrics",), "mse", True),
    "compliance_is_a_string": (("test_metrics",), "compliance", "high"),
    "architecture_is_null": (("config", "model"), "architecture", None),
    "architecture_is_a_list": (("config", "model"), "architecture", ["mlp3"]),
    "architecture_is_a_number": (("config", "model"), "architecture", 5),
}


@pytest.mark.parametrize("name", sorted(DAMAGED_FIELDS))
def test_report_refuses_a_field_of_the_wrong_type(name, tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    path = tmp_path / "out" / "x3" / "run_lam0.5_seed0.json"
    where, key, value = DAMAGED_FIELDS[name]

    def damage(report):
        for section in where:
            report = report[section]
        report[key] = value

    path.write_bytes(edit_report(path.read_text(encoding="utf-8"), damage))
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error [report]: {path}: report {where[-1]}.{key} must be" in err
