import csv
import json
from pathlib import Path

import pytest

import dimlab.training as tr
from dimlab.cli import main
from dimlab.errors import NumericError


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
