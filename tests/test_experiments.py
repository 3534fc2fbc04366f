import csv
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import dimlab.data as dp
import dimlab.experiments as ex
import dimlab.models as mz
import dimlab.training as tr
from dimlab.errors import (ConfigError, DataError, NumericError,
                           ParameterError, SchemaError)


def exp_report(lam, seed, mse, mae=1.0, mape=100.0, error=None, val_mse=None):
    """A report whose validation metrics equal its test metrics, but for
    a validation MSE of ``val_mse`` when given."""
    metrics = None if error else tr.Metrics(mse=mse, mae=mae, mape=mape,
                                            compliance=1.0)
    val = metrics if val_mse is None else replace(metrics, mse=val_mse)
    return tr.RunReport(
        config={"train": {"lam": lam, "seed": seed},
                "model": {"architecture": "mlp3"}},
        history=(), best_epoch=-1, val_metrics=val, test_metrics=metrics,
        error=error)


def small_experiment(tmp_path, **kw):
    base = dict(
        dataset={"synthetic": {"n": 80, "seed": 3}},
        model={"architecture": "ann"},
        train=tr.TrainConfig(batch_size=32, max_epochs=2),
        grid=(0.0, 0.5),
        seeds=(0,),
        monotonic_sets=(("x3",),),
        output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    return ex.ExperimentConfig(**base)


# ---------------------------------------------------------------- percent drop

def test_percent_drop_reference_value():
    assert ex.percent_drop(0.26765, 0.21521) == pytest.approx(19.59, abs=0.01)


def test_percent_drop_no_change_is_zero():
    assert ex.percent_drop(0.4321, 0.4321) == 0.0


def test_percent_drop_worsening_is_negative():
    assert ex.percent_drop(10.0, 11.0) == pytest.approx(-10.0)


def test_percent_drop_rejects_nonpositive_baseline():
    with pytest.raises(ParameterError):
        ex.percent_drop(0.0, 1.0)
    with pytest.raises(ParameterError):
        ex.percent_drop(-1.0, 0.5)


# ---------------------------------------------------------------- config

def test_experiment_config_defaults_are_valid():
    cfg = ex.ExperimentConfig()
    assert cfg.grid == tr.LAMBDA_GRID_DEFAULT
    assert cfg.seeds == (1, 2, 3, 4, 5)
    assert cfg.monotonic_sets is None


def test_experiment_config_rejects_negative_grid():
    with pytest.raises(ConfigError, match="grid"):
        ex.ExperimentConfig(grid=(0.0, -0.2))


def test_experiment_config_rejects_empty_seeds():
    with pytest.raises(ConfigError, match="seeds"):
        ex.ExperimentConfig(seeds=())


@pytest.mark.parametrize("seeds", [(1.5,), (1, 2.0), (True,), ("1",), (0, -1)])
def test_experiment_config_seeds_must_be_integers(seeds):
    with pytest.raises(ConfigError, match="seeds must be integers >= 0"):
        ex.ExperimentConfig(seeds=seeds)


def test_experiment_config_reads_a_seed_generator_once():
    assert ex.ExperimentConfig(seeds=(s for s in [1, 2])).seeds == (1, 2)
    with pytest.raises(ConfigError, match="seeds must be non-empty"):
        ex.ExperimentConfig(seeds=iter(()))


def test_experiment_config_numpy_seeds_become_ints():
    cfg = ex.ExperimentConfig(seeds=(np.int64(3), np.int32(4)))
    assert cfg.seeds == (3, 4)
    assert [type(s) for s in cfg.seeds] == [int, int]


def test_experiment_config_rejects_cells_sharing_artifacts():
    # two cells with one (lam, seed) file stem would overwrite each other
    with pytest.raises(ConfigError, match="seeds"):
        ex.ExperimentConfig(seeds=(1, 1, 2))
    for grid in ((0.0, 0.5, 0.5), (0.0, 0.1234567, 0.1234568), (0.0, -0.0)):
        with pytest.raises(ConfigError, match="grid"):
            ex.ExperimentConfig(grid=grid)
    assert ex.ExperimentConfig(grid=(0.0, 0.5, 0.50001)).grid[2] == 0.50001


@pytest.mark.parametrize("grid", [(0.5,), (), (0.2, 0.5)])
def test_experiment_config_rejects_grid_without_baseline(grid):
    with pytest.raises(ConfigError, match="0.0 baseline"):
        ex.ExperimentConfig(grid=grid)


def test_experiment_config_rejects_non_finite_grid():
    for grid in ((0.0, float("nan")), (0.0, float("inf"))):
        with pytest.raises(ConfigError, match="finite"):
            ex.ExperimentConfig(grid=grid)
    with pytest.raises(ConfigError, match="finite"):
        ex.experiment_config_from_dict(json.loads('{"grid": [0.0, NaN]}'))


def test_experiment_config_rejects_missing_csv_path(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        ex.ExperimentConfig(dataset={"csv": {"path": str(tmp_path / "no.csv"),
                                             "target": "y"}})


def test_experiment_config_rejects_bad_dataset_section():
    with pytest.raises(ConfigError, match="dataset"):
        ex.ExperimentConfig(dataset={})
    with pytest.raises(ConfigError, match="dataset"):
        ex.ExperimentConfig(dataset={"synthetic": {}, "csv": {"path": "x"}})


def test_experiment_config_rejects_bad_train_frac():
    with pytest.raises(ConfigError, match="train_frac"):
        ex.ExperimentConfig(train_frac=1.0)


def test_experiment_config_rejects_empty_monotonic_set():
    with pytest.raises(ConfigError, match="monotonic_sets"):
        ex.ExperimentConfig(monotonic_sets=((),))


# (config class, its required arguments, number field, a valid integer)
NUMBER_FIELDS = [
    (tr.TrainConfig, {}, "lam", 2),
    (tr.TrainConfig, {}, "learning_rate", 1),
    (tr.TrainConfig, {}, "val_fraction", 0),
    (mz.ModelConfig, {"architecture": "ann", "input_dim": 4},
     "dropout_rate", 0),
    (dp.SyntheticConfig, {}, "noise_sd", 3),
    (ex.ExperimentConfig, {}, "train_frac", None),  # no integer in (0, 1)
]


@pytest.mark.parametrize("cls, required, field, whole", NUMBER_FIELDS,
                         ids=[f"{c.__name__}.{f}" for c, _, f, _ in NUMBER_FIELDS])
def test_config_numbers_are_floats_not_bools_or_strings(cls, required, field,
                                                        whole):
    for bad in (True, False, "0.5"):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            cls(**required, **{field: bad})
    if whole is not None:  # so 0 and 0.0 write the same report bytes
        assert type(getattr(cls(**required, **{field: whole}), field)) is float


@pytest.mark.parametrize("cls, field, values", [
    (dp.SyntheticConfig, "bump_sds", (1, 0, 2, 0)),
    (ex.ExperimentConfig, "grid", (0, 1))], ids=["bump_sds", "grid"])
def test_config_number_lists_are_floats_not_bools_or_strings(cls, field,
                                                             values):
    for bad in (True, "1"):
        with pytest.raises(ConfigError, match=f"{field} must be finite numbers"):
            cls(**{field: (*values[:-1], bad)})
    stored = getattr(cls(**{field: values}), field)
    assert stored == values and {type(v) for v in stored} == {float}


def test_config_from_json_rejects_true_as_a_number():
    with pytest.raises(ConfigError, match="learning_rate"):
        ex.experiment_config_from_dict({"train": {"learning_rate": True}})


@pytest.mark.parametrize("flag", ["norm_fit_on_train", "validate_on_test"])
@pytest.mark.parametrize("value", ["false", 0])
def test_protocol_flags_must_be_true_or_false(flag, value):
    with pytest.raises(ConfigError, match=f"{flag} must be true or false"):
        ex.experiment_config_from_dict({flag: value})
    assert getattr(ex.experiment_config_from_dict({flag: False}), flag) is False


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ex.experiment_config_from_dict({"gird": [0.0]})


def test_config_from_dict_rejects_bad_train_section():
    with pytest.raises(ConfigError, match="train"):
        ex.experiment_config_from_dict({"train": {"learning_rte": 0.1}})


def test_config_file_roundtrip(tmp_path):
    raw = {
        "dataset": {"synthetic": {"n": 120, "seed": 4}},
        "model": {"architecture": "mlp3"},
        "train": {"learning_rate": 0.01, "max_epochs": 7},
        "grid": [0.0, 0.3],
        "seeds": [1, 2],
        "monotonic_sets": [["x1"], ["x2", "x3"]],
        "output_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    cfg = ex.load_experiment_config(path)
    assert cfg.grid == (0.0, 0.3)
    assert cfg.seeds == (1, 2)
    assert cfg.monotonic_sets == (("x1",), ("x2", "x3"))
    assert cfg.train.max_epochs == 7
    assert ex.experiment_config_from_dict(asdict(cfg)) == cfg


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ex.load_experiment_config(path)


def test_build_model_config_fills_input_dim():
    cfg = ex.ExperimentConfig(model={"architecture": "mlp5"})
    mc = ex.build_model_config(cfg, 4)
    assert mc.architecture == "mlp5"
    assert mc.input_dim == 4
    with pytest.raises(ConfigError, match="unknown model keys"):
        ex.build_model_config(ex.ExperimentConfig(model={"depth": 3}), 4)


def test_with_monotonic_names_maps_to_indices():
    ds = dp.generate_synthetic(dp.SyntheticConfig(n=30))
    out = ex.with_monotonic_names(ds, ("x4", "x2"))
    assert out.monotonic.indices == (1, 3)
    with pytest.raises(ConfigError, match="x9"):
        ex.with_monotonic_names(ds, ("x9",))


# ---------------------------------------------------------------- summary rows

def test_summarize_row_picks_mse_best_lambda():
    reports = [
        exp_report(0.0, 1, mse=1.0, mae=1.0, mape=100.0),
        exp_report(0.5, 1, mse=0.8, mae=0.9, mape=90.0),
        exp_report(1.0, 1, mse=0.9, mae=0.5, mape=95.0),
    ]
    row = ex.summarize_row("x3", "mlp3", reports)
    assert row.selected_lambda == 0.5
    assert row.selected_mse == pytest.approx(0.8)
    assert row.drop_mse_pct == pytest.approx(20.0)
    # every drop column comes from the selected lambda, although
    # lambda=1 has the lower MAE
    assert row.drop_mae_pct == pytest.approx(10.0)
    assert row.drop_mape_pct == pytest.approx(10.0)


def test_summarize_row_reports_test_metrics_at_validation_choice():
    # validation prefers 0.5, test prefers 1.0
    reports = [
        exp_report(0.0, 1, mse=1.0, val_mse=1.0),
        exp_report(0.5, 1, mse=0.9, mae=0.8, mape=70.0, val_mse=0.3),
        exp_report(1.0, 1, mse=0.2, mae=0.1, mape=10.0, val_mse=0.6),
    ]
    row = ex.summarize_row("x3", "mlp3", reports)
    assert row.selected_lambda == 0.5 == tr.select_lambda(reports)
    assert row.selected_mse == pytest.approx(0.9)
    assert row.drop_mse_pct == pytest.approx(10.0)
    assert row.drop_mae_pct == pytest.approx(20.0)
    assert row.drop_mape_pct == pytest.approx(30.0)


def test_summarize_row_medians_across_seeds():
    reports = [exp_report(0.0, s, mse=m) for s, m in enumerate((1.0, 2.0, 3.0))]
    reports += [exp_report(1.0, s, mse=m) for s, m in enumerate((0.5, 10.0, 0.7))]
    row = ex.summarize_row("x1", "ann", reports)
    assert row.baseline_mse == pytest.approx(2.0)
    assert row.selected_mse == pytest.approx(0.7)
    assert row.drop_mse_pct == pytest.approx(65.0)


def test_summarize_row_baseline_only_grid_has_zero_drops():
    row = ex.summarize_row("x2", "ann", [exp_report(0.0, 1, mse=0.4)])
    assert row.selected_lambda == 0.0
    assert row.selected_mse == row.baseline_mse
    assert (row.drop_mse_pct, row.drop_mae_pct, row.drop_mape_pct) == (0, 0, 0)


def test_summarize_row_negative_drop_for_worsening():
    # validation picks lambda=1, whose test MSE is worse
    reports = [exp_report(0.0, 1, mse=1.0),
               exp_report(1.0, 1, mse=1.1, val_mse=0.5)]
    row = ex.summarize_row("x1", "ann", reports)
    assert row.drop_mse_pct == pytest.approx(-10.0)
    assert row.selected_lambda == 1.0


def test_summarize_row_requires_baseline_runs():
    bad = [exp_report(0.0, 1, mse=0.0, error="exploded"),
           exp_report(0.5, 1, mse=0.3)]
    with pytest.raises(DataError, match="baseline"):
        ex.summarize_row("x1", "ann", bad)


def test_summarize_row_requires_test_metrics_at_selected_lambda():
    chosen = replace(exp_report(0.5, 1, mse=0.3), test_metrics=None)
    with pytest.raises(DataError, match="no test metrics at lambda 0.5"):
        ex.summarize_row("x1", "ann", [exp_report(0.0, 1, mse=1.0), chosen])


def test_summary_csv_formatting():
    rows = (
        ex.SummaryRow(features="x3", model="mlp3", baseline_mse=0.26765,
                      selected_mse=0.21521, selected_lambda=1.0,
                      drop_mse_pct=19.593125, drop_mae_pct=0.0,
                      drop_mape_pct=-10.0),
    )
    text = ex.summary_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ("features,model,baseline_mse,selected_mse,"
                        "selected_lambda,"
                        "drop_mse_pct,drop_mae_pct,drop_mape_pct")
    assert lines[1] == "x3,mlp3,0.26765,0.21521,1,19.59313,0.00000,-10.00000"


# ---------------------------------------------------------------- experiments

def test_run_experiment_artifacts_and_rebuild(tmp_path):
    cfg = small_experiment(tmp_path)
    result = ex.run_experiment(cfg)
    out = Path(cfg.output_dir)

    assert result.all_cells_ok
    assert [r.features for r in result.rows] == ["x3"]
    assert result.rows[0].model == "ann"
    assert result.rows[0].selected_lambda in cfg.grid

    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "summary.csv", "x3"]
    for lam in ("0", "0.5"):
        assert (out / "x3" / f"run_lam{lam}_seed0.json").exists()
        assert (out / "x3" / f"run_lam{lam}_seed0.csv").exists()

    # the table is a pure function of the artifacts on disk
    rebuilt = ex.rebuild_summary(out)
    assert ex.summary_to_csv(rebuilt).encode() == (out / "summary.csv").read_bytes()


def test_run_experiment_default_rows_cover_monotonic_features(tmp_path):
    cfg = small_experiment(
        tmp_path, dataset={"synthetic": {"n": 60, "seed": 1}},
        train=tr.TrainConfig(batch_size=32, max_epochs=1),
        grid=(0.0,), monotonic_sets=None)
    result = ex.run_experiment(cfg)
    assert [r.features for r in result.rows] == ["x1", "x2", "x3"]
    assert all(r.drop_mse_pct == 0.0 for r in result.rows)


@pytest.mark.parametrize("change", [
    {"grid": (0.0, 1.0)}, {"seeds": (1,)}, {"monotonic_sets": (("x1",),)}],
    ids=["grid", "seeds", "monotonic_sets"])
def test_run_experiment_refuses_an_output_dir_with_other_cells(tmp_path,
                                                               change):
    cfg = small_experiment(tmp_path)
    first = ex.run_experiment(cfg)
    assert ex.run_experiment(cfg) == first  # the same sweep may rerun
    out = Path(cfg.output_dir)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    with pytest.raises(ConfigError, match="x3/run_lam0.5_seed0.json"):
        ex.run_experiment(replace(cfg, **change))
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_run_experiment_needs_a_monotonic_set_from_config_or_csv(tmp_path):
    data = tmp_path / "data.csv"
    write_table(data, ["x", "y"], np.random.default_rng(0).uniform(size=(40, 2)))
    cfg = small_experiment(tmp_path, monotonic_sets=None, dataset={
        "csv": {"path": str(data), "target": "y"}})
    with pytest.raises(ConfigError, match="designates no monotonic features"):
        ex.run_experiment(cfg)
    assert not Path(cfg.output_dir).exists()


def test_run_reports_roundtrip_through_own_loader(tmp_path):
    cfg = small_experiment(tmp_path)
    ex.run_experiment(cfg)
    row_dir = Path(cfg.output_dir) / "x3"
    reports = ex.read_reports(row_dir)
    assert len(reports) == 2
    for report in reports:
        text = tr.report_to_json(report)
        assert tr.report_from_json(text) == report


def test_epoch_csvs_reparse_losslessly(tmp_path):
    cfg = small_experiment(tmp_path)
    ex.run_experiment(cfg)
    row_dir = Path(cfg.output_dir) / "x3"
    for report in ex.read_reports(row_dir):
        stem = f"run_lam{report.lam:g}_seed{report.seed}"
        with open(row_dir / f"{stem}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_mse", "penalty"]
        assert len(rows) - 1 == len(report.history)
        for parsed, rec in zip(rows[1:], report.history):
            assert float(parsed[1]) == rec.train_loss
            assert float(parsed[2]) == rec.val_mse
            assert float(parsed[3]) == rec.penalty


def test_grid_search_thread_pool_matches_sequential(tmp_path):
    ds = dp.generate_synthetic(dp.SyntheticConfig(n=60, seed=2))
    m_cfg = mz.ModelConfig("ann", 4)
    t_cfg = tr.TrainConfig(batch_size=32, max_epochs=2)
    kw = dict(grid=(0.0, 0.5), seeds=(0,), train_frac=0.8)
    serial = tr.lambda_grid_search(ds, m_cfg, t_cfg, **kw, max_workers=1)
    pooled = tr.lambda_grid_search(ds, m_cfg, t_cfg, **kw, max_workers=2)
    assert [tr.report_to_json(r) for r in serial] == \
           [tr.report_to_json(r) for r in pooled]


def test_run_single_writes_report_and_checkpoint(tmp_path):
    cfg = small_experiment(tmp_path, monotonic_sets=(("x1", "x3"),))
    report = ex.run_single(cfg, lam=0.3, seed=2)
    out = Path(cfg.output_dir)
    assert report.lam == 0.3
    assert report.seed == 2
    assert report.error is None
    assert report.test_metrics is not None
    assert (out / "run_lam0.3_seed2.json").exists()
    assert (out / "run_lam0.3_seed2.csv").exists()
    loaded = mz.load_model(out / "run_lam0.3_seed2.npz")
    assert loaded.config.architecture == "ann"


@pytest.mark.parametrize("flags", [False, True])
def test_run_single_report_matches_sweep_cell(tmp_path, flags):
    kw = dict(norm_fit_on_train=flags, validate_on_test=flags)
    swept = small_experiment(tmp_path / "sweep", **kw)
    ex.run_experiment(swept)
    single = small_experiment(tmp_path / "single", **kw)
    ex.run_single(single, 0.5, 0)
    stem = "run_lam0.5_seed0.json"
    assert ((Path(single.output_dir) / stem).read_bytes()
            == (Path(swept.output_dir) / "x3" / stem).read_bytes())


def test_run_single_rejects_multiple_sets(tmp_path):
    cfg = small_experiment(tmp_path, monotonic_sets=(("x1",), ("x3",)))
    with pytest.raises(ConfigError, match="exactly one"):
        ex.run_single(cfg, lam=0.0, seed=0)


@pytest.mark.parametrize("sets", [(("x3",), ("x3",)),
                                  (("x1", "x3"), ("x3", "x1"))])
def test_run_experiment_rejects_sets_naming_the_same_features(tmp_path, sets):
    cfg = small_experiment(tmp_path, monotonic_sets=sets)
    with pytest.raises(ConfigError, match="distinct"):
        ex.run_experiment(cfg)
    assert not Path(cfg.output_dir).exists()


@pytest.mark.parametrize("column", ["..", "a/b"])
def test_run_experiment_rejects_labels_that_are_not_one_path_part(tmp_path,
                                                                  column):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.csv"
    write_table(data, ["x", "..", "a/b", "y"], rng.uniform(size=(40, 4)))
    cfg = small_experiment(
        tmp_path, monotonic_sets=None,
        dataset={"csv": {"path": str(data), "target": "y",
                         "monotonic": [column]}})
    with pytest.raises(ConfigError, match="plain directory names"):
        ex.run_experiment(cfg)
    assert not Path(cfg.output_dir).exists()
    assert not list(tmp_path.rglob("run_*"))


@pytest.mark.parametrize("bad", [
    {"model": {"architecture": "foo"}},
    {"model": {"depth": 3}},
    {"dataset": {"synthetic": {"nn": 3}}},
])
def test_runs_resolve_dataset_and_model_before_writing(tmp_path, bad):
    cfg = small_experiment(tmp_path, **bad)
    with pytest.raises(ConfigError):
        ex.run_experiment(cfg)
    with pytest.raises(ConfigError):
        ex.run_single(cfg, lam=0.0, seed=0)
    assert not Path(cfg.output_dir).exists()


def test_generate_to_csv_roundtrips(tmp_path):
    cfg = small_experiment(tmp_path, dataset={"synthetic": {"n": 50, "seed": 6}})
    path = tmp_path / "synth.csv"
    ds = ex.generate_to_csv(cfg, path)
    back = dp.load_csv(path, "y", monotonic_columns=("x1", "x2", "x3"))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_generate_to_csv_requires_synthetic(tmp_path):
    src = tmp_path / "data.csv"
    src.write_text("x,y\n1,2\n3,4\n", encoding="utf-8")
    cfg = small_experiment(
        tmp_path, dataset={"csv": {"path": str(src), "target": "y"}})
    with pytest.raises(ConfigError, match="synthetic"):
        ex.generate_to_csv(cfg, tmp_path / "out.csv")


def test_rebuild_summary_rejects_empty_dir(tmp_path):
    with pytest.raises(DataError, match="no run artifacts"):
        ex.rebuild_summary(tmp_path)


# ---------------------------------------------------------------- audit

def write_table(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_audit_hand_batch(tmp_path):
    preds = tmp_path / "preds.csv"
    feats = tmp_path / "feats.csv"
    write_table(preds, ["prediction"], [[0.0], [3.0], [3.0]])
    write_table(feats, ["x"], [[0.0], [1.0], [2.0]])
    payload = ex.audit(preds, feats, ["x"])
    assert payload["batch_size"] == 3
    assert payload["penalty_total"] == pytest.approx(0.75, abs=1e-12)
    assert payload["compliance"] == pytest.approx(0.5, abs=1e-12)
    entry = payload["features"]["x"]
    assert entry["penalty"] == pytest.approx(2.25, abs=1e-12)
    assert entry["slope"] == pytest.approx(1.5, abs=1e-12)
    assert entry["intercept"] == pytest.approx(0.5, abs=1e-12)
    assert entry["top_violations"] == [
        {"rows": [1, 2], "violation": pytest.approx(1.5, abs=1e-12)}]
    json.dumps(payload)  # JSON-serializable end to end


def test_audit_line_fit_predictions_are_compliant(tmp_path):
    # dyadic grid keeps the fitted slope exact, so the penalty is exactly 0
    x = np.arange(12) * 0.25
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[2.0 * v + 1.0] for v in x])
    write_table(feats, ["x"], [[v] for v in x])
    payload = ex.audit(preds, feats, ["x"])
    assert payload["penalty_total"] == 0.0
    assert payload["compliance"] == 1.0
    assert payload["features"]["x"]["top_violations"] == []


def test_audit_lists_the_five_worst_pairs_later_pair_first_on_ties(tmp_path):
    # the increments of the prediction-sorted rows; x rises by exactly 1 per
    # sorted row, so sorted pair i violates by slope - inc[i] when positive
    inc = [0.25, 2.0, 0.5, 0.25, 3.0, 0.125, 2.5, 0.75, 0.375, 4.0, 0.625]
    row_of = [5, 2, 9, 0, 11, 7, 3, 10, 1, 8, 4, 6]  # file row of sorted row
    p, x = np.empty(12), np.empty(12)
    p[row_of] = np.concatenate(([0.0], np.cumsum(inc)))
    x[row_of] = np.arange(12.0)
    preds, feats = tmp_path / "p.csv", tmp_path / "f.csv"
    write_table(preds, ["p"], [[v] for v in p])
    write_table(feats, ["x"], [[v] for v in x])
    entry = ex.audit(preds, feats, ["x"])["features"]["x"]
    violating = [i for i, d in enumerate(inc) if entry["slope"] > d]
    assert violating == [0, 2, 3, 5, 7, 8, 10]
    # 5 first; 3 and 0 tie, the later pair first; 10 and 7 are cut
    listed = [5, 3, 0, 8, 2]
    assert entry["top_violations"] == [
        {"rows": [row_of[i], row_of[i + 1]],
         "violation": entry["slope"] - inc[i]} for i in listed]


def test_audit_constant_predictions_have_zero_slope(tmp_path):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[5.0]] * 4)
    write_table(feats, ["x"], [[0.0], [1.0], [2.0], [3.0]])
    payload = ex.audit(preds, feats, ["x"])
    assert payload["features"]["x"]["slope"] == 0.0
    assert payload["penalty_total"] == 0.0


def test_audit_skips_constant_feature(tmp_path):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[1.0], [2.0], [3.0]])
    write_table(feats, ["x", "c"], [[0.0, 7.0], [1.0, 7.0], [2.0, 7.0]])
    payload = ex.audit(preds, feats, ["x", "c"])
    assert payload["features"]["c"]["skipped"] is True
    assert payload["features"]["c"]["penalty"] == 0.0
    assert payload["features"]["x"]["skipped"] is False


def test_audit_all_constant_monotonic_columns_leave_compliance_undefined(
        tmp_path):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[1.0], [2.0], [3.0]])
    write_table(feats, ["c", "d"], [[7.0, 1.0]] * 3)
    payload = ex.audit(preds, feats, ["c", "d"])
    assert payload["compliance"] is None
    assert payload["penalty_total"] == 0.0
    assert all(f["skipped"] for f in payload["features"].values())


@pytest.mark.parametrize("text, match", [
    ("x\n0\nabc\n", r"f.csv, line 3: non-numeric cell"),
    ("x\n", r"f.csv: no data rows")], ids=["non_numeric", "header_only"])
def test_audit_rejects_a_table_without_numeric_rows(tmp_path, text, match):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[1.0], [2.0]])
    feats.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=match):
        ex.audit(preds, feats, ["x"])


def test_audit_rejects_row_mismatch(tmp_path):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[1.0], [2.0], [3.0]])
    write_table(feats, ["x"], [[0.0], [1.0]])
    with pytest.raises(DataError, match="row mismatch"):
        ex.audit(preds, feats, ["x"])


def test_audit_rejects_multicolumn_predictions(tmp_path):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p", "q"], [[1.0, 2.0]])
    write_table(feats, ["x"], [[0.0]])
    with pytest.raises(DataError, match="single prediction column"):
        ex.audit(preds, feats, ["x"])


def test_audit_rejects_unknown_monotonic_name(tmp_path):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[1.0], [2.0]])
    write_table(feats, ["x"], [[0.0], [1.0]])
    with pytest.raises(DataError, match="z"):
        ex.audit(preds, feats, ["z"])


def test_audit_rejects_duplicate_feature_names(tmp_path):
    preds = tmp_path / "p.csv"
    feats = tmp_path / "f.csv"
    write_table(preds, ["p"], [[1.0], [2.0]])
    write_table(feats, ["x", " x"], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SchemaError, match="duplicate"):
        ex.audit(preds, feats, ["x"])


def test_run_experiment_trains_every_row_before_summarizing(tmp_path,
                                                            monkeypatch):
    real_train = tr.train

    def baseline_fails_on_x1(model, ds, config, val_ds=None):
        if config.lam == 0.0 and ds.monotonic.indices == (0,):
            raise NumericError("boom")
        return real_train(model, ds, config, val_ds=val_ds)

    monkeypatch.setattr(tr, "train", baseline_fails_on_x1)
    cfg = small_experiment(tmp_path, monotonic_sets=(("x1",), ("x3",)))
    with pytest.raises(DataError, match="x1"):
        ex.run_experiment(cfg)
    out = tmp_path / "out"
    assert (out / "x1" / "run_lam0_seed0.json").exists()
    assert (out / "x3" / "run_lam0_seed0.json").exists()
    assert not (out / "summary.csv").exists()


def test_package_exports_the_sweep_api_and_the_error_classes():
    import dimlab

    assert sorted(dimlab.__all__) == [
        "ConfigError", "DataError", "DimensionError", "DimlabError",
        "ExperimentConfig", "ModelConfig", "NumericError", "ParameterError",
        "SchemaError", "SyntheticConfig", "TrainConfig", "generate_synthetic",
        "lambda_grid_search", "run_experiment", "select_lambda"]
    for name in dimlab.__all__:
        assert getattr(dimlab, name) is not None, name
