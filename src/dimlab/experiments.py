"""Experiment orchestration: config files, sweeps, artifacts, summaries.

An experiment is a dataset source, one model architecture, a lambda grid,
and a list of seeds, applied once per requested monotonic feature set.
Every (feature set, lambda, seed) training run leaves a canonical JSON
report plus a per-epoch CSV under the output directory; the summary table
is a pure function of those reports and can be rebuilt byte-identically
from disk.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, asdict, astuple, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    read_csv_rows,
    write_csv,
)
from .errors import ConfigError, DataError, ParameterError, SchemaError
from .models import ModelConfig, save_model, set_counts, set_reals
from .penalty import COMPLIANCE_ATOL, MonotonicitySpec, fit_batch
from .training import (
    LAMBDA_GRID_DEFAULT,
    EpochRecord,
    RunReport,
    TrainConfig,
    fit_cell,
    lambda_grid_search,
    lambda_medians,
    report_from_json,
    report_to_json,
    select_lambda,
    split_for_seed,
)

log = logging.getLogger(__name__)

TABLE_DECIMALS = 5
AUDIT_TOP_K = 5  # violating pairs listed per feature
DEFAULT_ARCH = "mlp3"


def config_section(cls, raw, name: str, **set_by_run):
    """Build the frozen dataclass ``cls`` from the JSON section ``raw``.

    Its keys must be field names of ``cls``; ``set_by_run`` holds the
    fields the run fills in itself, which the section may not name.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} section must be an object, got {raw!r}")
    unknown = set(raw) - ({f.name for f in fields(cls)} - set(set_by_run))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    try:
        return cls(**raw, **set_by_run)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


@dataclass(frozen=True)
class CsvSource:
    """The ``dataset.csv`` section: a CSV file and its column roles."""

    path: str
    target: str
    monotonic: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.path or not Path(self.path).exists():
            raise ConfigError(f"csv dataset path {self.path!r} does not exist")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description.

    ``dataset`` is either {"synthetic": {...SyntheticConfig keys...}} or
    {"csv": {...CsvSource keys...}}; ``model`` holds ModelConfig keys but
    input_dim and seed, which the run sets. ``monotonic_sets`` of None
    means one single-feature row per monotonic feature of the dataset.
    """

    dataset: dict = field(default_factory=lambda: {"synthetic": {}})
    model: dict = field(default_factory=lambda: {"architecture": DEFAULT_ARCH})
    train: TrainConfig = field(default_factory=TrainConfig)
    grid: tuple[float, ...] = LAMBDA_GRID_DEFAULT
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    monotonic_sets: tuple[tuple[str, ...], ...] | None = None
    output_dir: str = "runs"
    train_frac: float = 0.8
    norm_fit_on_train: bool = False
    validate_on_test: bool = False

    def __post_init__(self):
        set_reals(self, {"grid": "[0, inf)"}, each=True)
        if 0.0 not in self.grid:
            raise ConfigError(
                f"grid must include the 0.0 baseline, got {self.grid}")
        if (not isinstance(self.dataset, dict) or len(self.dataset) != 1
                or set(self.dataset) - {"synthetic", "csv"}):
            raise ConfigError(
                f"dataset must have exactly one of 'synthetic' or 'csv' "
                f"keys, got {self.dataset!r}")
        if "csv" in self.dataset:
            config_section(CsvSource, self.dataset["csv"], "csv")
        set_reals(self, {"train_frac": "(0, 1)"})
        set_counts(self, {"seeds": 0}, each=True)
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        # each cell writes to files named by its (lam, seed) stem
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        stems = {_cell_stem(lam, 0) for lam in self.grid}
        if len(stems) != len(self.grid) or len(set(self.grid)) != len(self.grid):
            raise ConfigError(
                f"grid values must be distinct, also in their artifact names "
                f"(6 significant digits), got {self.grid}")
        if self.monotonic_sets is not None:
            sets = tuple(tuple(str(n) for n in names)
                         for names in self.monotonic_sets)
            if not sets or any(not s for s in sets):
                raise ConfigError("monotonic_sets must be non-empty name lists")
            object.__setattr__(self, "monotonic_sets", sets)
        for flag in ("norm_fit_on_train", "validate_on_test"):
            if not isinstance(getattr(self, flag), bool):
                raise ConfigError(f"{flag} must be true or false, "
                                  f"got {getattr(self, flag)!r}")


def experiment_config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, applying defaults for absent keys."""
    if isinstance(raw, dict) and "train" in raw:
        raw = {**raw, "train": config_section(TrainConfig, raw["train"], "train")}
    return config_section(ExperimentConfig, raw, "config")


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # also undecodable bytes
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return experiment_config_from_dict(raw)


def resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    if "synthetic" in cfg.dataset:
        return generate_synthetic(
            config_section(SyntheticConfig, cfg.dataset["synthetic"],
                           "synthetic"))
    src = config_section(CsvSource, cfg.dataset["csv"], "csv")
    return load_csv(src.path, src.target, src.monotonic)


def build_model_config(cfg: ExperimentConfig, input_dim: int) -> ModelConfig:
    """The model section with the run's input_dim; every cell sets the seed.
    A section without an architecture means the default one."""
    model = cfg.model
    if isinstance(model, dict):
        model = {"architecture": DEFAULT_ARCH, **model}
    return config_section(ModelConfig, model, "model",
                          input_dim=input_dim, seed=0)


def with_monotonic_names(ds: Dataset, names) -> Dataset:
    missing = [n for n in names if n not in ds.feature_names]
    if missing:
        raise ConfigError(
            f"monotonic names {missing} not among features {list(ds.feature_names)}")
    spec = MonotonicitySpec(ds.feature_names.index(n) for n in names)
    return replace(ds, monotonic=spec)


# ---------------------------------------------------------------- summary

@dataclass(frozen=True)
class SummaryRow:
    features: str
    model: str
    baseline_mse: float
    selected_mse: float
    selected_lambda: float
    drop_mse_pct: float
    drop_mae_pct: float
    drop_mape_pct: float


def percent_drop(baseline: float, best: float) -> float:
    """Relative improvement in percent; negative means worsening."""
    if baseline <= 0:
        raise ParameterError(f"baseline must be > 0, got {baseline}")
    return 100.0 * (baseline - best) / baseline


def summarize_row(label: str, model_name: str, reports) -> SummaryRow:
    """Aggregate one sweep into a table row.

    Compares the per-lambda test medians (``lambda_medians``) at lambda=0
    with those at ``select_lambda``'s validation choice; every %drop
    column comes from that one lambda, so a choice of 0 drops nothing.
    """
    med = lambda_medians(reports, "test_metrics")
    if 0.0 not in med:
        raise DataError(f"row {label!r}: no successful baseline (lambda=0) runs")
    lam = select_lambda(reports)
    if lam not in med:
        raise DataError(f"row {label!r}: no test metrics at lambda {lam:g}")
    base, chosen = med[0.0], med[lam]
    drops = [percent_drop(getattr(base, metric), getattr(chosen, metric))
             for metric in ("mse", "mae", "mape")]
    return SummaryRow(label, model_name, base.mse, chosen.mse, lam, *drops)


def _summary_cell(name: str, value) -> str:
    if isinstance(value, str):
        return value
    if name == "selected_lambda":
        return f"{value:g}"
    return f"{value:.{TABLE_DECIMALS}f}"


def summary_to_csv(rows: tuple[SummaryRow, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(SummaryRow)]
    writer.writerow(names)
    for row in rows:
        writer.writerow([_summary_cell(name, getattr(row, name))
                         for name in names])
    return buf.getvalue()


# ---------------------------------------------------------------- artifacts

def _cell_stem(lam: float, seed: int) -> str:
    return f"run_lam{lam:g}_seed{seed}"


def _write_epochs_csv(report: RunReport, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *(f.name for f in fields(EpochRecord))])
        for i, rec in enumerate(report.history):
            writer.writerow([i, *map(repr, astuple(rec))])


def write_run_artifacts(reports, row_dir: Path) -> None:
    row_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        stem = _cell_stem(report.lam, report.seed)
        (row_dir / f"{stem}.json").write_text(report_to_json(report),
                                              encoding="utf-8")
        _write_epochs_csv(report, row_dir / f"{stem}.csv")


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[SummaryRow, ...]
    all_cells_ok: bool


def run_experiment(cfg: ExperimentConfig, max_workers: int = 1) -> ExperimentResult:
    """Execute the full sweep and leave artifacts in cfg.output_dir.

    Layout: <out>/config.json, <out>/summary.csv, and per feature-set
    <out>/<label>/run_lam*_seed*.{json,csv}. Rows are ordered by label so
    the table is a pure function of the artifacts.
    Grid cells may run on a thread pool (max_workers); all file writes
    happen here, on the orchestrating thread, once the dataset, the model
    and every row resolve and the first row has trained.
    """
    base = resolve_dataset(cfg)
    if cfg.monotonic_sets is not None:
        sets = cfg.monotonic_sets
    else:
        sets = tuple((base.feature_names[j],) for j in base.monotonic.indices)
        if not sets:
            raise ConfigError("dataset designates no monotonic features and "
                              "config requests none")
    model_cfg = build_model_config(cfg, base.X.shape[1])
    row_data = [("+".join(names), with_monotonic_names(base, names))
                for names in sorted(sets, key="+".join)]
    # each row owns the directory <out>/<label>
    bad = [label for label, _ in row_data
           if label in ("", ".", "..") or Path(label).name != label]
    if bad:
        raise ConfigError(f"row labels {bad} are not plain directory names")
    if (len({label for label, _ in row_data}) != len(row_data)
            or len({ds.monotonic for _, ds in row_data}) != len(row_data)):
        raise ConfigError(
            f"monotonic sets must name distinct feature sets, got {sets}")

    out = Path(cfg.output_dir)
    # rebuild_summary reads every <out>/*/run_*.json, this sweep's or not
    ours = {out / label / f"{_cell_stem(lam, seed)}.json"
            for label, _ in row_data for lam in cfg.grid for seed in cfg.seeds}
    stale = sorted(str(p) for p in set(out.glob("*/run_*.json")) - ours)
    if stale:
        raise ConfigError(f"{out} holds run reports this sweep would not "
                          f"write, which would mix into its summary: {stale}")
    row_reports = {}
    for label, ds in row_data:
        log.info("sweep %s: %d lambdas x %d seeds", label, len(cfg.grid),
                 len(cfg.seeds))
        reports = lambda_grid_search(
            ds, model_cfg, cfg.train, grid=cfg.grid, seeds=cfg.seeds,
            train_frac=cfg.train_frac,
            norm_fit_on_train=cfg.norm_fit_on_train,
            validate_on_test=cfg.validate_on_test,
            max_workers=max_workers)
        if not row_reports:  # lambda_grid_search's own checks passed too
            out.mkdir(parents=True, exist_ok=True)
            (out / "config.json").write_text(
                json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        row_reports[label] = reports
        write_run_artifacts(reports, out / label)
    # every row has trained and left its run files before any summary
    rows = tuple(summarize_row(label, model_cfg.architecture, reports)
                 for label, reports in row_reports.items())
    all_ok = all(r.error is None for rs in row_reports.values() for r in rs)

    (out / "summary.csv").write_text(summary_to_csv(rows), encoding="utf-8")
    return ExperimentResult(rows=rows, all_cells_ok=all_ok)


def run_single(cfg: ExperimentConfig, lam: float, seed: int) -> RunReport:
    """One (lambda, seed) cell: split, normalize, train, evaluate.

    Writes the report JSON, per-epoch CSV, and a model checkpoint into
    cfg.output_dir. When the config names no monotonic set, the dataset's
    own designation is penalized jointly.
    """
    base = resolve_dataset(cfg)
    if cfg.monotonic_sets is not None:
        if len(cfg.monotonic_sets) != 1:
            raise ConfigError("a single run takes exactly one monotonic set, "
                              f"got {len(cfg.monotonic_sets)}")
        base = with_monotonic_names(base, cfg.monotonic_sets[0])
    model_cfg = build_model_config(cfg, base.X.shape[1])
    train_n, test_n = split_for_seed(base, cfg.train_frac, seed,
                                     cfg.norm_fit_on_train)
    trained, report = fit_cell(lam, seed, model_cfg, cfg.train, train_n,
                               test_n, cfg.validate_on_test)
    out = Path(cfg.output_dir)
    write_run_artifacts([report], out)
    save_model(trained, out / f"{_cell_stem(lam, seed)}.npz")
    return report


def generate_to_csv(cfg: ExperimentConfig, path) -> Dataset:
    if "synthetic" not in cfg.dataset:
        raise ConfigError("generate needs a synthetic dataset section")
    ds = resolve_dataset(cfg)
    write_csv(ds, path)
    return ds


def read_reports(row_dir: Path) -> list[RunReport]:
    reports = []
    for path in sorted(row_dir.glob("run_*.json")):
        try:
            report = report_from_json(path.read_text(encoding="utf-8"))
            model = report.config.get("model")
            if not isinstance(model, dict) or "architecture" not in model:
                raise SchemaError("report config lacks model.architecture")
            reports.append(report)
        except (SchemaError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    return reports


def rebuild_summary(output_dir) -> tuple[SummaryRow, ...]:
    """Reconstruct the summary table purely from on-disk run reports."""
    out = Path(output_dir)
    rows = []
    row_dirs = sorted(d for d in out.iterdir()
                      if d.is_dir() and any(d.glob("run_*.json")))
    if not row_dirs:
        raise DataError(f"{output_dir}: no run artifacts found")
    for d in row_dirs:
        reports = read_reports(d)
        model_name = reports[0].config["model"]["architecture"]
        rows.append(summarize_row(d.name, model_name, reports))
    return tuple(rows)


# ---------------------------------------------------------------- audit

def _read_table(path):
    header, rows = read_csv_rows(path)
    values = []
    for line, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}, line {line}: {len(row)} cells but "
                            f"{len(header)} header names")
        try:
            cells = [float(c) for c in row]
        except ValueError as exc:
            raise DataError(
                f"{path}, line {line}: non-numeric cell: {exc}") from exc
        if not all(np.isfinite(cells)):
            raise DataError(f"{path}, line {line}: non-finite cell in {row}")
        values.append(cells)
    if not values:
        raise DataError(f"{path}: no data rows")
    return header, np.array(values)


def audit(predictions_csv, features_csv, monotonic_names) -> dict:
    """Post-hoc penalty report for externally produced predictions.

    Returns a JSON-ready dict with per-feature penalties, the batch
    penalty, the pooled compliance score, and for each feature the
    AUDIT_TOP_K largest violating adjacent pairs as original row index pairs.
    """
    pred_header, pred_rows = _read_table(predictions_csv)
    if pred_rows.shape[1] != 1:
        raise DataError(
            f"{predictions_csv}: expected a single prediction column, "
            f"got {pred_header}")
    preds = pred_rows[:, 0]
    feat_names, X = _read_table(features_csv)
    if X.shape[0] != preds.shape[0]:
        raise DataError(
            f"row mismatch: {preds.shape[0]} predictions vs {X.shape[0]} "
            f"feature rows")
    missing = [n for n in monotonic_names if n not in feat_names]
    if missing:
        raise DataError(f"monotonic columns {missing} not in {feat_names}")
    idx = [feat_names.index(n) for n in monotonic_names]
    spec = MonotonicitySpec(idx)

    fit = fit_batch(preds, X, spec)
    breakdown = fit.breakdown()

    features = {}
    for name, j in zip(monotonic_names, idx):
        f = fit.features[j]
        entry: dict = {"penalty": breakdown.per_feature[j],
                       "skipped": f is None}
        if f is not None:
            v = f.violations
            entry["slope"] = f.baseline.slope
            entry["intercept"] = f.baseline.intercept
            # largest first; among equal violations the later pair first
            worst = sorted(np.flatnonzero(v > COMPLIANCE_ATOL),
                           key=lambda i: (v[i], i), reverse=True)[:AUDIT_TOP_K]
            entry["top_violations"] = [
                {"rows": [int(fit.perm[i]), int(fit.perm[i + 1])],
                 "violation": float(v[i])}
                for i in worst]
        features[name] = entry

    return {
        "batch_size": breakdown.batch_size,
        "penalty_total": breakdown.total,
        "compliance": fit.compliance(),
        "features": features,
    }
