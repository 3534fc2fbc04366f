"""Adam training of the combined objective, metrics, and lambda selection.

Reproducibility contract: every stochastic choice draws from its own
keyed stream seeded as default_rng([STREAM_KEY, seed]), so the validation
carve-out, the per-epoch shuffles, and the dropout masks are identical
across penalty weights and across reruns. RunReports serialize to
canonical JSON (sorted keys, wall time excluded) and are bit-identical
for identical seeds.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, asdict, replace
from types import SimpleNamespace

import numpy as np

from . import penalty as pen
from .autodiff import backward_pass, pool_map
from .data import Dataset, apply_normalization, minmax_normalize, train_test_split
from .errors import (ConfigError, DataError, DimlabError, NumericError,
                     ParameterError)
from .models import (
    Model,
    ModelConfig,
    build_model,
    flatten,
    forward,
    forward_with_params,
    set_numbers,
    unflatten,
)

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MAPE_GUARD = 1e-8

# rng stream keys (seeded as [key, seed])
CARVE_STREAM = 301
SHUFFLE_STREAM = 302
DROPOUT_STREAM = 303

REPORT_SCHEMA_VERSION = 1

LAMBDA_GRID_DEFAULT = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.0
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 50
    early_stop_patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0
    baseline_mode: str = "frozen"

    def __post_init__(self):
        set_numbers(self, {"lam": "[0, inf)", "learning_rate": "(0, inf)",
                           "batch_size": 1, "max_epochs": 0,
                           "early_stop_patience": 1, "seed": 0,
                           "val_fraction": "[0, 1)"})
        if self.baseline_mode not in pen.BASELINE_MODES:
            raise ConfigError(
                f"baseline_mode must be one of {pen.BASELINE_MODES}, "
                f"got {self.baseline_mode!r}")


@dataclass(frozen=True)
class Metrics:
    mse: float
    mae: float
    mape: float
    compliance: float | None  # None when no usable monotonic pairs exist


@dataclass(frozen=True)
class EpochRecord:
    train_loss: float
    val_mse: float
    penalty: float


@dataclass(frozen=True)
class RunReport:
    """One training run's record.

    ``wall_time_s`` is informational only and excluded from the canonical
    JSON so identical seeds produce bit-identical artifacts.
    """

    config: dict
    history: tuple[EpochRecord, ...]
    best_epoch: int  # index into history; -1 when no epoch ran
    val_metrics: Metrics | None = None
    test_metrics: Metrics | None = None
    error: str | None = None
    wall_time_s: float = 0.0

    @property
    def lam(self) -> float:
        return self.config["train"]["lam"]

    @property
    def seed(self) -> int:
        return self.config["train"]["seed"]


def report_to_json(report: RunReport) -> str:
    payload = asdict(report)
    del payload["wall_time_s"]
    payload["schema_version"] = REPORT_SCHEMA_VERSION
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> RunReport:
    """Parse ``report_to_json``'s output; anything else is a DataError."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise DataError(f"invalid JSON: {exc}") from exc
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != REPORT_SCHEMA_VERSION:
        raise DataError(f"unsupported report schema {version!r}")

    def check(where, value, kind, noun):
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DataError(f"report {where} must be {noun}, got {value!r}")

    def mk(split):
        if payload[split] is None:
            return None
        m = Metrics(**payload[split])
        for name in ("mse", "mae", "mape"):
            check(f"{split}.{name}", getattr(m, name), (int, float), "a number")
        if m.compliance is not None:
            check(f"{split}.compliance", m.compliance, (int, float),
                  "a number or null")
        return m

    try:
        config = payload["config"]
        for section in ("train", "model"):
            check(f"config.{section}", config[section], dict, "an object")
        # read by RunReport.lam and .seed, and by rebuild_summary
        for section, key, kind, noun in (
                ("train", "lam", (int, float), "a number"),
                ("train", "seed", int, "an integer"),
                ("model", "architecture", str, "a string")):
            if key not in config[section]:
                raise DataError(f"report config lacks {section}.{key}")
            check(f"{section}.{key}", config[section][key], kind, noun)
        return RunReport(
            config=config,
            history=tuple(EpochRecord(**rec) for rec in payload["history"]),
            best_epoch=payload["best_epoch"],
            val_metrics=mk("val_metrics"),
            test_metrics=mk("test_metrics"),
            error=payload["error"],
        )
    except KeyError as exc:
        raise DataError(f"missing report key {exc}") from exc
    except TypeError as exc:
        raise DataError(f"malformed report: {exc}") from exc


# ---------------------------------------------------------------- optimizer

@dataclass
class AdamState:
    """Adam's step count and moments over one flat parameter vector whose
    parameters ``layout`` lists as (name, shape), in packing order."""

    step: int
    m: np.ndarray
    v: np.ndarray
    layout: list[tuple[str, tuple[int, ...]]]

    @classmethod
    def init_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        layout = [(k, np.shape(p)) for k, p in params.items()]
        size = sum(np.size(p) for p in params.values())
        return cls(step=0, m=np.zeros(size), v=np.zeros(size), layout=layout)


def adam_step(flat: np.ndarray, g: np.ndarray, state: AdamState,
              lr: float) -> None:
    """One bias-corrected Adam update of ``flat``, the parameters packed in
    ``state.layout`` order, and of ``state``, all in place. ``g`` is the
    gradient vector in that layout, as ``forward_with_params`` gives it.

    The per-element arithmetic is the textbook per-array form, op for op,
    so the bits do not depend on how the parameters are packed.
    """
    if g.shape != state.m.shape:
        raise ParameterError(f"gradient vector of shape {g.shape} does not "
                             f"match the parameters {state.layout}")
    if not np.isfinite(g).all():
        name = next(k for k, a in unflatten(g, state.layout).items()
                    if not np.isfinite(a).all())
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    t = state.step + 1
    # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    g = g * g
    g *= 1.0 - ADAM_BETA2
    state.v *= ADAM_BETA2
    state.v += g
    # flat -= (lr * m_hat) / (sqrt(v_hat) + eps), bias corrections divided
    update = state.m / (1.0 - ADAM_BETA1 ** t)
    update *= lr
    denom = state.v / (1.0 - ADAM_BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    flat -= update
    state.step = t


# ---------------------------------------------------------------- evaluation

def metrics_from_predictions(preds, ds: Dataset) -> Metrics:
    """Closed-form error metrics plus compliance for given predictions."""
    if ds.n_rows == 0:
        raise DataError("cannot evaluate on an empty dataset")
    preds = np.asarray(preds, dtype=np.float64)
    err = preds - ds.y
    mse = float(np.mean(err * err))
    mae = float(np.mean(np.abs(err)))
    mape = float(100.0 * np.mean(np.abs(err) / np.maximum(np.abs(ds.y), MAPE_GUARD)))
    return Metrics(mse=mse, mae=mae, mape=mape,
                   compliance=pen.compliance_score(preds, ds.X, ds.monotonic))


def evaluate(model: Model, ds: Dataset) -> Metrics:
    """Eval-mode metrics over a full split; compliance may be undefined."""
    return metrics_from_predictions(forward(model, ds.X).value, ds)


def _val_mse(model: Model, ds: Dataset) -> float:
    err = forward(model, ds.X).value - ds.y
    return float(np.mean(err * err))


# ---------------------------------------------------------------- training

def _config_snapshot(model_config: ModelConfig, config: TrainConfig) -> dict:
    snap = {"model": asdict(model_config), "train": asdict(config)}
    snap["model"]["hidden_sizes"] = list(model_config.hidden_sizes)
    return snap


def _validation_rows(n: int, val_fraction: float) -> int:
    """How many of ``n`` training rows the carve holds out: none at
    ``val_fraction`` 0 or below 2 rows, else at least one; a ConfigError
    when none would be left to train on."""
    if val_fraction == 0.0 or n < 2:
        return 0
    n_val = max(1, int(round(val_fraction * n)))
    if n_val >= n:
        raise ConfigError(f"val_fraction {val_fraction} leaves no training rows")
    return n_val


def _carve_validation(train_ds: Dataset,
                      config: TrainConfig) -> tuple[Dataset, Dataset]:
    """Seeded (fit, validation) rows of the training split; with no
    held-out rows, early stopping watches the training split itself."""
    n = train_ds.n_rows
    n_val = _validation_rows(n, config.val_fraction)
    if n_val == 0:
        return train_ds, train_ds
    perm = np.random.default_rng([CARVE_STREAM, config.seed]).permutation(n)

    def take(idx):
        return replace(train_ds, X=train_ds.X[idx], y=train_ds.y[idx])

    return take(perm[n_val:]), take(perm[:n_val])


def train(model: Model, train_ds: Dataset, config: TrainConfig,
          val_ds: Dataset | None = None):
    """Mini-batch Adam on the combined objective with early stopping.

    A validation subset of ``val_fraction`` rows is carved from the
    training split (seeded) unless ``val_ds`` is supplied. Stops after
    ``early_stop_patience`` epochs without validation-MSE improvement and
    restores the best parameters. Returns (model, RunReport).
    """
    if train_ds.n_rows == 0:
        raise DataError("cannot train on an empty dataset")
    if val_ds is not None and val_ds.n_rows == 0:
        raise DataError("cannot validate on an empty dataset")
    t0 = time.perf_counter()
    if val_ds is None:
        train_ds, val_ds = _carve_validation(train_ds, config)
    spec = train_ds.monotonic
    X_tr, y_tr = train_ds.X, train_ds.y
    n = X_tr.shape[0]
    shuffle_rng = np.random.default_rng([SHUFFLE_STREAM, config.seed])
    dropout_rng = np.random.default_rng([DROPOUT_STREAM, config.seed])

    # one working model for the whole run: its parameters are views into
    # one flat vector, which Adam updates in place
    flat, params = flatten(model.parameters)
    working = Model(config=model.config, parameters=params)
    state = AdamState.init_like(params)
    best_flat = flat.copy()
    best_val = np.inf
    best_epoch = -1
    wait = 0
    history: list[EpochRecord] = []

    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(n)
        # the epoch's rows in batch order; at lambda > 0 the half of every
        # batch's penalty fit that reads only its features, in one pass
        X_ep, y_ep = X_tr[order], y_tr[order]
        starts = range(0, n, config.batch_size)
        if config.lam > 0:
            columns = pen.epoch_columns(X_ep, spec, config.batch_size,
                                        config.baseline_mode == "coupled")
        else:  # the penalty is only reported, from the epoch's predictions
            columns, preds_ep = [None] * len(starts), np.empty(n)
        loss_sum = penalty_sum = 0.0
        for start, batch_columns in zip(starts, columns):
            stop = start + config.batch_size
            xb, yb = X_ep[start:stop], y_ep[start:stop]
            preds, grad = forward_with_params(working, xb, training=True,
                                              rng=dropout_rng)
            total, fit = pen.build_loss_terms(preds, yb, xb, spec, config.lam,
                                              config.baseline_mode,
                                              batch_columns)
            loss = total.value.item()
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch row {start}")
            backward_pass(total)
            adam_step(flat, grad, state, config.learning_rate)
            loss_sum += loss * yb.shape[0]
            if fit is None:
                preds_ep[start:stop] = preds.value
            else:
                penalty_sum += fit.total * fit.batch_size
        if config.lam == 0:  # one fit per stack of the epoch's batches
            totals = pen.epoch_totals(X_ep, preds_ep, spec, config.batch_size)
            for start, batch_total in zip(starts, totals):
                penalty_sum += batch_total * min(config.batch_size, n - start)

        val_mse = _val_mse(working, val_ds)
        history.append(EpochRecord(train_loss=loss_sum / n,
                                   val_mse=val_mse,
                                   penalty=penalty_sum / n))
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_flat = flat.copy()
            wait = 0
        else:
            wait += 1
            if wait >= config.early_stop_patience:
                log.info("early stop at epoch %d (best %d)", epoch, best_epoch)
                break

    trained = Model(config=model.config,
                    parameters=unflatten(best_flat, state.layout))
    report = RunReport(
        config=_config_snapshot(model.config, config),
        history=tuple(history),
        best_epoch=best_epoch,
        val_metrics=evaluate(trained, val_ds) if history else None,
        wall_time_s=time.perf_counter() - t0,
    )
    return trained, report


# ---------------------------------------------------------------- protocol

def split_for_seed(dataset: Dataset, train_frac: float, seed: int,
                   norm_fit_on_train: bool) -> tuple[Dataset, Dataset]:
    """Seeded train/test split, min-max normalized; the test split uses
    its own min/max unless ``norm_fit_on_train``."""
    train_raw, test_raw = train_test_split(dataset, train_frac, seed=seed)
    train_n = minmax_normalize(train_raw)
    if norm_fit_on_train:
        test_n = apply_normalization(test_raw, train_n.norm_params)
    else:
        test_n = minmax_normalize(test_raw)
    return train_n, test_n


def fit_cell(lam: float, seed: int, model_config: ModelConfig,
             train_config: TrainConfig, train_n: Dataset, test_n: Dataset,
             validate_on_test: bool) -> tuple[Model, RunReport]:
    """Build, train and test-evaluate one (lambda, seed) grid cell."""
    model = build_model(replace(model_config, seed=seed))
    t_cfg = replace(train_config, lam=float(lam), seed=seed)
    trained, report = train(model, train_n, t_cfg,
                            val_ds=test_n if validate_on_test else None)
    return trained, replace(report, test_metrics=evaluate(trained, test_n))


def sweep_axes(grid, seeds) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """A sweep's lambda grid and seeds, each read once (a generator is
    fine): distinct finite lambdas >= 0 that include the 0.0 baseline, and
    one or more distinct integer seeds >= 0. A ConfigError names the
    field."""
    axes = SimpleNamespace(grid=grid, seeds=seeds)
    set_numbers(axes, {"grid": "[0, inf)", "seeds": 0}, each=True)
    if 0.0 not in axes.grid:
        raise ConfigError(f"grid must include the 0.0 baseline, got {axes.grid}")
    if len(set(axes.grid)) != len(axes.grid):
        raise ConfigError(f"grid values must be distinct, got {axes.grid}")
    if not axes.seeds:
        raise ConfigError("seeds must be non-empty")
    if len(set(axes.seeds)) != len(axes.seeds):
        raise ConfigError(f"seeds must be distinct, got {axes.seeds}")
    return axes.grid, axes.seeds


def lambda_grid_search(dataset: Dataset, model_config: ModelConfig,
                       train_config: TrainConfig,
                       grid=LAMBDA_GRID_DEFAULT, seeds=(0,),
                       train_frac: float = 0.8,
                       norm_fit_on_train: bool = False,
                       validate_on_test: bool = False,
                       max_workers: int = 1) -> list[RunReport]:
    """One full train+evaluate per (lambda, seed).

    ``sweep_axes`` checks ``grid`` and ``seeds`` as for ExperimentConfig.
    Within a seed every lambda shares the same split, normalization, and
    initial parameters. A cell whose training raises a DimlabError is
    recorded on its report (error field) and does not stop the sweep; any
    other exception is a bug and propagates. Every seed is split first,
    and a ``val_fraction`` that leaves a seed's split no training rows is
    a ConfigError before any cell trains. Cells are independent and share
    only frozen datasets, so all (seed, lambda) cells go to one
    ``autodiff.pool_map`` call over ``max_workers`` threads, an int >= 1
    (a ParameterError otherwise). Reports come back seed-major, in grid
    order.
    """
    grid, seeds = sweep_axes(grid, seeds)
    if type(max_workers) is not int or max_workers < 1:  # a bool is refused
        raise ParameterError(
            f"max_workers must be an integer >= 1, got {max_workers!r}")
    if train_config.max_epochs < 1:
        raise ConfigError(
            f"a sweep needs max_epochs >= 1, got {train_config.max_epochs}: "
            "no epoch would run, so no cell would have validation metrics "
            "to select a lambda from")

    splits = {seed: split_for_seed(dataset, train_frac, seed, norm_fit_on_train)
              for seed in seeds}
    if not validate_on_test:  # each cell carves its validation rows
        for train_n, _ in splits.values():
            _validation_rows(train_n.n_rows, train_config.val_fraction)

    def run_cell(cell):
        lam, seed = cell
        try:
            return fit_cell(lam, seed, model_config, train_config,
                            *splits[seed], validate_on_test)[1]
        except DimlabError as exc:  # a training fault: keep sweeping
            log.warning("cell lam=%s seed=%s failed: %s", lam, seed, exc)
            config = _config_snapshot(replace(model_config, seed=seed),
                                      replace(train_config, lam=lam, seed=seed))
            return RunReport(config=config, history=(), best_epoch=-1,
                             error=str(exc))

    cells = [(lam, seed) for seed in seeds for lam in grid]
    return pool_map(run_cell, cells, max_workers)


def lambda_medians(reports, split: str, metric: str) -> dict[float, float]:
    """Per-lambda medians, across seeds, of the successful reports'
    ``split`` ("val_metrics" or "test_metrics") ``metric``, in ascending
    lambda order."""
    by_lam: dict[float, list[float]] = {}
    for r in reports:
        m = getattr(r, split)
        if r.error is None and m is not None:
            by_lam.setdefault(r.lam, []).append(getattr(m, metric))
    return {lam: float(np.median(values))
            for lam, values in sorted(by_lam.items())}


def select_lambda(reports) -> float:
    """The lambda with the lowest median validation MSE across seeds
    (``lambda_medians``); ties go to the smaller lambda."""
    med = lambda_medians(reports, "val_metrics", "mse")
    if not med:
        raise ParameterError("no successful reports to select from")
    # ascending keys, so min() returns the smallest lambda on ties
    return min(med, key=med.get)
