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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import penalty as pen
from .autodiff import backward_pass
from .data import Dataset, apply_normalization, minmax_normalize, train_test_split
from .errors import (
    ConfigError,
    DataError,
    DimlabError,
    NumericError,
    ParameterError,
    SchemaError,
)
from .models import (
    Model,
    ModelConfig,
    build_model,
    forward,
    forward_with_params,
    set_counts,
    set_reals,
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
        set_reals(self, {"lam": "[0, inf)", "learning_rate": "(0, inf)"})
        set_counts(self, {"batch_size": 1, "max_epochs": 0,
                          "early_stop_patience": 1, "seed": 0})
        set_reals(self, {"val_fraction": "[0, 1)"})
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
    """Parse ``report_to_json``'s output; anything else is a SchemaError."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != REPORT_SCHEMA_VERSION:
        raise SchemaError(f"unsupported report schema {version!r}")

    def mk(d):
        return None if d is None else Metrics(**d)

    try:
        config = payload["config"]
        for key in ("lam", "seed"):  # read by RunReport.lam and .seed
            if key not in config["train"]:
                raise SchemaError(f"report config lacks train.{key}")
        return RunReport(
            config=config,
            history=tuple(EpochRecord(**rec) for rec in payload["history"]),
            best_epoch=payload["best_epoch"],
            val_metrics=mk(payload["val_metrics"]),
            test_metrics=mk(payload["test_metrics"]),
            error=payload["error"],
        )
    except KeyError as exc:
        raise SchemaError(f"missing report key {exc}") from exc
    except TypeError as exc:
        raise SchemaError(f"malformed report: {exc}") from exc


# ---------------------------------------------------------------- optimizer

def flatten(parameters: dict[str, np.ndarray]):
    """One contiguous float64 copy of ``parameters``, in their order, and
    named views into it with the parameters' shapes."""
    vector = np.concatenate(list(parameters.values()), axis=None,
                            dtype=np.float64)
    return vector, unflatten(vector, [(k, np.shape(p))
                                      for k, p in parameters.items()])


def unflatten(vector: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Named views into ``vector`` for a [(name, shape), ...] layout."""
    views, start = {}, 0
    for name, shape in layout:
        stop = start + int(np.prod(shape))
        views[name] = vector[start:stop].reshape(shape)
        start = stop
    return views


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


def adam_step(flat: np.ndarray, grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``flat``, the parameters packed in
    ``state.layout`` order, and of ``state``, all in place.

    The per-element arithmetic is the textbook per-array form, op for op,
    so the bits do not depend on how the parameters are packed.
    """
    layout = [(name, g.shape) for name, g in grads.items()]
    if layout != state.layout:
        raise ParameterError(f"gradients {layout} do not match the "
                             f"parameters {state.layout}")
    g = np.concatenate(list(grads.values()), axis=None)
    if not np.isfinite(g).all():
        name = next(k for k, a in grads.items() if not np.isfinite(a).all())
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    t = state.step + 1
    # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    g *= g
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

def _config_snapshot(model_config: ModelConfig, config: TrainConfig,
                     cell: tuple[float, int] | None = None) -> dict:
    """Report config; ``cell`` = (lam, seed) overrides those fields on the
    dicts, unvalidated, so a cell with an invalid lam is still recorded."""
    snap = {"model": asdict(model_config), "train": asdict(config)}
    snap["model"]["hidden_sizes"] = list(model_config.hidden_sizes)
    if cell is not None:
        lam, seed = cell
        snap["model"]["seed"] = seed
        snap["train"].update(lam=float(lam), seed=seed)
    return snap


def _carve_validation(train_ds: Dataset,
                      config: TrainConfig) -> tuple[Dataset, Dataset]:
    """Seeded (fit, validation) rows of the training split; with no
    held-out rows, early stopping watches the training split itself."""
    n = train_ds.n_rows
    if config.val_fraction == 0.0 or n < 2:
        return train_ds, train_ds
    perm = np.random.default_rng([CARVE_STREAM, config.seed]).permutation(n)
    n_val = max(1, int(round(config.val_fraction * n)))
    if n_val >= n:
        raise ConfigError(
            f"val_fraction {config.val_fraction} leaves no training rows")

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
        loss_sum = 0.0
        penalty_sum = 0.0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            xb, yb = X_tr[rows], y_tr[rows]
            preds, nodes = forward_with_params(working, xb, training=True,
                                               rng=dropout_rng)
            terms = pen.build_loss_terms(preds, yb, xb, spec, config.lam,
                                         config.baseline_mode)
            loss = terms.total.value.item()
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch row {start}")
            backward_pass(terms.total)
            adam_step(flat, {name: node.grad for name, node in nodes.items()},
                      state, config.learning_rate)
            loss_sum += loss * rows.size
            penalty_sum += terms.breakdown.total * rows.size

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


# (get, set) names of OpenBLAS's thread-count functions: numpy's bundled
# scipy-openblas build, then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None; dlsym
    on numpy's LAPACK extension also searches the libraries it links."""
    import ctypes

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any pooled sweep runs.

    Each pool worker is one thread; OpenBLAS threads of its own per
    worker would oversubscribe the cores. The thread count is
    process-wide, so overlapping sweeps share one set and one restore
    under a lock and a depth count: the count found when the first sweep
    enters is the count left when the last one exits, also when a cell
    raised. The library is looked up on first use; without it, sweeps run
    unpinned and that is logged once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0
        self._api = None  # (get, set) once looked up, () when not found

    def _functions(self):  # the caller holds the lock
        if self._api is None:
            self._api = _find_openblas() or ()
            if not self._api:
                log.info("no OpenBLAS thread-count functions found; pooled "
                         "sweeps run with BLAS threads unpinned")
        return self._api

    def threads(self) -> int | None:
        """OpenBLAS's current thread count, or None without the library."""
        with self._lock:
            api = self._functions()
            return api[0]() if api else None

    def __enter__(self):
        with self._lock:
            api = self._functions()
            if api and self._depth == 0:
                self._saved = api[0]()
                api[1](1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._api and self._depth == 0:
                self._api[1](self._saved)


# one per process, like the thread count it guards
_ONE_BLAS_THREAD = _OneBlasThread()


def lambda_grid_search(dataset: Dataset, model_config: ModelConfig,
                       train_config: TrainConfig,
                       grid=LAMBDA_GRID_DEFAULT, seeds=(0,),
                       train_frac: float = 0.8,
                       norm_fit_on_train: bool = False,
                       validate_on_test: bool = False,
                       max_workers: int = 1) -> list[RunReport]:
    """One full train+evaluate per (lambda, seed).

    Within a seed every lambda shares the same split, normalization, and
    initial parameters. A cell that raises a DimlabError is recorded on
    its report (error field) and does not stop the sweep; any other
    exception is a bug and propagates. Every seed is split first; cells
    are independent and share only frozen datasets, so with
    max_workers > 1 all (seed, lambda) cells run on one thread pool, with
    OpenBLAS at one thread while it runs. Reports come back seed-major,
    in grid order, either way.
    """
    if not grid:
        raise ParameterError("lambda grid must be non-empty")
    if 0.0 not in grid:
        raise ParameterError("lambda grid must contain the 0.0 baseline")
    if not seeds:
        raise ParameterError("need at least one seed")
    if max_workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
    if train_config.max_epochs < 1:
        raise ConfigError(
            f"a sweep needs max_epochs >= 1, got {train_config.max_epochs}: "
            "no epoch would run, so no cell would have validation metrics "
            "to select a lambda from")

    splits = {seed: split_for_seed(dataset, train_frac, seed, norm_fit_on_train)
              for seed in seeds}

    def run_cell(cell):
        lam, seed = cell
        try:
            return fit_cell(lam, seed, model_config, train_config,
                            *splits[seed], validate_on_test)[1]
        except DimlabError as exc:  # keep sweeping the other cells
            log.warning("cell lam=%s seed=%s failed: %s", lam, seed, exc)
            return RunReport(
                config=_config_snapshot(model_config, train_config, (lam, seed)),
                history=(), best_epoch=-1, error=str(exc))

    cells = [(lam, seed) for seed in seeds for lam in grid]
    if max_workers == 1:
        return list(map(run_cell, cells))
    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_cell, cells))


def lambda_medians(reports, split: str) -> dict[float, Metrics]:
    """Per-lambda medians, across seeds, of the successful reports'
    ``split`` metrics ("val_metrics" or "test_metrics"), in ascending
    lambda order. Compliance is the median of the seeds that define it,
    or None when none does."""
    by_lam: dict[float, list[Metrics]] = {}
    for r in reports:
        m = getattr(r, split)
        if r.error is None and m is not None:
            by_lam.setdefault(r.lam, []).append(m)

    def median(values):
        defined = [v for v in values if v is not None]
        return float(np.median(defined)) if defined else None

    return {lam: Metrics(**{f.name: median([getattr(m, f.name) for m in ms])
                            for f in fields(Metrics)})
            for lam, ms in sorted(by_lam.items())}


def select_lambda(reports) -> float:
    """The lambda with the lowest median validation MSE across seeds
    (``lambda_medians``); ties go to the smaller lambda."""
    med = lambda_medians(reports, "val_metrics")
    if not med:
        raise ParameterError("no successful reports to select from")
    # ascending keys, so min() returns the smallest lambda on ties
    return min(med, key=lambda lam: med[lam].mse)
