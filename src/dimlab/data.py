"""Synthetic benchmark generation, CSV ingestion, splitting, normalization.

The synthetic generator draws four uniform features, passes each through a
strictly increasing (or, for the fourth, decreasing) transform, adds a
piecewise-constant per-bin bump so the target is only monotone in trend,
and finishes with Gaussian noise.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, SchemaError
from .models import set_counts, set_reals
from .penalty import MonotonicitySpec

log = logging.getLogger(__name__)

# rng stream keys (seeded as [key, seed]) so generation, splitting and
# training never share a stream
SYNTH_STREAM = 201
SPLIT_STREAM = 202

SYNTH_FEATURE_NAMES = ("x1", "x2", "x3", "x4")
SYNTH_DOMAINS = ((0.0, 200.0), (0.0, 50.0), (0.0, 150.0), (0.0, 100.0))
SYNTH_MONOTONIC = (0, 1, 2)  # x4 is the deliberate non-monotonic feature

_TRANSFORMS = (
    lambda x: 0.5 * x,
    lambda x: 1.2 * np.sqrt(x),
    lambda x: 2.0 * np.log1p(x),
    lambda x: -0.8 * x,
)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + target + monotonicity designation."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    monotonic: MonotonicitySpec
    norm_params: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        # own copies so freezing them never touches caller arrays
        X = np.array(self.X, dtype=np.float64, order="C")
        y = np.array(self.y, dtype=np.float64, order="C")
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataError(f"bad dataset shapes X{X.shape} y{y.shape}")
        if len(self.feature_names) != X.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} names for {X.shape[1]} columns")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        self.monotonic.validate_for(X.shape[1])
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class SyntheticConfig:
    n: int = 5000
    bins: int = 10
    bump_sds: tuple[float, float, float, float] | None = None
    noise_sd: float = 10.0
    seed: int = 0

    def __post_init__(self):
        set_counts(self, {"n": 2},
                   "need {name} >= {minimum} samples, got {value}")
        # numpy seeds only from non-negative integers
        set_counts(self, {"bins": 1, "seed": 0},
                   "need {name} >= {minimum}, got {value}")
        set_reals(self, {"noise_sd": "[0, inf)"})
        if self.bump_sds is not None:
            set_reals(self, {"bump_sds": "[0, inf)"}, each=True)
            if len(self.bump_sds) != 4:
                raise ConfigError(
                    f"bump_sds must be 4 values, got {self.bump_sds}")


def default_bump_sds() -> tuple[float, ...]:
    """5% of each transform's output range over its feature's domain."""
    out = []
    for f, (lo, hi) in zip(_TRANSFORMS, SYNTH_DOMAINS):
        out.append(0.05 * abs(f(np.float64(hi)) - f(np.float64(lo))))
    return tuple(float(s) for s in out)


def noise_free_response(X) -> np.ndarray:
    """Sum of the four baseline transforms, no bumps, no noise."""
    X = np.asarray(X, dtype=np.float64)
    return sum(f(X[:, j]) for j, f in enumerate(_TRANSFORMS))


def _bin_indices(col: np.ndarray, bins: int) -> np.ndarray:
    lo, hi = col.min(), col.max()
    if hi == lo:
        return np.zeros(col.shape[0], dtype=np.intp)
    idx = np.floor(bins * (col - lo) / (hi - lo)).astype(np.intp)
    return np.minimum(idx, bins - 1)  # the max element lands on the right edge


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Draw the four-feature benchmark.

    Stream layout: four uniform feature draws, then one bump vector of
    length `bins` per feature (drawn even when its sd is 0, to keep seeds
    comparable across configs), then the noise vector.
    """
    rng = np.random.default_rng([SYNTH_STREAM, config.seed])
    n = config.n
    X = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in SYNTH_DOMAINS])
    sds = config.bump_sds if config.bump_sds is not None else default_bump_sds()
    y = np.zeros(n)
    for j, f in enumerate(_TRANSFORMS):
        bumps = rng.normal(0.0, sds[j], config.bins)
        y += f(X[:, j]) + bumps[_bin_indices(X[:, j], config.bins)]
    y += rng.normal(0.0, config.noise_sd, n)
    return Dataset(X=X, y=y, feature_names=SYNTH_FEATURE_NAMES,
                   monotonic=MonotonicitySpec(SYNTH_MONOTONIC))


def _is_id_column(name: str) -> bool:
    low = name.strip().lower()
    return low == "id" or low.endswith("_id")


def read_csv_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A UTF-8 CSV file's stripped header, whose names must be distinct,
    and its non-empty rows, each with the line it ends on."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc
    duplicates = sorted({h for h in header if header.count(h) > 1})
    if duplicates:
        raise SchemaError(f"{path}: duplicate column names {duplicates}")
    return header, rows


def load_csv(path, target_column: str, monotonic_columns=()) -> Dataset:
    """Read a UTF-8, comma-separated, header-first numeric table.

    ID-looking columns ('id' or '*_id') are excluded from the features.
    Rows with any missing ('' or 'NA'), unparseable, or non-finite cell
    are dropped; the count is logged.
    """
    header, rows = read_csv_rows(path)
    if target_column not in header:
        raise SchemaError(f"{path}: no column named {target_column!r}")
    feature_names = [h for h in header
                     if h != target_column and not _is_id_column(h)]
    missing = [m for m in monotonic_columns if m not in feature_names]
    if missing:
        raise SchemaError(
            f"{path}: monotonic columns {missing} not among features "
            f"{feature_names}")
    keep = [header.index(h) for h in feature_names]
    target_pos = header.index(target_column)

    parsed: list[list[float]] = []
    targets: list[float] = []
    dropped = 0
    for _, row in rows:
        try:
            vals = [float(row[i]) for i in keep + [target_pos]]
        except (ValueError, IndexError):
            dropped += 1
            continue
        if not all(np.isfinite(v) for v in vals):
            dropped += 1
            continue
        parsed.append(vals[:-1])
        targets.append(vals[-1])
    if dropped:
        log.info("%s: dropped %d row(s) with missing or bad values", path, dropped)
    if not parsed:
        raise DataError(f"{path}: no usable rows")

    mono = MonotonicitySpec(feature_names.index(m) for m in monotonic_columns)
    return Dataset(X=np.array(parsed), y=np.array(targets),
                   feature_names=tuple(feature_names), monotonic=mono)


def write_csv(ds: Dataset, path) -> None:
    """Emit header + rows; floats printed with repr so reloads are exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["y"])
        for i in range(ds.n_rows):
            writer.writerow([repr(float(v)) for v in ds.X[i]]
                            + [repr(float(ds.y[i]))])


def train_test_split(ds: Dataset, train_frac: float = 0.8, seed: int = 0):
    """Seeded uniform row partition into (train, test)."""
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must be in (0, 1), got {train_frac}")
    n = ds.n_rows
    if n < 2:
        raise ConfigError(f"cannot split {n} row(s)")
    perm = np.random.default_rng([SPLIT_STREAM, seed]).permutation(n)
    n_train = int(round(train_frac * n))
    if n_train == 0 or n_train == n:
        raise ConfigError(
            f"split of {n} rows at {train_frac} leaves one side empty")
    def pick(idx):
        return replace(ds, X=ds.X[idx], y=ds.y[idx], norm_params=None)

    return pick(perm[:n_train]), pick(perm[n_train:])


def minmax_normalize(ds: Dataset) -> Dataset:
    """Map each feature column onto [0, 1] using this split's own min/max.

    Constant columns map to 0 (warned). The target is left unscaled.
    """
    params = tuple((float(c.min()), float(c.max())) for c in ds.X.T)
    for name, (lo, hi) in zip(ds.feature_names, params):
        if hi == lo:
            log.warning("constant feature column %r maps to 0", name)
    return apply_normalization(ds, params)


def apply_normalization(ds: Dataset, params) -> Dataset:
    """Scale with externally fitted per-column (min, max), for the
    fit-on-train convention."""
    params = tuple((float(lo), float(hi)) for lo, hi in params)
    if len(params) != ds.X.shape[1]:
        raise ConfigError(
            f"{len(params)} normalization params for {ds.X.shape[1]} columns")
    X = np.empty_like(ds.X)
    for j, (lo, hi) in enumerate(params):
        if hi == lo:
            X[:, j] = 0.0
        else:
            X[:, j] = (ds.X[:, j] - lo) / (hi - lo)
    return replace(ds, X=X, norm_params=params)
