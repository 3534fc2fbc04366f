"""Linear-baseline monotonicity penalty and compliance score.

For each feature designated monotonic, a per-batch linear trend is fitted
from that feature to the current predictions. Predictions are sorted
ascending; wherever the baseline expects a larger increment between
adjacent sorted predictions than the model produced, the shortfall is
penalized quadratically. The batch penalty is the violation energy summed
over features, divided by the batch size.

One kernel, :func:`_fit_stacks`, computes the penalty from predictions
(..., 1, N) and monotonic feature columns (..., k, N): a sort per batch, a
line per column (:func:`fit_linear_baseline`), one gather and one hinge
(:func:`adjacent_violations`). A batch's :class:`BatchFit`, from
:func:`fit_batch`, runs it on the batch's (k, N) stack when first read. In
training, :func:`build_loss_terms` puts the objective, the MSE plus lambda
times the fit's penalty, into the autodiff graph as one node over the
predictions (:func:`_objective_node`), whose backward runs over the fit's
stacks. At lambda = 0 the penalty is only reported: no step reads its fit,
and :func:`batch_totals` runs the kernel once per batch length over the
epoch's (batches x features x rows) stack.

Every stack is C-contiguous and every row-wise reduce runs over its last
axis, so each row takes numpy's pairwise summation exactly as a 1-D reduce
over that feature alone does: the bytes do not depend on how many features
or batches are stacked.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ConfigError, DimensionError, ParameterError

# a violation counts as zero when at or below this (absolute)
COMPLIANCE_ATOL = 1e-12

BASELINE_MODES = ("frozen", "coupled")


@dataclass(frozen=True)
class LinearBaseline:
    """Per-feature affine reference trend: g(x) = slope * x + intercept,
    with the population mean and variance of the column it was fitted on."""

    slope: float
    intercept: float
    x_mean: float
    x_var: float


@dataclass(frozen=True)
class MonotonicitySpec:
    """Which feature columns are expected to act non-decreasingly.

    The expected direction is fixed (non-decreasing); decreasing
    constraints are out of scope.
    """

    indices: tuple[int, ...]

    def __init__(self, indices):
        if isinstance(indices, str) or not hasattr(indices, "__iter__"):
            raise ParameterError(
                f"monotonic feature indices must be a list of integers, "
                f"got {indices!r}")
        idx = tuple(indices)
        for i in idx:  # a bool or a float such as 2.0 is no index
            if not isinstance(i, numbers.Integral) or isinstance(i, bool):
                raise ParameterError(
                    f"monotonic feature index must be an integer, got {i!r}")
        idx = tuple(sorted(int(i) for i in idx))
        if any(i < 0 for i in idx):
            raise ParameterError(f"negative feature index in {idx}")
        if len(set(idx)) != len(idx):
            raise ParameterError(f"duplicate feature index in {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of_names(cls, feature_names, names) -> MonotonicitySpec:
        """The spec of the features ``names`` among ``feature_names``: a
        bare string, a name that is not a feature, or a repeated name is a
        ConfigError."""
        if isinstance(names, str):
            raise ConfigError(f"monotonic names must be a list, got {names!r}")
        names, feature_names = list(names), list(feature_names)
        missing = [n for n in names if n not in feature_names]
        if missing:
            raise ConfigError(f"monotonic names {missing} not among "
                              f"features {feature_names}")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigError(f"duplicate monotonic names {repeated} in {names}")
        return cls(feature_names.index(n) for n in names)

    @cached_property
    def columns(self) -> np.ndarray:
        """``indices`` as an index array: ``X.T[spec.columns]`` is the
        C-contiguous (features x rows) stack of the batch ``X``."""
        return np.array(self.indices, dtype=np.intp)

    def validate_for(self, num_features: int) -> None:
        bad = [i for i in self.indices if i >= num_features]
        if bad:
            raise ParameterError(
                f"monotonic feature indices {bad} out of range for "
                f"{num_features} features")


class Lines(NamedTuple):
    """Least-squares lines over a stack (..., k, N) of feature columns, one
    per column; each field has the shape (..., k, 1) unless noted."""

    slope: np.ndarray      # 0 where no line was fitted
    x_mean: np.ndarray
    x_var: np.ndarray
    p_mean: np.ndarray     # (..., 1, 1)
    fitted: np.ndarray     # bool: False for a constant or zero-variance column

    def baseline(self, r: int) -> LinearBaseline:
        """Line ``r`` of a one-batch stack (k, N)."""
        slope, x_mean = self.slope[r, 0], self.x_mean[r, 0]
        return LinearBaseline(float(slope),
                              float(self.p_mean.item() - slope * x_mean),
                              float(x_mean), float(self.x_var[r, 0]))


def fit_linear_baseline(x_cols, preds) -> Lines:
    """Least-squares lines from feature columns (..., k, N), N >= 2, to
    the predictions (..., 1, N), with population (1/N) covariance and
    variance. A constant or zero-variance column gets no line: it is not
    ``fitted`` and its slope is 0.
    """
    # C order, so that every row-wise reduce runs along a contiguous axis
    x_cols = np.ascontiguousarray(x_cols, dtype=np.float64)
    preds = np.ascontiguousarray(preds, dtype=np.float64)
    n = x_cols.shape[-1]
    # .max(), .min() and .sum() call these reduces; sum / n is np.mean's bits
    mean_x = np.add.reduce(x_cols, axis=-1, keepdims=True) / n
    mean_p = np.add.reduce(preds, axis=-1, keepdims=True) / n
    centred = x_cols - mean_x
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    fitted = ((np.maximum.reduce(x_cols, axis=-1, keepdims=True)
               != np.minimum.reduce(x_cols, axis=-1, keepdims=True))
              & (var != 0.0))
    cov = np.add.reduce(centred * (preds - mean_p), axis=-1, keepdims=True) / n
    slope = np.divide(cov, var, out=np.zeros(cov.shape), where=fitted)
    return Lines(slope, mean_x, var, mean_p, fitted)


def adjacent_violations(dpred: np.ndarray, dx: np.ndarray,
                        slope) -> np.ndarray:
    """Shortfall of each adjacent sorted-prediction increment: with the
    increments ``dpred`` (..., 1, N-1) of the sorted predictions, ``dx``
    (..., k, N-1) of each feature carried along the same order, and each
    feature's ``slope`` in a column (..., k, 1), pair i has v[i] = max(0,
    slope * dx[i] - dpred[i]); the intercept cancels in increments.
    """
    return np.maximum(slope * dx - dpred, 0.0)


def _fit_stacks(preds, cols, coupled: bool):
    """The penalty kernel over batches of N >= 2 rows: predictions
    (..., 1, N) and monotonic feature columns (..., k, N), C-contiguous,
    as one batch's (k, N) or B batches' (B, k, N). Per batch it sorts the
    predictions (stable), fits each column's line, carries the columns
    along that order and hinges the increments at each line's slope
    (frozen) or at ``sum(preds * coeffs)`` (coupled). Returns perm, the
    lines, dx, violations, and coeffs or None; a column without a line
    has slope 0 and coefficients 0."""
    n = cols.shape[-1]
    perm = np.argsort(preds, axis=-1, kind="stable")
    lines = fit_linear_baseline(cols, preds)
    # one flat take at each row's offset keeps C order; cols[:, perm] would not
    rows = np.concatenate((preds, cols), axis=-2)
    offsets = np.arange(0, rows.size, n).reshape(rows.shape[:-1] + (1,))
    rows = rows.take(perm + offsets)
    diffs = rows[..., 1:] - rows[..., :-1]  # np.diff's bytes
    dpred, dx = diffs[..., :1, :], diffs[..., 1:, :]
    slope, coeffs = lines.slope, None
    if coupled:
        coeffs = np.divide(cols - lines.x_mean, n * lines.x_var,
                           out=np.zeros(cols.shape), where=lines.fitted)
        slope = np.add.reduce(preds * coeffs, axis=-1, keepdims=True)
    return perm, lines, dx, adjacent_violations(dpred, dx, slope), coeffs


def _total(energies, batch_size: int) -> float:
    """Energies in spec order, summed left to right, over the batch size."""
    p_sum = 0.0
    for p_j in energies:
        p_sum += p_j
    return p_sum * (1.0 / batch_size)


class FeatureFit(NamedTuple):
    """One non-degenerate feature of a batch, in prediction-sorted order."""

    baseline: LinearBaseline
    dx: np.ndarray          # diff(x[perm])
    violations: np.ndarray  # shortfalls at the slope of fit_batch's mode
    coeffs: np.ndarray | None = None  # coupled mode: slope = sum(preds * coeffs)


def _refuse_empty(batch_size: int) -> None:
    if batch_size < 1:
        raise DimensionError("a batch penalty needs at least one row, got 0")


def _one_batch(preds, X, spec: MonotonicitySpec, coupled: bool) -> dict:
    """The stacks of a checked batch: the kernel on its (k, N) stack, cut
    down to the rows of the fitted features when some feature is skipped."""
    n, indices = preds.shape[0], spec.indices
    if n < 2 or not indices:  # nothing to fit
        empty = np.empty((0, max(n - 1, 0)))
        return dict(perm=np.argsort(preds, kind="stable"), fitted=(),
                    lines=None, dx=empty, violations=empty, coeffs=None)
    perm, lines, dx, violations, coeffs = _fit_stacks(
        preds[None], X.T[spec.columns], coupled)
    keep = lines.fitted[:, 0]
    fitted = tuple(compress(indices, keep.tolist()))
    if len(fitted) < len(indices):  # the stacks hold only the fitted rows
        dx, violations = dx[keep], violations[keep]
        coeffs = None if coeffs is None else coeffs[keep]
    return dict(perm=perm[0], fitted=fitted, lines=lines, dx=dx,
                violations=violations, coeffs=coeffs)


class _Stack:
    """A :class:`BatchFit` stack: reading any computes them all, once."""
    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, fit, owner=None):
        if fit is None:
            return self
        fit.__dict__.update(_one_batch(*fit.pending), pending=None)
        return fit.__dict__[self.name]


class BatchFit:
    """The shared per-batch work of every penalty and compliance path,
    and the batch penalty it measures.

    The monotonic features ``indices`` are in spec order, and so are the
    rows of ``lines``; those in ``fitted`` are the rows of the other
    stacks, and the rest are degenerate in the batch (``skipped``). A
    ``pending`` fit holds its checked (preds, X, spec, coupled) until a
    stack is read; ``stacks`` gives them instead. ``features``,
    ``per_feature`` and ``total`` are computed when first read; on a 0-row
    batch reading the penalty raises DimensionError, while ``skipped`` and
    ``compliance()`` still answer.
    """

    perm = _Stack()        # stable ascending sort of the predictions
    fitted = _Stack()
    lines = _Stack()       # Lines of the stack (k, N); None if N < 2 or k = 0
    dx = _Stack()          # (fitted, N-1): diff(x[perm])
    violations = _Stack()  # (fitted, N-1), at the mode's slope
    coeffs = _Stack()      # coupled: (fitted, N), slope = preds @ row

    def __init__(self, batch_size, indices, pending=None, **stacks):
        self.batch_size = batch_size
        self.indices = indices
        self.pending = pending
        self.__dict__.update(stacks)

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(j for j in self.indices if j not in self.fitted)

    @cached_property
    def features(self) -> dict[int, FeatureFit | None]:
        """Each monotonic feature, in spec order, with its fit, or None when
        it was skipped."""
        rows = {j: s for s, j in enumerate(self.fitted)}  # stack rows
        features = {}
        for r, j in enumerate(self.indices):
            s = rows.get(j)
            features[j] = None if s is None else FeatureFit(
                self.lines.baseline(r), self.dx[s], self.violations[s],
                None if self.coeffs is None else self.coeffs[s])
        return features

    @cached_property
    def per_feature(self) -> dict[int, float]:
        """Violation energy (sum of squared shortfalls) per feature, in
        spec order; 0 for a skipped feature."""
        _refuse_empty(self.batch_size)
        v = self.violations
        energy = dict(zip(self.fitted, np.add.reduce(v * v, axis=-1).tolist()))
        if len(energy) == len(self.indices):
            return energy
        return {j: energy.get(j, 0.0) for j in self.indices}

    @cached_property
    def total(self) -> float:
        """The batch penalty: ``per_feature`` summed in spec order, divided
        by the batch size."""
        return _total(self.per_feature.values(), self.batch_size)

    def compliance(self) -> float | None:
        """Share of adjacent pairs, pooled over non-degenerate features,
        whose violation is zero within COMPLIANCE_ATOL; None when no
        feature has a usable pair."""
        v = self.violations
        return np.count_nonzero(v <= COMPLIANCE_ATOL) / v.size if v.size else None


def _check_mode(baseline_mode) -> None:
    if baseline_mode not in BASELINE_MODES:
        raise ParameterError(
            f"baseline_mode must be one of {BASELINE_MODES}, got {baseline_mode!r}")


def _check_batch(preds, X, spec: MonotonicitySpec):
    """``preds`` (N,) and ``X`` (N, d) as float64, with ``spec`` in range."""
    preds = np.asarray(preds, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if preds.ndim != 1 or X.ndim != 2 or X.shape[0] != preds.shape[0]:
        raise DimensionError(
            f"expected preds (N,) and X (N, d), got {preds.shape} and {X.shape}")
    spec.validate_for(X.shape[1])
    return preds, X


def fit_batch(preds, X, spec: MonotonicitySpec,
              baseline_mode: str = "frozen") -> BatchFit:
    """Validate a batch; its fit sorts it once by prediction, fits every
    monotonic feature against that one order and measures its shortfalls
    when first read.

    Frozen mode measures them at the fitted slope. Coupled mode measures
    them at the slope as training differentiates it, ``sum(preds *
    coeffs)`` with ``coeffs = (x - mean_x) / (N * var)`` (the mean of the
    predictions drops out since ``sum(coeffs) = 0``), which may differ from
    the fitted slope in its last bits. Degenerate features (constant in
    the batch, or N < 2) are recorded as skipped.
    """
    _check_mode(baseline_mode)
    preds, X = _check_batch(preds, X, spec)
    return BatchFit(preds.shape[0], spec.indices,
                    (preds, X, spec, baseline_mode == "coupled"))


def batch_totals(fits) -> list[float]:
    """Each fit's batch penalty (``total``), in order, with the bytes it
    gives alone. A computed fit, or one with nothing to fit, gives its own;
    the pending fits of equal shape, features and mode take one kernel call
    over their (batches x features x rows) stack, and stay pending."""
    totals = [None] * len(fits)
    groups: dict[tuple, list[int]] = {}
    for i, fit in enumerate(fits):
        if fit.pending is None or fit.batch_size < 2 or not fit.indices:
            totals[i] = fit.total  # computed, or nothing to fit
        else:
            _, X, spec, coupled = fit.pending
            groups.setdefault((X.shape, spec, coupled), []).append(i)
    for ((n, _), spec, coupled), members in groups.items():
        batches = [fits[i].pending for i in members]
        preds = np.stack([p for p, _, _, _ in batches])[:, None]  # (B, 1, N)
        X = np.stack([X for _, X, _, _ in batches])
        cols = np.ascontiguousarray(X.transpose(0, 2, 1)[:, spec.columns])
        _, lines, _, v, _ = _fit_stacks(preds, cols, coupled)
        energy = np.where(lines.fitted[..., 0], np.add.reduce(v * v, axis=-1),
                          0.0)
        for i, e in zip(members, energy.tolist()):
            totals[i] = _total(e, n)
    return totals


def monotonicity_penalty(preds, X, spec: MonotonicitySpec) -> BatchFit:
    """The frozen-mode fit of a batch, with its penalty read: degenerate
    features (constant in the batch, or N < 2) contribute 0 and are listed
    in ``skipped``, and a 0-row batch raises DimensionError. Nothing in
    the package calls it; it stays as the name the benchmark's tracer
    wraps."""
    fit = fit_batch(preds, X, spec)
    fit.total  # refuses a 0-row batch
    return fit


def compliance_score(preds, X, spec: MonotonicitySpec) -> float | None:
    """Fraction of adjacent sorted pairs, pooled over non-degenerate
    monotonic features, whose violation is zero within 1e-12 absolute.

    That is the share of prediction-sorted adjacent pairs whose prediction
    increment covers the fitted trend's increment ``slope * dx``. It is
    not a pointwise monotonicity check: it never varies a feature with the
    other features held fixed, and the true targets of a monotone function
    can score well below 1.

    None when no valid pairs exist (all features degenerate, empty spec,
    or N < 2).
    """
    return fit_batch(preds, X, spec).compliance()


def _objective_node(preds: Node, y: np.ndarray, fit: BatchFit,
                    lam: float) -> Node:
    """The objective L = MSE + lambda * penalty as one node over ``preds``,
    with the value and gradient bits of the op graph ``add(mse, scale(
    penalty, lam))``. The MSE is ``scale(sum_all(square(preds - y)), 1/n)``.
    The penalty term is there when lambda > 0 and some feature was fitted:
    its value is ``fit.total``, and its graph is ``scale(sum_j sum_all(
    square(relu(dg_j - adjacent_diff(gather_rows(preds, perm))))), 1/n)``,
    where ``dg_j`` is the constant ``slope_j * dx_j`` (frozen) or
    ``sum_all(preds * coeffs_j) * dx_j`` (coupled), whose relu is the fit's
    violations. The backward works on the fit's stacks and adds to
    ``preds.grad`` as that graph's backward pass did, one contribution at a
    time: the MSE's, then in coupled mode ``coeffs_j`` times the slope's
    gradient, per feature in spec order, then the hinge gradient, chained
    ``((-g_0) - g_1) - ...`` in spec order and scattered back through
    ``perm``.
    """
    c = 1.0 / fit.batch_size
    r = preds.value - y
    value = np.add.reduce(r * r, axis=None) * c
    lam = float(lam)
    with_penalty = lam > 0 and len(fit.fitted) > 0
    if with_penalty:
        value = value + fit.total * lam
    out = ad._op("objective", value, (preds, None))  # backward set below

    def backward(g):
        if not preds.requires_grad:
            return
        g = g.item()  # the objective's one entry: float math, numpy's bits
        ad._accumulate(preds, 2.0 * r * (c * g))
        if not with_penalty:
            return
        g_p = c * (lam * g)  # the gradient of sum_j p_j, and so of each p_j
        v = fit.violations
        g_diff = np.where(v > 0, 2.0 * v * g_p, 0.0)
        if fit.coeffs is not None:
            g_slopes = np.add.reduce(g_diff * fit.dx, axis=-1).tolist()
            for g_slope, coeffs in zip(g_slopes, fit.coeffs):
                ad._accumulate(preds, g_slope * coeffs)
        g_dpred = -g_diff[0]
        for g_j in g_diff[1:]:
            g_dpred = g_dpred - g_j
        # the transpose of differencing, (0, g) - (g, 0), then perm's scatter
        g_sorted = np.empty_like(preds.value)
        g_sorted[0], g_sorted[-1] = 0.0 - g_dpred[0], g_dpred[-1]
        np.subtract(g_dpred[:-1], g_dpred[1:], out=g_sorted[1:-1])
        scattered = np.empty_like(preds.value)
        scattered[fit.perm] = g_sorted
        ad._accumulate(preds, scattered)

    out._backward = backward
    return out


def build_loss_terms(preds: Node, y, X, spec: MonotonicitySpec, lam: float,
                     baseline_mode: str = "frozen") -> tuple[Node, BatchFit]:
    """The training objective L = MSE + lambda * penalty, as one graph node
    (:func:`_objective_node`), and the batch's one fit.

    In frozen mode the fitted slope is a constant of the backward pass; in
    coupled mode gradients also flow through the covariance/variance
    formulas. The sort permutation is constant in backward either way.
    With an empty spec or with every feature degenerate the objective is
    the MSE alone. At lambda = 0 it is the MSE alone too, and the fit is
    returned pending, the frozen-mode fit in either mode: it reports the
    penalty at the fitted slope when read, and :func:`batch_totals`
    reports an epoch's at once. The batch is checked either way: a 0-row
    batch raises DimensionError, and so does a lambda that is a bool or
    not finite and >= 0 (a ParameterError).
    """
    if isinstance(lam, (bool, np.bool_)) or not 0.0 <= lam < math.inf:
        raise ParameterError(
            f"penalty weight must be finite and >= 0, got {lam!r}")
    _check_mode(baseline_mode)
    p, X = _check_batch(preds.value, X, spec)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != p.shape:
        raise DimensionError(
            f"targets shape {y.shape} does not match predictions {p.shape}")
    _refuse_empty(p.shape[0])
    coupled = lam > 0 and baseline_mode == "coupled"
    fit = BatchFit(p.shape[0], spec.indices, (p, X, spec, coupled))
    return _objective_node(preds, y, fit, lam), fit
