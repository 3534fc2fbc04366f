"""Linear-baseline monotonicity penalty and compliance score.

For each feature designated monotonic, a per-batch linear trend is fitted
from that feature to the current predictions. Predictions are sorted
ascending; wherever the baseline expects a larger increment between
adjacent sorted predictions than the model produced, the shortfall is
penalized quadratically. The batch penalty is the violation energy summed
over features, divided by the batch size.

A fit has two halves. The column pass, :func:`column_stats`, reads only
the monotonic feature columns (..., k, N): their means, centred values and
variances, which of them get a line, and the coupled coefficients. The
kernel, :func:`_fit_stacks`, fits the predictions (..., 1, N) against it:
a sort per batch, a line per column (:func:`fit_linear_baseline`), one
gather and one hinge (:func:`adjacent_violations`). A batch's
:class:`BatchFit`, from :func:`fit_batch`, runs both halves on the
batch's (k, N) stack. In training at lambda > 0, :func:`epoch_columns`
runs the column pass once per epoch over every batch, and
:func:`build_loss_terms` puts the objective, the MSE plus lambda times the
fit's penalty, into the autodiff graph as one node over the predictions
(:func:`_objective_node`), whose backward runs over the fit's stacks. At
lambda = 0 the penalty is only reported: no step fits it, and
:func:`epoch_totals` runs both halves once per batch length over the
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


class Columns(NamedTuple):
    """The half of a fit that reads only the feature columns, over a
    C-contiguous stack (..., k, N): the fields ``x_mean``, ``x_var`` and
    ``fitted`` have the shape (..., k, 1), ``centred`` and ``coeffs`` the
    stack's."""

    cols: np.ndarray
    x_mean: np.ndarray
    centred: np.ndarray    # cols - x_mean
    x_var: np.ndarray      # population variance
    fitted: np.ndarray     # bool: False for a constant or zero-variance column
    coeffs: np.ndarray | None  # coupled: centred / (N * x_var), 0 if unfitted

    def batch(self, b: int) -> "Columns":
        """The columns of batch ``b`` of a stack (B, k, N)."""
        return Columns._make(None if f is None else f[b] for f in self)


def column_stats(cols, coupled: bool) -> Columns:
    """The column pass over feature columns (..., k, N), N >= 1: each
    column's mean, centred values and population (1/N) variance, whether a
    line is fitted to it (not to a constant or zero-variance column), and
    in coupled mode its coefficients."""
    # C order, so that every row-wise reduce runs along a contiguous axis
    cols = np.ascontiguousarray(cols, dtype=np.float64)
    n = cols.shape[-1]
    # .max(), .min() and .sum() call these reduces; sum / n is np.mean's bits
    mean_x = np.add.reduce(cols, axis=-1, keepdims=True) / n
    centred = cols - mean_x
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    fitted = ((np.maximum.reduce(cols, axis=-1, keepdims=True)
               != np.minimum.reduce(cols, axis=-1, keepdims=True))
              & (var != 0.0))
    coeffs = None
    if coupled:
        coeffs = np.divide(centred, n * var, out=np.zeros(cols.shape),
                           where=fitted)
    return Columns(cols, mean_x, centred, var, fitted, coeffs)


def fit_linear_baseline(columns: Columns, preds) -> Lines:
    """Least-squares lines from the feature columns of ``columns`` (the
    column pass over (..., k, N), N >= 2) to the predictions (..., 1, N),
    with population (1/N) covariance. A column that is not ``fitted`` gets
    slope 0.
    """
    preds = np.ascontiguousarray(preds, dtype=np.float64)
    n = preds.shape[-1]
    mean_p = np.add.reduce(preds, axis=-1, keepdims=True) / n
    cov = np.add.reduce(columns.centred * (preds - mean_p), axis=-1,
                        keepdims=True) / n
    slope = np.divide(cov, columns.x_var, out=np.zeros(cov.shape),
                      where=columns.fitted)
    return Lines(slope, columns.x_mean, columns.x_var, mean_p, columns.fitted)


def adjacent_violations(dpred: np.ndarray, dx: np.ndarray,
                        slope) -> np.ndarray:
    """Shortfall of each adjacent sorted-prediction increment: with the
    increments ``dpred`` (..., 1, N-1) of the sorted predictions, ``dx``
    (..., k, N-1) of each feature carried along the same order, and each
    feature's ``slope`` in a column (..., k, 1), pair i has v[i] = max(0,
    slope * dx[i] - dpred[i]); the intercept cancels in increments.
    """
    return np.maximum(slope * dx - dpred, 0.0)


def _fit_stacks(preds, columns: Columns):
    """The penalty kernel over batches of N >= 2 rows: predictions
    (..., 1, N) against the column pass over their monotonic feature
    columns (..., k, N), as one batch's (1, N) and (k, N), or B batches'
    (B, 1, N) and (B, k, N).
    Per batch it sorts the predictions (stable), fits each column's line,
    carries the columns along that order and hinges the increments at each
    line's slope (frozen) or at ``sum(preds * coeffs)`` (coupled, when
    ``columns`` has coefficients). Returns perm, the lines, dx, violations,
    and coeffs or None; a column without a line has slope 0 and
    coefficients 0."""
    n = preds.shape[-1]
    perm = np.argsort(preds, axis=-1, kind="stable")
    lines = fit_linear_baseline(columns, preds)
    # one flat take at each row's offset keeps C order; cols[:, perm] would not
    rows = np.concatenate((preds, columns.cols), axis=-2)
    offsets = np.arange(0, rows.size, n).reshape(rows.shape[:-1] + (1,))
    rows = rows.take(perm + offsets)
    diffs = rows[..., 1:] - rows[..., :-1]  # np.diff's bytes
    dpred, dx = diffs[..., :1, :], diffs[..., 1:, :]
    slope, coeffs = lines.slope, columns.coeffs
    if coeffs is not None:
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


class BatchFit:
    """The shared per-batch work of every penalty and compliance path,
    and the batch penalty it measures: the fit of checked predictions
    (N,) against ``columns``, the column pass over the batch's (k, N)
    stack of the monotonic features ``indices``, or None when there is
    nothing to fit.

    ``indices`` are in spec order, and so are the rows of ``lines``; those
    in ``fitted`` are the rows of the other stacks, and the rest are
    degenerate in the batch (``skipped``). The stacks: ``perm``, the
    stable ascending sort of the predictions; ``lines``, the Lines of the
    (k, N) stack, None when there is nothing to fit; ``dx`` (fitted, N-1),
    diff(x[perm]); ``violations`` (fitted, N-1), at the mode's slope; and
    in coupled mode ``coeffs`` (fitted, N), slope = preds @ row.
    ``features``, ``per_feature`` and ``total`` are computed when first
    read; on a 0-row batch reading the penalty raises DimensionError,
    while ``skipped`` and ``compliance()`` still answer.
    """

    def __init__(self, indices, preds, columns):
        self.batch_size, self.indices = preds.shape[0], indices
        if columns is None:
            self.perm = np.argsort(preds, kind="stable")
            self.fitted, self.lines, self.coeffs = (), None, None
            self.dx = self.violations = np.empty((0, max(self.batch_size - 1, 0)))
            return
        perm, self.lines, dx, violations, coeffs = _fit_stacks(preds[None],
                                                               columns)
        keep = self.lines.fitted[:, 0]
        self.perm, self.fitted = perm[0], tuple(compress(indices, keep.tolist()))
        if len(self.fitted) < len(indices):  # the stacks hold only the fitted rows
            dx, violations = dx[keep], violations[keep]
            coeffs = None if coeffs is None else coeffs[keep]
        self.dx, self.violations, self.coeffs = dx, violations, coeffs

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


def _batch_columns(X, spec: MonotonicitySpec, coupled: bool):
    """The column pass over a checked batch's (k, N) stack, or None when
    the batch has nothing to fit (N < 2 or k = 0)."""
    if X.shape[0] >= 2 and spec.indices:
        return column_stats(X.T[spec.columns], coupled)
    return None


def fit_batch(preds, X, spec: MonotonicitySpec,
              baseline_mode: str = "frozen") -> BatchFit:
    """Validate a batch and fit it: sort it once by prediction, fit every
    monotonic feature against that one order and measure its shortfalls.

    Frozen mode measures them at the fitted slope. Coupled mode measures
    them at the slope as training differentiates it, ``sum(preds *
    coeffs)`` with ``coeffs = (x - mean_x) / (N * var)`` (the mean of the
    predictions drops out since ``sum(coeffs) = 0``), which may differ from
    the fitted slope in its last bits. Degenerate features (constant in
    the batch, or N < 2) are recorded as skipped.
    """
    _check_mode(baseline_mode)
    preds, X = _check_batch(preds, X, spec)
    return BatchFit(spec.indices, preds,
                    _batch_columns(X, spec, baseline_mode == "coupled"))


def _epoch_stacks(X, spec: MonotonicitySpec, batch_size: int) -> list:
    """The monotonic columns of an epoch's batches, rows ``X`` in batch
    order (``batch_size`` rows each, the last one possibly fewer), as
    (batches x features x rows) stacks, each with the index of its first
    batch: the full batches' stack, then a short last batch's when it has
    2 rows or more. No stack holds a batch with nothing to fit."""
    spec.validate_for(X.shape[1])
    if not spec.indices:
        return []
    cols = X.T[spec.columns]  # (k, n), C-contiguous
    k, n = cols.shape
    full, rest = divmod(n, batch_size)
    cut = full * batch_size
    stacks = []
    if full:
        stacks.append((0, cols[:, :cut].reshape(k, full, batch_size)
                       .transpose(1, 0, 2)))
    if rest >= 2:
        stacks.append((full, cols[None, :, cut:]))
    return stacks


def epoch_columns(X, spec: MonotonicitySpec, batch_size: int,
                  coupled: bool) -> list:
    """The column pass of every batch of an epoch whose rows ``X`` are in
    batch order, for the fits of a lambda > 0 in that mode: one (k, N)
    :class:`Columns` per batch for :func:`build_loss_terms`, or None for a
    batch with nothing to fit. The full batches share one pass over their
    (batches x features x rows) stack, and a short last batch has its
    own."""
    batches = [None] * len(range(0, X.shape[0], batch_size))
    for first, cols in _epoch_stacks(X, spec, batch_size):
        stack = column_stats(cols, coupled)
        for b in range(len(cols)):
            batches[first + b] = stack.batch(b)
    return batches


def epoch_totals(X, preds, spec: MonotonicitySpec,
                 batch_size: int) -> list[float]:
    """The lambda-0 penalty of every batch of an epoch whose rows ``X``
    and predictions ``preds`` (n,) are in batch order: each batch's
    ``total`` from :func:`fit_batch` in frozen mode, with the bytes it
    gives alone, or 0.0 when the batch has nothing to fit. The column pass
    and the kernel run once per stack of :func:`_epoch_stacks`."""
    totals = [0.0] * len(range(0, preds.shape[0], batch_size))
    for first, cols in _epoch_stacks(X, spec, batch_size):
        b, _, m = cols.shape
        start = first * batch_size
        _, lines, _, v, _ = _fit_stacks(
            preds[start:start + b * m].reshape(b, 1, m),
            column_stats(cols, False))
        energy = np.where(lines.fitted[..., 0], np.add.reduce(v * v, axis=-1),
                          0.0)
        totals[first:first + b] = [_total(e, m) for e in energy.tolist()]
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


def _objective_node(preds: Node, y: np.ndarray, fit: BatchFit | None,
                    lam: float) -> Node:
    """The objective L = MSE + lambda * penalty as one node over ``preds``,
    with the value and gradient bits of the op graph ``add(mse, scale(
    penalty, lam))``. The MSE is ``scale(sum_all(square(preds - y)), 1/n)``.
    The penalty term is there when there is a fit (lambda > 0) and some
    feature was fitted: its value is ``fit.total``, and its graph is
    ``scale(sum_j sum_all(square(relu(dg_j - adjacent_diff(gather_rows(
    preds, perm))))), 1/n)``, where ``dg_j`` is the constant ``slope_j *
    dx_j`` (frozen) or ``sum_all(preds * coeffs_j) * dx_j`` (coupled),
    whose relu is the fit's violations. The backward works on the fit's
    stacks and adds to ``preds.grad`` as that graph's backward pass did,
    one contribution at a time: the MSE's, then in coupled mode
    ``coeffs_j`` times the slope's gradient, per feature in spec order,
    then the hinge gradient, chained ``((-g_0) - g_1) - ...`` in spec order
    and scattered back through ``perm``.
    """
    c = 1.0 / y.shape[0]
    r = preds.value - y
    value = np.add.reduce(r * r, axis=None) * c
    lam = float(lam)
    with_penalty = fit is not None and len(fit.fitted) > 0
    if with_penalty:
        value = value + fit.total * lam
    out = Node(value, (preds,), "objective", preds.requires_grad)

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
                     baseline_mode: str = "frozen",
                     columns=None) -> tuple[Node, BatchFit | None]:
    """The training objective L = MSE + lambda * penalty, as one graph node
    (:func:`_objective_node`), and the batch's one fit, None at lambda = 0.

    In frozen mode the fitted slope is a constant of the backward pass; in
    coupled mode gradients also flow through the covariance/variance
    formulas. The sort permutation is constant in backward either way.
    With an empty spec or with every feature degenerate the objective is
    the MSE alone. At lambda = 0 it is the MSE alone too, and no fit is
    made: the penalty is only reported, at the fitted slope in either mode,
    by :func:`fit_batch`, or for an epoch at once by :func:`epoch_totals`.
    ``columns`` is the batch's entry of :func:`epoch_columns` for this
    mode; when None the column pass runs on this batch alone. The batch is
    checked at any lambda: a 0-row batch raises DimensionError, and so
    does a lambda that is a bool or not finite and >= 0 (a ParameterError).
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
    fit = None
    if lam > 0:
        if columns is None:
            columns = _batch_columns(X, spec, baseline_mode == "coupled")
        fit = BatchFit(spec.indices, p, columns)
    return _objective_node(preds, y, fit, lam), fit
