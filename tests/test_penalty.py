import re

import numpy as np
import pytest

from dimlab import autodiff as ad
from dimlab import models as mz
from dimlab import penalty as pen
from dimlab.errors import DimensionError, ParameterError
from oracles import (fit_linear_baseline_reference, gradient_check,
                     loss_terms_reference)


def naive_penalty(preds, X, indices):
    """Literal loop transcription of the sorted-increment penalty."""
    preds = np.asarray(preds, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = preds.shape[0]
    total = 0.0
    for j in indices:
        x = X[:, j]
        if n < 2 or x.max() == x.min():
            continue
        mx = x.mean()
        mp = preds.mean()
        var = ((x - mx) ** 2).mean()
        if var == 0.0:
            continue
        slope = ((x - mx) * (preds - mp)).mean() / var
        order = np.argsort(preds, kind="stable")
        ps = preds[order]
        xs = x[order]
        p_j = 0.0
        for i in range(n - 1):
            delta_g = slope * (xs[i + 1] - xs[i])
            delta_f = ps[i + 1] - ps[i]
            v = max(0.0, delta_g - delta_f)
            p_j += v * v
        total += p_j
    return total / n


def spec_for(*indices):
    return pen.MonotonicitySpec(indices)


def fitted_line(x, preds):
    """The line a batch fit gives the one column ``x``, or None when the
    feature is skipped."""
    x = np.asarray(x, dtype=np.float64)
    f = pen.fit_batch(preds, x[:, None], spec_for(0)).features[0]
    return None if f is None else f.baseline


# ---------------------------------------------------------------- baseline

def test_fit_exact_linear():
    b = fitted_line([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0])
    assert b.slope == 2.0
    assert b.intercept == 0.0


def test_fit_constant_predictions():
    b = fitted_line([5.0, -1.0, 2.0], [7.0, 7.0, 7.0])
    assert b.slope == 0.0
    assert b.intercept == 7.0


def test_fit_hand_case():
    b = fitted_line([0.0, 1.0, 2.0], [0.0, 3.0, 3.0])
    assert abs(b.slope - 1.5) < 1e-12
    assert abs(b.intercept - 0.5) < 1e-12


def test_fit_degenerate_cases():
    assert fitted_line([1.0], [1.0]) is None
    assert fitted_line([4.0, 4.0, 4.0], [1.0, 2.0, 3.0]) is None


def test_fit_passes_through_centroid():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(2, 30)
        x = rng.normal(size=n) * rng.uniform(0.1, 100)
        p = rng.normal(size=n)
        b = fitted_line(x, p)
        assert abs(b.intercept - (p.mean() - b.slope * x.mean())) < 1e-9


# ---------------------------------------------------------------- sorting

def sort_one(preds, x):
    """(sorted preds, reordered x, perm) as the batch kernel orders them."""
    fit = pen.fit_batch(preds, np.asarray(x, dtype=np.float64)[:, None],
                        spec_for(0))
    preds = np.asarray(preds, dtype=np.float64)
    return preds[fit.perm], np.asarray(x)[fit.perm], fit.perm


def test_sort_identity_when_sorted():
    sp, xs, perm = sort_one([1.0, 2.0, 3.0], [9.0, 8.0, 7.0])
    assert np.array_equal(perm, [0, 1, 2])
    assert np.array_equal(xs, [9.0, 8.0, 7.0])


def test_sort_three_elements():
    sp, xs, perm = sort_one([3.0, 1.0, 2.0], [10.0, 20.0, 30.0])
    assert np.array_equal(sp, [1.0, 2.0, 3.0])
    assert np.array_equal(xs, [20.0, 30.0, 10.0])


def test_sort_stable_on_ties():
    sp, xs, perm = sort_one([0.0, 3.0, 3.0], [0.0, 1.0, 2.0])
    assert np.array_equal(perm, [0, 1, 2])
    assert np.array_equal(xs, [0.0, 1.0, 2.0])


def test_sort_length_mismatch():
    with pytest.raises(DimensionError):
        pen.fit_batch([1.0, 2.0], np.array([[1.0]]), spec_for(0))


# ---------------------------------------------------------------- violations

def test_violations_self_consistent_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    preds = 2.0 * x + 1.0
    v = pen.adjacent_violations(np.diff(preds), np.diff(x), 2.0)
    assert np.array_equal(v, np.zeros(3))


def test_violations_hand_case():
    v = pen.adjacent_violations(np.diff([0.0, 3.0, 3.0]),
                                np.diff([0.0, 1.0, 2.0]), 1.5)
    assert np.allclose(v, [0.0, 1.5], atol=1e-12)


def test_violations_nonpositive_slope():
    v = pen.adjacent_violations(np.diff([1.0, 2.0, 5.0]),
                                np.diff([0.0, 3.0, 3.5]), -0.7)
    assert np.array_equal(v, np.zeros(2))


def test_violations_single_row_empty():
    v = pen.adjacent_violations(np.diff([1.0]), np.diff([1.0]), 2.0)
    assert v.size == 0


def test_violations_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = rng.integers(2, 20)
        p = np.sort(rng.normal(size=n))
        x = rng.normal(size=n)
        v = pen.adjacent_violations(np.diff(p), np.diff(x), rng.normal())
        assert np.all(v >= 0)


# ---------------------------------------------------------------- feature sum

def test_feature_penalty_values():
    def feature_penalty(violations):
        # a one-feature batch's fit (slope 0: no violations), its
        # violations then set to the given ones
        n = len(violations) + 1
        fit = pen.fit_batch(np.zeros(n), np.arange(n, dtype=np.float64)[:, None],
                            spec_for(0))
        assert fit.fitted == (0,) and fit.violations.shape == (1, n - 1)
        fit.violations = violations[None]
        return fit.per_feature[0]

    assert feature_penalty(np.zeros(5)) == 0.0
    assert feature_penalty(np.array([0.0, 1.5])) == 2.25
    assert feature_penalty(np.ones(3)) == 3.0


# ---------------------------------------------------------------- batch penalty

def test_penalty_hand_batch():
    X = np.array([[0.0], [1.0], [2.0]])
    out = pen.monotonicity_penalty([0.0, 3.0, 3.0], X, spec_for(0))
    assert abs(out.total - 0.75) < 1e-12
    assert abs(out.per_feature[0] - 2.25) < 1e-12
    assert out.batch_size == 3
    assert out.skipped == ()


def test_penalty_zero_when_model_is_own_baseline():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    preds = 2.0 * x + 1.0  # dyadic values, fit is exact
    out = pen.monotonicity_penalty(preds, x[:, None], spec_for(0))
    assert out.total == 0.0


def test_penalty_single_row():
    out = pen.monotonicity_penalty([5.0], np.array([[1.0, 2.0]]), spec_for(0, 1))
    assert out.total == 0.0
    assert out.skipped == (0, 1)


def test_an_empty_batch_has_a_fit_but_no_penalty():
    X, spec = np.zeros((0, 1)), spec_for(0)
    fit = pen.fit_batch(np.zeros(0), X, spec)
    assert fit.skipped == (0,) and fit.compliance() is None
    empty = ad.leaf(np.zeros(0), requires_grad=True)
    for read in (lambda: fit.per_feature, lambda: fit.total,
                 lambda: pen.monotonicity_penalty(np.zeros(0), X, spec),
                 lambda: pen.build_loss_terms(empty, np.zeros(0), X, spec, 0.0),
                 lambda: pen.build_loss_terms(empty, np.zeros(0), X, spec, 0.5,
                                              "coupled")):
        with pytest.raises(DimensionError, match="at least one row, got 0"):
            read()


def test_penalty_skips_constant_column():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 3))
    X[:, 1] = 4.0
    preds = rng.normal(size=10)
    out = pen.monotonicity_penalty(preds, X, spec_for(0, 1, 2))
    assert out.skipped == (1,)
    assert out.per_feature[1] == 0.0
    assert abs(out.total * 10 - sum(out.per_feature.values())) < 1e-12


def test_penalty_empty_spec():
    out = pen.monotonicity_penalty([1.0, 2.0], np.zeros((2, 2)), spec_for())
    assert out.total == 0.0
    assert out.per_feature == {}


def test_penalty_index_out_of_range():
    with pytest.raises(ParameterError):
        pen.monotonicity_penalty([1.0, 2.0], np.zeros((2, 2)), spec_for(2))


def test_spec_rejects_duplicates_and_negatives():
    with pytest.raises(ParameterError):
        pen.MonotonicitySpec([0, 0])
    with pytest.raises(ParameterError):
        pen.MonotonicitySpec([-1])
    # no index is truncated, read from a bool or a string, or left to a
    # bare TypeError: each is refused by name
    for indices, value in (([1.7], 1.7), ([2.0], 2.0), ([True, 2], True),
                           ([np.True_], np.True_), ("12", "12"), (5, 5)):
        with pytest.raises(ParameterError, match=f"got {re.escape(repr(value))}$"):
            pen.MonotonicitySpec(indices)
    assert pen.MonotonicitySpec([np.int64(2), 0]).indices == (0, 2)


def test_penalty_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        preds = rng.normal(size=n)
        idx = tuple(int(i) for i in rng.permutation(d)[:rng.integers(1, d + 1)])
        out = pen.monotonicity_penalty(preds, X, spec_for(*idx))
        assert out.total >= 0.0


def test_penalty_matches_naive_oracle():
    rng = np.random.default_rng(4)
    for case in range(200):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 20)
        preds = rng.normal(size=n) * rng.uniform(0.5, 5)
        if case % 5 == 0 and n >= 3:
            preds[1] = preds[0]  # tied predictions
        if case % 7 == 0:
            X[:, 0] = 1.25  # constant column
        idx = tuple(int(i) for i in rng.permutation(d)[:rng.integers(1, d + 1)])
        got = pen.monotonicity_penalty(preds, X, spec_for(*idx)).total
        assert abs(got - naive_penalty(preds, X, sorted(idx))) <= 1e-10


def test_penalty_row_permutation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        X = rng.normal(size=(n, 3))
        preds = rng.normal(size=n)  # continuous, ties have measure zero
        base = pen.monotonicity_penalty(preds, X, spec_for(0, 1, 2)).total
        order = rng.permutation(n)
        shuf = pen.monotonicity_penalty(preds[order], X[order], spec_for(0, 1, 2)).total
        assert abs(shuf - base) <= 1e-12 * max(1.0, abs(base))


def test_penalty_prediction_affine_scaling():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        X = rng.normal(size=(n, 2))
        preds = rng.normal(size=n)
        c = float(rng.uniform(0.2, 4.0))
        s = float(rng.normal() * 3)
        base = pen.monotonicity_penalty(preds, X, spec_for(0, 1)).total
        scaled = pen.monotonicity_penalty(c * preds + s, X, spec_for(0, 1)).total
        assert abs(scaled - c * c * base) <= 1e-9 * max(1.0, abs(base))


def test_penalty_feature_affine_invariance():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        X = rng.normal(size=(n, 2))
        preds = rng.normal(size=n)
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.normal() * 2)
        base = pen.monotonicity_penalty(preds, X, spec_for(0)).per_feature[0]
        X2 = X.copy()
        X2[:, 0] = alpha * X2[:, 0] + beta
        moved = pen.monotonicity_penalty(preds, X2, spec_for(0)).per_feature[0]
        assert abs(moved - base) <= 1e-9 * max(1.0, abs(base))


# ---------------------------------------------------------------- compliance

def test_compliance_perfect():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    preds = 2.0 * x + 1.0
    assert pen.compliance_score(preds, x[:, None], spec_for(0)) == 1.0


def test_compliance_hand_batch():
    X = np.array([[0.0], [1.0], [2.0]])
    assert pen.compliance_score([0.0, 3.0, 3.0], X, spec_for(0)) == 0.5


def test_compliance_pools_features_with_equal_pair_counts():
    # feature 0 tracks the predictions exactly (clean); feature 1 is the
    # half-violated hand batch; with equal pair counts the pooled score
    # equals the mean of the per-feature scores
    preds = np.array([0.0, 3.0, 3.0])
    X = np.column_stack([preds, [0.0, 1.0, 2.0]])
    alone_0 = pen.compliance_score(preds, X, spec_for(0))
    alone_1 = pen.compliance_score(preds, X, spec_for(1))
    assert alone_0 == 1.0 and alone_1 == 0.5
    assert pen.compliance_score(preds, X, spec_for(0, 1)) == (alone_0 + alone_1) / 2


def test_compliance_undefined_when_all_degenerate():
    X = np.full((4, 1), 2.0)
    assert pen.compliance_score([1.0, 2.0, 3.0, 4.0], X, spec_for(0)) is None


def test_compliance_undefined_for_single_row():
    assert pen.compliance_score([1.0], np.array([[1.0]]), spec_for(0)) is None


def test_compliance_excludes_degenerate_from_both_sides():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 2))
    X[:, 1] = 3.0
    preds = rng.normal(size=12)
    with_const = pen.compliance_score(preds, X, spec_for(0, 1))
    alone = pen.compliance_score(preds, X, spec_for(0))
    assert with_const == alone


# ---------------------------------------------------------------- combined

def test_combined_loss_lambda_zero_is_mse():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    p_val = rng.normal(size=8)
    preds = ad.leaf(p_val, requires_grad=True)
    out, _ = pen.build_loss_terms(preds, y, X, spec_for(0, 1), 0.0)
    assert out.value.item() == np.sum((p_val - y) ** 2) * (1.0 / 8)


def test_combined_loss_zero_penalty_any_lambda():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    p_val = 2.0 * x + 1.0
    y = np.array([1.0, 2.0, 5.0, 7.0])
    for lam in (0.0, 0.4, 1.0):
        out, _ = pen.build_loss_terms(ad.leaf(p_val), y, x[:, None],
                                      spec_for(0), lam)
        assert abs(out.value.item() - np.mean((p_val - y) ** 2)) < 1e-15


def test_combined_loss_hand_batch():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 2.0])
    p_val = np.array([0.0, 3.0, 3.0])
    out, _ = pen.build_loss_terms(ad.leaf(p_val), y, X, spec_for(0), 0.4)
    expected = np.mean((p_val - y) ** 2) + 0.4 * 0.75
    assert abs(out.value.item() - expected) < 1e-12


def test_combined_loss_rejects_negative_lambda_and_bad_mode():
    preds = ad.leaf([1.0, 2.0])
    X = np.zeros((2, 1))
    y = np.zeros(2)
    with pytest.raises(ParameterError):
        pen.build_loss_terms(preds, y, X, spec_for(0), -0.1)
    for flag in (True, np.True_):  # as TrainConfig refuses it
        with pytest.raises(ParameterError, match=f"got {re.escape(repr(flag))}$"):
            pen.build_loss_terms(preds, y, X, spec_for(0), flag)
    with pytest.raises(ParameterError):
        pen.build_loss_terms(preds, y, X, spec_for(0), 0.5,
                             baseline_mode="loose")


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_combined_loss_rejects_a_non_finite_lambda(lam):
    with pytest.raises(ParameterError, match="finite"):
        pen.build_loss_terms(ad.leaf([1.0, 2.0]), np.zeros(2),
                             np.array([[0.0], [1.0]]), spec_for(0), lam)


def test_loss_terms_penalty_matches_pure_computation():
    rng = np.random.default_rng(10)
    for mode, tol in (("frozen", 0.0), ("coupled", 1e-12)):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        p_val = rng.normal(size=20)
        total, fit = pen.build_loss_terms(ad.leaf(p_val, requires_grad=True),
                                          y, X, spec_for(0, 2), 0.7,
                                          baseline_mode=mode)
        pure = pen.monotonicity_penalty(p_val, X, spec_for(0, 2))
        assert abs(fit.total - pure.total) <= tol
        assert fit.per_feature.keys() == pure.per_feature.keys()
        expected = np.mean((p_val - y) ** 2) + 0.7 * fit.total
        assert abs(total.value.item() - expected) < 1e-12


def test_frozen_gradients_match_fd_with_constants_held():
    rng = np.random.default_rng(11)
    n = 12
    X = rng.normal(size=(n, 2)) * 2.0
    y = rng.normal(size=n)
    p_val = rng.normal(size=n) * 3.0  # distinct, generic point
    lam = 0.6
    idx = spec_for(0, 1)

    preds = ad.leaf(p_val, requires_grad=True)
    ad.backward_pass(pen.build_loss_terms(preds, y, X, idx, lam, "frozen")[0])

    frozen = {}
    perm = np.argsort(p_val, kind="stable")
    for j in idx.indices:
        frozen[j] = fit_linear_baseline_reference(X[:, j], p_val).slope

    def loss_with_frozen_constants(p):
        total = np.mean((p - y) ** 2)
        acc = 0.0
        for j, slope in frozen.items():
            dg = slope * np.diff(X[perm, j])
            df = np.diff(p[perm])
            v = np.maximum(dg - df, 0.0)
            acc += np.sum(v * v)
        return total + lam * acc / n

    h = 1e-6
    g_fd = np.zeros(n)
    for i in range(n):
        up, dn = p_val.copy(), p_val.copy()
        up[i] += h
        dn[i] -= h
        g_fd[i] = (loss_with_frozen_constants(up) - loss_with_frozen_constants(dn)) / (2 * h)
    denom = np.maximum(1e-8, np.abs(preds.grad) + np.abs(g_fd))
    assert np.max(np.abs(preds.grad - g_fd) / denom) < 1e-6


def test_coupled_gradients_match_fd_of_full_refit():
    rng = np.random.default_rng(12)
    n = 10
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    p_val = rng.normal(size=n) * 2.0

    err = gradient_check(
        lambda p: pen.build_loss_terms(p, y, X, spec_for(0, 1), 0.8,
                                       "coupled")[0],
        p_val, step=1e-5)
    assert err < 1e-4


def test_frozen_and_coupled_gradients_differ():
    rng = np.random.default_rng(13)
    n = 15
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    p_val = rng.normal(size=n)
    grads = {}
    for mode in ("frozen", "coupled"):
        preds = ad.leaf(p_val, requires_grad=True)
        ad.backward_pass(
            pen.build_loss_terms(preds, y, X, spec_for(0, 1), 1.0, mode)[0])
        grads[mode] = preds.grad.copy()
    assert not np.allclose(grads["frozen"], grads["coupled"])


# ---------------------------------------------------------------- moments

def mean_based_moments(x_col, preds):
    """The baseline's moments in their np.mean form: (mean_x, var, slope,
    intercept)."""
    mean_x = x_col.mean()
    mean_p = preds.mean()
    var = ((x_col - mean_x) ** 2).mean()
    cov = ((x_col - mean_x) * (preds - mean_p)).mean()
    slope = cov / var
    return mean_x, var, slope, mean_p - slope * mean_x


def mean_based_coupled_grad(p, y, X, indices, lam):
    """Gradient on the predictions of the coupled objective, with every
    moment taken by np.mean."""
    n = p.shape[0]
    preds = ad.leaf(p, requires_grad=True)
    perm = np.argsort(p, kind="stable")
    mse = ad.scale(ad.sum_all(ad.square(ad.sub(preds, ad.constant(y)))),
                   1.0 / n)
    dfhat = ad.adjacent_diff(ad.gather_rows(preds, perm))
    p_sum = None
    for j in indices:
        x_col = X[:, j]
        mean_x, var, _, _ = mean_based_moments(x_col, p)
        coeffs = (x_col - mean_x) / (n * var)
        slope = ad.sum_all(ad.mul(preds, ad.constant(coeffs)))
        dg = ad.mul(slope, ad.constant(np.diff(x_col[perm])))
        p_j = ad.sum_all(ad.square(ad.relu(ad.sub(dg, dfhat))))
        p_sum = p_j if p_sum is None else ad.add(p_sum, p_j)
    ad.backward_pass(ad.add(mse, ad.scale(ad.scale(p_sum, 1.0 / n), lam)))
    return preds.grad


def moment_batches():
    """name -> (X, preds); the moments run over the columns of X."""
    rng = np.random.default_rng(21)
    n = 97
    wide = rng.uniform(-1.0, 1.0, size=(n, 7))
    return {
        "random": (rng.normal(size=(n, 3)), rng.normal(size=n)),
        "tie_heavy": (rng.integers(0, 3, size=(n, 3)).astype(float),
                      np.round(rng.normal(size=n), 1)),
        "strided": (wide[:, ::2], rng.normal(size=n)),
        "fortran": (np.asfortranarray(rng.normal(size=(n, 3))),
                    rng.normal(size=n)),
        "large_magnitude": (1e12 + 1e6 * rng.normal(size=(n, 3)),
                            -3e9 + 1e4 * rng.normal(size=n)),
    }


MOMENT_BATCHES = moment_batches()


def bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("name", sorted(MOMENT_BATCHES))
def test_fit_linear_baseline_moments_equal_the_mean_form(name):
    X, preds = MOMENT_BATCHES[name]
    for j in range(X.shape[1]):
        mean_x, var, slope, intercept = mean_based_moments(X[:, j], preds)
        b = fitted_line(X[:, j], preds)
        assert bits(b.slope) == bits(slope), (name, j)
        assert bits(b.intercept) == bits(intercept), (name, j)
        assert bits(b.x_mean) == bits(mean_x), (name, j)
        assert bits(b.x_var) == bits(var), (name, j)


@pytest.mark.parametrize("name", sorted(MOMENT_BATCHES))
def test_coupled_gradient_equals_the_mean_form(name):
    X, preds = MOMENT_BATCHES[name]
    y = preds[::-1].copy()
    indices = tuple(range(X.shape[1]))
    node = ad.leaf(preds, requires_grad=True)
    total, fit = pen.build_loss_terms(node, y, X, pen.MonotonicitySpec(indices),
                                      0.7, "coupled")
    assert fit.skipped != indices, name  # the penalty is in the objective
    ad.backward_pass(total)
    expected = mean_based_coupled_grad(preds, y, X, indices, 0.7)
    assert node.grad.tobytes() == expected.tobytes(), name


# ---------------------------------------------------------------- one node

def penalty_batches():
    """name -> (X, preds, y, monotonic indices)."""
    rng = np.random.default_rng(31)
    n = 32
    one_constant = rng.normal(size=(n, 3))
    one_constant[:, 1] = 3.0
    batches = {
        "random": (rng.normal(size=(n, 4)), rng.normal(size=n), (0, 1, 3)),
        "tie_heavy": (rng.integers(0, 3, size=(n, 3)).astype(float),
                      np.round(rng.normal(size=n), 1), (0, 1, 2)),
        "one_constant_column": (one_constant, rng.normal(size=n), (0, 1, 2)),
        "all_degenerate": (np.full((n, 3), 2.0), rng.normal(size=n), (0, 1, 2)),
        "n2": (rng.normal(size=(2, 3)), rng.normal(size=2), (0, 1, 2)),
        "constant_preds": (rng.normal(size=(n, 3)), np.full(n, 0.7), (0, 1, 2)),
    }
    return {name: (X, p, rng.normal(size=p.shape[0]), idx)
            for name, (X, p, idx) in batches.items()}


PENALTY_BATCHES = penalty_batches()


def preds_node(values, kind):
    """The predictions as a leaf, or as a model head's
    ``reshape(matmul + bias)`` over them; also the head's parameters."""
    if kind == "leaf":
        return ad.leaf(values, requires_grad=True), ()
    w = ad.leaf([[1.0]], requires_grad=True)
    b = ad.leaf([0.0], requires_grad=True)
    head = ad.add(ad.matmul(ad.constant(values[:, None]), w), b)
    return ad.reshape(head, values.shape), (w, b)


def penalty_bits(b):
    return ({j: bits(v) for j, v in b.per_feature.items()}, bits(b.total),
            b.batch_size, b.skipped)


@pytest.mark.parametrize("kind", ["leaf", "model_head"])
@pytest.mark.parametrize("mode", pen.BASELINE_MODES)
@pytest.mark.parametrize("name", sorted(PENALTY_BATCHES))
def test_penalty_node_matches_the_op_graph_byte_for_byte(name, mode, kind):
    X, p, y, indices = PENALTY_BATCHES[name]
    spec = pen.MonotonicitySpec(indices)
    runs = []
    for build in (pen.build_loss_terms, loss_terms_reference):
        preds, params = preds_node(p, kind)
        total, fit = build(preds, y, X, spec, 0.7, mode)
        ad.backward_pass(total)
        runs.append((total, fit, preds.grad, [q.grad for q in params]))
    (total, fit, grad, param_grads), (ref, ref_fit, ref_grad,
                                      ref_param_grads) = runs
    assert total.value.shape == ref.value.shape
    assert total.value.tobytes() == ref.value.tobytes()
    assert penalty_bits(fit) == penalty_bits(ref_fit)
    assert grad.tobytes() == ref_grad.tobytes()
    for g, ref_g in zip(param_grads, ref_param_grads):
        assert g.tobytes() == ref_g.tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("mode", pen.BASELINE_MODES)
def test_loss_terms_take_one_hinge_per_fitted_feature(mode, lam, monkeypatch):
    """A batch takes one hinge call, over the stack of all its monotonic
    features, and its stacks keep exactly the fitted features' rows:
    features 0 and 2 here, and not the constant 1. At lambda 0 the loss
    terms make no fit, and the batch's frozen-mode fit, as the epoch's end
    reports it, takes that one call."""
    calls = []

    def counting(dpred, dx, slope, hinge=pen.adjacent_violations):
        calls.append(dx)
        return hinge(dpred, dx, slope)

    monkeypatch.setattr(pen, "adjacent_violations", counting)
    X, p, y, indices = PENALTY_BATCHES["one_constant_column"]
    preds = ad.leaf(p, requires_grad=True)
    total, fit = pen.build_loss_terms(preds, y, X, pen.MonotonicitySpec(indices),
                                      lam, mode)
    ad.backward_pass(total)
    assert len(calls) == (1 if lam else 0)
    if not lam:
        assert fit is None
        fit = pen.fit_batch(p, X, pen.MonotonicitySpec(indices))
    assert fit.skipped == (1,)
    assert len(calls) == 1
    sorted_x = X[np.argsort(p, kind="stable")][:, [0, 2]].T
    assert fit.dx.tobytes() == (sorted_x[:, 1:] - sorted_x[:, :-1]).tobytes()


def test_penalty_node_coupled_gradient_check():
    """The penalty's own gradient: the objective at lambda 0.9 less the
    objective at 0, which is the MSE alone."""
    rng = np.random.default_rng(32)
    n = 12
    X = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    p_val = rng.normal(size=n) * 2.0

    def objective(q, lam):
        return pen.build_loss_terms(q, y, X, spec_for(0, 1, 2), lam,
                                    "coupled")[0]

    err = gradient_check(
        lambda q: ad.sub(objective(q, 0.9), objective(q, 0.0)),
        p_val, step=1e-5)
    assert err < 1e-4


def reachable(root):
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


@pytest.mark.parametrize("mode", pen.BASELINE_MODES)
@pytest.mark.parametrize("arch", mz.ARCHITECTURES)
def test_the_penalty_adds_no_graph_node(arch, mode):
    """A training step builds as many nodes at lambda > 0 as at 0: the
    objective is one node over the predictions, of shape (1,) as
    ``ad.as_tensor`` makes every scalar."""
    model = mz.build_model(mz.ModelConfig(architecture=arch, input_dim=4))
    data = np.random.default_rng(33)
    X, y = data.normal(size=(16, 4)), data.normal(size=16)
    sizes = []
    for lam in (0.0, 0.7):
        preds, _ = mz.forward_with_params(model, X, training=True,
                                          rng=np.random.default_rng(0))
        total, fit = pen.build_loss_terms(preds, y, X, spec_for(0, 1, 2),
                                          lam, mode)
        if not lam:
            assert fit is None
            fit = pen.fit_batch(preds.value, X, spec_for(0, 1, 2), mode)
        assert fit.skipped == ()
        assert total.parents == (preds,)
        assert total.value.shape == (1,)
        sizes.append(len(reachable(total)))
    assert sizes[0] == sizes[1]
