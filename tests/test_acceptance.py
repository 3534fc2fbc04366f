"""End-to-end acceptance gate.

One test per shipping criterion; ``pytest -v tests/test_acceptance.py``
prints one pass/fail line for each. The weak-feature benchmark sweep
(criteria 7 and 8) trains a full 6-weight x 5-seed grid once per session
via a module-scoped fixture.
"""

import os
import statistics
import time

import numpy as np
import pytest

from dimlab import autodiff as ad
from dimlab import data as dp
from dimlab import experiments as ex
from dimlab import models as mz
from dimlab import penalty as pen
from dimlab import training as tr
from dimlab.penalty import MonotonicitySpec
from oracles import (ReferenceAdam, fit_linear_baseline_reference,
                     gradient_check, network_reference, noise_free_response)

GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
SEEDS = (1, 2, 3, 4, 5)
# accuracy band for the penalized models and compliance slack for the
# strongest weight; both are this gate's own tolerances
MSE_BAND = 1.02
COMPLIANCE_SLACK = 0.05


def literal_penalty(preds, X, indices):
    """Independent literal loop transcription of the penalty."""
    preds = np.asarray(preds, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = preds.shape[0]
    total = 0.0
    for j in indices:
        x = X[:, j]
        if n < 2:
            continue
        mx = x.mean()
        var = ((x - mx) ** 2).mean()
        if var == 0.0:
            continue
        slope = ((x - mx) * (preds - preds.mean())).mean() / var
        order = np.argsort(preds, kind="stable")
        ps, xs = preds[order], x[order]
        p_j = 0.0
        for i in range(n - 1):
            v = max(0.0, slope * (xs[i + 1] - xs[i]) - (ps[i + 1] - ps[i]))
            p_j += v * v
        total += p_j
    return total / n


@pytest.fixture(scope="module")
def sweep():
    """Benchmark sweep: MLP3 on synthetic data, monotonic set {x3}."""
    ds = ex.with_monotonic_names(dp.generate_synthetic(dp.SyntheticConfig()),
                                 ("x3",))
    start = time.monotonic()
    reports = tr.lambda_grid_search(
        ds, mz.ModelConfig("mlp3", 4), tr.TrainConfig(),
        grid=GRID, seeds=SEEDS, max_workers=min(10, os.cpu_count() or 1))
    elapsed = time.monotonic() - start
    assert len(reports) == len(GRID) * len(SEEDS)
    assert all(r.error is None for r in reports)
    return {(r.lam, r.seed): r for r in reports}, elapsed


def test_ac1_penalty_matches_literal_oracle():
    """1000 random instances agree with a naive transcription, under 10 s."""
    rng = np.random.default_rng(42)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.1, 10.0))
        if rng.random() < 0.3:
            X[:, int(rng.integers(0, d))] = float(rng.normal())
        preds = rng.normal(size=n) * float(rng.uniform(0.1, 10.0))
        if rng.random() < 0.3:
            preds[: int(rng.integers(1, n + 1))] = preds[0]
        m = int(rng.integers(1, d + 1))
        idx = tuple(sorted(rng.choice(d, size=m, replace=False).tolist()))
        got = pen.monotonicity_penalty(preds, X, MonotonicitySpec(idx)).total
        assert abs(got - literal_penalty(preds, X, idx)) < 1e-10
    assert time.monotonic() - start < 10.0


def test_ac2_penalty_property_suite():
    """Six structural invariants, 200 random cases each."""
    rng = np.random.default_rng(1234)

    # non-negativity
    for _ in range(200):
        n = int(rng.integers(2, 40))
        X = rng.normal(size=(n, 3)) * 5.0
        preds = rng.normal(size=n) * 5.0
        assert pen.monotonicity_penalty(preds, X, MonotonicitySpec([0, 1, 2])).total >= 0.0

    # zero penalty when preds follow a non-decreasing line in the feature
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n) * 3.0
        a = float(rng.uniform(0.0, 4.0))
        b = float(rng.normal() * 2.0)
        preds = a * x + b
        total = pen.monotonicity_penalty(preds, x[:, None], MonotonicitySpec([0])).total
        assert total <= 1e-16 * max(1.0, float(np.max(preds ** 2)))

    # batch-row-permutation invariance (ties have measure zero)
    for _ in range(200):
        n = int(rng.integers(3, 30))
        X = rng.normal(size=(n, 2))
        preds = rng.normal(size=n)
        spec = MonotonicitySpec([0, 1])
        base = pen.monotonicity_penalty(preds, X, spec).total
        order = rng.permutation(n)
        shuf = pen.monotonicity_penalty(preds[order], X[order], spec).total
        assert abs(shuf - base) <= 1e-12 * max(1.0, abs(base))

    # prediction affine scaling: L(c*p + s) = c^2 * L(p), tie-free inputs
    for _ in range(200):
        n = int(rng.integers(3, 30))
        X = rng.normal(size=(n, 2))
        preds = rng.normal(size=n)
        c = float(rng.uniform(0.2, 4.0))
        s = float(rng.normal() * 3.0)
        spec = MonotonicitySpec([0, 1])
        base = pen.monotonicity_penalty(preds, X, spec).total
        scaled = pen.monotonicity_penalty(c * preds + s, X, spec).total
        assert abs(scaled - c * c * base) <= 1e-9 * max(1.0, abs(base))

    # feature positive-affine invariance of the per-feature penalty
    for _ in range(200):
        n = int(rng.integers(3, 30))
        X = rng.normal(size=(n, 2))
        preds = rng.normal(size=n)
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.normal() * 2.0)
        base = pen.monotonicity_penalty(preds, X, MonotonicitySpec([0])).per_feature[0]
        X2 = X.copy()
        X2[:, 0] = alpha * X2[:, 0] + beta
        moved = pen.monotonicity_penalty(preds, X2, MonotonicitySpec([0])).per_feature[0]
        assert abs(moved - base) <= 1e-9 * max(1.0, abs(base))

    # single-row batches and empty monotonic sets are exactly zero
    for _ in range(200):
        X1 = rng.normal(size=(1, 2))
        p1 = rng.normal(size=1)
        assert pen.monotonicity_penalty(p1, X1, MonotonicitySpec([0, 1])).total == 0.0
        n = int(rng.integers(2, 20))
        Xn = rng.normal(size=(n, 2))
        pn = rng.normal(size=n)
        assert pen.monotonicity_penalty(pn, Xn, MonotonicitySpec([])).total == 0.0


def _kink_margin(p, X, indices):
    """Smallest |delta_g - delta_f| over monotonic features and pairs."""
    order = np.argsort(p, kind="stable")
    ps = p[order]
    margin = np.inf
    for j in indices:
        slope = fit_linear_baseline_reference(X[:, j], p).slope
        gap = slope * np.diff(X[order, j]) - np.diff(ps)
        margin = min(margin, float(np.min(np.abs(gap))))
    return margin


def _frozen_fd_error(p_val, y, X, indices, lam, step):
    """Analytic frozen-mode gradient vs central differences of the
    recomputation with slopes and the sort permutation held fixed."""
    spec = MonotonicitySpec(indices)
    preds = ad.leaf(p_val, requires_grad=True)
    ad.backward_pass(
        pen.build_loss_terms(preds, y, X, spec, lam, "frozen")[0])
    g_analytic = preds.grad.copy()

    n = p_val.shape[0]
    perm = np.argsort(p_val, kind="stable")
    slopes = {j: fit_linear_baseline_reference(X[:, j], p_val).slope
              for j in indices}

    def frozen_loss(p):
        total = float(np.mean((p - y) ** 2))
        acc = 0.0
        for j, slope in slopes.items():
            v = np.maximum(slope * np.diff(X[perm, j]) - np.diff(p[perm]), 0.0)
            acc += float(np.sum(v * v))
        return total + lam * acc / n

    g_fd = np.zeros(n)
    for i in range(n):
        up, dn = p_val.copy(), p_val.copy()
        up[i] += step
        dn[i] -= step
        g_fd[i] = (frozen_loss(up) - frozen_loss(dn)) / (2.0 * step)
    denom = np.maximum(1e-8, np.abs(g_analytic) + np.abs(g_fd))
    return float(np.max(np.abs(g_analytic - g_fd) / denom))


def test_ac3_gradient_checks():
    """Both baseline modes match finite differences at 100 generic points.

    Points are rejected when predictions nearly tie or a violation sits at
    the hinge kink; no stochastic layers are involved.
    """
    rng = np.random.default_rng(7)
    step = 1e-5
    worst_frozen = worst_coupled = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 20))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d)) * 2.0
        y = rng.normal(size=n)
        p = rng.normal(size=n) * 3.0
        if np.min(np.diff(np.sort(p))) < 1e-3:
            continue
        indices = tuple(range(d))
        if _kink_margin(p, X, indices) < 1e-3:
            continue
        lam = float(rng.uniform(0.1, 1.5))
        worst_frozen = max(worst_frozen,
                           _frozen_fd_error(p, y, X, indices, lam, step))
        worst_coupled = max(worst_coupled, gradient_check(
            lambda q: pen.build_loss_terms(q, y, X, MonotonicitySpec(indices),
                                           lam, "coupled")[0],
            p, step=step))
        checked += 1
    assert worst_frozen < 1e-4
    assert worst_coupled < 1e-4


def test_ac4_hand_batch_exact():
    """x=[0,1,2], preds=[0,3,3]: every intermediate matches hand values."""
    x = np.array([0.0, 1.0, 2.0])
    preds = np.array([0.0, 3.0, 3.0])

    base = fit_linear_baseline_reference(x, preds)
    assert abs(base.slope - 1.5) <= 1e-12
    assert abs(base.intercept - 0.5) <= 1e-12

    spec = MonotonicitySpec([0])
    fit = pen.fit_batch(preds, x[:, None], spec)
    assert fit.features[0].baseline == base
    assert np.array_equal(fit.perm, [0, 1, 2])  # stable tie keeps order
    v = fit.features[0].violations
    assert v[0] == 0.0
    assert abs(v[1] - 1.5) <= 1e-12
    assert abs(fit.per_feature[0] - 2.25) <= 1e-12

    penalty = pen.monotonicity_penalty(preds, x[:, None], spec)
    assert abs(penalty.total - 0.75) <= 1e-12
    assert abs(pen.compliance_score(preds, x[:, None], spec) - 0.5) <= 1e-12


def test_ac5_metric_hand_cases():
    """Closed-form metric values and the headline percent drop."""
    def mk(y):
        y = np.asarray(y, dtype=np.float64)
        return dp.Dataset(X=np.arange(y.size, dtype=np.float64)[:, None],
                          y=y, feature_names=("x1",),
                          monotonic=MonotonicitySpec([]))

    perfect = tr.metrics_from_predictions(np.array([1.0, 2.0, 3.0]),
                                          mk([1.0, 2.0, 3.0]))
    assert perfect.mse == 0.0 and perfect.mae == 0.0 and perfect.mape == 0.0

    unit = tr.metrics_from_predictions(np.array([0.0, 2.0]), mk([1.0, 1.0]))
    assert unit.mse == 1.0 and unit.mae == 1.0 and unit.mape == 100.0

    guarded = tr.metrics_from_predictions(np.array([1.0, 2.0]), mk([0.0, 2.0]))
    assert np.isfinite(guarded.mape)
    assert guarded.mape == pytest.approx(100.0 * (1.0 / 1e-8) / 2.0, rel=1e-12)

    assert ex.percent_drop(0.26765, 0.21521) == pytest.approx(19.59, abs=0.01)


def test_ac6_synthetic_generator_statistics():
    """Default generation shows the designed correlation signs and sizes;
    the noise-free response is deterministic and strictly monotone."""
    ds = dp.generate_synthetic(dp.SyntheticConfig())
    assert ds.n_rows == 5000
    corr = [float(np.corrcoef(ds.X[:, j], ds.y)[0, 1]) for j in range(4)]
    assert corr[0] >= 0.6
    assert corr[1] > 0.03
    assert corr[2] > 0.03
    assert corr[3] <= -0.4

    cfg = dp.SyntheticConfig(n=200, bump_sds=(0, 0, 0, 0), noise_sd=0.0, seed=9)
    a, b = dp.generate_synthetic(cfg), dp.generate_synthetic(cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert np.max(np.abs(a.y - noise_free_response(a.X))) < 1e-12

    grid = np.linspace(0.0, 1.0, 64)
    base = np.array([100.0, 25.0, 75.0, 50.0])
    for j, (lo, hi) in enumerate(dp.SYNTH_DOMAINS[:3]):
        X = np.tile(base, (64, 1))
        X[:, j] = lo + (hi - lo) * grid
        assert np.all(np.diff(noise_free_response(X)) > 0)


def test_ac7_sweep_accuracy_within_band(sweep):
    """Weak-feature benchmark: for at least 4 of 5 seeds the best penalized
    test MSE stays within the 2% band of the unpenalized model, and the
    medians stay within the same band. Runtime far under budget."""
    by, elapsed = sweep
    assert elapsed < 900.0 * len(SEEDS)

    baselines, bests = [], []
    within_band = 0
    for s in SEEDS:
        base = by[(0.0, s)].test_metrics.mse
        best = min(by[(lam, s)].test_metrics.mse for lam in GRID if lam > 0)
        baselines.append(base)
        bests.append(best)
        within_band += best <= MSE_BAND * base
    assert within_band >= 4
    assert statistics.median(bests) <= MSE_BAND * statistics.median(baselines)


def test_ac8_sweep_compliance_response(sweep):
    """Compliance is defined on every grid cell, and the median test
    compliance at the strongest weight stays within COMPLIANCE_SLACK of
    the unpenalized median."""
    by, _ = sweep
    for key, report in by.items():
        c = report.test_metrics.compliance
        assert c is not None and 0.0 <= c <= 1.0, key

    base = [by[(0.0, s)].test_metrics.compliance for s in SEEDS]
    strongest = [by[(1.0, s)].test_metrics.compliance for s in SEEDS]
    assert statistics.median(strongest) >= statistics.median(base) - COMPLIANCE_SLACK


def test_ac9_determinism_and_plumbing(tmp_path):
    """Same seed gives bit-identical reports; summaries rebuild
    byte-identically from artifacts; lam=0 training equals an
    MSE-only loop; CSV round trips are lossless."""
    cfg = ex.ExperimentConfig(
        dataset={"synthetic": {"n": 120, "seed": 3}},
        model={"architecture": "ann"},
        train=tr.TrainConfig(batch_size=32, max_epochs=3),
        grid=(0.0, 0.5),
        seeds=(0,),
        monotonic_sets=(("x3",),),
        output_dir=str(tmp_path / "exp"))

    # bit-identical reports for the same cell
    first = tr.report_to_json(ex.run_single(cfg, 0.5, 0))
    second = tr.report_to_json(ex.run_single(cfg, 0.5, 0))
    assert first == second

    # summary rebuilds byte-identically from the run artifacts
    ex.run_experiment(cfg)
    out = tmp_path / "exp"
    summary = (out / "summary.csv").read_bytes()
    rebuilt = ex.summary_to_csv(ex.rebuild_summary(out)).encode("utf-8")
    assert rebuilt == summary

    # lam=0 trajectory identical to a penalty-free MSE loop
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 60)
    y = 2.0 * x + 1.0 + 0.1 * rng.normal(size=60)
    ds = dp.Dataset(X=x[:, None], y=y, feature_names=("x",),
                    monotonic=MonotonicitySpec([0]))
    train_cfg = tr.TrainConfig(batch_size=16, max_epochs=3, seed=4)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=4))
    _, report = tr.train(model, ds, train_cfg)

    carve = np.random.default_rng([tr.CARVE_STREAM, 4])
    perm = carve.permutation(60)
    n_val = max(1, int(round(0.1 * 60)))
    X_val, y_val = ds.X[perm[:n_val]], ds.y[perm[:n_val]]
    X_tr, y_tr = ds.X[perm[n_val:]], ds.y[perm[n_val:]]
    shuffle = np.random.default_rng([tr.SHUFFLE_STREAM, 4])
    drop = np.random.default_rng([tr.DROPOUT_STREAM, 4])
    ref = mz.build_model(mz.ModelConfig("ann", 1, seed=4))
    params = ref.parameters
    adam = ReferenceAdam(params)
    losses, val_mses = [], []
    for _ in range(3):
        order = shuffle.permutation(X_tr.shape[0])
        total = 0.0
        for start in range(0, X_tr.shape[0], 16):
            rows = order[start:start + 16]
            work = mz.Model(config=ref.config, parameters=params)
            preds, nodes = network_reference(work, X_tr[rows],
                                             training=True, rng=drop)
            diff = ad.sub(preds, ad.constant(y_tr[rows]))
            loss = ad.scale(ad.sum_all(ad.square(diff)), 1.0 / rows.size)
            ad.backward_pass(loss)
            grads = {k: n.grad for k, n in nodes.items()}
            params = adam.step(params, grads, train_cfg.learning_rate)
            total += loss.value.item() * rows.size
        losses.append(total / X_tr.shape[0])
        err = mz.forward(mz.Model(config=ref.config, parameters=params),
                         X_val).value - y_val
        val_mses.append(float(np.mean(err * err)))
    assert [rec.train_loss for rec in report.history] == losses
    assert [rec.val_mse for rec in report.history] == val_mses

    # dataset CSV round trip is lossless
    rng = np.random.default_rng(11)
    ds2 = dp.Dataset(X=rng.normal(size=(40, 3)) * 1e3,
                     y=rng.normal(size=40) / 7.0,
                     feature_names=("a", "b", "c"),
                     monotonic=MonotonicitySpec([1]))
    path = tmp_path / "round.csv"
    dp.write_csv(ds2, path)
    back = dp.load_csv(path, target_column="y", monotonic_columns=("b",))
    assert np.array_equal(back.X, ds2.X)
    assert np.array_equal(back.y, ds2.y)
