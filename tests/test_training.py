import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dimlab import autodiff as ad
from dimlab import data as dp
from dimlab import models as mz
from dimlab import penalty as pen
from dimlab import training as tr
from dimlab.errors import ConfigError, DataError, NumericError, ParameterError
from dimlab.penalty import MonotonicitySpec
from oracles import (ReferenceAdam, fit_batch_reference, gradient_check,
                     network_reference)


def linear_dataset(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = 2.0 * x + 1.0 + noise * rng.normal(size=n)
    return dp.Dataset(X=x[:, None], y=y, feature_names=("x",),
                      monotonic=MonotonicitySpec([0]))


def fake_report(lam, seed, mse, compliance):
    return tr.RunReport(
        config={"train": {"lam": lam, "seed": seed}, "model": {}},
        history=(), best_epoch=-1,
        val_metrics=tr.Metrics(mse=mse, mae=0.0, mape=0.0, compliance=compliance))


# ---------------------------------------------------------------- adam

def test_adam_zero_gradient_is_identity():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    flat, new = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    tr.adam_step(flat, tr.flatten(grads)[0], state, 1e-3)
    assert np.array_equal(new["w"], params["w"])
    assert state.step == 1


def test_adam_first_step_is_learning_rate_sized():
    params = {"w": np.array([0.5])}
    flat, new = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    tr.adam_step(flat, tr.flatten({"w": np.array([1.0])})[0], state, 1e-3)
    # bias-corrected unit moments: step = lr * 1/(1 + eps)
    assert abs((params["w"][0] - new["w"][0]) - 1e-3) < 1e-9


def test_adam_converges_on_quadratic():
    # textbook constants cross |w| < 1e-2 near step 2200; 3000 leaves margin
    flat, params = tr.flatten({"w": np.array([1.0])})
    state = tr.AdamState.init_like(params)
    for _ in range(3000):
        grads = {"w": 2.0 * params["w"]}
        tr.adam_step(flat, tr.flatten(grads)[0], state, 1e-3)
    assert abs(params["w"][0]) < 1e-2


def test_adam_rejects_nonfinite_gradient():
    params = {"w": np.array([1.0])}
    flat, _ = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    with pytest.raises(NumericError, match="w"):
        tr.adam_step(flat, tr.flatten({"w": np.array([np.nan])})[0], state,
                     1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_nonfinite_error_names_the_parameter_and_changes_nothing(bad):
    params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0], [4.0]])}
    flat, _ = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    tr.adam_step(flat, tr.flatten({"a": np.ones(2), "b": np.ones((2, 1))})[0],
                 state, 1e-3)
    before = (flat.copy(), state.m.copy(), state.v.copy())
    with pytest.raises(NumericError, match="'b'"):
        tr.adam_step(flat, tr.flatten({"a": np.ones(2),
                                       "b": np.array([[1.0], [bad]])})[0],
                     state, 1e-3)
    assert state.step == 1
    for got, want in zip((flat, state.m, state.v), before):
        assert got.tobytes() == want.tobytes()


def test_adam_checks_a_gradient_vector_like_a_gradient_map():
    # the training step's flat vector: refused when its size differs from
    # the parameters', and a non-finite entry is named by its parameter
    params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0], [4.0]])}
    flat, _ = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    with pytest.raises(ParameterError, match="do not match|does not match"):
        tr.adam_step(flat, np.ones(3), state, 1e-3)
    with pytest.raises(NumericError, match="'b'"):
        tr.adam_step(flat, np.array([1.0, 1.0, 1.0, np.nan]), state, 1e-3)
    assert state.step == 0
    assert flat.tobytes() == tr.flatten(params)[0].tobytes()
    tr.adam_step(flat, np.ones(4), state, 1e-3)
    want, _ = tr.flatten(params)
    tr.adam_step(want, tr.flatten({"a": np.ones(2), "b": np.ones((2, 1))})[0],
                 tr.AdamState.init_like(params), 1e-3)
    assert flat.tobytes() == want.tobytes()


def test_flatten_packs_one_vector_with_named_views():
    params = {"w": np.arange(6.0).reshape(2, 3).T, "b": np.array([7, 8])}
    flat, views = tr.flatten(params)
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    assert flat.tolist() == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0, 7.0, 8.0]
    for name, p in params.items():
        assert np.array_equal(views[name], p)
        assert views[name].shape == p.shape
        assert np.shares_memory(views[name], flat)
        assert not np.shares_memory(views[name], p)


def random_grads(rng, params):
    """Normal gradients salted with +-0.0, subnormals and huge values."""
    grads = {}
    for name, p in params.items():
        g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3)
        flat = g.reshape(-1)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e150])
        where = rng.integers(0, flat.size, size=special.size)
        flat[where] = special
        grads[name] = g
    return grads


@pytest.mark.parametrize("arch", ["mlp3", "cnn1d"])
def test_flat_adam_matches_per_parameter_reference_bit_for_bit(arch):
    model = mz.build_model(mz.ModelConfig(arch, 5, seed=3))
    flat, params = tr.flatten(model.parameters)
    state = tr.AdamState.init_like(params)
    ref = ReferenceAdam(model.parameters)
    expected = model.parameters
    rng = np.random.default_rng(11)
    for _ in range(50):
        grads = random_grads(rng, expected)
        tr.adam_step(flat, tr.flatten(grads)[0], state, 1e-2)
        expected = ref.step(expected, grads, 1e-2)
    assert state.step == ref.t == 50
    for name in expected:
        assert params[name].tobytes() == expected[name].tobytes(), name
    m = tr.unflatten(state.m, state.layout)
    v = tr.unflatten(state.v, state.layout)
    for name in expected:
        assert m[name].tobytes() == ref.m[name].tobytes(), name
        assert v[name].tobytes() == ref.v[name].tobytes(), name


# ---------------------------------------------------------------- metrics

def two_row_ds(y):
    return dp.Dataset(X=np.array([[0.0], [1.0]]), y=np.asarray(y, dtype=float),
                      feature_names=("a",), monotonic=MonotonicitySpec([]))


def test_metrics_perfect_predictor():
    ds = two_row_ds([1.0, 3.0])
    m = tr.metrics_from_predictions([1.0, 3.0], ds)
    assert (m.mse, m.mae, m.mape) == (0.0, 0.0, 0.0)


def test_metrics_unit_errors():
    ds = two_row_ds([1.0, 1.0])
    m = tr.metrics_from_predictions([0.0, 2.0], ds)
    assert (m.mse, m.mae, m.mape) == (1.0, 1.0, 100.0)


def test_metrics_zero_target_guarded():
    ds = two_row_ds([0.0, 2.0])
    m = tr.metrics_from_predictions([1.0, 2.0], ds)
    assert np.isfinite(m.mape)
    # |1-0|/1e-8 * 100 / 2 dominates
    assert m.mape == pytest.approx(100.0 * (1.0 / 1e-8) / 2.0)


def test_metrics_compliance_none_without_monotonic_features():
    m = tr.metrics_from_predictions([1.0, 2.0], two_row_ds([1.0, 2.0]))
    assert m.compliance is None


def test_evaluate_uses_model_predictions():
    ds = linear_dataset(n=50)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=0))
    for k in model.parameters:
        model.parameters[k] = np.zeros_like(model.parameters[k])
    m = tr.evaluate(model, ds)
    assert m.mse == pytest.approx(np.mean(ds.y ** 2))


# ---------------------------------------------------------------- train

def small_cfg(**kw):
    base = dict(lam=0.0, batch_size=32, max_epochs=30, early_stop_patience=10,
                val_fraction=0.1, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def test_train_learns_linear_function():
    ds = linear_dataset(n=400)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=0))
    trained, report = tr.train(model, ds, small_cfg(max_epochs=50))
    final_train_mse = tr.evaluate(trained, ds).mse
    assert final_train_mse < 1e-2
    assert len(report.history) <= 50
    assert report.best_epoch <= len(report.history) - 1


def test_train_zero_epochs_returns_initial_model():
    ds = linear_dataset(n=60)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=1))
    trained, report = tr.train(model, ds, small_cfg(max_epochs=0))
    assert report.history == ()
    assert report.best_epoch == -1
    for k in model.parameters:
        assert np.array_equal(trained.parameters[k], model.parameters[k])


def test_train_rejects_an_empty_training_split():
    empty = dp.Dataset(X=np.empty((0, 1)), y=np.empty(0), feature_names=("x",),
                       monotonic=MonotonicitySpec([0]))
    model = mz.build_model(mz.ModelConfig("ann", 1))
    with pytest.raises(DataError, match="empty"):
        tr.train(model, empty, tr.TrainConfig(max_epochs=1))


def test_train_rejects_an_empty_validation_split_before_training():
    empty = dp.Dataset(X=np.empty((0, 1)), y=np.empty(0), feature_names=("x",),
                       monotonic=MonotonicitySpec([0]))
    model = mz.build_model(mz.ModelConfig("ann", 1))
    with pytest.raises(DataError, match="cannot validate on an empty dataset"):
        tr.train(model, linear_dataset(n=40), tr.TrainConfig(max_epochs=3),
                 val_ds=empty)


def test_train_same_seed_bit_identical_report():
    ds = linear_dataset(n=120, noise=0.3)
    cfg = small_cfg(lam=0.4, max_epochs=8, seed=3)

    def run():
        model = mz.build_model(mz.ModelConfig("mlp3", 1, seed=3))
        trained, report = tr.train(model, ds, cfg)
        return trained, tr.report_to_json(report)

    t1, j1 = run()
    t2, j2 = run()
    assert j1 == j2
    for k in t1.parameters:
        assert np.array_equal(t1.parameters[k], t2.parameters[k])


def test_train_restores_best_validation_epoch():
    ds = linear_dataset(n=150, noise=0.5)
    model = mz.build_model(mz.ModelConfig("mlp3", 1, seed=2))
    trained, report = tr.train(model, ds, small_cfg(max_epochs=25, seed=2))
    best = report.history[report.best_epoch].val_mse
    assert all(best <= rec.val_mse for rec in report.history)
    # restored parameters actually reproduce the best val MSE
    assert report.val_metrics.mse == pytest.approx(best, rel=1e-12)


def test_train_early_stops_with_patience():
    ds = linear_dataset(n=100, noise=1.0)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=4))
    trained, report = tr.train(
        model, ds, small_cfg(max_epochs=500, early_stop_patience=3, seed=4))
    n = len(report.history)
    assert n < 500
    tail = report.history[report.best_epoch + 1:]
    assert len(tail) == 3  # stopped exactly after the patience window


def test_logged_penalty_matches_pure_recomputation():
    # no dropout, single batch: epoch-1 penalty must equal the pure
    # recomputation at the initial parameters
    ds = linear_dataset(n=64, noise=0.5)
    cfg = small_cfg(lam=0.8, batch_size=500, max_epochs=1, val_fraction=0.0)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=5))
    preds0 = mz.forward(model, ds.X).value
    expected = pen.monotonicity_penalty(preds0, ds.X, ds.monotonic).total
    _, report = tr.train(model, ds, cfg)
    assert report.history[0].penalty == expected
    assert report.history[0].penalty >= 0.0


def penalty_free_loop(ds, cfg, architecture):
    """``train`` at lambda 0 as an independent loop over ``cfg.max_epochs``
    epochs: the seeded carve, shuffles and dropout, the MSE as an op graph,
    ReferenceAdam, and the penalty that each step's batch reports by
    ``fit_batch_reference``. Returns per epoch (train loss, validation MSE,
    penalty), and the parameters of the best epoch."""
    carve = np.random.default_rng([tr.CARVE_STREAM, cfg.seed])
    perm = carve.permutation(ds.n_rows)
    n_val = max(1, int(round(cfg.val_fraction * ds.n_rows)))
    X_val, y_val = ds.X[perm[:n_val]], ds.y[perm[:n_val]]
    X_tr, y_tr = ds.X[perm[n_val:]], ds.y[perm[n_val:]]

    shuffle = np.random.default_rng([tr.SHUFFLE_STREAM, cfg.seed])
    drop = np.random.default_rng([tr.DROPOUT_STREAM, cfg.seed])
    ref = mz.build_model(mz.ModelConfig(architecture, ds.X.shape[1],
                                        seed=cfg.seed))
    params = ref.parameters
    adam = ReferenceAdam(params)
    history = []
    best = (np.inf, None)
    for _ in range(cfg.max_epochs):
        order = shuffle.permutation(X_tr.shape[0])
        total = penalty = 0.0
        for start in range(0, X_tr.shape[0], cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            work = mz.Model(config=ref.config, parameters=params)
            preds, nodes = network_reference(work, X_tr[rows],
                                             training=True, rng=drop)
            diff = ad.sub(preds, ad.constant(y_tr[rows]))
            loss = ad.scale(ad.sum_all(ad.square(diff)), 1.0 / rows.size)
            ad.backward_pass(loss)
            grads = {k: n.grad for k, n in nodes.items()}
            params = adam.step(params, grads, cfg.learning_rate)
            total += loss.value.item() * rows.size
            penalty += fit_batch_reference(preds.value, X_tr[rows],
                                           ds.monotonic).total * rows.size
        err = mz.forward(mz.Model(config=ref.config, parameters=params),
                         X_val).value - y_val
        val_mse = float(np.mean(err * err))
        history.append((total / X_tr.shape[0], val_mse,
                        penalty / X_tr.shape[0]))
        if val_mse < best[0]:
            best = (val_mse, {k: v.copy() for k, v in params.items()})
    return history, best[1]


def test_lambda_zero_matches_penalty_free_loop():
    # an independent MSE-only training loop, without build_loss_terms
    ds = linear_dataset(n=90, noise=0.2)
    cfg = small_cfg(lam=0.0, batch_size=32, max_epochs=5, val_fraction=0.1, seed=7)
    model = mz.build_model(mz.ModelConfig("mlp3", 1, seed=7))
    trained, report = tr.train(model, ds, cfg)
    history, best = penalty_free_loop(ds, cfg, "mlp3")

    assert [rec.train_loss for rec in report.history] == [h[0] for h in history]
    assert [rec.val_mse for rec in report.history] == [h[1] for h in history]
    for k, v in best.items():
        assert trained.parameters[k].tobytes() == v.tobytes()


@pytest.mark.parametrize("mode", pen.BASELINE_MODES)
def test_lambda_zero_history_matches_the_per_step_reference_penalty(mode):
    """At lambda 0 train fits the penalty it reports once per epoch, and
    in frozen mode whatever the config's mode; each epoch here ends in a
    short batch (90 fit rows in batches of 32), and the x values are
    rounded to tenths, so batches hold ties. The history keeps the bytes
    of a loop that fits each step's batch as it trains."""
    ds = dp.minmax_normalize(dp.generate_synthetic(dp.SyntheticConfig(n=100,
                                                                      seed=2)))
    ds = dp.Dataset(X=np.round(ds.X, 1), y=ds.y, feature_names=ds.feature_names,
                    monotonic=ds.monotonic)
    cfg = small_cfg(lam=0.0, batch_size=32, max_epochs=3, seed=4,
                    baseline_mode=mode)
    _, report = tr.train(mz.build_model(mz.ModelConfig("mlp3", 4, seed=4)),
                         ds, cfg)
    history, _ = penalty_free_loop(ds, cfg, "mlp3")
    assert [tuple(v.hex() for v in (rec.train_loss, rec.val_mse, rec.penalty))
            for rec in report.history] == [
        tuple(v.hex() for v in h) for h in history]
    assert all(rec.penalty > 0.0 for rec in report.history)


def test_train_returns_parameters_of_their_own(monkeypatch):
    working = []
    real = tr.adam_step

    def capture(flat, grads, state, lr):
        working.append(flat)
        return real(flat, grads, state, lr)

    monkeypatch.setattr(tr, "adam_step", capture)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=2))
    initial = {k: v.copy() for k, v in model.parameters.items()}
    trained, _ = tr.train(model, linear_dataset(n=64), small_cfg(max_epochs=3))
    assert working and all(w is working[0] for w in working)
    for k, p in trained.parameters.items():
        assert not np.shares_memory(p, working[0]), k
        for q in model.parameters.values():
            assert not np.shares_memory(p, q), k
        # the input model is left as it was
        assert model.parameters[k].tobytes() == initial[k].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_nonfinite_loss_aborts_with_location():
    ds = linear_dataset(n=64)
    big = dp.Dataset(X=ds.X, y=ds.y * 1e160, feature_names=ds.feature_names,
                     monotonic=ds.monotonic)
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=0))
    with pytest.raises(NumericError, match="epoch"):
        tr.train(model, big, small_cfg(max_epochs=3, batch_size=16))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        tr.TrainConfig(val_fraction=1.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(baseline_mode="melted")


def test_val_fraction_that_leaves_no_training_rows():
    model = mz.build_model(mz.ModelConfig("ann", 1, seed=0))
    with pytest.raises(ConfigError, match="leaves no training rows"):
        tr.train(model, linear_dataset(n=2), small_cfg(val_fraction=0.9))


def test_report_json_roundtrip():
    m = tr.Metrics(mse=0.5, mae=0.25, mape=12.5, compliance=None)
    rep = tr.RunReport(config={"train": {"lam": 0.2, "seed": 1},
                               "model": {"architecture": "ann"}},
                       history=(tr.EpochRecord(1.0, 2.0, 0.0),),
                       best_epoch=0, val_metrics=m, test_metrics=None)
    back = tr.report_from_json(tr.report_to_json(rep))
    assert back == rep
    assert "wall_time" not in tr.report_to_json(rep)


@pytest.mark.parametrize("model", [["mlp3"], "mlp3", None])
def test_report_from_json_refuses_a_model_section_that_is_not_an_object(model):
    rep = tr.RunReport(config={"train": {"lam": 0.2, "seed": 1},
                               "model": model},
                       history=(), best_epoch=-1)
    with pytest.raises(DataError, match="config.model must be an object"):
        tr.report_from_json(tr.report_to_json(rep))


# ---------------------------------------------------------------- sweep

def test_grid_search_degenerate_grid_equals_plain_training():
    ds = linear_dataset(n=80, noise=0.2)
    m_cfg = mz.ModelConfig("ann", 1, seed=0)
    t_cfg = small_cfg(max_epochs=4)
    reports = tr.lambda_grid_search(ds, m_cfg, t_cfg, grid=(0.0,), seeds=(0,))
    assert len(reports) == 1

    train_part, test_part = dp.train_test_split(ds, 0.8, seed=0)
    model = mz.build_model(m_cfg)
    _, direct = tr.train(model, dp.minmax_normalize(train_part), t_cfg)
    assert reports[0].history == direct.history


def test_grid_search_shapes_and_determinism():
    ds = linear_dataset(n=80, noise=0.2)
    m_cfg = mz.ModelConfig("ann", 1, seed=0)
    t_cfg = small_cfg(max_epochs=2)
    grid = (0.0, 0.5)
    r1 = tr.lambda_grid_search(ds, m_cfg, t_cfg, grid=grid, seeds=(0, 1))
    r2 = tr.lambda_grid_search(ds, m_cfg, t_cfg, grid=grid, seeds=(0, 1))
    assert len(r1) == 4
    assert [r.lam for r in r1] == [0.0, 0.5, 0.0, 0.5]
    assert [tr.report_to_json(a) for a in r1] == [tr.report_to_json(b) for b in r2]
    for rep in r1:
        assert rep.error is None
        assert rep.test_metrics is not None


def test_grid_search_requires_baseline_lambda():
    ds = linear_dataset(n=40)
    with pytest.raises(ConfigError, match="0.0 baseline"):
        tr.lambda_grid_search(ds, mz.ModelConfig("ann", 1), small_cfg(),
                              grid=(0.2,), seeds=(0,))


@pytest.mark.parametrize("kw, error, match", [
    ({"seeds": ()}, ConfigError, "seeds must be non-empty"),
    ({"max_workers": 0}, ParameterError, "max_workers"),
    ({"max_workers": 2.5}, ParameterError, "max_workers"),
    ({"max_workers": True}, ParameterError, "max_workers"),
    ({"max_workers": "2"}, ParameterError, "max_workers")],
    ids=["no_seeds", "no_workers", "float_workers", "bool_workers",
         "str_workers"])
def test_grid_search_rejects_no_seeds_and_no_workers(kw, error, match):
    with pytest.raises(error, match=match):
        tr.lambda_grid_search(linear_dataset(n=40), mz.ModelConfig("ann", 1),
                              small_cfg(), grid=(0.0,), **{"seeds": (0,), **kw})


@pytest.mark.parametrize("grid, seeds, match", [
    ((lam for lam in [0.0, 1.0]), (0,), None),
    ((0.0,), (seed for seed in [0, 1]), None),
    ((0.0,), (1, 1), "seeds must be distinct"),
    ((0.0,), (-1,), "seeds must be integers >= 0"),
    ((0.0,), (1.5,), "seeds must be integers >= 0"),
    ((0.0, float("nan")), (0,), "grid must be finite numbers"),
    ((0.0, -1.0), (0,), "grid must be finite numbers"),
    ((0.0, 0.5, 0.5), (0,), "grid values must be distinct"),
    ((0.0, -0.0), (0,), "grid values must be distinct"),
], ids=["generator_grid", "generator_seeds", "repeated_seed", "negative_seed",
        "float_seed", "nan_lambda", "negative_lambda", "repeated_lambda",
        "signed_zero_lambda"])
def test_grid_search_checks_grid_and_seeds_like_the_config(grid, seeds, match,
                                                          monkeypatch):
    """The sweep reads a generator once and refuses what ExperimentConfig
    refuses, before any cell trains."""
    cells = []

    def record(lam, seed, *args):
        cells.append((lam, seed))
        return None, tr.RunReport(config={}, history=(), best_epoch=-1)

    monkeypatch.setattr(tr, "fit_cell", record)
    args = (linear_dataset(n=40), mz.ModelConfig("ann", 1), small_cfg())
    if match is None:
        assert len(tr.lambda_grid_search(*args, grid=grid, seeds=seeds)) == 2
        assert len(cells) == 2 and (0.0, 0) in cells
    else:
        with pytest.raises(ConfigError, match=match):
            tr.lambda_grid_search(*args, grid=grid, seeds=seeds)
        assert cells == []


def test_grid_search_failed_cell_marked_and_sweep_continues(monkeypatch):
    real_fit = tr.fit_cell

    def fails_at_one(lam, *args):
        if lam == 1.0:
            raise NumericError("non-finite loss")
        return real_fit(lam, *args)

    monkeypatch.setattr(tr, "fit_cell", fails_at_one)
    ds = linear_dataset(n=60, noise=0.2)
    m_cfg = mz.ModelConfig("ann", 1, seed=0)
    t_cfg = small_cfg(max_epochs=2)
    reports = tr.lambda_grid_search(ds, m_cfg, t_cfg, grid=(0.0, 1.0), seeds=(0,))
    ok = {r.lam: r for r in reports if r.error is None}
    bad = [r for r in reports if r.error is not None]
    assert 0.0 in ok and len(bad) == 1
    assert bad[0].config["train"]["lam"] == 1.0


def test_grid_search_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a cell failure")

    monkeypatch.setattr(tr, "train", broken)
    ds = linear_dataset(n=60)
    with pytest.raises(TypeError, match="not a cell failure"):
        tr.lambda_grid_search(ds, mz.ModelConfig("ann", 1, seed=0),
                              small_cfg(max_epochs=1), grid=(0.0,), seeds=(0,))


def test_grid_search_rejects_sweeps_that_train_no_epoch(monkeypatch):
    calls = []
    monkeypatch.setattr(tr, "fit_cell", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="no epoch would run"):
        tr.lambda_grid_search(linear_dataset(n=40), mz.ModelConfig("ann", 1),
                              small_cfg(max_epochs=0), grid=(0.0,), seeds=(0,))
    assert calls == []


def test_grid_search_refuses_a_val_fraction_that_leaves_no_training_rows(
        monkeypatch):
    calls = []
    real = tr.fit_cell
    monkeypatch.setattr(tr, "fit_cell",
                        lambda *args: calls.append(args) or real(*args))
    # 10 rows give an 8-row training split, of which 0.95 carves all 8
    args = (linear_dataset(n=10), mz.ModelConfig("ann", 1),
            small_cfg(max_epochs=1, val_fraction=0.95))
    with pytest.raises(ConfigError, match="val_fraction 0.95 leaves no "
                                          "training rows"):
        tr.lambda_grid_search(*args, grid=(0.0, 1.0), seeds=(1, 2))
    assert calls == []
    # validating on the test split carves nothing, so the fraction is unused
    reports = tr.lambda_grid_search(*args, grid=(0.0, 1.0), seeds=(1,),
                                    validate_on_test=True)
    assert len(calls) == 2
    assert all(r.error is None for r in reports)


def test_one_filter_cnn1d_trains_and_passes_gradient_check():
    """hidden_sizes (1, 2) gives conv0 one input and one output channel,
    the one shape whose kernel gradient numpy sums with its own
    accumulators (see conv1d_same)."""
    ds = dp.generate_synthetic(dp.SyntheticConfig(n=200, seed=3))
    m_cfg = mz.ModelConfig("cnn1d", 4, hidden_sizes=(1, 2))
    reports = tr.lambda_grid_search(ds, m_cfg, small_cfg(max_epochs=2),
                                    grid=(0.0, 0.5), seeds=(1,))
    for rep in reports:
        assert rep.error is None and len(rep.history) == 2
        assert np.isfinite([[e.train_loss, e.val_mse, e.penalty]
                            for e in rep.history]).all()
        m = rep.test_metrics
        assert np.isfinite([m.mse, m.mae, m.mape]).all()

    # a generic point: zero biases put pre-activations on relu's kink
    rng = np.random.default_rng(5)
    params = {k: v + 0.1 * rng.normal(size=v.shape)
              for k, v in mz.build_model(m_cfg).parameters.items()}
    norm = dp.minmax_normalize(ds)
    x, y = norm.X[:16], ad.constant(norm.y[:16, None])

    def loss_of(name):
        def loss(p):
            nodes = {k: ad.constant(v) for k, v in params.items()}
            nodes[name] = p
            h = ad.constant(x[:, :, None])
            for i in range(2):
                h = ad.relu(ad.conv1d_same(h, nodes[f"conv{i}_w"],
                                           nodes[f"conv{i}_b"]))
            out = ad.add(ad.matmul(ad.global_avg_pool(h), nodes["head_w"]),
                         nodes["head_b"])
            return ad.sum_all(ad.square(ad.sub(out, y)))
        return loss

    for name, value in params.items():
        assert gradient_check(loss_of(name), value, step=1e-6) < 1e-6, name


# ---------------------------------------------------------------- BLAS threads

def pooled_sweep(seeds=(0,)):
    return tr.lambda_grid_search(linear_dataset(n=60, noise=0.2),
                                 mz.ModelConfig("ann", 1, seed=0),
                                 small_cfg(max_epochs=1), grid=(0.0, 0.5),
                                 seeds=seeds, max_workers=2)


def blas_threads():
    return ad._find_openblas()[0]()


def blas_threads_or_skip():
    if ad._find_openblas() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    return blas_threads()


def test_pooled_mlp3_reports_match_serial_across_blas_threads():
    """Batch 256 on MLP3's 128/64/32 layers is large enough for OpenBLAS
    to thread its gemms in the serial sweep (default thread count); the
    pooled sweep runs them at one thread."""
    ds = dp.generate_synthetic(dp.SyntheticConfig(n=400, seed=3))
    kw = dict(grid=(0.0, 0.5), seeds=(1,))
    m_cfg = mz.ModelConfig("mlp3", 4)
    t_cfg = tr.TrainConfig(batch_size=256, max_epochs=2)
    serial = tr.lambda_grid_search(ds, m_cfg, t_cfg, **kw, max_workers=1)
    pooled = tr.lambda_grid_search(ds, m_cfg, t_cfg, **kw, max_workers=2)
    assert [tr.report_to_json(r) for r in serial] == \
           [tr.report_to_json(r) for r in pooled]


def test_pooled_sweep_runs_one_blas_thread_and_restores_count(monkeypatch):
    before = blas_threads_or_skip()
    real_fit = tr.fit_cell
    seen, held = [], []

    def recording(*args):
        seen.append(blas_threads())
        held.append(ad._helper_idle.locked())
        return real_fit(*args)

    monkeypatch.setattr(tr, "fit_cell", recording)
    reports = pooled_sweep()
    assert all(r.error is None for r in reports)
    assert seen == [1, 1]
    assert held == [True, True]
    assert blas_threads() == before


def test_pooled_sweep_restores_blas_threads_when_a_cell_raises(monkeypatch):
    before = blas_threads_or_skip()

    def broken(*args):
        raise TypeError("not a cell failure")

    monkeypatch.setattr(tr, "fit_cell", broken)
    with pytest.raises(TypeError, match="not a cell failure"):
        pooled_sweep()
    assert blas_threads() == before
    assert not ad._helper_idle.locked()


def test_overlapping_pooled_sweeps_take_turns(monkeypatch):
    """Two pooled sweeps submitted together: one holds the pinned thread
    count while all its cells run, then the other does."""
    before = blas_threads_or_skip()
    real_fit = tr.fit_cell
    events = []  # (sweep, "start" or "end", thread count)

    def recording(lam, seed, *args):
        events.append((seed, "start", blas_threads()))
        time.sleep(0.05)  # long enough for the other sweep to try to enter
        report = real_fit(lam, seed, *args)
        events.append((seed, "end", blas_threads()))
        return report

    monkeypatch.setattr(tr, "fit_cell", recording)
    with ThreadPoolExecutor(max_workers=2) as outer:
        sweeps = [outer.submit(pooled_sweep, seeds=(seed,)) for seed in (0, 1)]
        for sweep in sweeps:
            assert all(r.error is None for r in sweep.result(timeout=120))
    assert len(events) == 8 and {count for *_, count in events} == {1}
    order = [seed for seed, *_ in events]
    assert order in ([0] * 4 + [1] * 4, [1] * 4 + [0] * 4)
    assert blas_threads() == before


def test_pooled_sweep_without_openblas_runs_unpinned_and_logs_once(
        monkeypatch, caplog):
    monkeypatch.setattr(ad, "_OPENBLAS_SYMBOLS", ())
    ad._find_openblas.cache_clear()
    try:
        with caplog.at_level(logging.INFO, logger="dimlab.autodiff"):
            for _ in range(2):
                assert all(r.error is None for r in pooled_sweep())
        assert len([r for r in caplog.records
                    if "OpenBLAS" in r.getMessage()]) == 1
        assert ad._find_openblas() is None
    finally:
        ad._find_openblas.cache_clear()


# ---------------------------------------------------------------- conv helper

def test_pooled_cnn1d_runs_convs_inline_and_matches_serial(monkeypatch):
    """The pool's threads fill the cores, so its cells never use the conv
    helper; the serial sweep splits, and the reports keep their bytes."""
    monkeypatch.setattr(ad, "_CPUS", 2)
    monkeypatch.setattr(ad, "_helper", None)
    ds = dp.generate_synthetic(dp.SyntheticConfig(n=200, seed=3))
    kw = dict(grid=(0.0, 0.5), seeds=(1, 2))
    m_cfg = mz.ModelConfig("cnn1d", 4, hidden_sizes=(8, 4))
    t_cfg = small_cfg(max_epochs=1)
    pooled = tr.lambda_grid_search(ds, m_cfg, t_cfg, **kw, max_workers=2)
    assert ad._helper is None and not ad._helper_idle.locked()
    serial = tr.lambda_grid_search(ds, m_cfg, t_cfg, **kw, max_workers=1)
    assert ad._helper is not None
    ad._helper.shutdown()
    assert all(r.error is None for r in serial)
    assert [tr.report_to_json(r) for r in serial] == \
           [tr.report_to_json(r) for r in pooled]


@pytest.mark.parametrize("arch, starts", [("ann", False), ("mlp3", False),
                                          ("cnn1d", True)])
def test_only_a_conv_cell_starts_the_conv_helper(monkeypatch, arch, starts):
    monkeypatch.setattr(ad, "_CPUS", 2)
    monkeypatch.setattr(ad, "_helper", None)
    ds = dp.generate_synthetic(dp.SyntheticConfig(n=100, seed=3))
    m_cfg = mz.ModelConfig(arch, 4, hidden_sizes=(4, 4))
    reports = tr.lambda_grid_search(ds, m_cfg, small_cfg(max_epochs=1),
                                    grid=(0.0, 0.5), seeds=(1,))
    assert all(r.error is None for r in reports)
    started = ad._helper
    if started is not None:
        started.shutdown()
    assert (started is not None) == starts


# ---------------------------------------------------------------- selection

def test_select_lambda_dominance():
    reports = [fake_report(0.0, 0, mse=1.0, compliance=0.8),
               fake_report(0.5, 0, mse=0.5, compliance=0.9)]
    assert tr.select_lambda(reports) == 0.5


def test_select_lambda_more_compliant_lambda_does_not_change_choice():
    reports = [fake_report(0.0, 0, mse=0.4, compliance=0.2),
               fake_report(1.0, 0, mse=0.9, compliance=0.99)]
    assert tr.select_lambda(reports) == 0.0


def test_select_lambda_tie_goes_to_smaller():
    reports = [fake_report(0.6, 0, mse=0.5, compliance=0.9),
               fake_report(0.2, 0, mse=0.5, compliance=0.9)]
    assert tr.select_lambda(reports) == 0.2


def test_select_lambda_median_aggregation_across_seeds():
    reports = []
    for seed, mse in enumerate([1.0, 1.1, 5.0]):  # median 1.1
        reports.append(fake_report(0.0, seed, mse=mse, compliance=0.9))
    for seed, mse in enumerate([1.2, 1.3, 1.4]):  # median 1.3
        reports.append(fake_report(0.4, seed, mse=mse, compliance=0.9))
    assert tr.select_lambda(reports) == 0.0


def test_select_lambda_all_compliance_undefined_falls_back():
    reports = [fake_report(0.0, 0, mse=0.7, compliance=None),
               fake_report(0.2, 0, mse=0.3, compliance=None)]
    assert tr.select_lambda(reports) == 0.2


def test_select_lambda_ignores_failed_cells():
    good = fake_report(0.0, 0, mse=0.5, compliance=0.9)
    failed = tr.RunReport(config={"train": {"lam": 0.8, "seed": 0}, "model": {}},
                          history=(), best_epoch=-1, error="boom")
    assert tr.select_lambda([good, failed]) == 0.0


def test_select_lambda_needs_a_successful_report():
    failed = tr.RunReport(config={"train": {"lam": 0.0, "seed": 0}, "model": {}},
                          history=(), best_epoch=-1, error="boom")
    with pytest.raises(ParameterError, match="no successful reports"):
        tr.select_lambda([failed])


@pytest.mark.parametrize("field", ["batch_size", "max_epochs",
                                   "early_stop_patience"])
@pytest.mark.parametrize("value", [16.0, True])
def test_train_config_counts_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=field):
        tr.TrainConfig(**{field: value})
    # a numpy integer is accepted as the int the report's JSON can hold
    assert type(getattr(tr.TrainConfig(**{field: np.int64(3)}), field)) is int


@pytest.mark.parametrize("value", [-1, np.int64(-2), 1.5, True, "1"])
def test_train_config_seed_must_be_a_count(value):
    with pytest.raises(ConfigError, match="seed"):
        tr.TrainConfig(seed=value)
    assert type(tr.TrainConfig(seed=np.int64(3)).seed) is int


@pytest.mark.parametrize("field", ["lam", "learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ConfigError, match=field):
        tr.TrainConfig(**{field: value})
