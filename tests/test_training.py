import json
import logging
import threading
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
from oracles import ReferenceAdam


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
    tr.adam_step(flat, grads, state, 1e-3)
    assert np.array_equal(new["w"], params["w"])
    assert state.step == 1


def test_adam_first_step_is_learning_rate_sized():
    params = {"w": np.array([0.5])}
    flat, new = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    tr.adam_step(flat, {"w": np.array([1.0])}, state, 1e-3)
    # bias-corrected unit moments: step = lr * 1/(1 + eps)
    assert abs((params["w"][0] - new["w"][0]) - 1e-3) < 1e-9


def test_adam_converges_on_quadratic():
    # textbook constants cross |w| < 1e-2 near step 2200; 3000 leaves margin
    flat, params = tr.flatten({"w": np.array([1.0])})
    state = tr.AdamState.init_like(params)
    for _ in range(3000):
        grads = {"w": 2.0 * params["w"]}
        tr.adam_step(flat, grads, state, 1e-3)
    assert abs(params["w"][0]) < 1e-2


def test_adam_rejects_nonfinite_gradient():
    params = {"w": np.array([1.0])}
    flat, _ = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    with pytest.raises(NumericError, match="w"):
        tr.adam_step(flat, {"w": np.array([np.nan])}, state, 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_nonfinite_error_names_the_parameter_and_changes_nothing(bad):
    params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0], [4.0]])}
    flat, _ = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    tr.adam_step(flat, {"a": np.ones(2), "b": np.ones((2, 1))}, state, 1e-3)
    before = (flat.copy(), state.m.copy(), state.v.copy())
    with pytest.raises(NumericError, match="'b'"):
        tr.adam_step(flat, {"a": np.ones(2), "b": np.array([[1.0], [bad]])},
                     state, 1e-3)
    assert state.step == 1
    for got, want in zip((flat, state.m, state.v), before):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grads", [
    {"b": np.ones(2), "a": np.ones(2)},
    {"a": np.ones(2)},
    {"a": np.ones((2, 1)), "b": np.ones(2)},
], ids=["order", "missing", "shape"])
def test_adam_rejects_gradients_of_another_layout(grads):
    params = {"a": np.zeros(2), "b": np.zeros(2)}
    flat, _ = tr.flatten(params)
    state = tr.AdamState.init_like(params)
    with pytest.raises(ParameterError, match="do not match the parameters"):
        tr.adam_step(flat, grads, state, 1e-3)
    assert state.step == 0 and not flat.any()


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
        tr.adam_step(flat, grads, state, 1e-2)
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


def test_lambda_zero_matches_penalty_free_loop():
    # independent MSE-only training loop, no penalty module involved
    from dimlab import autodiff as ad

    ds = linear_dataset(n=90, noise=0.2)
    cfg = small_cfg(lam=0.0, batch_size=32, max_epochs=5, val_fraction=0.1, seed=7)
    model = mz.build_model(mz.ModelConfig("mlp3", 1, seed=7))
    trained, report = tr.train(model, ds, cfg)

    carve = np.random.default_rng([tr.CARVE_STREAM, 7])
    perm = carve.permutation(ds.n_rows)
    n_val = max(1, int(round(0.1 * ds.n_rows)))
    X_val, y_val = ds.X[perm[:n_val]], ds.y[perm[:n_val]]
    X_tr, y_tr = ds.X[perm[n_val:]], ds.y[perm[n_val:]]

    shuffle = np.random.default_rng([tr.SHUFFLE_STREAM, 7])
    drop = np.random.default_rng([tr.DROPOUT_STREAM, 7])
    ref = mz.build_model(mz.ModelConfig("mlp3", 1, seed=7))
    params = ref.parameters
    adam = ReferenceAdam(params)
    losses, val_mses = [], []
    best = (np.inf, None)
    for _ in range(5):
        order = shuffle.permutation(X_tr.shape[0])
        total = 0.0
        for start in range(0, X_tr.shape[0], 32):
            rows = order[start:start + 32]
            work = mz.Model(config=ref.config, parameters=params)
            preds, nodes = mz.forward_with_params(work, X_tr[rows],
                                                  training=True, rng=drop)
            diff = preds - ad.constant(y_tr[rows])
            loss = ad.scale(ad.sum_all(ad.square(diff)), 1.0 / rows.size)
            ad.backward_pass(loss)
            grads = {k: n.grad for k, n in nodes.items()}
            params = adam.step(params, grads, cfg.learning_rate)
            total += loss.value.item() * rows.size
        losses.append(total / X_tr.shape[0])
        err = mz.forward(mz.Model(config=ref.config, parameters=params),
                         X_val).value - y_val
        val_mse = float(np.mean(err * err))
        val_mses.append(val_mse)
        if val_mse < best[0]:
            best = (val_mse, {k: v.copy() for k, v in params.items()})

    assert [rec.train_loss for rec in report.history] == losses
    assert [rec.val_mse for rec in report.history] == val_mses
    for k, v in best[1].items():
        assert trained.parameters[k].tobytes() == v.tobytes()


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
    rep = tr.RunReport(config={"train": {"lam": 0.2, "seed": 1}, "model": {}},
                       history=(tr.EpochRecord(1.0, 2.0, 0.0),),
                       best_epoch=0, val_metrics=m, test_metrics=None)
    back = tr.report_from_json(tr.report_to_json(rep))
    assert back == rep
    assert "wall_time" not in tr.report_to_json(rep)


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
    with pytest.raises(ParameterError):
        tr.lambda_grid_search(ds, mz.ModelConfig("ann", 1), small_cfg(),
                              grid=(0.2,), seeds=(0,))


@pytest.mark.parametrize("kw, match", [
    ({"seeds": ()}, "at least one seed"), ({"max_workers": 0}, "max_workers")])
def test_grid_search_rejects_no_seeds_and_no_workers(kw, match):
    with pytest.raises(ParameterError, match=match):
        tr.lambda_grid_search(linear_dataset(n=40), mz.ModelConfig("ann", 1),
                              small_cfg(), grid=(0.0,), **{"seeds": (0,), **kw})


def test_grid_search_failed_cell_marked_and_sweep_continues():
    ds = linear_dataset(n=60, noise=0.2)
    m_cfg = mz.ModelConfig("ann", 1, seed=0)
    t_cfg = small_cfg(max_epochs=2)
    reports = tr.lambda_grid_search(ds, m_cfg, t_cfg, grid=(0.0, -1.0), seeds=(0,))
    ok = {r.lam: r for r in reports if r.error is None}
    bad = [r for r in reports if r.error is not None]
    assert 0.0 in ok and len(bad) == 1
    assert bad[0].config["train"]["lam"] == -1.0


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
            out = ad.matmul(ad.global_avg_pool(h), nodes["head_w"]) + nodes["head_b"]
            return ad.sum_all(ad.square(out - y))
        return loss

    for name, value in params.items():
        assert ad.gradient_check(loss_of(name), value, step=1e-6) < 1e-6, name


# ---------------------------------------------------------------- BLAS threads

def pooled_sweep(seeds=(0,)):
    return tr.lambda_grid_search(linear_dataset(n=60, noise=0.2),
                                 mz.ModelConfig("ann", 1, seed=0),
                                 small_cfg(max_epochs=1), grid=(0.0, 0.5),
                                 seeds=seeds, max_workers=2)


def blas_threads_or_skip():
    count = tr._ONE_BLAS_THREAD.threads()
    if count is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions")
    return count


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
    seen = []

    def recording(*args):
        seen.append(tr._ONE_BLAS_THREAD.threads())
        return real_fit(*args)

    monkeypatch.setattr(tr, "fit_cell", recording)
    reports = pooled_sweep()
    assert all(r.error is None for r in reports)
    assert seen == [1, 1]
    assert tr._ONE_BLAS_THREAD.threads() == before


def test_pooled_sweep_restores_blas_threads_when_a_cell_raises(monkeypatch):
    before = blas_threads_or_skip()

    def broken(*args):
        raise TypeError("not a cell failure")

    monkeypatch.setattr(tr, "fit_cell", broken)
    with pytest.raises(TypeError, match="not a cell failure"):
        pooled_sweep()
    assert tr._ONE_BLAS_THREAD.threads() == before


def test_overlapping_pooled_sweeps_restore_the_first_count(monkeypatch):
    """Sweep 0 enters first and exits first while sweep 1 still runs:
    sweep 1 keeps one thread, and the count sweep 0 found is restored
    when sweep 1 exits."""
    before = blas_threads_or_skip()
    first_running, second_running, first_done = (threading.Event()
                                                 for _ in range(3))
    real_fit = tr.fit_cell
    seen = {0: [], 1: []}

    def overlapping(lam, seed, *args):
        if seed == 0:
            first_running.set()
            assert second_running.wait(timeout=60)
        else:
            second_running.set()
            assert first_done.wait(timeout=60)
        seen[seed].append(tr._ONE_BLAS_THREAD.threads())
        return real_fit(lam, seed, *args)

    monkeypatch.setattr(tr, "fit_cell", overlapping)
    with ThreadPoolExecutor(max_workers=2) as outer:
        first = outer.submit(pooled_sweep, seeds=(0,))
        assert first_running.wait(timeout=60)
        second = outer.submit(pooled_sweep, seeds=(1,))
        try:
            first.result(timeout=120)
        finally:
            first_done.set()
        second.result(timeout=120)
    assert seen == {0: [1, 1], 1: [1, 1]}
    assert tr._ONE_BLAS_THREAD.threads() == before


def test_pooled_sweep_without_openblas_runs_unpinned_and_logs_once(
        monkeypatch, caplog):
    monkeypatch.setattr(tr, "_find_openblas", lambda: None)
    monkeypatch.setattr(tr, "_ONE_BLAS_THREAD", tr._OneBlasThread())
    with caplog.at_level(logging.INFO, logger="dimlab.training"):
        for _ in range(2):
            assert all(r.error is None for r in pooled_sweep())
    assert len([r for r in caplog.records if "OpenBLAS" in r.getMessage()]) == 1
    assert tr._ONE_BLAS_THREAD.threads() is None


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
