import numpy as np
import pytest

from dimlab import data as dp
from dimlab.errors import ConfigError, DataError
from dimlab.penalty import MonotonicitySpec
from oracles import noise_free_response


def toy_dataset(n=12, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return dp.Dataset(X=rng.normal(size=(n, d)), y=rng.normal(size=n),
                      feature_names=tuple(f"c{i}" for i in range(d)),
                      monotonic=MonotonicitySpec([0]))


# ---------------------------------------------------------------- synthetic

def test_single_row_transform_value():
    X = np.array([[100.0, 25.0, 0.0, 50.0]])
    # 0.5*100 + 1.2*sqrt(25) + 2*log(1) - 0.8*50 = 50 + 6 + 0 - 40
    assert abs(noise_free_response(X)[0] - 16.0) < 1e-12


def test_noise_free_generation_deterministic_and_exact():
    cfg = dp.SyntheticConfig(n=100, bump_sds=(0, 0, 0, 0), noise_sd=0.0, seed=3)
    a = dp.generate_synthetic(cfg)
    b = dp.generate_synthetic(cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert np.max(np.abs(a.y - noise_free_response(a.X))) < 1e-12


def test_strictly_increasing_in_monotone_features_on_grid():
    grid = np.linspace(0.0, 1.0, 50)
    base = np.array([100.0, 25.0, 75.0, 50.0])
    for j, (lo, hi) in enumerate(dp.SYNTH_DOMAINS[:3]):
        X = np.tile(base, (50, 1))
        X[:, j] = lo + (hi - lo) * grid
        vals = noise_free_response(X)
        assert np.all(np.diff(vals) > 0), f"x{j + 1} not strictly increasing"
    # x4 decreases
    X = np.tile(base, (50, 1))
    X[:, 3] = 100.0 * grid
    assert np.all(np.diff(noise_free_response(X)) < 0)


def test_default_seed_correlations():
    ds = dp.generate_synthetic(dp.SyntheticConfig(seed=0))
    assert ds.n_rows == 5000
    corr = [np.corrcoef(ds.X[:, j], ds.y)[0, 1] for j in range(4)]
    assert corr[0] >= 0.6
    assert corr[1] > 0.03
    assert corr[2] > 0.03
    assert corr[3] <= -0.4
    assert ds.monotonic.indices == (0, 1, 2)
    assert ds.feature_names == ("x1", "x2", "x3", "x4")


def test_bump_constant_within_bin():
    cfg = dp.SyntheticConfig(n=2000, bins=5, noise_sd=0.0, seed=1)
    ds = dp.generate_synthetic(cfg)
    resid = ds.y - noise_free_response(ds.X)
    # residual = sum of per-feature bin bumps; same 4 bins -> same residual
    bins = np.column_stack([
        np.minimum((5 * (c - c.min()) / (c.max() - c.min())).astype(int), 4)
        for c in ds.X.T])
    seen = {}
    for i in range(ds.n_rows):
        key = tuple(bins[i])
        if key in seen:
            assert abs(resid[i] - seen[key]) < 1e-9
        else:
            seen[key] = resid[i]
    assert len(seen) > 10  # the check covered many distinct bin combos


def test_bump_sds_default_is_five_percent_of_transform_range():
    sds = dp.default_bump_sds()
    assert abs(sds[0] - 0.05 * 100.0) < 1e-12
    assert abs(sds[1] - 0.05 * 1.2 * np.sqrt(50)) < 1e-12
    assert abs(sds[2] - 0.05 * 2.0 * np.log1p(150)) < 1e-12
    assert abs(sds[3] - 0.05 * 80.0) < 1e-12


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        dp.SyntheticConfig(n=1)
    with pytest.raises(ConfigError):
        dp.SyntheticConfig(bins=0)
    with pytest.raises(ConfigError):
        dp.SyntheticConfig(noise_sd=-1.0)
    with pytest.raises(ConfigError):
        dp.SyntheticConfig(bump_sds=(1.0, -1.0, 0.0, 0.0))


@pytest.mark.parametrize("field, value", [
    ("n", 300.5), ("n", 300.0), ("n", True), ("n", "300"),
    ("bins", 2.5), ("seed", 1.5), ("seed", False)])
def test_synthetic_config_counts_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        dp.SyntheticConfig(**{field: value})


def test_synthetic_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        dp.SyntheticConfig(seed=-1)


def test_synthetic_config_numpy_integers_become_ints():
    cfg = dp.SyntheticConfig(n=np.int64(50), bins=np.int32(3),
                             seed=np.uint8(4))
    assert [type(v) for v in (cfg.n, cfg.bins, cfg.seed)] == [int, int, int]
    plain = dp.generate_synthetic(dp.SyntheticConfig(n=50, bins=3, seed=4))
    assert dp.generate_synthetic(cfg).y.tobytes() == plain.y.tobytes()


@pytest.mark.parametrize("kwargs", [
    {"noise_sd": np.nan}, {"noise_sd": np.inf},
    {"bump_sds": (1.0, np.inf, 0.0, 0.0)}, {"bump_sds": (np.nan, 0, 0, 0)}])
def test_synthetic_config_rejects_non_finite_spreads(kwargs):
    with pytest.raises(ConfigError, match="finite"):
        dp.SyntheticConfig(**kwargs)


# ---------------------------------------------------------------- csv

def test_load_csv_drops_bad_rows(tmp_path, caplog):
    p = tmp_path / "toy.csv"
    p.write_text("a,b,y\n1,2,3\n4,,6\n7,8,9\n")
    with caplog.at_level("INFO", logger="dimlab.data"):
        ds = dp.load_csv(p, "y")
    assert ds.n_rows == 2
    assert np.array_equal(ds.y, [3.0, 9.0])
    assert "dropped 1 row" in caplog.text


def test_load_csv_na_and_nonfinite_dropped(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,y\nNA,1\n2,2\ninf,3\n")
    ds = dp.load_csv(p, "y")
    assert ds.n_rows == 1 and ds.y[0] == 2.0


def test_load_csv_monotonic_name_resolution(tmp_path):
    p = tmp_path / "od.csv"
    p.write_text("pair_id,EmpDen_Ori,Commuters_HW,IncomePC_Ori,trips\n"
                 "7,1.0,2.0,3.0,10\n8,4.0,5.0,6.0,20\n")
    ds = dp.load_csv(p, "trips", monotonic_columns=("EmpDen_Ori", "Commuters_HW"))
    assert ds.feature_names == ("EmpDen_Ori", "Commuters_HW", "IncomePC_Ori")
    assert ds.monotonic.indices == (0, 1)  # pair_id excluded as an id column


def test_load_csv_missing_columns(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="y"):
        dp.load_csv(p, "y")
    with pytest.raises(ConfigError, match="c"):
        dp.load_csv(p, "b", monotonic_columns=("c",))


def test_load_csv_rejects_duplicate_columns(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a, a,y\n1,2,3\n")
    with pytest.raises(DataError, match="duplicate column names \\['a'\\]"):
        dp.load_csv(p, "y")


def test_load_csv_no_usable_rows(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,y\nNA,1\n,2\n")
    with pytest.raises(DataError):
        dp.load_csv(p, "y")


def test_csv_roundtrip_is_lossless(tmp_path):
    ds = dp.generate_synthetic(dp.SyntheticConfig(n=50, seed=2))
    p = tmp_path / "synth.csv"
    dp.write_csv(ds, p)
    back = dp.load_csv(p, "y", monotonic_columns=("x1", "x2", "x3"))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert back.feature_names == ds.feature_names


# ---------------------------------------------------------------- split

def test_split_sizes_and_partition_law():
    ds = toy_dataset(n=10)
    tr, te = dp.train_test_split(ds, 0.8, seed=0)
    assert (tr.n_rows, te.n_rows) == (8, 2)
    joined = np.vstack([tr.X, te.X])
    assert {tuple(r) for r in joined} == {tuple(r) for r in ds.X}


def test_split_deterministic_and_seed_sensitive():
    ds = toy_dataset(n=40)
    a1, _ = dp.train_test_split(ds, 0.8, seed=5)
    a2, _ = dp.train_test_split(ds, 0.8, seed=5)
    b1, _ = dp.train_test_split(ds, 0.8, seed=6)
    assert np.array_equal(a1.X, a2.X)
    assert not np.array_equal(a1.X, b1.X)


def test_split_rejects_degenerate_fraction():
    ds = toy_dataset(n=4)
    with pytest.raises(ConfigError):
        dp.train_test_split(ds, 0.0)
    with pytest.raises(ConfigError):
        dp.train_test_split(ds, 0.05)  # rounds to an empty train side


# ---------------------------------------------------------------- normalize

def test_normalize_affine_map():
    ds = dp.Dataset(X=np.array([[0.0], [5.0], [10.0]]), y=np.zeros(3),
                    feature_names=("a",), monotonic=MonotonicitySpec([]))
    out = dp.minmax_normalize(ds)
    assert np.array_equal(out.X[:, 0], [0.0, 0.5, 1.0])
    assert out.norm_params == ((0.0, 10.0),)
    assert np.array_equal(out.y, ds.y)  # target untouched


def test_normalize_identity_on_unit_column():
    ds = dp.Dataset(X=np.array([[0.0], [0.25], [1.0]]), y=np.zeros(3),
                    feature_names=("a",), monotonic=MonotonicitySpec([]))
    assert np.array_equal(dp.minmax_normalize(ds).X, ds.X)


def test_normalize_each_split_spans_unit_interval():
    ds = toy_dataset(n=50)
    tr, te = dp.train_test_split(ds, 0.8, seed=1)
    for part in (dp.minmax_normalize(tr), dp.minmax_normalize(te)):
        assert np.allclose(part.X.min(axis=0), 0.0)
        assert np.allclose(part.X.max(axis=0), 1.0)


def test_normalize_constant_column_warns_and_zeroes(caplog):
    X = np.ones((4, 2))
    X[:, 0] = [1.0, 2.0, 3.0, 4.0]
    ds = dp.Dataset(X=X, y=np.zeros(4), feature_names=("a", "b"),
                    monotonic=MonotonicitySpec([]))
    with caplog.at_level("WARNING", logger="dimlab.data"):
        out = dp.minmax_normalize(ds)
    assert np.all(out.X[:, 1] == 0.0)
    assert "b" in caplog.text


def test_normalize_idempotent_and_order_preserving():
    ds = toy_dataset(n=30, seed=4)
    once = dp.minmax_normalize(ds)
    twice = dp.minmax_normalize(once)
    assert np.array_equal(once.X, twice.X)
    for j in range(ds.X.shape[1]):
        assert np.array_equal(np.argsort(ds.X[:, j], kind="stable"),
                              np.argsort(once.X[:, j], kind="stable"))


def test_apply_normalization_fit_on_train():
    ds = toy_dataset(n=50, seed=5)
    tr, te = dp.train_test_split(ds, 0.8, seed=0)
    tr_n = dp.minmax_normalize(tr)
    te_n = dp.apply_normalization(te, tr_n.norm_params)
    assert te_n.norm_params == tr_n.norm_params
    # same affine map as train, so test may exceed [0,1]
    j = 0
    lo, hi = tr_n.norm_params[j]
    assert np.allclose(te_n.X[:, j], (te.X[:, j] - lo) / (hi - lo))


# ---------------------------------------------------------------- dataset

def test_dataset_rejects_nan():
    X = np.ones((3, 2))
    X[1, 1] = np.nan
    with pytest.raises(DataError):
        dp.Dataset(X=X, y=np.zeros(3), feature_names=("a", "b"),
                   monotonic=MonotonicitySpec([]))


def test_dataset_is_immutable():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0
