import json
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from dimlab import autodiff as ad
from dimlab import models as mz
from dimlab import penalty as pen
from dimlab.errors import ConfigError, DimensionError, SchemaError


def cfg(arch, d=4, **kw):
    return mz.ModelConfig(architecture=arch, input_dim=d, **kw)


def test_ann_parameter_count():
    model = mz.build_model(cfg("ann"))
    n_params = sum(p.size for p in model.parameters.values())
    assert n_params == 4 * 128 + 128 + 128 * 1 + 1  # 769


def test_mlp3_layer_shapes():
    model = mz.build_model(cfg("mlp3"))
    shapes = {k: v.shape for k, v in model.parameters.items()}
    assert shapes == {
        "layer0_w": (4, 128), "layer0_b": (128,),
        "layer1_w": (128, 64), "layer1_b": (64,),
        "layer2_w": (64, 32), "layer2_b": (32,),
        "head_w": (32, 1), "head_b": (1,),
    }


def test_mlp5_default_stack():
    model = mz.build_model(cfg("mlp5"))
    assert model.config.hidden_sizes == (256, 128, 64, 32, 16)
    assert model.config.dropout_rate == 0.2


def test_mlp5_wide_variant_via_config():
    model = mz.build_model(cfg("mlp5", hidden_sizes=(1024, 512, 256, 128, 64)))
    assert model.parameters["layer0_w"].shape == (4, 1024)


def test_cnn_shapes_and_no_dropout():
    model = mz.build_model(cfg("cnn1d"))
    assert model.config.dropout_rate == 0.0
    assert model.parameters["conv0_w"].shape == (128, 1, 3)
    assert model.parameters["conv1_w"].shape == (64, 128, 3)
    assert model.parameters["conv2_w"].shape == (32, 64, 3)
    assert model.parameters["head_w"].shape == (32, 1)


def test_unknown_architecture():
    with pytest.raises(ConfigError):
        cfg("transformer")


def test_bad_input_dim():
    with pytest.raises(ConfigError):
        cfg("ann", d=0)


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "1"),
    ("input_dim", 4.5), ("input_dim", True)])
def test_seed_and_input_dim_must_be_counts(field, value):
    kw = {"architecture": "ann", "input_dim": 4, field: value}
    with pytest.raises(ConfigError, match=field):
        mz.ModelConfig(**kw)
    # a numpy integer is accepted as the int the report's JSON can hold
    kw[field] = np.int64(3)
    assert type(getattr(mz.ModelConfig(**kw), field)) is int


def test_cnn1d_rejects_a_dropout_rate_it_would_ignore():
    with pytest.raises(ConfigError, match="dropout_rate"):
        cfg("cnn1d", dropout_rate=0.5)


@pytest.mark.parametrize("sizes", [(64.7,), (64.0, 32), (True, 8), ("64",)])
def test_hidden_sizes_must_be_integers(sizes):
    with pytest.raises(ConfigError, match="hidden sizes"):
        cfg("mlp3", hidden_sizes=sizes)
    assert cfg("ann", hidden_sizes=(np.int64(8),)).hidden_sizes == (8,)


@pytest.mark.parametrize("field,value,match", [
    ("dropout_rate", -0.3, "dropout_rate"),
    ("dropout_rate", -1.0, "dropout_rate"),
    ("dropout_rate", -np.inf, "dropout_rate"),
    ("hidden_sizes", (), "hidden sizes")])
def test_only_none_means_the_architecture_default(field, value, match):
    with pytest.raises(ConfigError, match=match):
        cfg("mlp3", **{field: value})
    default = cfg("mlp3", **{field: None})
    assert (default.hidden_sizes, default.dropout_rate) == ((128, 64, 32), 0.2)


def test_same_seed_same_parameters():
    a = mz.build_model(cfg("mlp3", seed=7))
    b = mz.build_model(cfg("mlp3", seed=7))
    for k in a.parameters:
        assert np.array_equal(a.parameters[k], b.parameters[k])
    c = mz.build_model(cfg("mlp3", seed=8))
    assert not np.array_equal(a.parameters["layer0_w"], c.parameters["layer0_w"])


def test_biases_zero_and_glorot_bounds():
    for arch in mz.ARCHITECTURES:
        model = mz.build_model(cfg(arch, seed=3))
        for name, p in model.parameters.items():
            if name.endswith("_b"):
                assert np.all(p == 0.0)
        if arch == "cnn1d":
            limit0 = np.sqrt(6.0 / (1 * 3 + 128 * 3))
            assert np.max(np.abs(model.parameters["conv0_w"])) <= limit0
        else:
            d, u = 4, model.config.hidden_sizes[0]
            limit0 = np.sqrt(6.0 / (d + u))
            assert np.max(np.abs(model.parameters["layer0_w"])) <= limit0


def test_zero_network_predicts_zero():
    model = mz.build_model(cfg("mlp3", seed=0))
    for k in model.parameters:
        model.parameters[k] = np.zeros_like(model.parameters[k])
    out = mz.forward(model, np.random.default_rng(0).normal(size=(5, 4)))
    assert np.array_equal(out.value, np.zeros(5))


def test_eval_forward_deterministic():
    model = mz.build_model(cfg("mlp5", seed=1))
    batch = np.random.default_rng(1).normal(size=(6, 4))
    a = mz.forward(model, batch).value
    b = mz.forward(model, batch).value
    assert np.array_equal(a, b)


def test_single_linear_layer_matches_hand_matmul():
    model = mz.build_model(cfg("ann", d=3))
    rng = np.random.default_rng(2)
    w0 = rng.normal(size=(3, 128))
    b0 = rng.normal(size=128)
    wh = rng.normal(size=(128, 1))
    model.parameters.update(layer0_w=w0, layer0_b=b0, head_w=wh,
                            head_b=np.array([0.25]))
    batch = rng.normal(size=(7, 3))
    got = mz.forward(model, batch).value
    want = np.maximum(batch @ w0 + b0, 0.0) @ wh + 0.25
    assert np.max(np.abs(got - want[:, 0])) < 1e-12


def test_output_shape_and_all_parameter_grads():
    batch = np.random.default_rng(3).normal(size=(9, 4))
    for arch in mz.ARCHITECTURES:
        model = mz.build_model(cfg(arch, seed=2))
        preds, nodes = mz.forward_with_params(model, batch)
        assert preds.value.shape == (9,)
        ad.backward_pass(ad.sum_all(ad.square(preds)))
        for name, node in nodes.items():
            assert node.grad.shape == model.parameters[name].shape
            assert np.any(node.grad != 0.0), (arch, name)


def test_training_dropout_changes_output_but_eval_does_not():
    model = mz.build_model(cfg("mlp3", seed=5))
    batch = np.random.default_rng(5).normal(size=(8, 4))
    base = mz.forward(model, batch).value
    dropped = mz.forward_with_params(model, batch, training=True,
                                     rng=np.random.default_rng(0))[0].value
    assert not np.array_equal(base, dropped)
    # ann has no dropout, so training-mode forward equals eval
    ann = mz.build_model(cfg("ann", seed=5))
    t = mz.forward_with_params(ann, batch, training=True,
                               rng=np.random.default_rng(0))[0].value
    e = mz.forward(ann, batch).value
    assert np.array_equal(t, e)


def _graph(root):
    seen, stack = {id(root)}, [root]
    while stack:
        node = stack.pop()
        yield node
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)


@pytest.mark.parametrize("arch", ["ann", "mlp3", "mlp5"])
def test_training_step_builds_one_dense_node_per_hidden_layer(arch):
    model = mz.build_model(cfg(arch, seed=4))
    data = np.random.default_rng(4)
    batch = data.normal(size=(16, 4))
    preds, _ = mz.forward_with_params(model, batch, training=True,
                                      rng=np.random.default_rng(0))
    # at lambda 0, as the penalty's hinge is a relu node of its own
    terms = pen.build_loss_terms(preds, data.normal(size=16), batch,
                                 pen.MonotonicitySpec((2,)), 0.0)
    tags = Counter(node.op_tag for node in _graph(terms.total))
    assert tags["dense"] == len(model.config.hidden_sizes)
    assert tags["relu"] == tags["dropout"] == 0


def test_forward_rejects_wrong_width():
    model = mz.build_model(cfg("ann", d=4))
    with pytest.raises(DimensionError):
        mz.forward(model, np.zeros((3, 5)))


def test_checkpoint_roundtrip(tmp_path):
    model = mz.build_model(cfg("cnn1d", seed=9))
    path = tmp_path / "model.npz"
    mz.save_model(model, path)
    loaded = mz.load_model(path)
    assert loaded.config == model.config
    for k in model.parameters:
        assert np.array_equal(loaded.parameters[k], model.parameters[k])
    batch = np.random.default_rng(7).normal(size=(4, 4))
    assert np.array_equal(mz.forward(model, batch).value,
                          mz.forward(loaded, batch).value)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    model = mz.build_model(cfg("ann"))
    model.parameters["head_w"] = np.zeros((64, 1))  # inconsistent with config
    path = tmp_path / "bad.npz"
    mz.save_model(model, path)
    with pytest.raises(SchemaError):
        mz.load_model(path)


def _checkpoint_with_config(tmp_path, meta: str):
    """A hand-written ann checkpoint whose ``__config__`` holds ``meta``."""
    model = mz.build_model(cfg("ann"))
    path = tmp_path / "hand.npz"
    np.savez(path, __config__=np.array(meta), **model.parameters)
    return path


@pytest.mark.parametrize("field, value", [("seed", -1), ("input_dim", 4.5)])
def test_checkpoint_invalid_config_value_names_the_file(tmp_path, field, value):
    meta = json.dumps({**asdict(cfg("ann")), field: value})
    path = _checkpoint_with_config(tmp_path, meta)
    with pytest.raises(SchemaError, match=f"hand.npz: bad checkpoint config: "
                                          f"{field} must be"):
        mz.load_model(path)


def test_checkpoint_without_config_or_of_another_architecture(tmp_path):
    bare = tmp_path / "bare.npz"
    np.savez(bare, **mz.build_model(cfg("ann")).parameters)
    with pytest.raises(SchemaError, match="bare.npz: not a model checkpoint"):
        mz.load_model(bare)
    path = _checkpoint_with_config(tmp_path, json.dumps(asdict(cfg("mlp3"))))
    with pytest.raises(SchemaError, match="do not match architecture mlp3"):
        mz.load_model(path)


def test_checkpoint_malformed_config_json_names_the_file(tmp_path):
    path = _checkpoint_with_config(tmp_path, '{"architecture": "ann",')
    with pytest.raises(SchemaError, match="hand.npz: bad checkpoint config"):
        mz.load_model(path)
