"""The four benchmark architectures over the autodiff engine.

All models are scalar-output regressors: ReLU hidden activations, linear
head, Glorot-uniform weights, zero biases. Parameters live in a flat
name -> float64 array map. A forward pass of ann, mlp3 or mlp5 is
straight-line numpy that returns one ``network`` node over no parameter
leaves; cnn1d builds a fresh graph of per-op nodes over parameter leaves
(define-by-run). Either way the backward pass writes the parameters'
gradients into one flat vector in the parameters' order, the layout that
Adam updates.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ConfigError, DataError, DimensionError

ARCHITECTURES = ("ann", "mlp3", "mlp5", "cnn1d")

HIDDEN_DEFAULTS = {
    "ann": (128,),
    "mlp3": (128, 64, 32),
    "mlp5": (256, 128, 64, 32, 16),
    "cnn1d": (128, 64, 32),  # conv filter counts, kernel width 3
}

DROPOUT_DEFAULTS = {"ann": 0.0, "mlp3": 0.2, "mlp5": 0.2, "cnn1d": 0.0}

# rng stream key for parameter initialization (seeded as [key, seed])
INIT_STREAM = 101


def set_numbers(owner, rules: dict[str, int | str], each: bool = False) -> None:
    """Check each named field of the frozen dataclass ``owner``, in order,
    against its rule, and store it in one form. An int rule is a count's
    minimum: the value must be an integer, stored as an int (a numpy integer
    becomes an int, which a config's JSON holds). A string rule is a real's
    interval, "[lo, hi)" or "(lo, hi)": the value must be a number, stored
    as a float, with -0.0 as 0.0. A bool is neither, and a float such as
    16.0 is no count.
    With ``each``, every field is a sequence of such values, stored as a
    tuple; it is read once (a generator), a string is one item, and a value
    that is not iterable is refused."""
    for name, rule in rules.items():
        value = getattr(owner, name)
        try:
            values = (tuple(value) if each and not isinstance(value, str)
                      else (value,))
        except TypeError:  # a single value where a list belongs: refused below
            values = (None,)
        count = isinstance(rule, int)
        interval = f"[{rule}, inf)" if count else rule
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        kind = numbers.Integral if count else numbers.Real
        if not all(isinstance(v, kind) and not isinstance(v, bool)
                   and (v > lo if interval[0] == "(" else v >= lo) and v < hi
                   for v in values):
            noun = (("integers" if each else "an integer") if count
                    else ("finite numbers" if each else "a finite number"))
            bound = f">= {rule}" if count else f"in {rule}"
            raise ConfigError(f"{name} must be {noun} {bound}, got {value!r}")
        # + 0.0 stores -0.0 as 0.0 and leaves every other real's bits
        values = tuple(int(v) if count else float(v) + 0.0 for v in values)
        object.__setattr__(owner, name, values if each else values[0])


@dataclass(frozen=True)
class ModelConfig:
    architecture: str
    input_dim: int
    hidden_sizes: tuple[int, ...] | None = None  # None: architecture default
    dropout_rate: float | None = None  # None: architecture default
    seed: int = 0

    def __post_init__(self):
        arch = str(self.architecture).lower()
        if arch not in ARCHITECTURES:
            raise ConfigError(
                f"unknown architecture {self.architecture!r}, "
                f"expected one of {ARCHITECTURES}")
        object.__setattr__(self, "architecture", arch)
        if self.hidden_sizes is None:
            object.__setattr__(self, "hidden_sizes", HIDDEN_DEFAULTS[arch])
        if self.dropout_rate is None:
            object.__setattr__(self, "dropout_rate", DROPOUT_DEFAULTS[arch])
        set_numbers(self, {"input_dim": 1, "seed": 0, "dropout_rate": "[0, 1)"})
        set_numbers(self, {"hidden_sizes": 1}, each=True)
        if not self.hidden_sizes:
            raise ConfigError("hidden_sizes must be non-empty")
        if arch == "cnn1d" and self.dropout_rate > 0.0:
            raise ConfigError("cnn1d has no dropout layer, so its dropout_rate "
                              f"must be 0, got {self.dropout_rate}")


@dataclass
class Model:
    config: ModelConfig
    parameters: dict[str, np.ndarray] = field(default_factory=dict)


def _glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def build_model(config: ModelConfig) -> Model:
    """Allocate and initialize all parameters for the configured network."""
    rng = np.random.default_rng([INIT_STREAM, config.seed])
    params: dict[str, np.ndarray] = {}
    if config.architecture == "cnn1d":
        width = 1  # input channels
        for i, filters in enumerate(config.hidden_sizes):
            params[f"conv{i}_w"] = _glorot(rng, width * 3, filters * 3,
                                           (filters, width, 3))
            params[f"conv{i}_b"] = np.zeros(filters)
            width = filters
    else:
        width = config.input_dim
        for i, units in enumerate(config.hidden_sizes):
            params[f"layer{i}_w"] = _glorot(rng, width, units, (width, units))
            params[f"layer{i}_b"] = np.zeros(units)
            width = units
    params["head_w"] = _glorot(rng, width, 1, (width, 1))
    params["head_b"] = np.zeros(1)
    return Model(config=config, parameters=params)


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
        stop = start + math.prod(shape)
        views[name] = vector[start:stop].reshape(shape)
        start = stop
    return views


def _relu_in_place(words: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``autodiff._masked`` of the words of a relu mask (all ones where it
    is True, zero where False) on ``x``, an array this step owns, in place:
    the same bits as ``np.where(mask, x, 0.0)``."""
    bits = x.view(np.int64)
    np.bitwise_and(bits, words, out=bits)
    return x


def _network(params: dict[str, np.ndarray], layers: int, x: np.ndarray,
             rate: float, rng, grad: np.ndarray) -> Node:
    """A dense net's predictions as one node over no parameter leaves.

    The forward makes the numpy calls of ``dense`` per hidden layer (in
    ``tests/oracles.py``), then of ``autodiff.linear_head``, in that order:
    the dropout draw, the matmul, the bias add in place, the relu mask and,
    in training, the dropout product in place. The relu mask is kept as
    ``autodiff._masked``'s words, built once and ANDed in place, forward
    and back. The backward runs the layers in reverse with those nodes'
    vjps, each layer's input gradient before its weight and bias gradients,
    and writes each parameter's gradient into its view of ``grad``. The
    input batch gets no gradient.
    """
    saved = []  # per hidden layer: its input, weights, relu words, dropout
    h = x
    for i in range(layers):
        w = params[f"layer{i}_w"]
        drop = ad._dropout_mask((h.shape[0], w.shape[1]), rate, True, rng)
        pre = h @ w
        pre += params[f"layer{i}_b"]
        words = (pre > 0).astype(np.int64)
        np.negative(words, out=words)
        out = _relu_in_place(words, pre)
        if drop is not None:
            out *= drop
        saved.append((h, w, words, drop))
        h = out
    head_w = params["head_w"]
    pre = h @ head_w
    pre += params["head_b"]
    node = Node(pre.reshape(h.shape[0]), op_tag="network", requires_grad=True)

    def backward(g):
        # the parameters' views into grad, from the last one back
        views, stop = [], grad.size
        for p in reversed(params.values()):
            views.append(grad[stop - p.size:stop].reshape(p.shape))
            stop -= p.size
        views = iter(views)
        g = g.reshape(pre.shape)
        g_h = g @ head_w.T
        np.add.reduce(g, axis=0, out=next(views))
        np.matmul(h.T, g, out=next(views))
        for h_in, w, words, drop in reversed(saved):
            g_pre = _relu_in_place(words, g_h if drop is None else g_h * drop)
            if h_in is not x:
                g_h = g_pre @ w.T
            np.add.reduce(g_pre, axis=0, out=next(views))
            np.matmul(h_in.T, g_pre, out=next(views))

    node._backward = backward
    return node


def forward_with_params(model: Model, batch, training: bool = False,
                        rng: np.random.Generator | None = None):
    """Run the network on a batch. Returns the prediction node and one
    flat gradient vector, zero until the backward pass through that node
    writes each parameter's gradient into it, in the order of
    ``model.parameters`` (``unflatten`` gives its named views).

    ann, mlp3 and mlp5 run as straight-line numpy (``_network``); cnn1d
    builds its per-op graph over parameter leaves, each of which hands its
    summed gradient to the vector."""
    x = ad.as_tensor(batch)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise DimensionError(
            f"batch must be (N, {model.config.input_dim}), got {x.shape}")
    cfg, params = model.config, model.parameters
    grad = np.zeros(sum(p.size for p in params.values()))
    if cfg.architecture != "cnn1d":
        rate = cfg.dropout_rate if training else 0.0
        return _network(params, len(cfg.hidden_sizes), x, rate, rng, grad), grad
    views = unflatten(grad, [(k, p.shape) for k, p in params.items()])
    nodes = {}
    for name, value in params.items():
        nodes[name] = ad.leaf(value, requires_grad=True)
        nodes[name]._backward = functools.partial(np.copyto, views[name])
    h = ad.reshape(ad.constant(x), (len(x), cfg.input_dim, 1))
    for i in range(len(cfg.hidden_sizes)):
        h = ad.relu(ad.conv1d_same(h, nodes[f"conv{i}_w"], nodes[f"conv{i}_b"]))
    h = ad.global_avg_pool(h)
    return ad.linear_head(h, nodes["head_w"], nodes["head_b"]), grad


def forward(model: Model, batch) -> Node:
    """Length-N eval-mode prediction node (no dropout)."""
    return forward_with_params(model, batch)[0]


def save_model(model: Model, path) -> None:
    """Checkpoint format: one .npz archive holding every parameter array
    under its name plus a '__config__' JSON string."""
    meta = json.dumps(asdict(model.config), sort_keys=True)
    np.savez(path, __config__=np.array(meta), **model.parameters)


def load_model(path) -> Model:
    with np.load(path, allow_pickle=False) as archive:
        if "__config__" not in archive:
            raise DataError(f"{path}: not a model checkpoint (no __config__)")
        try:
            config = ModelConfig(**json.loads(str(archive["__config__"])))
        except (TypeError, ValueError, ConfigError) as exc:  # JSON errors too
            raise DataError(f"{path}: bad checkpoint config: {exc}") from exc
        params = {k: archive[k] for k in archive.files if k != "__config__"}
    expected = build_model(config).parameters
    if params.keys() != expected.keys():
        raise DataError(
            f"{path}: checkpoint parameters {sorted(params)} do not match "
            f"architecture {config.architecture}")
    for name, arr in params.items():
        if arr.shape != expected[name].shape:
            raise DataError(
                f"{path}: parameter {name} has shape {arr.shape}, "
                f"expected {expected[name].shape}")
    return Model(config=config, parameters={k: np.ascontiguousarray(v, dtype=np.float64)
                                            for k, v in params.items()})
