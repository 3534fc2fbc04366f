"""The four benchmark architectures over the autodiff engine.

All models are scalar-output regressors: ReLU hidden activations, linear
head, Glorot-uniform weights, zero biases. Parameters live in a flat
name -> float64 array map; every forward pass builds a fresh graph over
them (define-by-run).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ConfigError, DimensionError, SchemaError

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


def is_int(value) -> bool:
    """True for a config count: bools and floats, even 16.0, are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def set_counts(owner, minimums: dict[str, int],
               too_small: str = "{name} must be >= {minimum}, got {value}",
               each: bool = False) -> None:
    """Check each named count field of the frozen dataclass ``owner``, in
    order, against its minimum, and store it as an int (a numpy integer
    becomes an int, which a config's JSON holds). ``too_small`` is the
    message for a count below its minimum; with ``each``, every field is a
    sequence of counts."""
    for name, minimum in minimums.items():
        value = getattr(owner, name)
        if each:
            # read once (a generator); a string is one item, not a count
            values = (value,) if isinstance(value, str) else tuple(value)
            if not all(is_int(v) and v >= minimum for v in values):
                raise ConfigError(
                    f"{name} must be integers >= {minimum}, got {value}")
            object.__setattr__(owner, name, tuple(int(v) for v in values))
            continue
        if not is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(too_small.format(name=name, minimum=minimum,
                                               value=int(value)))
        object.__setattr__(owner, name, int(value))


def set_reals(owner, intervals: dict[str, str], each: bool = False) -> None:
    """Check each named number field of the frozen dataclass ``owner``, in
    order, against its interval, "[lo, hi)" or "(lo, hi)", and store it as
    a float (bools and strings are not numbers); with ``each``, every field
    is a sequence of numbers, stored as a tuple of floats."""
    for name, interval in intervals.items():
        value = getattr(owner, name)
        seq = each and not isinstance(value, str)
        values = tuple(value) if seq else (value,)
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and (v > lo if interval[0] == "(" else v >= lo) and v < hi
                   for v in values):
            kind = "finite numbers" if each else "a finite number"
            raise ConfigError(f"{name} must be {kind} in {interval}, "
                              f"got {value!r}")
        values = tuple(map(float, values))
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
        set_counts(self, {"input_dim": 1, "seed": 0})
        sizes = (HIDDEN_DEFAULTS[arch] if self.hidden_sizes is None
                 else tuple(self.hidden_sizes))
        if not sizes or not all(is_int(s) and s >= 1 for s in sizes):
            raise ConfigError("hidden sizes must be one or more positive "
                              f"integers, got {sizes}")
        object.__setattr__(self, "hidden_sizes", tuple(int(s) for s in sizes))
        if self.dropout_rate is None:
            object.__setattr__(self, "dropout_rate", DROPOUT_DEFAULTS[arch])
        set_reals(self, {"dropout_rate": "[0, 1)"})
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


def forward_with_params(model: Model, batch, training: bool = False,
                        rng: np.random.Generator | None = None):
    """Run the network on a batch, returning the prediction node and the
    parameter leaf nodes of the freshly built graph (for gradient reads)."""
    x = ad.as_tensor(batch)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise DimensionError(
            f"batch must be (N, {model.config.input_dim}), got {x.shape}")
    nodes = {name: ad.leaf(value, requires_grad=True)
             for name, value in model.parameters.items()}
    cfg = model.config
    n = x.shape[0]
    if cfg.architecture == "cnn1d":
        h = ad.reshape(ad.constant(x), (n, cfg.input_dim, 1))
        for i in range(len(cfg.hidden_sizes)):
            h = ad.relu(ad.conv1d_same(h, nodes[f"conv{i}_w"], nodes[f"conv{i}_b"]))
        h = ad.global_avg_pool(h)
    else:
        rate = cfg.dropout_rate if training else 0.0
        h = ad.constant(x)
        for i in range(len(cfg.hidden_sizes)):
            h = ad.dense(h, nodes[f"layer{i}_w"], nodes[f"layer{i}_b"], rate, rng)
    out = ad.matmul(h, nodes["head_w"]) + nodes["head_b"]
    return ad.reshape(out, (n,)), nodes


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
            raise SchemaError(f"{path}: not a model checkpoint (no __config__)")
        try:
            config = ModelConfig(**json.loads(str(archive["__config__"])))
        except (TypeError, ValueError, ConfigError) as exc:  # JSON errors too
            raise SchemaError(f"{path}: bad checkpoint config: {exc}") from exc
        params = {k: archive[k] for k in archive.files if k != "__config__"}
    expected = build_model(config).parameters
    if params.keys() != expected.keys():
        raise SchemaError(
            f"{path}: checkpoint parameters {sorted(params)} do not match "
            f"architecture {config.architecture}")
    for name, arr in params.items():
        if arr.shape != expected[name].shape:
            raise SchemaError(
                f"{path}: parameter {name} has shape {arr.shape}, "
                f"expected {expected[name].shape}")
    return Model(config=config, parameters={k: np.ascontiguousarray(v, dtype=np.float64)
                                            for k, v in params.items()})
