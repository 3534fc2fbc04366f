"""Span tracer that times dimlab from outside the package.

Wrappers replace module attributes, and each is installed on the module
whose code looks the name up at call time (``dimlab.training.backward_pass``,
not only ``dimlab.autodiff.backward_pass``), so the package's own calls go
through them. A span is (id, name, start, end, parent id, cell id); spans
stay in memory until the sweep ends. Nothing here changes an argument or a
return value, so a traced sweep writes the same bytes as an untraced one.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

# (module, attribute) -> span name. The module is the one whose callers
# resolve the attribute at call time.
SPANS = (
    ("experiments", "generate_synthetic", "data.generate_synthetic"),
    ("training", "train_test_split", "data.train_test_split"),
    ("training", "minmax_normalize", "data.minmax_normalize"),
    ("training", "apply_normalization", "data.apply_normalization"),
    ("training", "build_model", "models.build_model"),
    ("training", "forward_with_params", "models.forward_with_params"),
    ("models", "forward_with_params", "models.forward_with_params"),
    ("training", "forward", "models.forward"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "adam_step", "training.adam_step"),
    ("penalty", "build_loss_terms", "penalty.build_loss_terms"),
    ("penalty", "monotonicity_penalty", "penalty.monotonicity_penalty"),
    ("penalty", "fit_linear_baseline", "penalty.fit_linear_baseline"),
    ("penalty", "compliance_score", "penalty.compliance_score"),
    ("experiments", "write_run_artifacts", "experiments.write_run_artifacts"),
    ("experiments", "rebuild_summary", "experiments.rebuild_summary"),
)

# Every graph op of dimlab.autodiff. All are wrapped so that
# backward_pass's self time holds only the engine's own overhead; the
# reported ones are those an optimisation is expected to move.
ALL_OPS = ("add", "sub", "mul", "square", "scale", "sum_all", "reshape",
           "matmul", "relu", "gather_rows", "adjacent_diff", "conv1d_same",
           "global_avg_pool", "dropout")
REPORTED_OPS = ("matmul", "add", "relu", "dropout", "conv1d_same",
                "gather_rows", "adjacent_diff", "square", "mul", "sum_all")

TRAIN = "training.train"
BACKWARD = "autodiff.backward_pass"
WALK = "trace.graph_walk"

# direct children of a train span, by the training phase they belong to
PHASES = {
    "models.forward_with_params": "forward",
    "penalty.build_loss_terms": "loss",
    BACKWARD: "backward",
    "training.adam_step": "adam",
    "models.forward": "eval",
    "training.evaluate": "eval",
    WALK: "walk",
}
STEP_PHASES = ("forward", "loss")


def graph_size(root) -> tuple[int, int]:
    """Nodes reachable from ``root`` and the bytes of their grad buffers."""
    seen = {id(root)}
    stack = [root]
    nodes = grad_bytes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        grad = getattr(node, "grad", None)
        if grad is not None:
            grad_bytes += grad.nbytes
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes, grad_bytes


class Tracer:
    """Installs timing wrappers into dimlab and records spans.

    Use as a context manager around the traced work: entering installs
    every wrapper, leaving restores the original attributes.
    """

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported dimlab module
        self.spans: list[tuple] = []
        self.graphs: list[tuple[int, int]] = []  # per backward_pass
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name, fn, new_cell=False):
        """Wrap ``fn`` so each call records one span called ``name``."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            if new_cell:
                self._local.cell = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent,
                                   getattr(self._local, "cell", None)))
        return wrapper

    def _op(self, tag, fn):
        """Time an op's forward call and, via the returned node's
        ``_backward``, its backward closure."""
        fwd = self.timed(f"autodiff.fwd.{tag}", fn)
        bwd_name = f"autodiff.bwd.{tag}"

        def wrapper(*args, **kwargs):
            out = fwd(*args, **kwargs)
            # identity ops (eval-mode dropout) hand back an input node
            if out._backward is not None and all(out is not a for a in args):
                out._backward = self.timed(bwd_name, out._backward)
            return out
        return wrapper

    def _backward_pass(self, fn):
        timed = self.timed(BACKWARD, fn)
        walk = self.timed(WALK, graph_size)

        def wrapper(root):
            timed(root)
            self.graphs.append(walk(root))
        return wrapper

    # ------------------------------------------------------------ install

    def _patch(self, module, attr, wrapper):
        mod = self.modules[module]
        self._originals.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def __enter__(self):
        for module, attr, name in SPANS:
            self._patch(module, attr,
                        self.timed(name, getattr(self.modules[module], attr)))
        training = self.modules["training"]
        self._patch("training", "train", self.timed(TRAIN, training.train,
                                                    new_cell=True))
        self._patch("training", "backward_pass",
                    self._backward_pass(training.backward_pass))
        autodiff = self.modules["autodiff"]
        for tag in ALL_OPS:
            self._patch("autodiff", tag, self._op(tag, getattr(autodiff, tag)))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(getattr(mod, attr) is original
                   for mod, attr, original in self._originals)

    # ------------------------------------------------------------ derive

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span.

        Times are sums over cells in seconds; a layer's self time is its
        spans' time minus the time of the spans nested inside them.
        """
        spans = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start

        def dur(s):
            return s[3] - s[2]

        def self_time(s):
            return dur(s) - child_time[s[0]]

        trains = {sid for sid, s in spans.items() if s[1] == TRAIN}
        phase_memo: dict[int, str | None] = {}

        def phase(sid):
            """Training phase of the train-span child that encloses sid."""
            path = []
            result = None
            while sid is not None:
                if sid in phase_memo:
                    result = phase_memo[sid]
                    break
                path.append(sid)
                s = spans[sid]
                if s[4] in trains:
                    result = PHASES.get(s[1], "other")
                    break
                sid = s[4]
            for p in path:
                phase_memo[p] = result
            return result

        total = defaultdict(float)   # span name -> summed duration
        own = defaultdict(float)     # span name -> summed self time
        step_calls = defaultdict(int)  # span name -> calls inside a step
        phases = defaultdict(float)
        cell_s = 0.0
        for s in spans.values():
            name = s[1]
            total[name] += dur(s)
            own[name] += self_time(s)
            if s[4] in trains:
                phases[PHASES.get(name, "other")] += dur(s)
            if name == TRAIN:
                cell_s += dur(s)
            elif phase(s[0]) in STEP_PHASES:
                step_calls[name] += 1

        steps = sum(1 for s in spans.values()
                    if s[1] == "training.adam_step" and s[4] in trains)
        per_step = max(steps, 1)
        m = {
            "training.forward_s": phases["forward"],
            "training.loss_s": phases["loss"],
            "training.backward_s": phases["backward"],
            "training.adam_s": phases["adam"],
            "training.eval_s": phases["eval"],
            # self time of train (batch slicing, Model rebuilds, the loop)
            # plus any unlisted call it makes
            "training.other_s": cell_s - sum(
                t for p, t in phases.items() if p != "other"),
            "training.steps": float(steps),
            "training.cell_s": cell_s,
            "trace.graph_walk_s": phases["walk"],
        }
        for tag in REPORTED_OPS:
            m[f"autodiff.fwd_s.{tag}"] = total[f"autodiff.fwd.{tag}"]
            m[f"autodiff.bwd_s.{tag}"] = total[f"autodiff.bwd.{tag}"]
            m[f"autodiff.calls_per_step.{tag}"] = \
                step_calls[f"autodiff.fwd.{tag}"] / per_step
        walks = max(len(self.graphs), 1)
        m.update({
            "autodiff.backward_overhead_s": own[BACKWARD],
            "autodiff.nodes_per_step": sum(g[0] for g in self.graphs) / walks,
            "autodiff.grad_bytes_per_step":
                sum(g[1] for g in self.graphs) / walks,
            "penalty.loss_terms_s": own["penalty.build_loss_terms"],
            "penalty.numpy_penalty_s": total["penalty.monotonicity_penalty"],
            "penalty.numpy_penalty_calls_per_step":
                step_calls["penalty.monotonicity_penalty"] / per_step,
            "penalty.fit_calls_per_step":
                step_calls["penalty.fit_linear_baseline"] / per_step,
            "penalty.compliance_s": total["penalty.compliance_score"],
            "models.build_s": total["models.build_model"],
            "models.graph_build_s": own["models.forward_with_params"],
            "data.generate_s": total["data.generate_synthetic"],
            "data.split_norm_s": (total["data.train_test_split"]
                                  + total["data.minmax_normalize"]
                                  + total["data.apply_normalization"]),
            "experiments.write_s": total["experiments.write_run_artifacts"],
            "experiments.rebuild_s": total["experiments.rebuild_summary"],
        })
        return m
