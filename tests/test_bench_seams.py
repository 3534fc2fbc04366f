"""The names perfbench/ looks up on dimlab at call time.

The benchmark times dimlab from outside by replacing module attributes
(perfbench/tracer.py) and captures reports by replacing
``experiments.lambda_grid_search`` (perfbench/worker.py). A refactor that
moves a call to another module, or renames it, silently drops it from
the benchmark; these tests fail instead.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dimlab.autodiff as ad
import dimlab.experiments as ex
import dimlab.models as mz
import dimlab.penalty as pen
import dimlab.training as tr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
MODULES = {"autodiff": ad, "experiments": ex, "models": mz, "penalty": pen,
           "training": tr}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_experiment(tmp_path):
    return ex.ExperimentConfig(
        dataset={"synthetic": {"n": 60, "seed": 1}},
        model={"architecture": "ann"},
        train=tr.TrainConfig(batch_size=32, max_epochs=1),
        grid=(0.0, 1.0), seeds=(0,), monotonic_sets=(("x3",),),
        output_dir=str(tmp_path / "out"), norm_fit_on_train=True)


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for module, attr, _ in tracer.SPANS:
        assert callable(getattr(MODULES[module], attr)), (module, attr)
    for attr in ("train", "backward_pass"):
        assert callable(getattr(tr, attr)), attr
    for op in tracer.ALL_OPS:
        assert callable(getattr(ad, op)), op


def test_cell_pipeline_runs_through_traced_names(tmp_path):
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer(MODULES)
    with tracer:
        ex.run_experiment(tiny_experiment(tmp_path))
    assert tracer.restored()
    names = {span[1] for span in tracer.spans}
    for name in ("data.train_test_split", "data.minmax_normalize",
                 "data.apply_normalization", "models.build_model",
                 "training.train", "training.evaluate",
                 "penalty.build_loss_terms", "penalty.fit_linear_baseline",
                 "penalty.compliance_score", "training.adam_step",
                 "autodiff.backward_pass", "experiments.write_run_artifacts"):
        assert name in names, name


def test_trace_counts_one_adam_step_and_one_fit_per_feature_per_step(tmp_path):
    """perfbench counts training steps by ``training.adam_step`` spans
    directly under ``training.train``, and baseline fits per step by
    ``penalty.fit_linear_baseline`` spans inside the loss; inlining either
    call would zero those counts without failing a sweep."""
    features = ("x1", "x2", "x3")
    cfg = ex.ExperimentConfig(
        dataset={"synthetic": {"n": 60, "seed": 1}},
        model={"architecture": "ann"},
        train=tr.TrainConfig(batch_size=32, max_epochs=2,
                             baseline_mode="coupled"),
        grid=(0.0, 1.0), seeds=(0,), monotonic_sets=(features,),
        output_dir=str(tmp_path / "out"), norm_fit_on_train=True)
    tracer = load_tracer().Tracer(MODULES)
    with tracer:
        ex.run_experiment(cfg)
    assert tracer.restored()
    spans = {s[0]: s for s in tracer.spans}
    trains = {sid for sid, s in spans.items() if s[1] == "training.train"}

    def under_train(name):
        return [s for s in spans.values() if s[1] == name and s[4] in trains]

    def inside(s, name):
        while s[4] is not None:
            s = spans[s[4]]
            if s[1] == name:
                return True
        return False

    # 2 cells x 2 epochs x 2 batches of the 43 fit rows (60 rows, 48 in
    # the train split, 5 of them carved out for validation)
    steps = 2 * 2 * 2
    assert len(under_train("autodiff.backward_pass")) == steps
    assert len(under_train("training.adam_step")) == steps
    fits = [s for s in spans.values() if s[1] == "penalty.fit_linear_baseline"
            and inside(s, "penalty.build_loss_terms")]
    assert len(fits) == len(features) * steps


def test_run_experiment_calls_module_level_grid_search(tmp_path, monkeypatch):
    captured = []
    real = ex.lambda_grid_search

    def capture(*args, **kwargs):
        reports = real(*args, **kwargs)
        captured.extend(reports)
        return reports

    monkeypatch.setattr(ex, "lambda_grid_search", capture)
    result = ex.run_experiment(tiny_experiment(tmp_path))
    assert result.all_cells_ok
    assert sorted(r.lam for r in captured) == [0.0, 1.0]


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "traced"])
def test_worker_sweep_passes_its_checks(trace, tmp_path, capsys):
    """The benchmark worker, run in-process on its smallest workload,
    finds every name it calls and passes every check it makes; traced, it
    also checks that its phases sum to the cell time and that every
    wrapper is restored."""
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        worker = importlib.import_module("worker")
        capsys.readouterr()
        assert worker.main(["--workload", "penalty_small_batch", "--seed", "1",
                            "--out", str(tmp_path / "w"), *trace]) == 0
    finally:
        sys.path[:] = saved_path
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["checks"] and all(record["checks"].values()), record["checks"]
