"""Sweeps write the canonical reports the benchmark recorded.

perfbench/digests.json holds, per workload and dataset seed, a sha256 over
every run_*.json report of one sweep (``report_digest`` in
perfbench/worker.py). Running each workload in-process at one recorded
seed catches a change to any report byte without running the benchmark.
SUMMARY_DIGESTS pins the sha256 of the same sweep's summary.csv, which
aggregates those reports across lambdas.
"""

import hashlib
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import dimlab
from dimlab import autodiff as ad
from dimlab import experiments as ex
from dimlab import training as tr
from dimlab.data import Dataset
from dimlab.models import ModelConfig
from dimlab.penalty import MonotonicitySpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
SEED = 1
SUMMARY_DIGESTS = {
    "cnn1d_conv": "41bed3b4989f6efab89a11fb6065f834"
                  "6212d1fcc6c050599229ad3aa8fce730",
    "penalty_small_batch": "c6beeb4428db8eabfc05cd9302fa585d"
                           "280656ee25ab75454cca3a2fa44c36fd",
    "sweep_mlp3": "c49bb9b6dc2d5935bf54505eb9231e57"
                  "49878048092bee256812f782505a100a",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sweep_reports_match_recorded_digest(name, tmp_path, monkeypatch):
    monkeypatch.setattr(ad, "_CPUS", 2)  # conv1d_same splits on any host
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    workload = worker.WORKLOADS[name]
    out = tmp_path / "out"
    cfg = workload.experiment_config(dimlab, SEED, str(out))
    result = ex.run_experiment(cfg, max_workers=workload.max_workers())
    assert result.all_cells_ok
    assert worker.report_digest(out) == DIGESTS[name][str(SEED)]
    summary = (out / "summary.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SUMMARY_DIGESTS[name]


# cnn1d reads each feature as one position, so a 1-feature and a 2-feature
# dataset run conv1d_same at lengths 1 and 2, on both sides of its tap-copy
# branch; the benchmark's cnn1d sweep above runs at length 4 only.
SHORT_CNN1D_DIGESTS = {
    1: "9ffa2bb9d5dbcf00a05a0d860ab749a9"
       "b53f17d90d8559ab8a268ee2cf79932e",
    2: "a0e1ed90e5729df7c0a652598b0b9849"
       "40b5f9c6986be48cd433d9b51a056970",
}


@pytest.mark.parametrize("n_features", sorted(SHORT_CNN1D_DIGESTS))
def test_short_cnn1d_sweep_reports_match_recorded_digest(n_features,
                                                        monkeypatch):
    monkeypatch.setattr(ad, "_CPUS", 2)  # conv1d_same splits on any host
    rng = np.random.default_rng(n_features)
    X = rng.uniform(0.0, 1.0, (96, n_features))
    y = 2.0 * X.sum(axis=1) + 0.1 * rng.normal(size=96)
    ds = Dataset(X=X, y=y,
                 feature_names=tuple(f"x{j + 1}" for j in range(n_features)),
                 monotonic=MonotonicitySpec([0]))
    reports = tr.lambda_grid_search(
        ds, ModelConfig("cnn1d", n_features),
        tr.TrainConfig(learning_rate=1e-2, batch_size=32, max_epochs=2),
        grid=(0.0, 0.5), seeds=(1,))
    assert all(r.error is None for r in reports)
    text = "".join(tr.report_to_json(r) for r in reports)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == SHORT_CNN1D_DIGESTS[n_features])


def edge_grid_text() -> str:
    """The reports of a small grid at the penalty's edges, concatenated:
    synthetic n=40 (29 fit rows after the split and the validation carve),
    ann and cnn1d, batch sizes that leave one-row and two-row last
    batches, one batch larger than the epoch and stacks of one-row
    batches, in both modes at lambda 0 and 0.5."""
    ds = dimlab.generate_synthetic(dimlab.SyntheticConfig(n=40, seed=3))
    text = []
    for arch in ("ann", "cnn1d"):
        for batch_size in (1, 2, 3, 7, 64):
            for mode in ("frozen", "coupled"):
                reports = tr.lambda_grid_search(
                    ds, ModelConfig(arch, 4, hidden_sizes=(4,)),
                    tr.TrainConfig(batch_size=batch_size, max_epochs=2,
                                   baseline_mode=mode),
                    grid=(0.0, 0.5), seeds=(1,))
                assert all(r.error is None for r in reports)
                text.extend(tr.report_to_json(r) for r in reports)
    return "".join(text)


EDGE_GRID_DIGEST = ("3415404d10ed0d46c0b683d44593dd07"
                    "08e955bd3d38dea6ad4c426949bc09eb")


def test_edge_batch_grid_reports_match_recorded_digest(monkeypatch):
    monkeypatch.setattr(ad, "_CPUS", 2)  # conv1d_same splits on any host
    assert (hashlib.sha256(edge_grid_text().encode()).hexdigest()
            == EDGE_GRID_DIGEST)
