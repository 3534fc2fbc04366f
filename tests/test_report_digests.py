"""Sweeps write the canonical reports the benchmark recorded.

perfbench/digests.json holds, per workload and dataset seed, a sha256 over
every run_*.json report of one sweep (``report_digest`` in
perfbench/worker.py). Running each workload in-process at one recorded
seed catches a change to any report byte without running the benchmark.
SUMMARY_DIGESTS pins the sha256 of the same sweep's summary.csv and
selection.json, which aggregate those reports across lambdas.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

import dimlab
from dimlab import experiments as ex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
SEED = 1
SUMMARY_DIGESTS = {
    "cnn1d_conv": {
        "summary.csv": "74e3dc20bdf57ef31a1391971f0b5cde"
                       "14a16eb1b4d537c66b3628e3c68885f1",
        "selection.json": "b80a3a4043d1ca6ce3a4b1e0784e052d"
                          "61e2aef6803ff0056750bc2851905fc5",
    },
    "penalty_small_batch": {
        "summary.csv": "0ad45ff8d0ccb8b38311197de927f624"
                       "ef335ce603ba473d97662ae8f64ef698",
        "selection.json": "d4b9cb48589b193ace11b2c9004d80f8"
                          "582c8a86c49cdf3debae4a938dedfe05",
    },
    "sweep_mlp3": {
        "summary.csv": "b9663c22b31ca5c385c7b047c386453e"
                       "e1c749ce116feca95ea63607f4379a55",
        "selection.json": "b80a3a4043d1ca6ce3a4b1e0784e052d"
                          "61e2aef6803ff0056750bc2851905fc5",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sweep_reports_match_recorded_digest(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    workload = worker.WORKLOADS[name]
    out = tmp_path / "out"
    cfg = workload.experiment_config(dimlab, SEED, str(out))
    result = ex.run_experiment(cfg, max_workers=workload.max_workers())
    assert result.all_cells_ok
    assert worker.report_digest(out) == DIGESTS[name][str(SEED)]
    for file, digest in SUMMARY_DIGESTS[name].items():
        assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest
