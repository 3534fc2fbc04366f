"""Sweeps write the canonical reports the benchmark recorded.

perfbench/digests.json holds, per workload and dataset seed, a sha256 over
every run_*.json report of one sweep (``report_digest`` in
perfbench/worker.py). Running each workload in-process at one recorded
seed catches a change to any report byte without running the benchmark.
"""

import importlib
import json
from pathlib import Path

import pytest

import dimlab
from dimlab import experiments as ex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
SEED = 1


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
