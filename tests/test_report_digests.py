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

import pytest

import dimlab
from dimlab import experiments as ex

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
