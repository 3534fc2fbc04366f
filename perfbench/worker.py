"""One benchmark sweep in a fresh interpreter.

Times set-up (``import dimlab`` plus synthetic data generation) and one
``run_experiment`` call, checks the sweep's outputs, and prints one JSON
object as its last line of standard output. run.py starts one of these per
sweep; to run one by hand from the repository root:

    python3 perfbench/worker.py --workload sweep_mlp3 --seed 1 --out .bench_tmp/w
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer
from workloads import N_ROWS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

def report_digest(out: Path) -> str:
    """sha256 over the canonical run-report JSONs, by relative path."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("run_*.json")):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        # as found: the benchmark never sets these itself
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start_s", "end_s", "parent", "cell"])
        writer.writerows(tracer.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="empty output directory")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="CSV file for the raw spans (traced)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dimlab
    from dimlab import autodiff, experiments, models, penalty, training
    dimlab.generate_synthetic(dimlab.SyntheticConfig(n=N_ROWS, seed=args.seed))
    setup_s = time.perf_counter() - start
    if Path(dimlab.__file__).resolve().parent != SRC / "dimlab":
        raise SystemExit(f"imported dimlab from {dimlab.__file__}, not {SRC}")

    # run_experiment keeps its RunReports to itself; wall_time_s is not in
    # the JSON artifacts, so take the reports as the sweep produces them
    reports = []
    grid_search = experiments.lambda_grid_search

    def capture(*a, **kw):
        cell_reports = grid_search(*a, **kw)
        reports.extend(cell_reports)
        return cell_reports

    out = Path(args.out)
    cfg = workload.experiment_config(dimlab, args.seed, str(out))
    tracer = Tracer({"autodiff": autodiff, "experiments": experiments,
                     "models": models, "penalty": penalty,
                     "training": training}) if args.trace else None
    experiments.lambda_grid_search = capture
    try:
        with tracer or nullcontext():
            t0 = time.perf_counter()
            result = experiments.run_experiment(
                cfg, max_workers=workload.max_workers())
            sweep_wall_s = time.perf_counter() - t0
            rebuilt = experiments.summary_to_csv(experiments.rebuild_summary(out))
    finally:
        experiments.lambda_grid_search = grid_search

    ok = [r for r in reports if r.error is None and r.history]
    checks = {
        "cells_complete": (result.all_cells_ok and len(ok) == len(reports)
                           == workload.cells()),
        "summary_rebuilds": rebuilt == (out / "summary.csv").read_text(
            encoding="utf-8"),
    }
    cell_wall_s = sum(r.wall_time_s for r in reports)
    record = {
        "setup_s": setup_s,
        "sweep_wall_s": sweep_wall_s,
        "train_rows": sum(len(r.history) for r in ok) * workload.fit_rows(cfg),
        "epoch_s": [r.wall_time_s / len(r.history) for r in ok],
        "val_mse": [r.val_metrics.mse for r in ok],
        "cells": len(reports),
        "failed_cells": len(reports) - len(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": report_digest(out),
        "machine": machine_facts(sys.modules["numpy"]),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["training.pool_concurrency"] = layers["training.cell_s"] / sweep_wall_s
        layers["experiments.bytes_written"] = float(sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()))
        checks["wrappers_restored"] = tracer.restored()
        # the train spans are the cells; they must agree with the
        # wall time each RunReport measured for itself
        checks["phases_sum_to_cell_time"] = (
            abs(layers["training.cell_s"] - cell_wall_s)
            <= 0.05 * cell_wall_s + 0.01)
        record["layers"] = layers
        if args.spans:
            write_spans(tracer, Path(args.spans))
    record["checks"] = checks
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
