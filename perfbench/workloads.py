"""The benchmark's workloads: one lambda sweep each, through run_experiment.

The workload seed goes only into SyntheticConfig; model and training seeds
stay fixed so that a seed names one dataset and nothing else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

N_ROWS = 5000
CELL_SEEDS = (1,)


@dataclass(frozen=True)
class Workload:
    name: str
    architecture: str
    batch_size: int
    max_epochs: int
    baseline_mode: str
    grid: tuple[float, ...]
    monotonic: tuple[str, ...]
    learning_rate: float
    pooled: bool  # cells on a thread pool of nproc workers, else one worker
    # the host-speed probe (probe.py): steps per thread, and its time at
    # the reference speed, which is its typical time on a 2-core Xeon VM
    probe_steps: int
    probe_ref_s: float

    def max_workers(self) -> int:
        return len(os.sched_getaffinity(0)) if self.pooled else 1

    def experiment_config(self, dimlab, seed: int, output_dir: str):
        return dimlab.ExperimentConfig(
            dataset={"synthetic": {"n": N_ROWS, "seed": seed}},
            model={"architecture": self.architecture},
            train=dimlab.TrainConfig(learning_rate=self.learning_rate,
                                     batch_size=self.batch_size,
                                     max_epochs=self.max_epochs,
                                     baseline_mode=self.baseline_mode),
            grid=self.grid,
            seeds=CELL_SEEDS,
            monotonic_sets=(self.monotonic,),
            output_dir=output_dir,
        )

    def cells(self) -> int:
        return len(self.grid) * len(CELL_SEEDS)

    def fit_rows(self, cfg) -> int:
        """Rows one epoch trains on: the train split minus the validation
        carve-out, as dimlab.training.train takes it."""
        n_train = int(round(cfg.train_frac * N_ROWS))
        n_val = max(1, int(round(cfg.train.val_fraction * n_train)))
        return n_train - n_val


WORKLOADS = {w.name: w for w in (
    # The paper's headline run, shortened: big matmuls, dropout masks and
    # BLAS threads contending with the pool.
    Workload("sweep_mlp3", architecture="mlp3", batch_size=256, max_epochs=6,
             baseline_mode="frozen", grid=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
             monotonic=("x3",), learning_rate=1e-2, pooled=True,
             probe_steps=60, probe_ref_s=0.28),
    # ~113 steps per epoch of tiny tensors: per-op Python overhead, graph
    # and grad-buffer allocation, the joint coupled penalty and Adam.
    Workload("penalty_small_batch", architecture="ann", batch_size=32,
             max_epochs=4, baseline_mode="coupled", grid=(0.0, 1.0),
             monotonic=("x1", "x2", "x3"), learning_rate=1e-2, pooled=False,
             probe_steps=2000, probe_ref_s=0.18),
    # The only user of conv1d_same, whose einsum backward dominates.
    Workload("cnn1d_conv", architecture="cnn1d", batch_size=256, max_epochs=2,
             baseline_mode="frozen", grid=(0.0, 1.0), monotonic=("x3",),
             learning_rate=1e-2, pooled=False, probe_steps=6, probe_ref_s=0.35),
)}
