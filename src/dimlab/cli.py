"""Command-line front door.

Subcommands: generate (synthetic CSV), train (single run), sweep
(grid x seeds), audit (post-hoc penalty report on external predictions),
report (rebuild the summary table from saved artifacts). Flags override
config-file keys; DIMLAB_SEED is a global seed fallback when --seed is
absent. Exit codes: 0 on success with every grid cell completed, 1 when
a sweep finishes with failed cells, 2 on a stage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, DimlabError
from .experiments import (
    ExperimentConfig,
    audit,
    generate_to_csv,
    load_experiment_config,
    rebuild_summary,
    run_experiment,
    run_single,
    summary_to_csv,
)
from .models import ARCHITECTURES
from .penalty import BASELINE_MODES
from .training import report_to_json

log = logging.getLogger(__name__)

ENV_SEED = "DIMLAB_SEED"


class _StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (DimlabError, OSError) as exc:
        raise _StageFailure(stage, exc) from exc


def _env_seed() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}")


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    return _env_seed()


def _split_names(items) -> list[str]:
    names: list[str] = []
    for item in items:
        names.extend(n for n in item.split(",") if n)
    return names


def _load_config(args) -> ExperimentConfig:
    cfg = (load_experiment_config(args.config) if args.config
           else ExperimentConfig())
    updates: dict = {}
    if args.arch:
        updates["model"] = {**cfg.model, "architecture": args.arch}
    if args.monotonic:
        updates["monotonic_sets"] = (tuple(_split_names(args.monotonic)),)
    if args.out:
        updates["output_dir"] = args.out
    if args.validate_on_test:
        updates["validate_on_test"] = True
    if args.norm_fit_on_train:
        updates["norm_fit_on_train"] = True
    if args.baseline_mode:
        updates["train"] = replace(cfg.train, baseline_mode=args.baseline_mode)
    seed = _resolve_seed(args)
    if seed is not None:
        updates["seeds"] = (seed,)
    return replace(cfg, **updates) if updates else cfg


def cmd_generate(args) -> int:
    cfg = _run_stage("config", _load_config, args)
    seed = _resolve_seed(args)
    if seed is not None:
        synth = {**cfg.dataset.get("synthetic", {}), "seed": seed}
        cfg = replace(cfg, dataset={"synthetic": synth})
    out = args.out or "synthetic.csv"
    ds = _run_stage("generate", generate_to_csv, cfg, out)
    print(f"wrote {ds.n_rows} rows x {len(ds.feature_names)} features to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_stage("config", _load_config, args)
    lam = args.lam if args.lam is not None else cfg.train.lam
    seed = _resolve_seed(args)
    if seed is None:
        seed = cfg.train.seed
    report = _run_stage("train", run_single, cfg, lam, seed)
    sys.stdout.write(report_to_json(report))
    print(f"artifacts in {cfg.output_dir}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = _run_stage("config", _load_config, args)
    result = _run_stage("sweep", run_experiment, cfg)
    sys.stdout.write(summary_to_csv(result.rows))
    print(f"selected lambdas: {json.dumps(result.selections, sort_keys=True)}",
          file=sys.stderr)
    print(f"artifacts in {cfg.output_dir}", file=sys.stderr)
    if not result.all_cells_ok:
        print("error [sweep]: some grid cells failed; see run reports",
              file=sys.stderr)
        return 1
    return 0


def cmd_audit(args) -> int:
    if not args.monotonic:
        raise _StageFailure("config", ConfigError(
            "audit requires --monotonic <names>"))
    names = _split_names(args.monotonic)
    payload = _run_stage("audit", audit, args.predictions_csv,
                         args.features_csv, names)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    run_dir = args.run_dir or args.out
    if run_dir is None and args.config:
        cfg = _run_stage("config", _load_config, args)
        run_dir = cfg.output_dir
    if run_dir is None:
        raise _StageFailure("config", ConfigError(
            "report needs a run directory (positional, --out, or --config)"))
    text = summary_to_csv(_run_stage("report", rebuild_summary, run_dir))
    _run_stage("report", (Path(run_dir) / "summary.csv").write_text,
               text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON experiment config; flags override its keys")
    common.add_argument("--seed", type=int,
                        help=f"run seed (falls back to ${ENV_SEED})")
    common.add_argument("--lambda", dest="lam", type=float,
                        help="penalty weight for single runs")
    common.add_argument("--arch", choices=ARCHITECTURES)
    common.add_argument("--monotonic", nargs="+", metavar="NAME",
                        help="feature names to constrain (space or comma "
                             "separated)")
    common.add_argument("--out", metavar="PATH",
                        help="output directory (CSV/JSON path for "
                             "generate/audit)")
    common.add_argument("--validate-on-test", action="store_true",
                        help="use the test split for validation and early "
                             "stopping")
    common.add_argument("--baseline-mode", choices=BASELINE_MODES,
                        help="how penalty gradients treat the fitted slope")
    common.add_argument("--norm-fit-on-train", action="store_true",
                        help="scale the test split with train-split min/max")

    parser = argparse.ArgumentParser(
        prog="dimlab",
        description="Monotonicity-penalized regression experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="write a synthetic benchmark CSV")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common],
                       help="train one (lambda, seed) model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", parents=[common],
                       help="run the full lambda grid x seeds")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", parents=[common],
                       help="penalty report for external predictions")
    p.add_argument("predictions_csv")
    p.add_argument("features_csv")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("report", parents=[common],
                       help="rebuild the summary table from artifacts")
    p.add_argument("run_dir", nargs="?",
                   help="sweep output directory (defaults to --out)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except _StageFailure as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 2
    except DimlabError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
