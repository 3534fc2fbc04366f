"""Command-line front door.

Subcommands: generate (synthetic CSV), train (single run), sweep
(grid x seeds), audit (post-hoc penalty report on external predictions),
report (rebuild the summary table from saved artifacts). Each takes only
the flags it reads; flags override config-file keys, and DIMLAB_SEED is
the seed when --seed is absent. Exit codes: 0 on success with every grid
cell completed, 1 when a sweep finishes with failed cells, 2 on an error,
which is tagged [config] for a configuration error and otherwise with the
subcommand.
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

ENV_SEED = "DIMLAB_SEED"


def _resolve_seed(args) -> int | None:
    seed, raw = vars(args).get("seed"), os.environ.get(ENV_SEED)
    if seed is not None or raw is None:
        return seed
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}")


def _split_names(items) -> list[str]:
    names: list[str] = []
    for item in items:
        names.extend(n for n in item.split(",") if n)
    return names


def _load_config(args) -> tuple[ExperimentConfig, int | None]:
    """Config file or defaults, and the seed resolved from --seed or
    DIMLAB_SEED; a flag this parser lacks reads as absent."""
    flag = vars(args).get
    cfg = (load_experiment_config(args.config) if args.config
           else ExperimentConfig())
    updates: dict = {}
    if flag("arch") and isinstance(cfg.model, dict):
        updates["model"] = {**cfg.model, "architecture": args.arch}
    if flag("monotonic"):
        updates["monotonic_sets"] = (tuple(_split_names(args.monotonic)),)
    if flag("out"):
        updates["output_dir"] = args.out
    if flag("validate_on_test"):
        updates["validate_on_test"] = True
    if flag("norm_fit_on_train"):
        updates["norm_fit_on_train"] = True
    if flag("baseline_mode"):
        updates["train"] = replace(cfg.train, baseline_mode=args.baseline_mode)
    seed = _resolve_seed(args)
    if seed is not None:
        updates["seeds"] = (seed,)
    return (replace(cfg, **updates) if updates else cfg), seed


def cmd_generate(args) -> int:
    cfg, seed = _load_config(args)
    synth = cfg.dataset.get("synthetic")
    if seed is not None and isinstance(synth, dict):
        cfg = replace(cfg, dataset={"synthetic": {**synth, "seed": seed}})
    out = args.out or "synthetic.csv"
    ds = generate_to_csv(cfg, out)
    print(f"wrote {ds.n_rows} rows x {len(ds.feature_names)} features to {out}")
    return 0


def cmd_train(args) -> int:
    cfg, seed = _load_config(args)
    lam = args.lam if args.lam is not None else cfg.train.lam
    report = run_single(cfg, lam, cfg.train.seed if seed is None else seed)
    sys.stdout.write(report_to_json(report))
    print(f"artifacts in {cfg.output_dir}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)[0]
    result = run_experiment(cfg)
    sys.stdout.write(summary_to_csv(result.rows))
    print(f"artifacts in {cfg.output_dir}", file=sys.stderr)
    if not result.all_cells_ok:
        print("error [sweep]: some grid cells failed; see run reports",
              file=sys.stderr)
        return 1
    return 0


def cmd_audit(args) -> int:
    names = _split_names(args.monotonic or ())
    if not names:
        raise ConfigError("audit requires --monotonic <names>")
    payload = audit(args.predictions_csv, args.features_csv, names)
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
        run_dir = _load_config(args)[0].output_dir
    if run_dir is None:
        raise ConfigError(
            "report needs a run directory (positional, --out, or --config)")
    text = summary_to_csv(rebuild_summary(run_dir))
    (Path(run_dir) / "summary.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


# Each argument defined once; every subcommand lists the ones it reads.
_ARGUMENTS = {
    "--config": dict(metavar="PATH",
                     help="JSON experiment config; flags override its keys"),
    "--seed": dict(type=int, help=f"run seed (falls back to ${ENV_SEED})"),
    "--lambda": dict(dest="lam", type=float,
                     help="penalty weight for single runs"),
    "--arch": dict(choices=ARCHITECTURES),
    "--monotonic": dict(nargs="+", metavar="NAME",
                        help="feature names to constrain (space or comma "
                             "separated)"),
    "--out": dict(metavar="PATH",
                  help="output directory (CSV/JSON path for generate/audit)"),
    "--validate-on-test": dict(action="store_true",
                               help="use the test split for validation and "
                                    "early stopping"),
    "--baseline-mode": dict(choices=BASELINE_MODES,
                            help="how penalty gradients treat the fitted "
                                 "slope"),
    "--norm-fit-on-train": dict(action="store_true",
                                help="scale the test split with train-split "
                                     "min/max"),
    "predictions_csv": {},
    "features_csv": {},
    "run_dir": dict(nargs="?",
                    help="sweep output directory (defaults to --out)"),
}
_RUN_FLAGS = ("--config", "--seed", "--arch", "--monotonic", "--out",
              "--validate-on-test", "--baseline-mode", "--norm-fit-on-train")
_SUBCOMMANDS = {
    "generate": (cmd_generate, "write a synthetic benchmark CSV",
                 ("--config", "--seed", "--out")),
    "train": (cmd_train, "train one (lambda, seed) model",
              ("--lambda", *_RUN_FLAGS)),
    "sweep": (cmd_sweep, "run the full lambda grid x seeds", _RUN_FLAGS),
    "audit": (cmd_audit, "penalty report for external predictions",
              ("--monotonic", "--out", "predictions_csv", "features_csv")),
    "report": (cmd_report, "rebuild the summary table from artifacts",
               ("--config", "--out", "run_dir")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimlab",
        description="Monotonicity-penalized regression experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            p.add_argument(arg, **_ARGUMENTS[arg])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (DimlabError, OSError) as exc:
        stage = "config" if isinstance(exc, ConfigError) else args.command
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
