"""Command-line interface for running experiments and bound verification.

Exit codes: 0 ok, 2 config error (an unusable input or output path, or a
malformed metrics.csv, included), 3 divergence, 4 bound-verification failure.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import yaml

from .harness import (ConfigError, METRIC_COLUMNS, PRESET_NAMES, apply_overrides,
                      config_to_dict, expand_variants, identical_bound_configs, last_values,
                      load_config, preset, run_with_companions, save_config,
                      verify_bounds_from_config, write_csv)
from .model import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_BOUND_FAILED = 4


def _overridden(config, raw=()):
    """The config with each KEY=VALUE in raw applied; a value that parses as
    JSON is taken as JSON, any other as a string."""
    overrides = {}
    for item in raw:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep as string
        overrides[key] = value
    return apply_overrides(config, overrides)


def _job(config, out=None) -> tuple:
    """(the config's (label, concrete config) variants, every one validated,
    and the root of their output directories)."""
    variants = list(expand_variants(config))
    for _, concrete in variants:
        concrete.validate()
    return variants, Path(out or config.out_dir or f"runs/{config.name}")


def _run_job(variants, out_root: Path) -> int:
    out_root.mkdir(parents=True, exist_ok=True)   # an unusable root fails before any run
    status = EXIT_OK
    for label, concrete in variants:
        for seed in concrete.seeds:
            out = out_root / label / f"seed{seed}"
            results = run_with_companions(concrete, seed=seed, out_dir=out)
            for tag, res in results.items():
                if res.diverged:
                    print(f"DIVERGED {concrete.name} {tag} seed={seed}", file=sys.stderr)
                    status = EXIT_DIVERGED
                else:
                    fm = res.final_metrics()
                    print(f"ok {concrete.name} {tag} seed={seed} "
                          + " ".join(f"{k}={v:.4f}" for k, v in sorted(fm.items())
                                     if not math.isnan(v)))
    return status


def cmd_run(args) -> int:
    return _run_job(*_job(_overridden(load_config(args.config), args.override), args.out))


def cmd_preset(args) -> int:
    config = _overridden(preset(args.name), args.override)
    job = _job(config)   # nothing is written or printed that run would reject
    if args.out:
        save_config(config, args.out)
        print(f"wrote {args.out}")
    else:
        print(yaml.safe_dump(config_to_dict(config), sort_keys=True), end="")
    if args.run:
        return _run_job(*job)
    return EXIT_OK


def cmd_sweep(args) -> int:
    paths = sorted(p for pattern in args.configs for p in glob.glob(pattern))
    if not paths:
        print("no configs matched", file=sys.stderr)
        return EXIT_CONFIG
    jobs = []   # no config runs unless every one is valid
    for path in paths:
        try:
            jobs.append(_job(load_config(path)))
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from e
    if args.workers <= 1:
        codes = [_run_job(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            codes = list(pool.map(_run_job, *zip(*jobs)))
    return max(codes)


def cmd_verify_bounds(args) -> int:
    config = _overridden(load_config(args.config) if args.config else preset("theory-verify"),
                         args.override).validate()
    out = Path(args.out) if args.out else None
    if out:   # a bad config or an unusable path fails before the check runs
        out.mkdir(parents=True, exist_ok=True)
    reports = verify_bounds_from_config(config)
    for earlier, later in identical_bound_configs(config):
        print(f"note: {later} has the drift and rates of {earlier}, so its results "
              "are identical", file=sys.stderr)
    failed = False
    for label, report in reports:
        verdict = "HOLDS" if report.all_hold else "VIOLATED"
        print(f"{label}: {verdict} (L={report.lipschitz:.3g} rho={report.rho:.3g} "
              f"stationary={report.stationary} excursions={report.excursions})")
        for c in report.checkpoints:
            print(f"  k={c.k:6d} lhs={c.lhs:.6g}±{c.lhs_se:.2g} "
                  f"T1={c.t1:.6g} T2={c.t2:.6g} T3={c.t3:.6g} rhs={c.rhs:.6g} "
                  f"{'ok' if c.holds else 'FAIL'}")
        if out:
            write_csv(out / f"{label}.csv", ("k", "lhs", "lhs_se", "t1", "t2", "t3", "rhs",
                                             "rhs_se", "holds"), report.rows())
        failed = failed or not report.all_hold
    return EXIT_BOUND_FAILED if failed else EXIT_OK


def _metric_rows(path) -> list:
    """The rows of a metrics.csv below its METRIC_COLUMNS header, as floats;
    a ConfigError naming the line of a wrong header or row."""
    with open(path, newline="") as f:
        data = list(csv.reader(f))
    if data[:1] != [list(METRIC_COLUMNS)]:
        raise ConfigError(f"{path} line 1: the header is not {','.join(METRIC_COLUMNS)}")
    rows = []
    for line, row in enumerate(data[1:], start=2):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != len(METRIC_COLUMNS):
            raise ConfigError(f"{path} line {line}: expected {len(METRIC_COLUMNS)} "
                              f"numbers, got {','.join(row)}")
        rows.append(values)
    return rows


def cmd_report(args) -> int:
    rows = []
    for path in sorted(Path(args.run_dir).rglob("metrics.csv")):
        data = _metric_rows(path)
        if data:
            rows.append((str(path.parent.relative_to(args.run_dir)), last_values(data)))
    if not rows:
        print("no runs found", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{'run':40s} {'p_le':>8s} {'p_ir':>8s} {'p_ft':>8s} {'alpha':>10s}")
    for name, final in rows:
        print(f"{name:40s} {final['p_le']:8.4f} {final['p_ir']:8.4f} "
              f"{final['p_ft']:8.4f} {final['alpha']:10.3e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oclopt",
                                     description="online continual learning "
                                                 "optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")
    p_run.add_argument("--out", help="output directory root")
    p_run.set_defaults(func=cmd_run)

    p_preset = sub.add_parser("preset", help="materialize a named preset config")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--override", action="append", default=[],
                          metavar="KEY=VALUE")
    p_preset.add_argument("--out", help="write the config to this file")
    p_preset.add_argument("--run", action="store_true", help="run it immediately")
    p_preset.set_defaults(func=cmd_preset)

    p_sweep = sub.add_parser("sweep", help="run every config matching the globs")
    p_sweep.add_argument("configs", nargs="+")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify-bounds", help="empirical convergence-bound check")
    p_verify.add_argument("config", nargs="?", help="theory-verify style config "
                                                    "(default: built-in preset)")
    p_verify.add_argument("--override", action="append", default=[],
                          metavar="KEY=VALUE")
    p_verify.add_argument("--out", help="write per-config checkpoint CSVs here")
    p_verify.set_defaults(func=cmd_verify_bounds)

    p_report = sub.add_parser("report", help="summarize finished runs")
    p_report.add_argument("run_dir")
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as e:
        if e.filename is None:   # no path to blame
            raise
        print(f"cannot use {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
