"""Command-line interface for running experiments and bound verification.

Exit codes: 0 ok, 2 config error, 3 divergence, 4 bound-verification failure.
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

from .harness import (ConfigError, PRESET_NAMES, apply_overrides, expand_variants,
                      load_config, preset, run_with_companions, save_config,
                      verify_bounds_from_config)
from .model import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_BOUND_FAILED = 4


def _parse_override(raw: str):
    key, _, value = raw.partition("=")
    if not _:
        raise ConfigError(f"override {raw!r} is not of the form key=value")
    try:
        value = json.loads(value)
    except json.JSONDecodeError:
        pass  # keep as string
    return key, value


def _run_config(config, out_root: Path) -> int:
    variants = list(expand_variants(config))
    for _, concrete in variants:   # no variant runs unless every one is valid
        concrete.validate()
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
    config = load_config(args.config)
    if args.override:
        config = apply_overrides(config, dict(_parse_override(o) for o in args.override))
    out_root = Path(args.out or config.out_dir or f"runs/{config.name}")
    return _run_config(config, out_root)


def cmd_preset(args) -> int:
    config = preset(args.name)
    if args.override:
        config = apply_overrides(config, dict(_parse_override(o) for o in args.override))
    if args.out:
        save_config(config, args.out)
        print(f"wrote {args.out}")
    else:
        import yaml

        from .harness import config_to_dict
        print(yaml.safe_dump(config_to_dict(config), sort_keys=True), end="")
    if args.run:
        return _run_config(config, Path(f"runs/{config.name}"))
    return EXIT_OK


def _sweep_one(path: str) -> int:
    config = load_config(path)
    out_root = Path(config.out_dir or f"runs/{config.name}")
    return _run_config(config, out_root)


def cmd_sweep(args) -> int:
    paths = sorted(p for pattern in args.configs for p in glob.glob(pattern))
    if not paths:
        print("no configs matched", file=sys.stderr)
        return EXIT_CONFIG
    if args.workers <= 1:
        codes = [_sweep_one(p) for p in paths]
    else:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            codes = list(pool.map(_sweep_one, paths))
    return max(codes)


def cmd_verify_bounds(args) -> int:
    config = load_config(args.config) if args.config else preset("theory-verify")
    if args.override:
        config = apply_overrides(config, dict(_parse_override(o) for o in args.override))
    reports = verify_bounds_from_config(config)
    failed = False
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    for label, report in reports:
        verdict = "HOLDS" if report.all_hold else "VIOLATED"
        print(f"{label}: {verdict} (L={report.lipschitz:.3g} rho={report.rho:.3g} "
              f"stationary={report.stationary} excursions={report.excursions})")
        for c in report.checkpoints:
            print(f"  k={c.k:6d} lhs={c.lhs:.6g}±{c.lhs_se:.2g} "
                  f"T1={c.t1:.6g} T2={c.t2:.6g} T3={c.t3:.6g} rhs={c.rhs:.6g} "
                  f"{'ok' if c.holds else 'FAIL'}")
        if out:
            with open(out / f"{label}.csv", "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(("k", "lhs", "lhs_se", "t1", "t2", "t3", "rhs",
                            "rhs_se", "holds"))
                for row in report.rows():
                    w.writerow([repr(v) if isinstance(v, float) else v for v in row])
        failed = failed or not report.all_hold
    return EXIT_BOUND_FAILED if failed else EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for path in sorted(Path(args.run_dir).rglob("metrics.csv")):
        with open(path) as f:
            data = list(csv.DictReader(f))
        if not data:
            continue
        final = {}
        for rec in data:
            for key in ("p_le", "p_ir", "p_ft", "alpha"):
                v = float(rec[key])
                if not math.isnan(v):
                    final[key] = v
        rows.append((str(path.parent.relative_to(args.run_dir)), final))
    if not rows:
        print("no runs found", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{'run':40s} {'p_le':>8s} {'p_ir':>8s} {'p_ft':>8s} {'alpha':>10s}")
    for name, final in rows:
        print(f"{name:40s} "
              f"{final.get('p_le', float('nan')):8.4f} "
              f"{final.get('p_ir', float('nan')):8.4f} "
              f"{final.get('p_ft', float('nan')):8.4f} "
              f"{final.get('alpha', float('nan')):10.3e}")
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


if __name__ == "__main__":
    sys.exit(main())
