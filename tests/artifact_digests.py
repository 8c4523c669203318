"""Print the sha256 of every artifact of every preset variant, or check them
against the committed table.

    PYTHONPATH=src python tests/artifact_digests.py > digests.txt
    PYTHONPATH=src python tests/artifact_digests.py --check

Runs each variant of every preset at its own horizon for seeds 0, 1 and 2,
companion runs included, into a temporary directory, and prints one line
``<preset>/<variant>/seed<s>/<run>/<artifact> <sha256>`` per
``metrics.csv``, ``schedule.csv``, ``config.yaml``, ``manifest.json`` and
``checkpoint.npz``. Diff the output of two commits to show that a change
leaves every artifact byte-identical.

``--check`` compares the lines, in order, with ``preset_digests.txt`` next
to this file. It exits 1 at the first line that differs, naming the preset,
variant, seed, run and artifact, and 0 when every line matches. pytest does
not collect this file; ``test_golden_artifacts.py`` runs the check and
hashes its own cases with ``run_digests``.
"""

import hashlib
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from oclopt.harness import (PRESET_NAMES, expand_variants, preset, run_experiment,
                            run_with_companions)

ARTIFACTS = ("metrics.csv", "schedule.csv", "config.yaml", "manifest.json", "checkpoint.npz")
SEEDS = (0, 1, 2)
TABLE = Path(__file__).resolve().parent / "preset_digests.txt"


def run_digests(cfg, seed: int, out: Path, companions: bool = True,
                artifacts=ARTIFACTS) -> dict:
    """{run: {artifact: sha256}} of one seed of a config, its runs written
    under ``out``: the main run and its companions, or the main run alone."""
    if companions:
        runs = list(run_with_companions(cfg, seed=seed, out_dir=out))
    else:
        run_experiment(cfg, seed, out / "main")
        runs = ["main"]
    return {run: {name: hashlib.sha256((out / run / name).read_bytes()).hexdigest()
                  for name in artifacts} for run in runs}


def lines():
    """The digest lines, in table order, each seed's as soon as its runs are
    written."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            for label, cfg in expand_variants(preset(name)):
                for seed in SEEDS:
                    case = f"{name}/{label}/seed{seed}"
                    for run, found in run_digests(cfg, seed, Path(tmp) / case).items():
                        for artifact, digest in found.items():
                            yield f"{case}/{run}/{artifact} {digest}"


def _named(line) -> str:
    if line is None:
        return "no line"
    preset_name, variant, seed, run, artifact = line.split()[0].split("/")
    return (f"preset {preset_name}, variant {variant}, seed {seed[len('seed'):]}, "
            f"run {run}, artifact {artifact}")


def check() -> str | None:
    """None if every digest line equals the table's, else where the first
    difference is."""
    want = TABLE.read_text().splitlines()
    for i, (got, expected) in enumerate(zip_longest(lines(), want), start=1):
        if got != expected:
            return (f"{TABLE.name} line {i} differs at {_named(got or expected)}:\n"
                    f"  got      {got}\n  expected {expected}")
    return None


def main(argv) -> int:
    if argv == ["--check"]:
        difference = check()
        print(difference or f"every line of {TABLE.name} matches")
        return 1 if difference else 0
    if argv:
        print(f"usage: {Path(__file__).name} [--check]", file=sys.stderr)
        return 2
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
