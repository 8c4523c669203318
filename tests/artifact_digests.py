"""Print the sha256 of every artifact of every preset variant.

    PYTHONPATH=src python tests/artifact_digests.py > digests.txt

Runs each variant of every preset at its own horizon for seeds 0, 1 and 2,
companion runs included, into a temporary directory, and prints one line
``<preset>/<variant>/seed<s>/<run>/<artifact> <sha256>`` per
``metrics.csv``, ``schedule.csv``, ``config.yaml``, ``manifest.json`` and
``checkpoint.npz``. Diff the output of two commits to show that a change
leaves every artifact byte-identical. pytest does not collect this file.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from oclopt.harness import PRESET_NAMES, expand_variants, preset, run_with_companions

ARTIFACTS = ("metrics.csv", "schedule.csv", "config.yaml", "manifest.json", "checkpoint.npz")
SEEDS = (0, 1, 2)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESET_NAMES:
            for label, cfg in expand_variants(preset(name)):
                for seed in SEEDS:
                    case = f"{name}/{label}/seed{seed}"
                    out = Path(tmp) / case
                    for run in run_with_companions(cfg, seed=seed, out_dir=out):
                        for artifact in ARTIFACTS:
                            digest = hashlib.sha256((out / run / artifact).read_bytes())
                            print(f"{case}/{run}/{artifact} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
