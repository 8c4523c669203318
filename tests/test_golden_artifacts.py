"""Byte-level pins on the artifacts of every preset variant.

Each case runs at ``stream.horizon=300`` for seeds 0 and 1 and compares the
sha256 of ``metrics.csv``, ``schedule.csv``, ``config.yaml`` and
``manifest.json`` with ``golden_artifacts.json``. The cases cover every
preset variant, including the ``ema-replay`` companion, plus configurations
no preset runs (``EXTRA``): MALR driven by an EMA signal, AMA with weight
adaptation off, the MLP model, zero iterations per step, windowed and capped
mixed replay (also across three 256-step blocks), a run that diverges
mid-step, Adam with EMA at a constant rate, ``theory-verify`` run as an
experiment, a MALR run whose rate is cut with all three conditions on, a
capped pool that first evicts partway through a block, and a holdout so
sparse that early validation folds are skipped.

The preset digests were recorded before the averaging refactor, the other
``EXTRA`` digests before replay draws were joined per step, the next two
before pool draws were planned per block of steps, and the last two before
pool rows were gathered per block; none is ever re-recorded: a change that
alters any byte of these artifacts fails here. ``python
tests/test_golden_artifacts.py`` prints the digests the current code
produces, for comparison by hand.

``test_every_preset_matches_the_digest_table`` runs
``artifact_digests.py --check``: every preset variant at its own horizon,
seeds 0-2, ``checkpoint.npz`` included, against ``preset_digests.txt``,
which is never re-recorded either.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from artifact_digests import check, run_digests
from oclopt.harness import apply_overrides, expand_variants, preset

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
ARTIFACTS = ("metrics.csv", "schedule.csv", "config.yaml", "manifest.json")
SEEDS = (0, 1)
HORIZON = 300
PRESETS = ("main-comparison", "malr-ablation", "ama-vs-ema", "batch-size",
           "buffer-size", "objective-comparison", "adam-base", "task-cyclic")
# configurations no preset runs: (case id, preset, variant label, overrides)
EXTRA = (
    ("ama-vs-ema/ema-averaging", "ama-vs-ema", "base", {"optimizer.averaging": "ema"}),
    ("main-comparison/ama-malr-no-adapt", "main-comparison", "ama-malr",
     {"optimizer.adapt": False}),
    ("main-comparison/ama-malr-mlp", "main-comparison", "ama-malr",
     {"model.kind": "mlp-1-hidden", "model.hidden": 8}),
    ("main-comparison/ama-malr-no-iters", "main-comparison", "ama-malr",
     {"iters_per_step": 0}),
    ("objective-comparison/mixed-p5-window", "objective-comparison", "mixed-p5",
     {"replay.window": 20}),
    ("objective-comparison/mixed-p5-capped", "objective-comparison", "mixed-p5",
     {"replay.capacity": 200}),
    ("objective-comparison/mixed-p5-window-capped", "objective-comparison", "mixed-p5",
     {"replay.window": 20, "replay.capacity": 200}),
    # diverges at iteration 77, in the middle of step 16
    ("objective-comparison/mixed-p5-diverged", "objective-comparison", "mixed-p5",
     {"schedule.alpha0": 1e6}),
    ("ama-vs-ema/adam-ema-constant", "ama-vs-ema", "base",
     {"optimizer.base": "adam", "optimizer.averaging": "ema", "schedule.kind": "constant",
      "schedule.alpha0": 0.002, "companion": None}),
    ("theory-verify/run", "theory-verify", "base", {}),
    # capped mixed replay across three 256-step block boundaries
    ("objective-comparison/mixed-p5-window-capped-long", "objective-comparison", "mixed-p5",
     {"replay.window": 20, "replay.capacity": 200, "stream.horizon": 900}),
    # MALR cuts with C1, C2 and C3 all holding: twice on seed 0, once on seed 1
    ("malr-ablation/malr-cutting", "malr-ablation", "malr",
     {"schedule.alpha0": 3.0, "schedule.epsilon": 0.01}),
    # the training pool first evicts at step 330, partway through block 2
    ("buffer-size/cap-10000-evicts-mid-block", "buffer-size", "cap-10000",
     {"stream.horizon": 600}),
    # the holdout is still empty at the first validation folds: 2 of 60 are
    # skipped on seed 0, 8 on seed 1
    ("main-comparison/ama-malr-sparse-holdout", "main-comparison", "ama-malr",
     {"replay.holdout_fraction": 0.002}),
)


def cases() -> dict:
    """case id -> (config, with companions)."""
    out = {}
    for name in PRESETS:
        base = apply_overrides(preset(name), {"stream.horizon": HORIZON})
        for label, cfg in expand_variants(base):
            out[f"{name}/{label}"] = (cfg, True)
    for case_id, name, label, overrides in EXTRA:
        cfg = dict(expand_variants(apply_overrides(preset(name),
                                                   {"stream.horizon": HORIZON})))[label]
        out[case_id] = (apply_overrides(cfg, overrides), False)
    return out


def digests(case_id: str, out_dir: Path) -> dict:
    """'<case>/seed<s>/<run>' -> {artifact: sha256} for both seeds of a case."""
    cfg, companions = cases()[case_id]
    return {f"{case_id}/seed{seed}/{run}": found for seed in SEEDS
            for run, found in run_digests(cfg, seed, out_dir / f"seed{seed}", companions,
                                          ARTIFACTS).items()}


@pytest.mark.parametrize("case_id", sorted(cases()))
def test_artifacts_match_golden_digests(case_id, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    want = {k: v for k, v in golden.items() if k.startswith(case_id + "/seed")}
    assert want, f"no golden digests for {case_id}"
    assert digests(case_id, tmp_path) == want


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 80
    assert {k.rsplit("/", 2)[0] for k in golden} == set(cases())


def test_every_preset_matches_the_digest_table():
    assert check() is None


if __name__ == "__main__":
    everything = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, case_id in enumerate(sorted(cases())):
            everything.update(digests(case_id, Path(tmp) / str(i)))
    json.dump(everything, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
