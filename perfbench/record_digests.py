"""Record reference artifact digests for the correctness gate.

    python3 perfbench/record_digests.py --workload NAME --seeds 0-9

Runs one untraced repetition per workload seed and stores the digest of
every run in ``perfbench/digests.json``. Record from a commit whose outputs
are known to be right; a run that fails an invariant is not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, ROOT, run_worker
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 0-9")
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for seed in range(int(first), int(last or first) + 1):
        rep = run_worker(args.workload, seed, ROOT / ".perfbench_out" / "record",
                         trace=False, timeout=600)
        errors = [f"{r['id']}: {e}" for r in rep["runs"] for e in r["errors"]]
        if errors:
            print(f"seed {seed} not recorded: {errors}", file=sys.stderr)
            return 1
        table.setdefault(args.workload, {})[str(seed)] = {
            r["id"]: r["digest"] for r in rep["runs"]}
        print(f"{args.workload} seed {seed}: {len(rep['runs'])} runs recorded", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
