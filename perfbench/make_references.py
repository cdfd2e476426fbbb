"""Write the stored per-epoch reference digests (``references.json``).

    python3 perfbench/make_references.py

Plays each workload once per seed 0 to 31, untraced, in a fresh
process, and stores the SHA-256 prefix of every epoch record. Entries
for other seeds are kept. Run it only on a commit whose
records are known good: ``run.py`` fails every epoch that disagrees
with these digests.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import REFERENCES, epoch_digest, failed_epochs, write_references
from run import ROOT, SCRATCH, Runner
from workloads import WORKLOADS

SEEDS = range(32)


def main() -> int:
    stored = (json.loads(REFERENCES.read_text())
              if REFERENCES.exists() else {})
    scratch = ROOT / SCRATCH / "references"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            for seed in SEEDS:
                run = Runner(name, seed, scratch).spawn("run")
                records = run["records"] if run else None
                failed, problems = failed_epochs(
                    [records], WORKLOADS[name].epochs, None)
                if failed:
                    print(f"{name} seed {seed}: not stored: "
                          f"{problems[:3]}", file=sys.stderr)
                    continue
                stored.setdefault(name, {})[str(seed)] = [
                    epoch_digest(r) for r in records]
                write_references(stored)
                print(f"{name} seed {seed}: stored", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
