"""Record, print and compare benchmark ledgers.

    python3 perfbench/report.py                      # print the seed ledger
    python3 perfbench/report.py LEDGER.json          # print a ledger
    python3 perfbench/report.py --compare OLD NEW    # NEW / OLD per metric
    python3 perfbench/report.py --record OUT.json    # measure a ledger

``--record`` runs ``run.py`` on every workload at seed 7, untraced and
traced, for ``run_seconds`` of ``BENCHMARK.json``, and writes one
ledger with the commit, nproc and the Python, numpy and scipy
versions. Printing lists every metric by name with its unit, and
every rate or ratio next to the count it is based on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

from ledger import BASES
from run import HERE, ROOT
from workloads import WORKLOADS

SEED_LEDGER = HERE / "results" / "seed.json"
SEED = 7
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

# End-to-end figures and the per-layer count each is based on.
E2E_BASES = {"refresh_s_p50": "runtime.daemon.refreshes"}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(out: Path) -> None:
    import numpy
    import scipy

    ledger = {
        "schema": 1,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for name in WORKLOADS:
        untraced = _run(name, 0)
        traced = _run(name, 1)
        ledger["workloads"][name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        print(f"recorded {name}", file=sys.stderr)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1) + "\n")


def _fmt(metric: dict) -> str:
    return f"{metric['value']:>14.6g} {metric['unit']:<6s}"


def show(ledger: dict) -> None:
    print(f"commit {ledger['commit']}  nproc {ledger['nproc']}  "
          f"python {ledger['python']}  numpy {ledger['numpy']}  "
          f"scipy {ledger['scipy']}  seed {ledger['seed']}  "
          f"{ledger['seconds']} s per run")
    for name, entry in ledger["workloads"].items():
        layers = entry["per_layer"]
        print(f"\n{name}: correct={entry['correct']} "
              f"epochs {entry['attempted']} attempted, "
              f"{entry['failed']} failed")
        for title, metrics, bases in (
                ("end to end (untraced)", entry["end_to_end"], E2E_BASES),
                ("per layer (traced)", layers, BASES)):
            print(f"  {title}")
            for metric, value in metrics.items():
                base = bases.get(metric)
                note = (f"  [{base} = {layers[base]['value']:g}]"
                        if base in layers else "")
                print(f"    {metric:42s}{_fmt(value)}{note}")


def compare(old: dict, new: dict) -> None:
    print(f"old {old['commit'][:12]}  new {new['commit'][:12]}")
    for name, entry in new["workloads"].items():
        before: Optional[Dict] = old["workloads"].get(name)
        if before is None:
            print(f"\n{name}: not in the old ledger")
            continue
        print(f"\n{name}")
        for section in ("end_to_end", "per_layer"):
            for metric, value in entry[section].items():
                was = before[section].get(metric)
                if was is None:
                    continue
                ratio = (value["value"] / was["value"]
                         if was["value"] else float("nan"))
                print(f"    {metric:42s}{_fmt(was)} ->{_fmt(value)}"
                      f"  x{ratio:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("ledger", nargs="?", type=Path, default=SEED_LEDGER)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    parser.add_argument("--record", type=Path, metavar="OUT")
    args = parser.parse_args()
    if args.record:
        record(args.record)
        return 0
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        compare(old, new)
        return 0
    show(json.loads(args.ledger.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
