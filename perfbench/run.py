"""Closed-loop scenario benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Plays one workload (a canned scenario plus overrides, seeded by
``--seed``) through ``repro.runtime.scenario.run_scenario``, one run
per fresh process and never two at once, for about ``--seconds``
seconds. Each run gets its own ``PYTHONHASHSEED``, derived from the
seed and the run index. Every run's per-epoch records are checked
against the stored reference for the workload and seed and against
the other runs.

``--trace 0`` reports the end-to-end metrics of untraced runs, with
set-up-only children between them for ``setup_s``. ``--trace 1``
alternates untraced and traced runs, and reports the per-layer
metrics of the traced ones (medians when there are several). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The metric
names and units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from check import failed_epochs, field_differences, load_reference
from ledger import (BASES, PER_LAYER, declared_metrics, in_declared_order,
                    integrity_problems, layer_metrics, median_metrics)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END: List[Tuple[str, str]] = declared_metrics("end_to_end")

MIN_RUNS = 2            # untraced runs, or run pairs under --trace 1
MIN_SETUPS = 12         # set-up samples behind setup_s
HARD_LIMIT_S = 165.0    # never start a run that could pass this
SCRATCH = ".perfbench"  # under the checkout root; removed on exit


def hash_seed(seed: int, run_index: int) -> int:
    """``PYTHONHASHSEED`` of one run: varies with seed and run index."""
    return (seed * 1_000_003 + run_index * 7_919 + 1) % 4_294_967_296


class Runner:
    """Starts the child processes of one invocation, one at a time."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = time.perf_counter()
        self._took: Dict[str, List[float]] = {}
        self.crashes: List[str] = []
        self._next_id = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def longest(self, mode: str) -> float:
        """The longest child of ``mode`` so far (0 before the first)."""
        return max(self._took.get(mode, [0.0]))

    def typical(self, mode: str) -> float:
        """The median child of ``mode`` so far (0 before the first)."""
        return median(self._took.get(mode, [0.0]))

    def fits(self, seconds: float, budget: float = HARD_LIMIT_S) -> bool:
        """Would ``seconds`` more of children end within ``budget``?"""
        return self.elapsed() + seconds <= min(budget, HARD_LIMIT_S)

    def spawn(self, mode: str) -> Optional[dict]:
        run_id = self._next_id
        self._next_id += 1
        out = self.scratch / f"run-{run_id}.json"
        env = dict(os.environ)
        env.update({
            "PYTHONHASHSEED": str(hash_seed(self.seed, run_id)),
            "TMPDIR": str(self.scratch),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--run-id", str(run_id), "--out", str(out)]
        began = time.perf_counter()
        timeout = max(HARD_LIMIT_S + 10.0 - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{mode} run {run_id} timed out")
            return None
        finally:
            self._took.setdefault(mode, []).append(
                time.perf_counter() - began)
        if proc.returncode != 0 or not out.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.crashes.append(f"{mode} run {run_id} exited "
                                f"{proc.returncode}: {tail[0]}")
            return None
        result = json.loads(out.read_text())
        out.unlink()
        result["run_id"] = run_id
        return result


def _scenario_metrics(runs: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics that depend only on the records (the
    runs agree on those when the check passes; the first one counts)."""
    records = runs[0]["records"]
    steady = [r["coverage_min"] for r in records if r["epoch"] >= 1]
    costs = [r["lp_load_cost"] for r in records
             if r["lp_load_cost"] is not None]
    return {
        "coverage_steady_min": min(steady) if steady else 1.0,
        "load_cost_max": max(costs) if costs else 0.0,
    }


def end_to_end(runs: List[dict], setups: List[float], failed: int,
               attempted: int) -> Dict[str, float]:
    """Every :data:`END_TO_END` metric of an invocation's untraced runs
    (those that did not crash) and its set-up samples."""
    # Every refresh of every run is one sample of decision latency.
    refreshes = [s for run in runs for s in run["solve_wall_seconds"]]
    return in_declared_order({
        "setup_s": median(setups),
        "run_s": median(run["run_s"] for run in runs),
        "refresh_s_p50": median(refreshes),
        "peak_rss_mb": median(run["peak_rss_mb"] for run in runs),
        "epoch_ok_ratio": 1.0 - failed / attempted,
        **_scenario_metrics(runs),
    }, END_TO_END)


def _untraced(runner: Runner, budget: float
              ) -> Tuple[List[Optional[dict]], List[float]]:
    """``--trace 0``: untraced runs, each followed by a set-up-only
    child while set-up samples are short of :data:`MIN_SETUPS`, so that
    the set-ups are spread over the same window as the runs. Another
    run starts while it, its set-up child and the set-ups still
    missing after them fit in the window (the longest run so far plus
    set-ups of the median length so far). Returns the runs and the
    set-up samples of the set-up-only children."""
    runs: List[Optional[dict]] = []
    setups: List[float] = []

    def samples() -> int:
        return len(setups) + sum(1 for run in runs if run is not None)

    def add_setup() -> bool:
        extra = runner.spawn("setup")
        if extra is not None:
            setups.append(extra["setup_s"])
        return extra is not None

    while True:
        runs.append(runner.spawn("run"))
        if samples() < MIN_SETUPS and not add_setup():
            break
        missing = max(MIN_SETUPS - samples() - 2, 0)
        step = runner.longest("run") + runner.typical("setup") * (1 + missing)
        if not (len(runs) < MIN_RUNS and runner.fits(step)
                or runner.fits(step, budget)):
            break
    while samples() < MIN_SETUPS and runner.fits(runner.typical("setup")):
        if not add_setup():
            break
    return runs, setups


def measure(args: argparse.Namespace, runner: Runner
            ) -> Tuple[dict, List[str]]:
    """Play the runs; returns the result object and report lines."""
    workload = WORKLOADS[args.workload]
    epochs = workload.epochs
    lines: List[str] = []
    runner.spawn("warmup")  # bytecode cache; not measured
    # The measured window of --seconds starts after the warm-up.
    budget = runner.elapsed() + args.seconds

    untraced: List[Optional[dict]] = []
    traced: List[Optional[dict]] = []
    setups: List[float] = []
    if args.trace:
        # Alternate, so that trace.overhead_s compares runs made in the
        # same stretch of the window.
        while True:
            pair = runner.longest("run") + runner.longest("trace")
            if not (len(traced) < MIN_RUNS and runner.fits(pair)
                    or runner.fits(pair, budget)):
                break
            untraced.append(runner.spawn("run"))
            traced.append(runner.spawn("trace"))
    else:
        untraced, setups = _untraced(runner, budget)

    all_runs = untraced + traced
    reference = load_reference(args.workload, args.seed)
    failed, problems = failed_epochs(
        [run["records"] if run else None for run in all_runs], epochs,
        reference)
    attempted = epochs * len(all_runs)
    lines.append(f"workload {args.workload} seed {args.seed}: "
                 f"{len(untraced)} untraced + {len(traced)} traced runs, "
                 f"{attempted} epochs, {failed} failed; reference "
                 f"{'checked' if reference else 'none stored for this seed'}")
    lines += runner.crashes + problems[:20]
    good = [run for run in all_runs if run is not None]
    if len(good) > 1 and problems:
        lines += field_differences(good[0]["records"],
                                   good[1]["records"])[:10]
    correct = failed == 0 and not runner.crashes

    metrics: Dict[str, Tuple[float, str]] = {}
    bases: Dict[str, str] = {}
    done = [run for run in untraced if run is not None]
    if not args.trace and done:
        setups = [run["setup_s"] for run in done] + setups
        values = end_to_end(done, setups, failed, attempted)
        refreshes = sum(len(run["solve_wall_seconds"]) for run in done)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        bases = {
            "setup_s": f"{len(setups)} set-ups",
            "run_s": f"{len(done)} runs",
            "refresh_s_p50": f"{refreshes} refreshes in "
                             f"{len(done)} runs",
            "epoch_ok_ratio": f"{attempted} epochs attempted",
        }
        lines.append("  per run: run_s "
                     + " ".join(f"{run['run_s']:.3f}" for run in done)
                     + "; setup_s " + " ".join(f"{v:.3f}" for v in setups))
    elif args.trace and done and all(traced):
        per_run = []
        for run in traced:
            spans = [tuple(span) for span in run["spans"]]
            trouble = integrity_problems(
                spans, run["run_id"], run["run_s"],
                workload.expected_spans, workload.absent_spans)
            lines += [f"trace run {run['run_id']}: {p}"
                      for p in trouble[:20]]
            correct = correct and not trouble
            per_run.append(layer_metrics(spans))
        values = median_metrics(per_run, [run["run_s"] for run in done])
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        bases = {name: f"{base} = {values[base]:g}"
                 for name, base in BASES.items()}
        bases["trace.overhead_s"] = (f"{len(traced)} traced, {len(done)} "
                                     f"untraced runs")
        lines.append("  per run: run_s untraced "
                     + " ".join(f"{run['run_s']:.3f}" for run in done)
                     + "; traced "
                     + " ".join(f"{run['run_s']:.3f}" for run in traced))
    else:
        correct = False

    for name, (value, unit) in metrics.items():
        suffix = f"   [{bases[name]}]" if name in bases else ""
        lines.append(f"  {name:42s} {value:>16.6g} {unit}{suffix}")

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "runtime" / "scenario.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scratch = ROOT / SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result, lines = measure(args, Runner(args.workload, args.seed,
                                             scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another invocation's files are still there
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
