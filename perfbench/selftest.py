"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py            # about a minute

1. Output check: a one-ulp change in one field of one epoch fails
   exactly that epoch, against the stored reference and against the
   other runs.
2. Traced-run integrity: a real traced run passes, and each kind of
   damage (a span of another run, a dangling parent, a second root, a
   missing layer, a child outside its parent, self times that do not
   add up to the run) is reported.
3. Declared metrics: the metrics computed from real runs are exactly
   the ones ``BENCHMARK.json`` declares.

Exits 0 when every test passes.
"""

from __future__ import annotations

import math
import shutil
import sys
from typing import List

from check import epoch_digest, failed_epochs
from ledger import (PER_LAYER, in_declared_order, integrity_problems,
                    layer_metrics, median_metrics)
from run import END_TO_END, ROOT, SCRATCH, Runner, end_to_end
from workloads import WORKLOADS

WORKLOAD = "cascading-sketch-tinet"
SEED = 3


def _check(ok: bool, label: str, failures: List[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def test_one_ulp(runs: List[dict], failures: List[str]) -> None:
    records = runs[0]["records"]
    epochs = len(records)
    reference = [epoch_digest(r) for r in records]
    failed, _ = failed_epochs([r["records"] for r in runs], epochs,
                              reference)
    _check(failed == 0, "untouched runs agree with each other and the "
           "reference", failures)
    for field in ("coverage_min", "lp_load_cost", "duplication_max"):
        epoch = next(i for i, r in enumerate(records)
                     if isinstance(r[field], float))
        bumped = [dict(r) for r in records]
        bumped[epoch][field] = math.nextafter(bumped[epoch][field],
                                              math.inf)
        failed, problems = failed_epochs([records, bumped], epochs,
                                         reference)
        # The bumped epoch fails against the reference and run 0;
        # run 0's copy of that epoch fails against run 1.
        _check(failed == 2 and all(f"epoch {epoch}:" in p
                                   for p in problems),
               f"one-ulp change in epoch {epoch} {field} is flagged",
               failures)
        failed, _ = failed_epochs([bumped], epochs, reference)
        _check(failed == 1, f"one-ulp change in {field} fails the "
               "reference alone", failures)
    failed, _ = failed_epochs([records, None], epochs, reference)
    _check(failed == epochs, "a crashed run fails all its epochs",
           failures)


def test_integrity(run: dict, failures: List[str]) -> None:
    workload = WORKLOADS[WORKLOAD]
    spans = [tuple(s) for s in run["spans"]]
    run_id, run_s = run["run_id"], run["run_s"]

    def problems(damaged, run_s: float = run_s) -> List[str]:
        return integrity_problems(damaged, run_id, run_s,
                                  workload.expected_spans,
                                  workload.absent_spans)

    found = problems(spans)
    _check(not found, f"real traced run is sound {found[:3]}", failures)
    root = next(s for s in spans if s[1] is None)
    leaf = next(s for s in spans if s[1] is not None)
    index = spans.index(leaf)

    def replaced(new) -> list:
        return spans[:index] + [new] + spans[index + 1:]

    cases = {
        "span of another run": replaced(
            (leaf[0], leaf[1], run_id + 1) + leaf[3:]),
        "dangling parent": replaced((leaf[0], -5) + leaf[2:]),
        "second root": replaced((leaf[0], None) + leaf[2:]),
        "missing layer (renamed upstream)": [
            s for s in spans if s[3] != "ingest.consume"
            and s[3] != "sketch.observe_batch"],
        "child outside its parent": replaced(
            leaf[:4] + (root[4] - 1.0,) + leaf[5:]),
    }
    for label, damaged in cases.items():
        _check(bool(problems(damaged)), f"integrity flags {label}",
               failures)
    _check(bool(problems(spans, run_s + 0.01)),
           "integrity flags self times that miss 10 ms of the run",
           failures)


def test_declared(runs: List[dict], traced: dict,
                  failures: List[str]) -> None:
    try:
        values = end_to_end(runs, [run["setup_s"] for run in runs], 0, 1)
        _check(list(values) == [name for name, _ in END_TO_END],
               "end-to-end metrics are the declared ones", failures)
        spans = [tuple(s) for s in traced["spans"]]
        values = median_metrics([layer_metrics(spans)],
                                [run["run_s"] for run in runs])
        _check(list(values) == [name for name, _ in PER_LAYER],
               "per-layer metrics are the declared ones", failures)
    except ValueError as error:
        _check(False, f"metrics match BENCHMARK.json: {error}", failures)
    try:
        in_declared_order({"not.declared": 1.0}, END_TO_END)
        flagged = False
    except ValueError:
        flagged = True
    _check(flagged, "an undeclared metric is refused", failures)


def main() -> int:
    scratch = ROOT / SCRATCH / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    failures: List[str] = []
    try:
        runner = Runner(WORKLOAD, SEED, scratch)
        runs = [runner.spawn("run"), runner.spawn("run")]
        traced = runner.spawn("trace")
        if None in runs or traced is None:
            print("\n".join(runner.crashes))
            return 1
        test_one_ulp(runs + [traced], failures)
        test_integrity(traced, failures)
        test_declared(runs, traced, failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
