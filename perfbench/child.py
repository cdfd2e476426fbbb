"""One scenario run in a fresh process; ``run.py`` starts one per run.

Modes:
    warmup  import the layers (fills the bytecode cache), then exit.
    setup   import and build the workload's scenario, then exit.
    run     set up, then play the scenario untraced.
    trace   set up, then play it with a span at every layer boundary.

The result (set-up and run seconds, peak RSS, the per-epoch records
and, when traced, every span) is written as JSON to ``--out``.
"""

import time

PROCESS_START = time.perf_counter()  # before anything imports repro

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("warmup", "setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from workloads import build_scenario

    from repro.runtime.scenario import run_scenario

    if args.mode == "warmup":
        import importlib

        from tracer import TARGETS

        for module_name, *_ in TARGETS:
            importlib.import_module(module_name)
        args.out.write_text("{}")
        return

    scenario = build_scenario(args.workload, args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        out.update(_play(scenario, run_scenario, args))
    args.out.write_text(json.dumps(out))


def _play(scenario, run_scenario, args) -> dict:
    workdir = args.out.parent / f"work-{args.run_id}"
    call = run_scenario
    spans = None
    if args.mode == "trace":
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
        call = tracer.wrap(ROOT_SPAN, run_scenario)
        spans = tracer.spans
    try:
        start = time.perf_counter()
        report = call(scenario, workdir=workdir)
        run_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": run_s,
        "peak_rss_mb": rss,
        "records": [r.deterministic_dict() for r in report.records],
        "solve_wall_seconds": [r.solve_wall_seconds
                               for r in report.records
                               if r.solve_wall_seconds is not None],
        "spans": spans,
    }


if __name__ == "__main__":
    main()
