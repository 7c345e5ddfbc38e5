"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload optimize_dp --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the same ops once untraced and once traced, and reports the
per-layer metrics plus the ratio of the two throughputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: Exit code for a refused configuration or a checkout without the program.
EXIT_REFUSED = 2

WORKLOADS = ("optimize_dp", "truth_large", "eval_sweep", "lint_self")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _refuse(payload: Dict[str, object]) -> int:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return EXIT_REFUSED


def _make_workload(name: str):
    if name == "optimize_dp":
        from wl_optimize_dp import OptimizeDP

        return OptimizeDP()
    if name == "truth_large":
        from wl_truth_large import TruthLarge

        return TruthLarge()
    if name == "eval_sweep":
        from wl_eval_sweep import EvalSweep

        return EvalSweep()
    from wl_lint_self import LintSelf

    return LintSelf(SOURCE)


def _timed_setups(workload, seed: int, morsel_workers: int):
    """Set up ``workload.setups`` times; keep the last state."""
    seconds: List[float] = []
    state = None
    for _ in range(workload.setups):
        if state is not None:
            workload.teardown(state)
        started = time.perf_counter()
        state = workload.setup(seed, morsel_workers)
        seconds.append(time.perf_counter() - started)
    return state, seconds


def _print_metric(name: str, entry: Dict[str, object]) -> None:
    print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']:<6} (n={entry['n']})")


def run(args) -> Dict[str, object]:
    from loop import run_phase
    from machine import machine_record
    from probes import instrumentation
    from report import END_TO_END, PER_LAYER, end_to_end_metrics, layer_metrics
    from report import peak_rss_mb, self_time_errors
    from spans import Tracer

    workload = _make_workload(args.workload)
    print("machine " + json.dumps(machine_record(args.morsel_workers), sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace}"
    )
    failures: List[Tuple[str, str]] = []
    attempted = 0
    if not args.trace:
        state, setup_seconds = _timed_setups(workload, args.seed, args.morsel_workers)
        try:
            results, elapsed = run_phase(workload, state, args.seconds)
            peak = peak_rss_mb()
            checked, report = workload.verify(state, results, None)
        finally:
            workload.teardown(state)
        attempted = len(results)
        failures = [(r.op_id, r.error) for r in results if r.error] + checked
        measured = end_to_end_metrics(setup_seconds, results, elapsed, peak)
        print("end-to-end (untraced):")
        for name, entry in measured.items():
            _print_metric(name, entry)
        if "op_ms_p90" not in measured:
            print(f"  op_ms_p90 not reported: fewer than 100 ops ({len(results)})")
        metrics = {name: measured[name] for name in END_TO_END}
    else:
        setup_tracer = Tracer()
        with instrumentation(setup_tracer):
            with setup_tracer.root("setup", kind="setup", name="bench.setup"):
                state = workload.setup(args.seed, args.morsel_workers)
        try:
            plain, plain_elapsed = run_phase(workload, state, args.seconds)
            tracer = Tracer()
            with instrumentation(tracer):
                traced, traced_elapsed = run_phase(
                    workload, state, args.seconds, tracer, phase="traced-"
                )
            # One check pass over both phases: they repeat the same items.
            checked, report = workload.verify(state, plain + traced, tracer)
        finally:
            workload.teardown(state)
        failures += [(r.op_id, r.error) for r in plain + traced if r.error] + checked
        failures += self_time_errors(tracer)
        attempted = len(plain) + len(traced)
        overhead = (len(traced) / traced_elapsed) / (len(plain) / plain_elapsed)
        values = layer_metrics(tracer, setup_tracer, report, overhead)
        print("per-layer (traced):")
        for name, value in values.items():
            _print_metric(name, {"value": value, "unit": PER_LAYER[name][0], "n": len(traced)})
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        setup_tracer.records.extend(tracer.records)
        setup_tracer.write_jsonl(trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name][0]} for name, value in values.items()
        }
    for name, value in report.items():
        print(f"  report {name}: {value}")
    failed_ops = len({op_id for op_id, _ in failures})
    print(f"  ops_failed_ratio {failed_ops / max(attempted, 1):.6g} ({failed_ops}/{attempted})")
    for op_id, reason in failures[:20]:
        print(f"  FAILED {op_id}: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--morsel-workers",
        type=int,
        default=None,
        help="workers of the parallel engine's wide column (default min(2, CPUs))",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        return _refuse({"error": "missing-program", "message": f"no package under {SOURCE}"})
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    from machine import ConfigError, default_morsel_workers, validate_config

    if args.morsel_workers is None:
        args.morsel_workers = default_morsel_workers()
    try:
        validate_config(args.morsel_workers)
    except ConfigError as exc:
        return _refuse(exc.to_dict())
    try:
        result = run(args)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
