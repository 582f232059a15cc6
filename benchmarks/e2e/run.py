#!/usr/bin/env python3
"""End-to-end IQB benchmark: the shipped CLI under four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload refresh --seed 42 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --workload serve_follow --seed 42 --trace 1
    python3 benchmarks/e2e/run.py --repeat 10 --seed 100      # calibration

One run generates its inputs from ``--seed``, drives ``python -m
repro`` in subprocesses for ``--seconds`` of measurement, checks the
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("refresh", "warm_start", "serve_read", "serve_follow")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measurement time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat",
        type=int,
        default=0,
        metavar="N",
        help="calibrate: run each workload (default: all) N times with seeds "
        "SEED..SEED+N-1 and print each metric's median and quartiles",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=HERE / "out",
        help="where --trace 1 writes its Chrome trace and layer table",
    )
    args = parser.parse_args(argv)
    if args.repeat <= 0 and args.workload is None:
        parser.error("--workload is required (or --repeat N to calibrate)")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            f"e2e: error: needs the program source at {SRC / 'repro'} and "
            f"{SPEC.name} at the checkout root",
            file=sys.stderr,
        )
        return 2
    # A terminated run still unwinds: servers get stopped, scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.repeat > 0:
        return calibrate(spec, args, seconds)
    return run_once(spec, args.workload, args.seed, seconds, args.trace, args.out)


def run_once(
    spec: dict, workload: str, seed: int, seconds: float, trace: int, out: Path
) -> int:
    sys.path.insert(0, str(SRC))
    from campaign import region_counts, write_campaign
    from workloads import WORKLOADS, Context, Tally

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    python_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        campaign = work / "campaign.jsonl"
        write_campaign(campaign, seed)
        gc.collect()
        ctx = Context(
            seed=seed,
            seconds=seconds,
            work=work,
            env={**os.environ, "PYTHONPATH": python_path},
            campaign=campaign,
            lines=campaign.read_bytes().splitlines(keepends=True),
            counts=region_counts(seed),
            tally=tally,
        )
        if trace:
            from layers import traced_run

            values = traced_run(ctx, workload, out)
        else:
            values = WORKLOADS[workload](ctx)
    except Exception:  # noqa: BLE001 - report the failure, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        print(
            f"e2e: error: measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}",
            file=sys.stderr,
        )
        return 1
    metrics = {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in declared
    }
    print(
        f"{workload} seed={seed} seconds={seconds:g} trace={trace}: "
        + ", ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    )
    for problem in tally.problems:
        print(f"e2e: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def calibrate(spec: dict, args: argparse.Namespace, seconds: float) -> int:
    """Run each workload ``--repeat`` times and report medians and spreads.

    The spread is the interquartile range over the median, the figure a
    metric's ``bound`` in BENCHMARK.json must stay above (by 3x, so a
    later change is judged against noise well inside its bound).
    """
    import statistics

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary: Dict[str, dict] = {}
    ok = True
    for workload in workloads:
        values: Dict[str, List[float]] = {metric["name"]: [] for metric in declared}
        walls = []
        for i in range(args.repeat):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed + i),
                "--seconds", f"{seconds:g}", "--trace", str(args.trace),
                "--out", str(args.out),
            ]
            started = time.perf_counter()
            proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
            try:
                stdout, stderr = proc.communicate()
            except BaseException:
                # SIGTERM, not SIGKILL: the run stops its servers first.
                proc.terminate()
                proc.communicate()
                raise
            walls.append(time.perf_counter() - started)
            if proc.returncode != 0:
                ok = False
                print(f"{workload} seed {args.seed + i}: exit {proc.returncode}\n{stderr}",
                      file=sys.stderr)
                continue
            result = json.loads(stdout.strip().splitlines()[-1])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.repeat} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary[workload] = {"wall_s": walls}
        for metric in declared:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = metric.get("bound")
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:<30} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {'' if bound is None else bound:>6}{flag}")
            summary[workload][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": series,
            }
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
