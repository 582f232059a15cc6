#!/usr/bin/env python
"""Scoring-benchmark regression gate.

Runs the scale, Eq. 1-5 scoring, kernel, streaming, health, serving
and cache benches under ``pytest-benchmark``, writes the
machine-readable results to ``BENCH_scale.json``, and fails (exit
code 1) when any scoring benchmark regresses more than the allowed
fraction (default 20%) against the checked-in baseline
``benchmarks/BENCH_baseline.json``.

Two measures keep the gate meaningful on shared/noisy machines, where
raw wall-clock medians of an *unchanged* tree swing far beyond 20%
between runs:

* each bench is compared on its **min** round time (the
  least-disturbed round; the classic noise-robust statistic), and
* per-bench ratios are **drift-normalized** by the cohort's median
  ratio, which cancels whole-machine speed differences between the
  baseline run and this run. A real regression stands out against the
  cohort; a slow CI box does not. (The flip side — a change that
  slows *every* bench by the same factor is invisible here — is an
  accepted tradeoff; the per-bench assertions inside the bench files
  still bound absolute behaviour.)

On top of the relative threshold, a bench must also be at least
``--slack`` seconds (default 0.5ms) slower than its drift-adjusted
baseline to count as a regression: sub-millisecond microbenches
jitter by double-digit percentages between processes (allocator and
layout effects), and a relative-only gate would flag them forever.

When the first run still reports regressions the gate re-runs the
benches (up to ``--retries`` extra passes) and keeps each bench's
best-of-all-runs time before re-comparing. Load spikes during a
~50s sequential bench run hit different benches in different runs,
so the per-bench minimum converges on quiet-machine numbers; a real
regression is slow in every run and survives the merge.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py
    PYTHONPATH=src python benchmarks/compare_bench.py --threshold 0.1
    PYTHONPATH=src python benchmarks/compare_bench.py --update-baseline

``--update-baseline`` re-records the baseline from the fresh run (use
after an intentional perf change, and commit the result). Benchmarks
present in only one of the two files are reported but never fail the
gate, so adding a bench does not break CI until a baseline exists.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BASELINE_PATH = BENCH_DIR / "BENCH_baseline.json"
RESULTS_PATH = REPO_ROOT / "BENCH_scale.json"
BENCH_FILES = (
    "test_bench_scale.py",
    "test_bench_eq_scoring.py",
    "test_bench_kernel.py",
    "test_bench_streaming.py",
    "test_bench_health.py",
    "test_bench_serve.py",
    "test_bench_cache.py",
)



def claim_bench_files() -> List[str]:
    """The experiment benches outside :data:`BENCH_FILES`, repo-relative.

    Each reproduces a paper figure, table or extension claim and
    asserts its qualitative shape; none is timed against the baseline.
    ``make claims`` runs them once as plain tests (``--benchmark-disable``).
    """
    return sorted(
        str(path.relative_to(REPO_ROOT))
        for path in BENCH_DIR.glob("test_bench_*.py")
        if path.name not in BENCH_FILES
    )


#: The pair of kernel benches the summary speedup ratio is read from.
SPEEDUP_BENCHES = (
    "test_bench_exact_kernel[256]",
    "test_bench_vectorized_kernel[256]",
)

#: Batch recompute vs incremental streaming re-score at a 100k-record
#: buffered window (see test_bench_streaming.py).
STREAMING_BENCHES = (
    "test_bench_batch_rescore",
    "test_bench_incremental_rescore",
)

#: Invalidated kernel sweep vs warm cached read on the 256-region
#: serving plane (see test_bench_serve.py).
SERVE_BENCHES = (
    "test_bench_serve_cold_sweep",
    "test_bench_serve_warm_read",
)

#: Cold JSONL re-ingest vs tile warm-start on the 100k-record
#: campaign (see test_bench_cache.py).
CACHE_BENCHES = (
    "test_bench_cold_reingest",
    "test_bench_cache_warm_start",
)


def run_benches(results_path: Path) -> int:
    """Run the scoring benches, writing pytest-benchmark JSON."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        *[str(BENCH_DIR / name) for name in BENCH_FILES],
        "-q",
        "--benchmark-only",
        # One timer for the whole cohort: drift normalization divides
        # every bench by the cohort median ratio, which is only sound
        # when all benches move with the same clock. CPU time also
        # shields the gate from noisy-neighbour wall-clock swings.
        "--benchmark-timer=time.process_time",
        "--benchmark-warmup=on",
        "--benchmark-warmup-iterations=1",
        "--benchmark-min-rounds=7",
        f"--benchmark-json={results_path}",
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT)
    return completed.returncode


def load_times(path: Path, stat: str = "min") -> Dict[str, float]:
    """benchmark name → ``stat`` seconds from a pytest-benchmark JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return {
        bench["name"]: float(bench["stats"][stat])
        for bench in document.get("benchmarks", [])
    }


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    threshold: float,
    slack: float = 0.0005,
) -> int:
    """Print the comparison table; return the number of regressions.

    Ratios are drift-normalized: each bench's current/baseline ratio
    is divided by the cohort's median ratio, so a uniformly slower or
    faster machine cancels out and only per-bench outliers regress.
    A bench must exceed the relative threshold *and* be more than
    ``slack`` seconds over its drift-adjusted baseline to regress.
    """
    regressions = 0
    width = max((len(name) for name in current), default=10)
    ratios = {
        name: current[name] / baseline[name]
        for name in current
        if baseline.get(name, 0.0) > 0.0
    }
    drift = _median(ratios.values()) if ratios else 1.0
    if drift <= 0.0:
        drift = 1.0
    print(f"machine drift vs baseline run: {drift:.2f}x (cohort median)")
    print(
        f"{'benchmark'.ljust(width)}  baseline    current     ratio"
        f"  normalized"
    )
    for name in sorted(current):
        value = current[name]
        base = baseline.get(name)
        if base is None or base <= 0.0:
            print(f"{name.ljust(width)}  {'n/a':>9}  {value:9.6f}  (no baseline)")
            continue
        ratio = ratios[name]
        normalized = ratio / drift
        verdict = ""
        over_relative = normalized > 1.0 + threshold
        over_absolute = (value - base * drift) > slack
        if over_relative and over_absolute:
            verdict = f"  REGRESSION (> +{threshold:.0%})"
            regressions += 1
        elif over_relative:
            verdict = "  (jitter: within absolute slack)"
        print(
            f"{name.ljust(width)}  {base:9.6f}  {value:9.6f}  {ratio:8.2f}x"
            f"  {normalized:8.2f}x{verdict}"
        )
    for name in sorted(set(baseline) - set(current)):
        print(f"{name.ljust(width)}  (in baseline only; not run)")
    return regressions


def kernel_speedup(current: Dict[str, float]):
    """exact/vectorized time ratio on the 256-region kernel bench."""
    exact_name, vectorized_name = SPEEDUP_BENCHES
    exact = current.get(exact_name)
    vectorized = current.get(vectorized_name)
    if not exact or not vectorized:
        return None
    return exact / vectorized


def streaming_speedup(current: Dict[str, float]):
    """batch/incremental time ratio on the 100k streaming benches."""
    batch_name, incremental_name = STREAMING_BENCHES
    batch = current.get(batch_name)
    incremental = current.get(incremental_name)
    if not batch or not incremental:
        return None
    return batch / incremental


def serve_speedup(current: Dict[str, float]):
    """cold-sweep/warm-read time ratio on the 256-region serve bench."""
    cold_name, warm_name = SERVE_BENCHES
    cold = current.get(cold_name)
    warm = current.get(warm_name)
    if not cold or not warm:
        return None
    return cold / warm


def cache_speedup(current: Dict[str, float]):
    """re-ingest/warm-start time ratio on the 100k cache benches."""
    cold_name, warm_name = CACHE_BENCHES
    cold = current.get(cold_name)
    warm = current.get(warm_name)
    if not cold or not warm:
        return None
    return cold / warm


def speedup_note(current: Dict[str, float]) -> str:
    """Human-readable summary of the headline speedup ratios."""
    parts = []
    kernel = kernel_speedup(current)
    if kernel is not None:
        parts.append(
            f"exact/vectorized kernel speedup at 256 regions: {kernel:.1f}x"
        )
    streaming = streaming_speedup(current)
    if streaming is not None:
        parts.append(
            f"batch/incremental streaming re-score speedup at 100k: "
            f"{streaming:.1f}x"
        )
    serve = serve_speedup(current)
    if serve is not None:
        parts.append(
            f"warm-cache serve read speedup at 256 regions: {serve:.0f}x"
        )
    cache = cache_speedup(current)
    if cache is not None:
        parts.append(
            f"cache warm-start speedup at 100k records: {cache:.1f}x"
        )
    if not parts:
        return ""
    return f" ({'; '.join(parts)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed median-time regression fraction (default 0.20)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.0005,
        help=(
            "absolute seconds a bench must exceed its drift-adjusted "
            "baseline by to regress (default 0.0005)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help=(
            "extra bench passes to merge (best-of) when the first "
            "comparison reports regressions (default 2)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record this run as the new checked-in baseline",
    )
    parser.add_argument(
        "--results",
        default=str(RESULTS_PATH),
        help="where to write the fresh benchmark JSON",
    )
    args = parser.parse_args(argv)

    if importlib.util.find_spec("pytest_benchmark") is None:
        print(
            "compare_bench: pytest-benchmark is not installed; "
            "install it (pip install pytest-benchmark) to run the gate",
            file=sys.stderr,
        )
        return 1

    results_path = Path(args.results)
    code = run_benches(results_path)
    if code != 0:
        print(f"benchmark run failed with exit code {code}", file=sys.stderr)
        return code
    if not results_path.exists():
        print(
            f"compare_bench: benchmark run produced no {results_path}; "
            "pytest-benchmark may have collected zero benchmarks",
            file=sys.stderr,
        )
        return 1
    print(f"wrote {results_path}")

    current = load_times(results_path)
    note = speedup_note(current)

    if args.update_baseline:
        shutil.copyfile(results_path, BASELINE_PATH)
        print(f"updated baseline at {BASELINE_PATH}{note}")
        return 0

    if not BASELINE_PATH.exists():
        print(
            f"no baseline at {BASELINE_PATH}; run with --update-baseline "
            f"to record one",
            file=sys.stderr,
        )
        return 1

    baseline = load_times(BASELINE_PATH)
    regressions = compare(baseline, current, args.threshold, args.slack)
    retries_left = max(args.retries, 0)
    while regressions and retries_left:
        retries_left -= 1
        print(
            f"{regressions} apparent regression(s); re-running benches "
            f"and merging best-of times ({retries_left} retries left)"
        )
        code = run_benches(results_path)
        if code != 0:
            print(
                f"benchmark re-run failed with exit code {code}",
                file=sys.stderr,
            )
            return code
        rerun = load_times(results_path)
        current = {
            name: min(value, rerun.get(name, value))
            for name, value in current.items()
        }
        note = speedup_note(current)
        regressions = compare(baseline, current, args.threshold, args.slack)
    if regressions:
        print(
            f"{regressions} benchmark(s) regressed more than "
            f"{args.threshold:.0%} vs {BASELINE_PATH.name}",
            file=sys.stderr,
        )
        return 1
    print("no scoring benchmark regressed beyond the threshold" + note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
