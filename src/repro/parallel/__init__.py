"""Sharded parallel execution: multi-worker ingest, sketching, simulation.

The pipeline's fan-out layer. :class:`ShardPlan` partitions work into
disjoint, deterministic shards; :func:`run_sharded` executes a worker
function over the shards in a forked process pool (payload delivered by
fork inheritance, per-worker telemetry snapshots merged back into the
parent registry, failures re-raised as :class:`ShardError` naming the
failed shard's keys). The fan-outs built on it are the
``read_*_parallel`` readers (driven by the CLI's global ``--workers``
flag), :func:`sketch_records_parallel`, and campaign simulation
(:func:`repro.netsim.simulator.simulate_regions`). Scoring is not
sharded: splitting it by region cost more in fork and merge overhead
than it saved. Parallel output is bit-identical to serial output
by construction — see each module's docstring for the argument.
"""

from .ingest import (
    read_csv_parallel,
    read_jsonl_parallel,
    split_line_ranges,
)
from .plan import ShardPlan
from .pool import ShardError, fork_available, run_sharded
from .sketching import sketch_records_parallel

__all__ = [
    "ShardPlan",
    "ShardError",
    "fork_available",
    "run_sharded",
    "sketch_records_parallel",
    "read_jsonl_parallel",
    "read_csv_parallel",
    "split_line_ranges",
]
