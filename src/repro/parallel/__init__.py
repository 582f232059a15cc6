"""Sharded parallel execution: multi-worker sketching and simulation.

The pipeline's fan-out layer. :class:`ShardPlan` partitions work into
disjoint, deterministic shards; :func:`run_sharded` executes a worker
function over the shards in a forked process pool (payload delivered by
fork inheritance, per-worker telemetry snapshots merged back into the
parent registry, failures re-raised as :class:`ShardError` naming the
failed shard's keys). The fan-outs built on it are campaign simulation
(:func:`repro.netsim.simulator.simulate_regions`, driven by the CLI's
global ``--workers`` flag) and :func:`sketch_records_parallel`.
Ingest and scoring are not sharded: on the hosts measured, a forked
reader lost to the serial one (the parent spent longer unpickling the
workers' records than parsing), and splitting scoring by region cost
more in fork and merge overhead than it saved. Parallel output is
bit-identical to serial output by construction — see each module's
docstring for the argument.
"""

from .plan import ShardPlan
from .pool import ShardError, fork_available, run_sharded
from .sketching import sketch_records_parallel

__all__ = [
    "ShardPlan",
    "ShardError",
    "fork_available",
    "run_sharded",
    "sketch_records_parallel",
]
