"""Seeded benchmark inputs: the Zipf campaign, rotations, follow batches.

Everything here is a pure function of the seed, so two runs with the
same ``--seed`` feed the program byte-identical files. The program
under test only ever sees the files; nothing is handed over in memory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

import repro
from repro.measurements.io import write_jsonl
from repro.netsim import CampaignConfig, REGION_PRESETS, region_preset, simulate_region

REGIONS = 256
TOTAL_RECORDS = 100_000
MIN_PER_REGION = 30
#: Link-pool size per region. Tests are drawn from this pool, so it
#: shapes the distributions only mildly, but it sets generation time.
SUBSCRIBERS = 40
#: Each simulated region yields one test per client per round; the
#: default client set is NDT, Cloudflare and Ookla.
CLIENTS = 3
#: The refresh workload reads 8 rotations of the campaign file.
ROTATIONS = 8
#: Follow batches: records appended into existing regions, and records
#: in the batch's own new marker region ``fresh-NNN``.
FOLLOW_EXISTING = 40
FOLLOW_FRESH = 10


def region_names() -> Tuple[str, ...]:
    return tuple(f"r{i:03d}" for i in range(REGIONS))


def region_counts(seed: int) -> List[int]:
    """Records per region: a seeded Zipf(1) split of ``TOTAL_RECORDS``.

    Rank ``k`` gets a share proportional to ``1/k`` and the seed decides
    which region holds which rank. This is an assumption, not a fit to
    measured per-region test counts: city populations follow Zipf's law
    with an exponent near 1 (Gabaix, "Zipf's Law for Cities: An
    Explanation", QJE 114(3), 1999), and crowdsourced test counts are
    assumed to scale with population.
    """
    ranks = np.random.default_rng(seed).permutation(REGIONS) + 1
    weights = 1.0 / ranks
    shares = TOTAL_RECORDS * weights / weights.sum()
    return [max(MIN_PER_REGION, int(round(share))) for share in shares]


def simulate_campaign(seed: int, first: int = 0, stop: int = REGIONS) -> list:
    """Records of regions ``first..stop-1``; region ``i`` is simulated
    with seed ``seed+i``, so any split of the range yields the same
    records as the whole."""
    presets = sorted(REGION_PRESETS)
    names, counts = region_names(), region_counts(seed)
    records: list = []
    for i in range(first, stop):
        profile = dataclasses.replace(
            region_preset(presets[i % len(presets)]), name=names[i]
        )
        config = CampaignConfig(
            subscribers=SUBSCRIBERS,
            tests_per_client=max(1, round(counts[i] / CLIENTS)),
        )
        records.extend(simulate_region(profile, seed=seed + i, config=config))
    return records


def write_campaign(path: Path, seed: int) -> None:
    """Write the campaign as JSONL.

    A child process simulates the regions holding the second half of
    the records into a part file while this process writes the first
    half; the part is then appended, so the bytes equal a one-process
    write, made in about half the time.
    """
    cumulative = np.cumsum(region_counts(seed))
    cut = int(np.searchsorted(cumulative, cumulative[-1] / 2)) + 1
    part = path.with_name(path.name + ".part")
    src = str(Path(repro.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": python_path}
    child = subprocess.Popen(
        [sys.executable, __file__, str(part), str(seed), str(cut), str(REGIONS)], env=env
    )
    try:
        write_jsonl(simulate_campaign(seed, 0, cut), path)
    except BaseException:
        child.kill()
        raise
    finally:
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"campaign part writer exited {child.returncode}")
    with open(path, "ab") as joined, open(part, "rb") as piece:
        shutil.copyfileobj(piece, joined)
    part.unlink()


def rotate(lines: Sequence[bytes], k: int) -> bytes:
    """The file rotated by ``k·n/ROTATIONS`` lines.

    Every rotation holds the same records, so exact scores must not
    change, but the bytes differ, so a content-keyed cache cannot skip
    the work.
    """
    shift = (k % ROTATIONS) * len(lines) // ROTATIONS
    return b"".join(lines[shift:]) + b"".join(lines[:shift])


def follow_batches(lines: Sequence[bytes], seed: int, count: int) -> List[bytes]:
    """``count`` appendable JSONL batches for the follow workload.

    Batch ``k`` copies ``FOLLOW_EXISTING`` random campaign lines (so it
    lands in existing regions) and ``FOLLOW_FRESH`` more relabelled to
    the new region ``fresh-k``, whose first appearance in ``/v1/scores``
    marks the batch as served.
    """
    rng = np.random.default_rng([seed, 1])
    batches = []
    for k in range(count):
        picks = rng.integers(0, len(lines), FOLLOW_EXISTING + FOLLOW_FRESH)
        chunk = [lines[i] for i in picks[:FOLLOW_EXISTING]]
        for i in picks[FOLLOW_EXISTING:]:
            document = json.loads(lines[i])
            document["region"] = fresh_region(k)
            chunk.append(json.dumps(document, sort_keys=True).encode() + b"\n")
        batches.append(b"".join(chunk))
    return batches


def fresh_region(k: int) -> str:
    return f"fresh-{k:03d}"


@dataclasses.dataclass(frozen=True)
class Request:
    """One scheduled GET: due offset from the phase start, and target."""

    due_s: float
    path: str
    conditional: bool = False


#: The /v1 read mix, in draw order: ``/v1/scores``, ``/v1/national``,
#: one region's breakdown, and a conditional ``/v1/scores`` replaying
#: the last ETag seen. The shares are an assumption, not read from an
#: access log (README.md, "Assumptions").
READ_MIX = (("scores", 0.7), ("national", 0.1), ("region", 0.1), ("304", 0.1))


def request_schedule(
    seed: int, rate: float, seconds: float, weights: Sequence[int]
) -> List[Request]:
    """A seeded open-loop schedule of ``READ_MIX``: Poisson arrivals at
    ``rate`` req/s, regions drawn with the campaign's own Zipf weights.

    The request count is fixed at ``rate·seconds`` so every run reports
    the same percentiles.
    """
    rng = np.random.default_rng([seed, 2, int(rate)])
    count = max(1, int(round(rate * seconds)))
    dues = np.cumsum(rng.exponential(1.0 / rate, count))
    kinds = np.searchsorted(np.cumsum([share for _, share in READ_MIX]), rng.random(count), "right")
    p = np.asarray(weights, dtype=float)
    regions = rng.choice(len(p), size=count, p=p / p.sum())
    names = region_names()
    schedule = []
    for due, kind, region in zip(dues.tolist(), kinds.tolist(), regions.tolist()):
        route = READ_MIX[kind][0]
        if route == "region":
            path = f"/v1/scores/{names[region]}"
        else:
            path = "/v1/national" if route == "national" else "/v1/scores"
        schedule.append(Request(due, path, conditional=route == "304"))
    return schedule


if __name__ == "__main__":
    # The part writer ``write_campaign`` starts: PATH SEED FIRST STOP.
    part_path, part_seed, first_region, stop_region = sys.argv[1:]
    write_jsonl(
        simulate_campaign(int(part_seed), int(first_region), int(stop_region)), part_path
    )
