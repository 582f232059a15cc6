"""Subprocess tests for the CLI error paths and the metrics snapshot.

These run ``python -m repro`` as a real child process: the contract
under test is the *process* one — exit status, one-line stderr, no
traceback — which in-process ``main()`` calls cannot fully pin down.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

GOOD_LINE = (
    '{"region": "r1", "source": "ndt", "timestamp": 1.0, '
    '"download_mbps": 50.0, "upload_mbps": 10.0, "latency_ms": 20.0, '
    '"packet_loss": 0.01}'
)


def run_cli(*args):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )


@pytest.fixture()
def dirty_file(tmp_path):
    path = tmp_path / "dirty.jsonl"
    path.write_text(GOOD_LINE + "\n{broken\n" + GOOD_LINE + "\n")
    return path


class TestMissingInput:
    def test_exit_2_one_line_no_traceback(self, tmp_path):
        result = run_cli("score", str(tmp_path / "nonexistent.jsonl"))
        assert result.returncode == 2
        assert result.stderr.startswith("iqb: error:")
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Traceback" not in result.stderr

    def test_other_readers_share_the_handler(self, tmp_path):
        result = run_cli("report", str(tmp_path / "gone.jsonl"), "r1")
        assert result.returncode == 2
        assert "iqb: error:" in result.stderr
        assert "Traceback" not in result.stderr


class TestMalformedInput:
    def test_raise_mode_exits_2_with_location(self, dirty_file):
        result = run_cli("score", str(dirty_file))
        assert result.returncode == 2
        assert result.stderr.startswith("iqb: error:")
        assert "dirty.jsonl:2" in result.stderr
        assert "Traceback" not in result.stderr

    def test_skip_mode_succeeds_and_warns_on_stderr(self, dirty_file):
        result = run_cli("score", str(dirty_file), "--on-error", "skip")
        assert result.returncode == 0
        assert "r1" in result.stdout
        assert "skipped 1 malformed line(s)" in result.stderr

    def test_skip_warning_in_jsonl_mode_is_parseable(self, dirty_file):
        result = run_cli(
            "--log-json", "score", str(dirty_file), "--on-error", "skip"
        )
        assert result.returncode == 0
        events = [
            json.loads(line)
            for line in result.stderr.splitlines()
            if line.startswith("{")
        ]
        skip_events = [
            e for e in events if "skipped" in e["event"]
        ]
        assert skip_events
        assert skip_events[0]["level"] == "warning"
        assert skip_events[0]["ctx"] == {"read": 2, "skipped": 1}


    def test_skip_mode_drops_a_null_region_line(self, tmp_path):
        null_region = GOOD_LINE.replace('"r1"', "null")
        path = tmp_path / "null_region.jsonl"
        path.write_text("\n".join([GOOD_LINE, null_region, GOOD_LINE]) + "\n")
        result = run_cli(
            "--log-json", "score", str(path), "--on-error", "skip", "--json"
        )
        assert result.returncode == 0, result.stderr
        assert sorted(json.loads(result.stdout)["regions"]) == ["r1"]
        events = [
            json.loads(line)
            for line in result.stderr.splitlines()
            if line.startswith("{")
        ]
        skips = [e["ctx"] for e in events if "skipped" in e["event"]]
        assert skips == [{"read": 2, "skipped": 1}]


#: Flags outside their range, each rejected where the CLI turns it
#: into an object or, by name, where its command starts.
OUT_OF_RANGE = [
    "simulate {out} --tests 0",
    "simulate {out} --subscribers 0",
    "simulate {out} --days 0",
    "simulate {out} --wifi-share 1.5",
    "metrics --subscribers 0",
    "metrics --failure-rate 2",
    "adaptive --rounds 0",
    "adaptive --subscribers 0",
    "adaptive --budget 0",
    "adaptive --pilot 1",
    "monitor {data} --window-days 0",
    "health {data} --window-days 0",
    "trend {data} r1 --window-days 0",
    "sweep {data} r1 --percentiles 150",
    "monitor {data} --trailing 0",
    "serve {data} --port 70000",
    "serve {data} --port 0 --follow inf",
    "serve {data} --port 0 --follow nan",
    "serve {data} --port 0 --follow -1",
    "serve {data} --port 0 --drain-timeout nan",
    "serve {data} --port 0 --drain-timeout inf",
    "serve {data} --port 0 --drain-timeout -1",
    "cache build {data} --cache {out} --period-days 0",
]


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "command",
        OUT_OF_RANGE,
        ids=[c.replace("{out} ", "").replace("{data} ", "") for c in OUT_OF_RANGE],
    )
    def test_exit_2_one_line_no_traceback(self, command, tmp_path):
        data = tmp_path / "good.jsonl"
        data.write_text(GOOD_LINE + "\n")
        out = tmp_path / "out.jsonl"
        result = run_cli(*command.format(data=data, out=out).split())
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("iqb: error:")
        assert len(result.stderr.strip().splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert not out.exists()


class TestMetricsCommand:
    def test_snapshot_covers_the_whole_pipeline(self, dirty_file):
        result = run_cli(
            "metrics", str(dirty_file), "--probes", "20",
            "--failure-rate", "0.3", "--seed", "7",
        )
        assert result.returncode == 0
        snapshot = json.loads(result.stdout)
        counters = snapshot["counters"]
        # Probe infrastructure health.
        assert counters["probe.runner.scheduled"] > 0
        assert counters["probe.runner.retried"] > 0
        assert "probe.runner.abandoned" in counters
        # Ingest accounting from the dirty input file.
        assert counters["ingest.jsonl.lines"] == 2
        assert counters["ingest.jsonl.skipped"] == 1
        # Quantile-cache effectiveness (PR 1's memoization, verified
        # from a production-style run).
        assert counters["quantile_cache.columnar.misses"] > 0
        assert counters["quantile_cache.columnar.hits"] > 0
        assert counters["quantile_cache.columnar.sorts"] > 0
        # Per-backend latency histogram and pipeline spans.
        timers = snapshot["timers"]
        assert timers["probe.latency.SimulatedBackend"]["count"] > 0
        for stage in ("pipeline", "probe", "ingest", "score"):
            assert timers[f"span.{stage}"]["count"] == 1

    def test_text_rendering(self):
        result = run_cli("metrics", "--probes", "5", "--text")
        assert result.returncode == 0
        assert "counter probe.runner.scheduled" in result.stdout
        assert "timer   span.pipeline" in result.stdout

    def test_debug_logging_emits_span_events(self):
        result = run_cli(
            "--log-level", "debug", "--log-json", "metrics", "--probes", "5"
        )
        assert result.returncode == 0
        events = [
            json.loads(line)
            for line in result.stderr.splitlines()
            if line.startswith("{")
        ]
        span_paths = {
            e["ctx"]["span"]
            for e in events
            if e["event"] == "span exit" and "span" in e.get("ctx", {})
        }
        assert "pipeline" in span_paths
        assert "pipeline/score/score_regions" in span_paths
