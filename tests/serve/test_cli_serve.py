"""End-to-end tests for ``iqb serve`` as a real subprocess.

These boot the CLI the way an operator (or the CI smoke step) does:
spawn the process, read the ephemeral port off stderr, talk HTTP to
it, and shut it down with real signals: SIGTERM drains and exits 0.
That a drain waits for a request held mid-dispatch is tested in-process
(``tests/serve/test_http_serve.py``).
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.measurements.io import write_jsonl

from tests.serve.conftest import batch

_ADDRESS = re.compile(r"serve: listening on http://([0-9.]+):(\d+)")


def _spawn(arguments, cwd):
    """Launch ``iqb serve`` and return (process, base_url)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=cwd,
        env=env,
        text=True,
    )
    deadline = time.time() + 30.0
    while time.time() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        match = _ADDRESS.search(line)
        if match:
            return process, f"http://{match.group(1)}:{match.group(2)}"
    process.kill()
    stdout, stderr = process.communicate(timeout=10.0)
    raise AssertionError(
        f"serve never announced its address\n"
        f"stdout: {stdout}\nstderr: {stderr}"
    )


def _get(url, etag=None, timeout=10.0):
    request = urllib.request.Request(url)
    if etag is not None:
        request.add_header("If-None-Match", etag)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                dict(response.headers),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def _finish(process, timeout=20.0):
    """SIGTERM the process and return (exit_code, stdout, stderr)."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        stdout, stderr = process.communicate(timeout=10.0)
        raise
    return process.returncode, stdout, stderr


@pytest.fixture()
def fixture_path(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(batch(2), str(path))
    return path


class TestServeLifecycle:
    def test_boot_query_conditional_get_and_sigterm(
        self, fixture_path, tmp_path
    ):
        process, base = _spawn(
            ["serve", str(fixture_path), "--port", "0"], str(tmp_path)
        )
        try:
            status, headers, body = _get(f"{base}/v1/scores")
            assert status == 200
            document = json.loads(body)
            assert document["generation"] == 0
            assert set(document["regions"]) == {
                "region-000",
                "region-001",
            }
            # The ETag round-trips into a 304 on the unchanged plane.
            assert (
                _get(f"{base}/v1/scores", headers["ETag"])[0] == 304
            )
            assert _get(f"{base}/healthz")[0] == 200
        finally:
            code, stdout, _ = _finish(process)
        assert code == 0
        assert "serve: shut down after" in stdout
        assert "(drain timed out)" not in stdout

    def test_manifest_written_on_graceful_exit(
        self, fixture_path, tmp_path
    ):
        manifest = tmp_path / "manifest.json"
        # Global flags go *before* the subcommand.
        process, base = _spawn(
            [
                "--manifest-out",
                str(manifest),
                "serve",
                str(fixture_path),
                "--port",
                "0",
            ],
            str(tmp_path),
        )
        try:
            assert _get(f"{base}/v1/scores")[0] == 200
        finally:
            code, _, _ = _finish(process)
        assert code == 0
        document = json.loads(manifest.read_text())
        assert "serve" in document["command"]


class TestServeFollow:
    def test_follow_ingests_appended_records(
        self, fixture_path, tmp_path
    ):
        process, base = _spawn(
            [
                "serve",
                str(fixture_path),
                "--port",
                "0",
                "--follow",
                "0.05",
            ],
            str(tmp_path),
        )
        try:
            status, headers, body = _get(f"{base}/v1/scores")
            assert status == 200
            assert json.loads(body)["generation"] == 0
            etag = headers["ETag"]

            # Append one new region's records; the follower must pick
            # them up, bump the generation, and retire the ETag.
            import dataclasses

            extra = [
                dataclasses.replace(record, region="region-new")
                for record in batch(1)
            ]
            with open(fixture_path, "a", encoding="utf-8") as handle:
                for record in extra:
                    handle.write(json.dumps(record.to_dict()) + "\n")

            deadline = time.time() + 15.0
            document = None
            while time.time() < deadline:
                status, fresh_headers, body = _get(
                    f"{base}/v1/scores", etag
                )
                if status == 200:
                    document = json.loads(body)
                    break
                time.sleep(0.05)
            assert document is not None, "follower never ingested"
            assert document["generation"] >= 1
            assert "region-new" in document["regions"]
            assert fresh_headers["ETag"] != etag
        finally:
            code, _, _ = _finish(process)
        assert code == 0
