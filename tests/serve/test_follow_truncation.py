"""Unit tests for the serve follower's tailing loop — in particular the
truncate-and-rewrite case (logrotate copytruncate, an operator
regenerating the input): the follower must reset to byte zero and
re-ingest instead of silently waiting for the file to outgrow a stale
offset."""

import io
import json
import threading
import time

import pytest

from repro.cli import _follow_jsonl, _newlines
from repro.measurements.columnar import ColumnarStore
from repro.obs import REGISTRY

from tests.serve.conftest import batch


class FakeService:
    """Collects ingested batches; thread-safe enough for one follower.

    The follower hands over decoded column batches; they are kept as
    records here so tests can read their fields.
    """

    def __init__(self):
        self.batches = []

    def ingest(self, batch):
        self.batches.append(list(ColumnarStore(batch).records()))

    def total(self):
        return sum(len(b) for b in self.batches)


class Follower:
    """Runs _follow_jsonl on a thread with a tight poll interval."""

    def __init__(self, path, on_error="skip"):
        self.service = FakeService()
        self.stop = threading.Event()
        self.thread = threading.Thread(
            target=_follow_jsonl,
            args=(str(path), self.service, self.stop, 0.01, on_error),
            daemon=True,
        )

    def __enter__(self):
        self.thread.start()
        # The follower snapshots its starting offset on the thread;
        # give it a moment so writes made by the test afterwards are
        # seen as appends rather than pre-existing content.
        time.sleep(0.2)
        return self

    def __exit__(self, *exc_info):
        self.stop.set()
        self.thread.join(timeout=5.0)

    def wait_for(self, predicate, timeout=10.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False


def write_records(path, records, mode):
    with open(path, mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()) + "\n")


def test_appends_are_tailed(tmp_path):
    path = tmp_path / "data.jsonl"
    initial = batch(1)
    write_records(path, initial, "w")
    with Follower(path) as follower:
        # Existing content predates the follower; only appends count.
        appended = batch(2)
        write_records(path, appended, "a")
        assert follower.wait_for(
            lambda: follower.service.total() == len(appended)
        )


def test_truncate_and_rewrite_is_reingested(tmp_path):
    path = tmp_path / "data.jsonl"
    write_records(path, batch(3), "w")
    truncations = REGISTRY.counter("serve.follow.truncations")
    before = truncations.value
    with Follower(path) as follower:
        appended = batch(1)
        write_records(path, appended, "a")
        assert follower.wait_for(
            lambda: follower.service.total() == len(appended)
        )
        # The operator regenerates the file smaller than the follower's
        # offset — the shrink must be detected, not ignored.
        rewritten = batch(1)
        write_records(path, rewritten, "w")
        assert follower.wait_for(
            lambda: follower.service.total()
            == len(appended) + len(rewritten)
        ), "follower never re-ingested the rewritten file"
        # The rewrite arrived as fresh records, counted loudly.
        assert truncations.value == before + 1
        regions = {
            record.region for record in follower.service.batches[-1]
        }
        assert regions == {r.region for r in rewritten}


def test_truncation_drops_buffered_partial_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("")
    with Follower(path) as follower:
        # A torn line (no trailing newline) stays buffered...
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        time.sleep(0.1)
        assert follower.service.total() == 0
        # ...then the file is truncated and rewritten. The stale
        # buffer belonged to the old file and must not be glued onto
        # the new content. Truncate first and let the follower observe
        # the shrink, so the test is deterministic even though the
        # rewritten file ends up larger than the torn fragment.
        with open(path, "w", encoding="utf-8"):
            pass
        time.sleep(0.1)
        rewritten = batch(1)
        write_records(path, rewritten, "a")
        assert follower.wait_for(
            lambda: follower.service.total() == len(rewritten)
        )
        for ingested in follower.service.batches:
            for record in ingested:
                assert record.region == "region-000"


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"a\nb\r\nc\rd\n",
        b"a\r\r\n\n\rb",
        # A \r\n split across the counter's 1 MiB read blocks.
        b"x" * ((1 << 20) - 1) + b"\r\ny\rz\n",
    ],
)
def test_prefix_line_count_matches_the_readers(tmp_path, data):
    """The follower numbers lines as read_jsonl's text mode splits them."""
    path = tmp_path / "prefix.jsonl"
    path.write_bytes(data)
    lines = io.TextIOWrapper(
        io.BytesIO(data), encoding="latin-1", newline=None
    ).readlines()
    complete = sum(1 for text in lines if text.endswith("\n"))
    assert _newlines(str(path), len(data)) == complete
