"""Record-free ingest: valid input is scored, cached and served from columns.

Reading a JSONL file decodes it straight into ``ColumnarStore`` columns;
``score``, ``cache build``, ``--quantiles sketch score`` and a
``serve --follow`` batch must get from parse to output without building
one ``Measurement``. Records appear only when a caller asks for them.
Construction is counted at ``Measurement.__post_init__``, which every
record runs.
"""

import io

import pytest

from repro.cli import main
from repro.core.config import paper_config
from repro.measurements.columnar import ColumnarStore
from repro.measurements.io import decode_jsonl, read_jsonl
from repro.measurements.record import Measurement
from repro.serve import ScoringService


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("record_free") / "campaign.jsonl"
    code = main(
        [
            "simulate",
            str(path),
            "--regions",
            "metro-fiber",
            "rural-dsl",
            "--tests",
            "20",
            "--subscribers",
            "10",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def built(monkeypatch):
    """A live count of ``Measurement`` objects constructed."""
    count = [0]
    original = Measurement.__post_init__

    def counting(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(Measurement, "__post_init__", counting)
    return count


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "{file}", "--json"],
        ["score", "{file}"],
        ["--quantiles", "sketch", "score", "{file}", "--json"],
        ["cache", "build", "{file}", "--cache", "{tmp}/cache"],
    ],
    ids=["score-json", "score-table", "sketch-score", "cache-build"],
)
def test_cli_builds_no_records(campaign_file, tmp_path, capsys, built, argv):
    args = [a.format(file=campaign_file, tmp=tmp_path) for a in argv]
    assert main(args) == 0
    assert capsys.readouterr().out
    assert built[0] == 0


def test_follow_batch_builds_no_records(campaign_file, built):
    store = ColumnarStore.from_measurements(read_jsonl(campaign_file))
    store.sketch_plane()
    service = ScoringService(store, paper_config())
    generation = service.generation
    lines = io.StringIO(campaign_file.read_text()).readlines()[:50]
    batch = decode_jsonl(lines, campaign_file, first_line=1)
    assert service.ingest(batch) == 50
    assert service.generation == generation + 1
    assert service.scores().values
    assert service.breakdowns().regions
    assert built[0] == 0


def test_records_are_built_when_asked(campaign_file, built):
    loaded = read_jsonl(campaign_file)
    store = loaded.columnar()
    assert store is not None and store.generation == 0
    assert built[0] == 0
    records = store.records()
    assert built[0] == len(records) == len(loaded)
    assert store.records() == records  # cached, not built again
    assert built[0] == len(records)
    assert list(loaded) == list(records)
    assert built[0] == len(records)
