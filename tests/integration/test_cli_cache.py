"""Integration tests for the ``iqb cache`` subcommands and the
``--from-cache`` scoring path — the full operator loop: build tiles,
verify, push to a remote, pull into a fresh cache, score from it, and
recover loudly when artifacts are damaged."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def campaign_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-cache") / "campaign.jsonl"
    code = main(
        [
            "simulate",
            str(path),
            "--regions",
            "metro-fiber",
            "rural-dsl",
            "--tests",
            "60",
            "--subscribers",
            "20",
            "--seed",
            "17",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def built_cache(campaign_file, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-cache-store") / "cache"
    assert (
        main(
            [
                "cache",
                "build",
                str(campaign_file),
                "--cache",
                str(root),
            ]
        )
        == 0
    )
    return root


@pytest.fixture(scope="module")
def grown_campaign(tmp_path_factory):
    """CI's 180-record smoke campaign and its first 100 lines."""
    root = tmp_path_factory.mktemp("cli-cache-grown")
    grown = root / "grown.jsonl"
    assert (
        main(
            [
                "simulate",
                str(grown),
                "--regions",
                "metro-fiber",
                "rural-dsl",
                "--tests",
                "30",
                "--subscribers",
                "10",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    lines = grown.read_text().splitlines(keepends=True)
    assert len(lines) == 180
    head = root / "head.jsonl"
    head.write_text("".join(lines[:100]))
    return head, grown


def assert_one_tile_per_plane(root, records):
    """The manifest at ``root`` holds one tile per (period, plane)."""
    entries = json.loads((root / "MANIFEST.json").read_text())["entries"]
    cells = [(entry["period"], entry["plane"]) for entry in entries]
    assert len(cells) == len(set(cells)), root
    assert sum(entry["records"] for entry in entries) == records, root
    return entries


def corrupt_one_artifact(cache_root):
    """Damage a single published tile; return its v1-relative path."""
    victim = sorted((cache_root / "v1").rglob("*.json"))[0]
    victim.write_bytes(victim.read_bytes()[:-2] + b"!\n")
    return victim.relative_to(cache_root).as_posix()


class TestCacheBuild:
    def test_json_report_shape(self, campaign_file, tmp_path, capsys):
        root = tmp_path / "cache"
        assert (
            main(
                [
                    "cache",
                    "build",
                    str(campaign_file),
                    "--cache",
                    str(root),
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert len(report["built"]) >= 1
        assert report["tiles"] >= 1
        assert len(report["manifest_sha256"]) == 64
        assert report["periods"]

    def test_rebuild_is_idempotent(self, campaign_file, built_cache, capsys):
        capsys.readouterr()  # drain the fixture's build output
        manifest = json.loads(
            (built_cache / "MANIFEST.json").read_text()
        )
        assert (
            main(
                [
                    "cache",
                    "build",
                    str(campaign_file),
                    "--cache",
                    str(built_cache),
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["built"] == []  # every tile already published
        assert report["manifest_sha256"] == manifest["manifest_sha256"]
        assert report["replaced"] == []

    def test_rebuilding_a_grown_file_replaces_its_period_tiles(
        self, grown_campaign, tmp_path, capsys
    ):
        """A period rebuilt from a grown file is counted once, not twice."""
        head, grown = grown_campaign
        root = tmp_path / "cache"
        assert main(["cache", "build", str(head), "--cache", str(root)]) == 0
        capsys.readouterr()
        assert main(["cache", "build", str(grown), "--cache", str(root)]) == 0
        assert "3 replaced" in capsys.readouterr().out

        entries = assert_one_tile_per_plane(root, records=180)

        assert main(["--quantiles", "sketch", "score", str(grown), "--json"]) == 0
        direct = capsys.readouterr().out
        assert main(["score", "--from-cache", str(root), "--json"]) == 0
        assert capsys.readouterr().out == direct

        # The replaced tiles are strays now, for `cache gc`.
        assert main(["cache", "gc", "--cache", str(root)]) == 0
        capsys.readouterr()
        assert len(list((root / "v1").rglob("*.json"))) == len(entries)


class TestCacheVerify:
    def test_clean_cache_verifies(self, built_cache, capsys):
        assert main(["cache", "verify", "--cache", str(built_cache)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_corrupt_artifact_exits_one_and_is_named(
        self, campaign_file, tmp_path, capsys
    ):
        root = tmp_path / "cache"
        assert (
            main(
                ["cache", "build", str(campaign_file), "--cache", str(root)]
            )
            == 0
        )
        damaged = corrupt_one_artifact(root)
        assert main(["cache", "verify", "--cache", str(root)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert damaged in out
        assert "FAILED" in out


class TestCachePushPull:
    def test_round_trip_and_from_cache_parity(
        self, campaign_file, built_cache, tmp_path, capsys
    ):
        remote = tmp_path / "remote"
        assert (
            main(
                [
                    "cache",
                    "push",
                    str(remote),
                    "--cache",
                    str(built_cache),
                ]
            )
            == 0
        )
        capsys.readouterr()

        clone = tmp_path / "clone"
        assert (
            main(
                ["cache", "pull", str(remote), "--cache", str(clone), "--json"]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["fetched"]
        assert not report["quarantined"]
        assert main(["cache", "verify", "--cache", str(clone)]) == 0
        capsys.readouterr()

        # Scoring the pulled cache matches scoring the raw records
        # through the same sketch pipeline, byte for byte.
        assert main(["--quantiles", "sketch", "score", str(campaign_file)]) == 0
        direct = capsys.readouterr().out
        assert main(["score", "--from-cache", str(clone)]) == 0
        warmed = capsys.readouterr().out
        assert warmed == direct

    def test_a_rebuilt_period_replaces_its_tiles_on_every_replica(
        self, grown_campaign, tmp_path, capsys
    ):
        """Build, push, pull; rebuild the grown file, push, pull again.

        The remote, a replica that pulled the first build, a fresh
        replica and the builder after its next pull all count the
        period once, and score as the grown file does.
        """
        head, grown = grown_campaign
        builder, remote = tmp_path / "builder", tmp_path / "remote"
        stale, fresh = tmp_path / "stale", tmp_path / "fresh"
        cache = ["--cache", str(builder)]
        for path in (head, grown):
            assert main(["cache", "build", str(path)] + cache) == 0
            assert main(["cache", "push", str(remote)] + cache) == 0
            assert main(["cache", "pull", str(remote), "--cache", str(stale)]) == 0
        for root in (fresh, builder):
            assert main(["cache", "pull", str(remote), "--cache", str(root)]) == 0
        capsys.readouterr()

        assert main(["--quantiles", "sketch", "score", str(grown), "--json"]) == 0
        direct = capsys.readouterr().out
        assert_one_tile_per_plane(remote, records=180)
        for root in (stale, fresh, builder):
            assert_one_tile_per_plane(root, records=180)
            assert main(["score", "--from-cache", str(root), "--json"]) == 0
            assert capsys.readouterr().out == direct, root

    def test_pull_self_heals_local_damage(
        self, campaign_file, built_cache, tmp_path, capsys
    ):
        remote = tmp_path / "remote"
        assert (
            main(
                ["cache", "push", str(remote), "--cache", str(built_cache)]
            )
            == 0
        )
        clone = tmp_path / "clone"
        assert main(["cache", "pull", str(remote), "--cache", str(clone)]) == 0
        corrupt_one_artifact(clone)
        assert main(["score", "--from-cache", str(clone)]) == 1
        capsys.readouterr()
        assert (
            main(["cache", "pull", str(remote), "--cache", str(clone), "--json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert len(report["fetched"]) == 1
        assert main(["cache", "verify", "--cache", str(clone)]) == 0
        assert main(["score", "--from-cache", str(clone)]) == 0

    def test_pull_from_missing_remote_exits_one(self, tmp_path, capsys):
        assert (
            main(
                [
                    "cache",
                    "pull",
                    str(tmp_path / "nowhere"),
                    "--cache",
                    str(tmp_path / "clone"),
                ]
            )
            == 1
        )
        assert "iqb cache: error:" in capsys.readouterr().err


class TestCacheGC:
    def test_gc_reports_and_removes_strays(
        self, campaign_file, tmp_path, capsys
    ):
        root = tmp_path / "cache"
        assert (
            main(
                ["cache", "build", str(campaign_file), "--cache", str(root)]
            )
            == 0
        )
        capsys.readouterr()
        stray = root / "v1" / "000000" / ("f" * 64 + ".json")
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_bytes(b"orphan\n")
        assert main(["cache", "gc", "--cache", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"]
        assert not stray.exists()
        assert main(["cache", "verify", "--cache", str(root)]) == 0


class TestGuards:
    def test_score_requires_input_or_cache(self, capsys):
        assert main(["score"]) == 2
        assert "error" in capsys.readouterr().err

    def test_score_rejects_input_and_cache_together(
        self, campaign_file, built_cache, capsys
    ):
        assert (
            main(
                [
                    "score",
                    str(campaign_file),
                    "--from-cache",
                    str(built_cache),
                ]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err

    def test_from_cache_rejects_exact_quantiles(self, built_cache, capsys):
        assert (
            main(
                [
                    "--quantiles",
                    "exact",
                    "score",
                    "--from-cache",
                    str(built_cache),
                ]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err

    def test_serve_rejects_follow_with_cache(self, built_cache, capsys):
        assert (
            main(
                [
                    "serve",
                    "--from-cache",
                    str(built_cache),
                    "--follow",
                    "1",
                ]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err

    def test_empty_cache_scores_loudly(self, tmp_path, capsys):
        assert main(["score", "--from-cache", str(tmp_path / "empty")]) == 1
        assert "iqb: error:" in capsys.readouterr().err
