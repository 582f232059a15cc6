"""Unit tests for the cache layout: paths, entries, signed manifests."""

import json

import pytest

from repro.cache.layout import (
    CacheEntry,
    CacheManifest,
    artifact_path,
    empty_manifest,
    entries_digest,
    period_key,
    plane_name,
    sha256_hex,
)
from repro.core.exceptions import IntegrityError

SHA_A = sha256_hex(b"alpha")
SHA_B = sha256_hex(b"bravo")
SHA_C = sha256_hex(b"charlie")


def entry(sha=SHA_A, period="000100", plane="ndt_by_region", **kwargs):
    return CacheEntry(
        path=artifact_path(period, plane, sha),
        sha256=sha,
        bytes=kwargs.pop("bytes", 5),
        period=period,
        plane=plane,
        **kwargs,
    )


class TestPaths:
    def test_period_key_is_zero_padded_and_chronological(self):
        week = 7 * 86400.0
        keys = [period_key(t * week + 1.0) for t in range(3)]
        assert keys == ["000000", "000001", "000002"]
        assert keys == sorted(keys)

    def test_period_key_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            period_key(0.0, period_s=0.0)

    def test_plane_name_joins_source_and_granularity(self):
        assert plane_name("ndt", "region") == "ndt_by_region"

    def test_plane_name_rejects_traversal(self):
        with pytest.raises(IntegrityError):
            plane_name("../evil", "region")
        with pytest.raises(IntegrityError):
            plane_name("ndt", "a/b")

    def test_artifact_path_shape(self):
        assert (
            artifact_path("000001", "ndt_by_region", SHA_A)
            == f"v1/000001/ndt_by_region/{SHA_A}.json"
        )

    def test_artifact_path_rejects_bad_digest(self):
        with pytest.raises(IntegrityError):
            artifact_path("000001", "ndt_by_region", "nothex")
        with pytest.raises(IntegrityError):
            artifact_path("000001", "ndt_by_region", SHA_A.upper())


class TestCacheEntry:
    def test_path_must_match_identity(self):
        with pytest.raises(IntegrityError):
            CacheEntry(
                path=f"v1/000009/ndt_by_region/{SHA_A}.json",
                sha256=SHA_A,
                bytes=5,
                period="000100",  # disagrees with the path
                plane="ndt_by_region",
            )

    def test_negative_sizes_rejected(self):
        with pytest.raises(IntegrityError):
            entry(bytes=-1)

    def test_dict_roundtrip(self):
        original = entry(records=7)
        assert CacheEntry.from_dict(original.to_dict()) == original

    def test_malformed_dict_raises_integrity_error(self):
        with pytest.raises(IntegrityError):
            CacheEntry.from_dict({"path": "x"})


class TestManifest:
    def test_entries_digest_is_order_independent(self):
        a, b = entry(SHA_A), entry(SHA_B)
        assert entries_digest([a, b]) == entries_digest([b, a])

    def test_entries_digest_changes_with_content(self):
        assert entries_digest([entry(SHA_A)]) != entries_digest(
            [entry(SHA_B)]
        )

    def test_json_roundtrip_preserves_signature(self):
        manifest = empty_manifest().merged([entry(SHA_A), entry(SHA_B)])
        again = CacheManifest.from_json(manifest.to_json().encode("utf-8"))
        assert again.entries == manifest.entries
        assert again.manifest_sha256 == manifest.manifest_sha256

    def test_tampered_manifest_fails_signature(self):
        manifest = empty_manifest().merged([entry(SHA_A)])
        document = manifest.to_document()
        document["entries"][0]["records"] = 999_999
        with pytest.raises(IntegrityError, match="signature"):
            CacheManifest.from_document(document)

    def test_torn_manifest_is_not_json(self):
        manifest = empty_manifest().merged([entry(SHA_A)])
        torn = manifest.to_json().encode("utf-8")[:-40]
        with pytest.raises(IntegrityError):
            CacheManifest.from_json(torn)

    def test_unsupported_cache_version_rejected(self):
        document = empty_manifest().to_document()
        document["cache_version"] = 99
        with pytest.raises(IntegrityError, match="cache_version"):
            CacheManifest.from_document(document)

    def test_duplicate_paths_rejected(self):
        duplicated = entry(SHA_A)
        document = {
            "cache_version": 1,
            "entries": [duplicated.to_dict(), duplicated.to_dict()],
            "manifest_sha256": entries_digest([duplicated, duplicated]),
        }
        with pytest.raises(IntegrityError, match="duplicate"):
            CacheManifest.from_document(document)

    def test_missing_from_plans_the_delta(self):
        local = empty_manifest().merged([entry(SHA_A)])
        remote = empty_manifest().merged([entry(SHA_A), entry(SHA_B)])
        delta = remote.missing_from(local)
        assert [e.sha256 for e in delta] == [entry(SHA_B).sha256]
        assert remote.missing_from(remote) == []

    def test_merged_dedupes_by_path_with_later_winning(self):
        manifest = empty_manifest().merged([entry(SHA_A, records=1)])
        refreshed = manifest.merged([entry(SHA_A, records=42)])
        assert len(refreshed) == 1
        assert refreshed.entries[0].records == 42

    def test_merged_keeps_entries_sorted_by_path(self):
        manifest = empty_manifest().merged(
            [entry(SHA_C), entry(SHA_A), entry(SHA_B)]
        )
        paths = [e.path for e in manifest.entries]
        assert paths == sorted(paths)

    def test_replacing_drops_the_old_entries_of_each_rebuilt_plane(self):
        manifest = empty_manifest().merged(
            [
                entry(SHA_A),
                entry(SHA_B),
                entry(SHA_A, plane="ookla_by_region"),
                entry(SHA_A, period="000101"),
            ]
        )
        replaced = manifest.replacing([entry(SHA_C), entry(SHA_B)])
        assert sorted(
            (e.period, e.plane, e.sha256) for e in replaced.entries
        ) == sorted(
            [
                ("000100", "ndt_by_region", SHA_B),
                ("000100", "ndt_by_region", SHA_C),
                ("000100", "ookla_by_region", SHA_A),
                ("000101", "ndt_by_region", SHA_A),
            ]
        )
        paths = [e.path for e in replaced.entries]
        assert paths == sorted(paths)
        assert manifest.replacing([]).entries == manifest.entries

    def test_periods_are_chronological(self):
        manifest = empty_manifest().merged(
            [entry(SHA_A, period="000002"), entry(SHA_B, period="000001")]
        )
        assert manifest.periods() == ("000001", "000002")

    def test_document_is_json_serializable(self):
        manifest = empty_manifest().merged([entry(SHA_A)])
        json.dumps(manifest.to_document())
