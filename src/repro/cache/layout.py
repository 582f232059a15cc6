"""The content-addressed cache layout: paths, entries, manifests.

This module is the on-disk contract of the dataset cache, reproducing
m-lab's production data-distribution design: a versioned

    cache root/
      MANIFEST.json                      <- signed-by-digest index
      v1/{period}/{source}_by_{granularity}/{sha256}.json
      quarantine/                        <- digest-mismatched bytes
      partial/                           <- in-flight .part downloads

tree in which every artifact is *named by the SHA-256 of its bytes*.
Content addressing is what makes the whole robustness story simple:
an artifact can be verified with nothing but its own filename, a
transfer is resumable because a half-fetched file simply has the
wrong digest until it is whole, and incremental append reduces to a
set difference over manifest entries.

``MANIFEST.json`` lists every artifact (path, digest, size, period,
plane, record count) plus a ``manifest_sha256`` computed over the
canonical serialization of the entries themselves — the same
digest-the-canonical-JSON move as
:func:`repro.obs.manifest.config_digest` — so a tampered or torn
manifest is detected before any artifact it names is trusted.
:class:`~repro.obs.manifest.RunManifest` records this digest for
``--from-cache`` runs, which is what makes a published score
reproducible from a cache snapshot.

Path components are validated against strict patterns before they are
joined: a manifest is remote input, and a hostile ``path`` entry must
not be able to escape the cache root.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.exceptions import IntegrityError

#: Bump when the on-disk layout changes incompatibly.
CACHE_VERSION = 1

#: The versioned artifact tree at the cache root.
VERSION_DIR = "v1"

#: The manifest filename at the cache root (and on remotes).
MANIFEST_NAME = "MANIFEST.json"

#: Where digest-mismatched bytes are moved — never deleted, never served.
QUARANTINE_DIR = "quarantine"

#: Where in-flight downloads are staged before their digest checks out.
PARTIAL_DIR = "partial"

#: Suffix for staged partial downloads.
PARTIAL_SUFFIX = ".part"

#: Default time-period width for tiling (one week of POSIX seconds).
DEFAULT_PERIOD_S = 7 * 86400.0

_HEX64 = re.compile(r"^[0-9a-f]{64}$")
_COMPONENT = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def sha256_hex(payload: bytes) -> str:
    """The artifact digest: plain SHA-256 hex over the raw bytes."""
    return hashlib.sha256(payload).hexdigest()


def period_key(timestamp: float, period_s: float = DEFAULT_PERIOD_S) -> str:
    """The fixed-width period bucket one timestamp falls into.

    Periods are integer indexes of ``period_s``-wide windows since the
    epoch, zero-padded so lexical order is chronological order —
    ``sorted()`` over period directories replays time.
    """
    if period_s <= 0:
        raise ValueError(f"period_s must be positive: {period_s}")
    return f"{int(timestamp // period_s):06d}"


def _safe_component(value: str, what: str) -> str:
    """One path component, or :class:`IntegrityError` if it could escape."""
    if not _COMPONENT.match(value) or ".." in value:
        raise IntegrityError(f"unsafe {what} in cache path: {value!r}")
    return value


def plane_name(source: str, granularity: str) -> str:
    """The per-period subdirectory for one (dataset, granularity) pair."""
    return (
        f"{_safe_component(source, 'source')}"
        f"_by_{_safe_component(granularity, 'granularity')}"
    )


def artifact_path(period: str, plane: str, sha256: str) -> str:
    """The artifact's cache-relative POSIX path (its identity)."""
    _safe_component(period, "period")
    _safe_component(plane, "plane")
    if not _HEX64.match(sha256):
        raise IntegrityError(f"malformed artifact digest: {sha256!r}")
    return f"{VERSION_DIR}/{period}/{plane}/{sha256}.json"


@dataclass(frozen=True)
class CacheEntry:
    """One manifest line: an artifact's identity and provenance."""

    path: str
    sha256: str
    bytes: int
    period: str
    plane: str
    records: int = 0

    def __post_init__(self) -> None:
        if not _HEX64.match(self.sha256):
            raise IntegrityError(
                f"malformed entry digest for {self.path!r}: {self.sha256!r}"
            )
        if self.path != artifact_path(self.period, self.plane, self.sha256):
            raise IntegrityError(
                f"entry path disagrees with its identity: {self.path!r}"
            )
        if self.bytes < 0 or self.records < 0:
            raise IntegrityError(
                f"negative size in entry for {self.path!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "sha256": self.sha256,
            "bytes": self.bytes,
            "period": self.period,
            "plane": self.plane,
            "records": self.records,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "CacheEntry":
        try:
            return cls(
                path=str(document["path"]),
                sha256=str(document["sha256"]),
                bytes=int(document["bytes"]),
                period=str(document["period"]),
                plane=str(document["plane"]),
                records=int(document.get("records", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"malformed manifest entry: {exc}") from exc


def entries_digest(entries: Iterable[CacheEntry]) -> str:
    """SHA-256 over the canonical serialization of sorted entries.

    This is the manifest's signature: any added, removed, or altered
    entry changes it, so one digest pins the entire cache state — the
    value run manifests record for reproducibility.
    """
    canonical = json.dumps(
        [entry.to_dict() for entry in sorted(entries, key=lambda e: e.path)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheManifest:
    """The cache's signed index: every artifact the cache vouches for."""

    entries: Tuple[CacheEntry, ...] = ()
    generated_unix: float = 0.0
    package_version: str = ""

    @property
    def manifest_sha256(self) -> str:
        """The signature over this manifest's entries."""
        return entries_digest(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def by_path(self) -> Dict[str, CacheEntry]:
        """path → entry (paths are unique within a valid manifest)."""
        return {entry.path: entry for entry in self.entries}

    def missing_from(self, other: "CacheManifest") -> List[CacheEntry]:
        """Entries of ``self`` that ``other`` does not carry.

        The incremental-transfer planner: pulling fetches
        ``remote.missing_from(local)``, pushing uploads
        ``local.missing_from(remote)``. Content addressing makes the
        comparison exact — same path means same bytes.
        """
        have = {(entry.path, entry.sha256) for entry in other.entries}
        return [
            entry
            for entry in self.entries
            if (entry.path, entry.sha256) not in have
        ]

    def merged(self, new_entries: Iterable[CacheEntry]) -> "CacheManifest":
        """A new manifest with ``new_entries`` appended (path-deduped).

        Later entries win on a path collision, which cannot change
        content (the digest is in the path) but lets refreshed metadata
        (record counts) replace stale copies. This is the incremental
        append: new periods extend the entry list; nothing is rewritten.
        """
        combined = self.by_path()
        for entry in new_entries:
            combined[entry.path] = entry
        return CacheManifest(
            entries=tuple(
                sorted(combined.values(), key=lambda e: e.path)
            ),
            generated_unix=time.time(),
            package_version=_package_version(),
        )

    def replacing(self, new_entries: Iterable[CacheEntry]) -> "CacheManifest":
        """A new manifest in which ``new_entries`` replace their planes.

        Every entry of ``self`` whose (period, plane) one of
        ``new_entries`` carries is dropped, and ``new_entries`` are
        then :meth:`merged` in. A period's tiles are rebuilt whole, so
        a rebuilt (period, plane) must not keep its old tiles beside
        the new ones: warming would count its records twice. Cache
        build, push (local over remote) and pull (remote over local)
        publish this way; the dropped artifacts are ``gc`` fodder.
        """
        new_entries = list(new_entries)
        rebuilt = {(entry.period, entry.plane) for entry in new_entries}
        kept = CacheManifest(
            entries=tuple(
                entry
                for entry in self.entries
                if (entry.period, entry.plane) not in rebuilt
            )
        )
        return kept.merged(new_entries)

    def periods(self) -> Tuple[str, ...]:
        """Distinct periods present, in chronological order."""
        return tuple(sorted({entry.period for entry in self.entries}))

    def to_document(self) -> Dict[str, Any]:
        return {
            "cache_version": CACHE_VERSION,
            "generated_unix": self.generated_unix,
            "package_version": self.package_version,
            "manifest_sha256": self.manifest_sha256,
            "entries": [
                entry.to_dict()
                for entry in sorted(self.entries, key=lambda e: e.path)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_document(
        cls, document: Mapping[str, Any], verify: bool = True
    ) -> "CacheManifest":
        """Parse (and by default signature-check) a manifest document.

        Raises:
            IntegrityError: malformed entries, an unsupported cache
                version, or (with ``verify=True``) a stored
                ``manifest_sha256`` that does not match the entries —
                a torn or tampered manifest must fail before any
                artifact it names is trusted.
        """
        version = document.get("cache_version")
        if version != CACHE_VERSION:
            raise IntegrityError(
                f"unsupported cache_version: {version!r} "
                f"(this build reads {CACHE_VERSION})"
            )
        manifest = cls(
            entries=tuple(
                CacheEntry.from_dict(raw)
                for raw in document.get("entries", ())
            ),
            generated_unix=float(document.get("generated_unix", 0.0)),
            package_version=str(document.get("package_version", "")),
        )
        paths = [entry.path for entry in manifest.entries]
        if len(set(paths)) != len(paths):
            raise IntegrityError("manifest lists duplicate artifact paths")
        if verify:
            stored = document.get("manifest_sha256")
            if stored != manifest.manifest_sha256:
                raise IntegrityError(
                    f"manifest signature mismatch: stored {stored!r}, "
                    f"computed {manifest.manifest_sha256!r}"
                )
        return manifest

    @classmethod
    def from_json(cls, payload: bytes, verify: bool = True) -> "CacheManifest":
        try:
            document = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(f"manifest is not JSON: {exc}") from exc
        if not isinstance(document, Mapping):
            raise IntegrityError("manifest document is not an object")
        return cls.from_document(document, verify=verify)


def _package_version() -> str:
    import repro

    return repro.__version__


def empty_manifest() -> CacheManifest:
    """A fresh zero-entry manifest stamped with the current version."""
    return CacheManifest(
        entries=(),
        generated_unix=time.time(),
        package_version=_package_version(),
    )


#: Hints a verifier attaches to findings (kept as plain strings so the
#: ``--json`` reports stay schema-stable).
FINDING_CORRUPT = "corrupt"
FINDING_MISSING = "missing"
FINDING_UNREFERENCED = "unreferenced"


@dataclass(frozen=True)
class Finding:
    """One integrity finding from :meth:`LocalCache.verify`."""

    kind: str
    path: str
    detail: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "path": self.path, "detail": self.detail}


__all__ = [
    "CACHE_VERSION",
    "DEFAULT_PERIOD_S",
    "MANIFEST_NAME",
    "PARTIAL_DIR",
    "PARTIAL_SUFFIX",
    "QUARANTINE_DIR",
    "VERSION_DIR",
    "CacheEntry",
    "CacheManifest",
    "Finding",
    "FINDING_CORRUPT",
    "FINDING_MISSING",
    "FINDING_UNREFERENCED",
    "artifact_path",
    "empty_manifest",
    "entries_digest",
    "period_key",
    "plane_name",
    "sha256_hex",
]
