"""Cache remotes: integrity-checked, retrying, resumable transfer.

A :class:`Remote` is anywhere a cache tree can live besides the local
disk — a plain directory (:class:`FileRemote`, also the unit tests'
workhorse) or an HTTP server (:class:`HttpRemote`, any static file
host). The transfer verbs are deliberately tiny (fetch manifest, fetch
bytes from an offset, put bytes) so the *robustness* lives in one
place: :func:`pull` and :func:`push`.

``pull`` is built for unreliable networks:

* every transfer runs under a
  :class:`~repro.resilience.retry.RetryPolicy` (decorrelated-jitter
  backoff) and a per-remote
  :class:`~repro.resilience.breaker.CircuitBreaker`, so a dead remote
  is abandoned loudly instead of hammered;
* downloads stage into ``partial/*.part`` and are **resumable**: a
  truncated body leaves a shorter ``.part``, and the next attempt
  issues a ranged fetch from that offset instead of starting over;
* nothing enters the trusted ``v1/`` tree until the staged bytes hash
  to the artifact's content address. A completed-but-wrong download
  (bit flips, proxy mangling) is quarantined and retried from zero;
  if retries exhaust, the pull fails loudly with the evidence in
  ``quarantine/`` — a corrupted artifact is *never* published.

``push`` verifies every local artifact before uploading (a corrupt
local cache must not propagate) and transfers only what the remote's
manifest lacks — incremental append via manifest diffing.

Both verbs publish a (period, plane) whole: the manifest being
brought up to date drops its entries of every (period, plane) the
other side carries (:meth:`~.layout.CacheManifest.replacing`), so a
period rebuilt on the builder replaces its old tiles on every replica.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.exceptions import IntegrityError, RemoteError
from repro.fsutil import atomic_write, fsync_dir
from repro.obs import counter, get_logger
from repro.resilience.breaker import BreakerOpenError, CircuitBreaker
from repro.resilience.retry import RetryPolicy

from .layout import MANIFEST_NAME, CacheEntry, CacheManifest, sha256_hex
from .store import LocalCache

_logger = get_logger(__name__)

_FETCHED = counter("cache.remote.fetched")
_RESUMED = counter("cache.remote.resumed")
_RETRIES = counter("cache.remote.retries")
_PULL_CORRUPT = counter("cache.remote.corrupt")
_PUSHED = counter("cache.remote.pushed")


class Remote:
    """Transfer interface one cache remote implements."""

    #: Stable identity for breaker keys and log lines.
    name: str = "remote"

    def fetch_manifest(self) -> bytes:
        """The remote ``MANIFEST.json`` bytes (RemoteError if absent)."""
        raise NotImplementedError

    def fetch(self, rel_path: str, offset: int = 0) -> bytes:
        """Artifact bytes from ``offset`` to the end (ranged read)."""
        raise NotImplementedError

    def put(self, rel_path: str, payload: bytes) -> None:
        """Store ``payload`` at ``rel_path`` on the remote."""
        raise NotImplementedError

    def exists(self, rel_path: str) -> bool:
        """Whether the remote already holds ``rel_path``."""
        raise NotImplementedError


class FileRemote(Remote):
    """A cache remote that is just a directory (NFS mount, USB disk)."""

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self.root = Path(root)
        self.name = f"file:{self.root}"

    def fetch_manifest(self) -> bytes:
        return self.fetch(MANIFEST_NAME)

    def fetch(self, rel_path: str, offset: int = 0) -> bytes:
        target = self.root / rel_path
        try:
            with open(target, "rb") as handle:
                if offset:
                    handle.seek(offset)
                return handle.read()
        except OSError as exc:
            raise RemoteError(f"{self.name}: cannot read {rel_path}: {exc}") from exc

    def put(self, rel_path: str, payload: bytes) -> None:
        target = self.root / rel_path
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(target, payload, fsync=True)
        except OSError as exc:
            raise RemoteError(
                f"{self.name}: cannot write {rel_path}: {exc}"
            ) from exc

    def exists(self, rel_path: str) -> bool:
        return (self.root / rel_path).is_file()


class HttpRemote(Remote):
    """A cache remote behind HTTP(S) — any static file server works.

    Pulls use ``Range`` requests for resume; a server that ignores
    ranges (replies 200 with the full body) degrades gracefully — the
    surplus prefix is sliced off client-side. Push issues ``PUT``,
    which plain static hosts reject; pushing is for WebDAV-style or
    object-store remotes.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.name = self.base_url

    def _url(self, rel_path: str) -> str:
        return f"{self.base_url}/{rel_path}"

    def fetch_manifest(self) -> bytes:
        return self.fetch(MANIFEST_NAME)

    def fetch(self, rel_path: str, offset: int = 0) -> bytes:
        request = urllib.request.Request(self._url(rel_path))
        if offset:
            request.add_header("Range", f"bytes={offset}-")
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                body = response.read()
                status = getattr(response, "status", 200)
        except urllib.error.HTTPError as exc:
            if exc.code == 416:
                # Requested range past EOF: nothing further to read.
                return b""
            raise RemoteError(
                f"{self.name}: HTTP {exc.code} fetching {rel_path}"
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise RemoteError(
                f"{self.name}: fetch {rel_path} failed: {exc}"
            ) from exc
        if offset and status == 200:
            # Server ignored the range; keep only the unseen suffix.
            return body[offset:]
        return body

    def put(self, rel_path: str, payload: bytes) -> None:
        request = urllib.request.Request(
            self._url(rel_path), data=payload, method="PUT"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s):
                pass
        except (urllib.error.URLError, OSError) as exc:
            raise RemoteError(
                f"{self.name}: PUT {rel_path} failed: {exc}"
            ) from exc

    def exists(self, rel_path: str) -> bool:
        request = urllib.request.Request(self._url(rel_path), method="HEAD")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s):
                return True
        except (urllib.error.URLError, OSError):
            return False


def open_remote(spec: str) -> Remote:
    """Resolve a CLI remote spec: a URL or a plain directory path."""
    if spec.startswith(("http://", "https://")):
        return HttpRemote(spec)
    return FileRemote(spec)


def default_policy() -> RetryPolicy:
    """The transfer retry budget: 5 attempts, jittered, capped at 2s.

    ``base_s`` is small — cache pulls are operator-interactive — but
    non-zero, so concurrent pullers against a struggling remote spread
    out instead of stampeding (the whole point of decorrelated jitter).
    """
    return RetryPolicy(max_attempts=5, base_s=0.05, cap_s=2.0)


def default_breaker() -> CircuitBreaker:
    """The per-remote breaker: open after 10 straight transport errors.

    The threshold sits above one artifact's retry budget so a single
    flaky object cannot black-hole the rest of an otherwise healthy
    pull, while a genuinely dead remote still trips before the pull
    grinds through every artifact's full budget.
    """
    return CircuitBreaker(failure_threshold=10, recovery_s=30.0)


class PullReport:
    """What one :func:`pull` actually did (the ``--json`` payload)."""

    def __init__(self) -> None:
        self.fetched: List[str] = []
        self.skipped: List[str] = []
        self.resumed = 0
        self.retries = 0
        self.quarantined: List[str] = []
        self.bytes_transferred = 0
        self.manifest_sha256 = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "fetched": list(self.fetched),
            "skipped": list(self.skipped),
            "resumed": self.resumed,
            "retries": self.retries,
            "quarantined": list(self.quarantined),
            "bytes_transferred": self.bytes_transferred,
            "manifest_sha256": self.manifest_sha256,
        }


class PushReport:
    """What one :func:`push` actually did (the ``--json`` payload)."""

    def __init__(self) -> None:
        self.uploaded: List[str] = []
        self.skipped: List[str] = []
        self.retries = 0
        self.bytes_transferred = 0
        self.manifest_sha256 = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "uploaded": list(self.uploaded),
            "skipped": list(self.skipped),
            "retries": self.retries,
            "bytes_transferred": self.bytes_transferred,
            "manifest_sha256": self.manifest_sha256,
        }


def _breaker_check(breaker: Optional[CircuitBreaker]) -> None:
    if breaker is None:
        return
    if not breaker.allow():
        raise BreakerOpenError("remote", breaker.retry_in_s())


def fetch_remote_manifest(
    remote: Remote,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> CacheManifest:
    """The remote's signed manifest, retried and signature-verified."""
    policy = policy if policy is not None else default_policy()
    delays = list(policy.delays())
    last: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        _breaker_check(breaker)
        try:
            payload = remote.fetch_manifest()
        except RemoteError as exc:
            last = exc
            if breaker is not None:
                breaker.record_failure()
            _RETRIES.inc()
            if attempt < len(delays):
                policy.backoff(delays[attempt])
            continue
        if breaker is not None:
            breaker.record_success()
        # Signature failures are NOT retried transport errors: the
        # bytes arrived, they are just wrong — fail loudly.
        return CacheManifest.from_json(payload)
    raise RemoteError(
        f"{remote.name}: manifest fetch failed after "
        f"{policy.max_attempts} attempt(s): {last}"
    ) from last


def pull(
    cache: LocalCache,
    remote: Remote,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> PullReport:
    """Bring the local cache up to date with ``remote``, verified.

    The convergence contract (chaos-tested across hundreds of fault
    schedules): on return the local manifest covers every remote entry
    and every referenced artifact's bytes hash to their content
    address (the remote's entries replace the local entries of their
    (period, plane): :meth:`CacheManifest.replacing`); on *any* raise,
    the trusted ``v1/`` tree still holds only digest-valid artifacts —
    damaged transfers live in ``quarantine/`` or ``partial/``, never
    behind the manifest.

    Raises:
        RemoteError: transport failures outlasted the retry budget
            (or the circuit breaker opened).
        IntegrityError: a transfer repeatedly completed with wrong
            bytes — the evidence is quarantined.
    """
    policy = policy if policy is not None else default_policy()
    breaker = breaker if breaker is not None else default_breaker()
    report = PullReport()
    remote_manifest = fetch_remote_manifest(remote, policy, breaker)
    local_manifest = cache.manifest()
    local_by_path = local_manifest.by_path()
    for entry in remote_manifest.missing_from(local_manifest):
        _pull_artifact(cache, remote, entry, policy, breaker, report)
    for entry in remote_manifest.entries:
        if entry.path in local_by_path and entry.path not in report.fetched:
            # Present per manifest — but trust requires bytes on disk.
            if cache.artifact_abspath(entry.path).is_file():
                report.skipped.append(entry.path)
            else:
                _pull_artifact(cache, remote, entry, policy, breaker, report)
    merged = cache.manifest().replacing(remote_manifest.entries)
    cache.write_manifest(merged)
    report.manifest_sha256 = merged.manifest_sha256
    return report


def _pull_artifact(
    cache: LocalCache,
    remote: Remote,
    entry: CacheEntry,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    report: PullReport,
) -> None:
    """Fetch one artifact: staged, resumable, digest-gated.

    Each attempt continues from the staged ``.part``'s current size
    (ranged fetch). A body that overshoots or completes with the wrong
    digest quarantines the stage and restarts from zero; transport
    errors burn retry budget with jittered backoff.
    """
    target = cache.artifact_abspath(entry.path)
    part = cache.partial_path(entry)
    part.parent.mkdir(parents=True, exist_ok=True)
    delays = list(policy.delays())
    last: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        _breaker_check(breaker)
        offset = part.stat().st_size if part.exists() else 0
        if 0 < offset < entry.bytes:
            _RESUMED.inc()
            report.resumed += 1
        try:
            chunk = remote.fetch(entry.path, offset=offset)
        except RemoteError as exc:
            last = exc
            breaker.record_failure()
            _RETRIES.inc()
            report.retries += 1
            if attempt < len(delays):
                policy.backoff(delays[attempt])
            continue
        breaker.record_success()
        report.bytes_transferred += len(chunk)
        if chunk:
            with open(part, "ab") as handle:
                handle.write(chunk)
                handle.flush()
                os.fsync(handle.fileno())
        size = part.stat().st_size if part.exists() else 0
        if size < entry.bytes:
            # Truncated body: keep the stage, resume from the new
            # offset on the next attempt.
            last = RemoteError(
                f"short body for {entry.path}: {size}/{entry.bytes} bytes"
            )
            if attempt < len(delays):
                policy.backoff(delays[attempt])
            continue
        payload = part.read_bytes()
        if len(payload) == entry.bytes and sha256_hex(payload) == entry.sha256:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(part, target)
            fsync_dir(target.parent)
            _FETCHED.inc()
            report.fetched.append(entry.path)
            return
        # Complete but wrong (bit flip / overshoot): evidence out of
        # the way, then start the transfer over from byte zero.
        quarantined = cache.quarantine(entry.path, source=part)
        _PULL_CORRUPT.inc()
        report.quarantined.append(str(quarantined))
        last = IntegrityError(
            f"pulled bytes for {entry.path} fail their digest "
            f"(quarantined at {quarantined})"
        )
        _logger.warning(
            "corrupt transfer quarantined",
            extra={"ctx": {"path": entry.path, "remote": remote.name}},
        )
        if attempt < len(delays):
            policy.backoff(delays[attempt])
    if isinstance(last, IntegrityError):
        raise IntegrityError(
            f"{remote.name}: {entry.path} kept failing its digest after "
            f"{policy.max_attempts} attempt(s); last: {last}"
        ) from last
    raise RemoteError(
        f"{remote.name}: {entry.path} not transferred after "
        f"{policy.max_attempts} attempt(s): {last}"
    ) from last


def push(
    cache: LocalCache,
    remote: Remote,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> PushReport:
    """Upload local artifacts the remote lacks, then the merged manifest.

    The local entries replace the remote's entries of the same
    (period, plane) (:meth:`CacheManifest.replacing`), so a period the
    builder rebuilt reaches the remote once, not beside its old tiles.
    Every artifact is digest-verified *before* upload (corruption must
    not propagate — a bad local artifact quarantines and aborts the
    push), and the remote manifest is replaced last, so a crashed push
    leaves the remote's previous manifest intact over a superset of
    artifacts — exactly the local cache's own publication order.

    Raises:
        IntegrityError: a local artifact failed verification.
        RemoteError: uploads outlasted the retry budget.
    """
    policy = policy if policy is not None else default_policy()
    breaker = breaker if breaker is not None else default_breaker()
    report = PushReport()
    local_manifest = cache.manifest()
    try:
        remote_manifest = fetch_remote_manifest(remote, policy, breaker)
    except RemoteError:
        # A fresh remote has no manifest yet; push seeds it.
        remote_manifest = CacheManifest()
    to_upload = local_manifest.missing_from(remote_manifest)
    for entry in local_manifest.entries:
        if entry not in to_upload:
            report.skipped.append(entry.path)
    for entry in to_upload:
        payload = cache.read(entry)  # verify-on-read gate
        _upload(remote, entry.path, payload, policy, breaker, report)
        _PUSHED.inc()
        report.uploaded.append(entry.path)
        report.bytes_transferred += len(payload)
    merged = remote_manifest.replacing(local_manifest.entries)
    _upload(
        remote,
        MANIFEST_NAME,
        merged.to_json().encode("utf-8"),
        policy,
        breaker,
        report,
    )
    report.manifest_sha256 = merged.manifest_sha256
    return report


def _upload(
    remote: Remote,
    rel_path: str,
    payload: bytes,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    report: PushReport,
) -> None:
    delays = list(policy.delays())
    last: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        _breaker_check(breaker)
        try:
            remote.put(rel_path, payload)
        except RemoteError as exc:
            last = exc
            breaker.record_failure()
            _RETRIES.inc()
            report.retries += 1
            if attempt < len(delays):
                policy.backoff(delays[attempt])
            continue
        breaker.record_success()
        return
    raise RemoteError(
        f"{remote.name}: upload of {rel_path} failed after "
        f"{policy.max_attempts} attempt(s): {last}"
    ) from last


__all__ = [
    "FileRemote",
    "HttpRemote",
    "PullReport",
    "PushReport",
    "Remote",
    "default_breaker",
    "default_policy",
    "fetch_remote_manifest",
    "open_remote",
    "pull",
    "push",
]
