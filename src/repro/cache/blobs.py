"""Content-addressed, integrity-checked file store shared by the side caches.

The compiled-artifact store (:mod:`repro.cache.artifacts`) and the
tuned-schedule store (:mod:`repro.cache.schedules`) both keep one
immutable file per content key; this is their one implementation of
layout, publication, verification and quarantine.

Layout: ``<root>/<prefix>/<key><suffix>`` (two-character
:func:`~repro.cache.shards.shard_path` buckets) next to a
``<key>.meta`` JSON sidecar holding the SHA-256 and size of the
published bytes, the creation time and any caller metadata.  Both files
are published atomically under a *per-shard* crash-reclaimable
:class:`~repro.cache.locks.FileLock`, so writers only contend within a
bucket, never expose half-written files, and a killed writer never
wedges the store.  A load whose bytes fail the digest — or whose
sidecar is missing, unreadable or digest-less — quarantines both files
as ``*.corrupt-<n>`` (:class:`~repro.cache.integrity.CacheIntegrityWarning`)
and counts a miss, so the caller rebuilds instead of trusting a torn
write.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.cache.integrity import atomic_write, quarantine_file, sha256_bytes
from repro.cache.locks import FileLock, LockTimeout
from repro.cache.shards import shard_path
from repro.testing import faultinject


class BlobStore:
    """A directory of files addressed by key, each checked by sha256.

    ``suffix`` names the payload files (``.so``, ``.json``);
    ``publish_site``/``write_site`` are the fault-injection sites fired
    on entry to :meth:`put` and after the payload file is published; on
    a ``lock_timeout`` :meth:`put` publishes nothing.
    """

    def __init__(
        self,
        directory: "os.PathLike[str] | str",
        suffix: str,
        publish_site: str,
        write_site: str,
        lock_timeout: float = 10.0,
    ):
        self.directory = Path(directory)
        self.suffix = suffix
        self.publish_site = publish_site
        self.write_site = write_site
        self.lock_timeout = lock_timeout
        self.hits = 0
        self.misses = 0

    def shard_dir(self, key: str) -> Path:
        """The ``<root>/<prefix>/`` bucket holding ``key``'s files."""
        return shard_path(self.directory, key)

    def publish_lock_path(self, key: str) -> Path:
        """The per-shard lock publications into ``key``'s bucket take."""
        return Path(str(self.shard_dir(key)) + ".lock")

    def blob_path(self, key: str) -> Path:
        return self.shard_dir(key) / f"{key}{self.suffix}"

    def meta_path(self, key: str) -> Path:
        return self.shard_dir(key) / f"{key}.meta"

    def _accepts(self, data: bytes) -> bool:
        """Payload check run on digest-verified bytes; subclasses narrow it."""
        return True

    def _verify(self, key: str) -> bool:
        """Do ``key``'s bytes match their published digest?  ``False`` quarantines."""
        try:
            sidecar = json.loads(self.meta_path(key).read_text(encoding="utf-8"))
            expected = sidecar.get("sha256") if isinstance(sidecar, dict) else None
        except (OSError, ValueError):
            expected = None
        try:
            data: Optional[bytes] = self.blob_path(key).read_bytes()
        except OSError:
            data = None
        if expected is None:
            reason = f"entry {key[:16]} has no integrity digest"
        elif data is None or sha256_bytes(data) != expected:
            reason = f"entry {key[:16]} digest mismatch"
        elif not self._accepts(data):
            reason = f"entry {key[:16]} failed verification"
        else:
            return True
        quarantine_file(self.blob_path(key), reason)
        if self.meta_path(key).is_file():
            quarantine_file(self.meta_path(key), reason)
        return False

    def get(self, key: str) -> Optional[Path]:
        """Path of ``key``'s verified file, or ``None`` (counted as a miss)."""
        path = self.blob_path(key)
        if path.is_file() and self._verify(key):
            self.hits += 1
            return path
        self.misses += 1
        return None

    def put(
        self, key: str, data: bytes, metadata: Optional[Mapping[str, Any]] = None
    ) -> Optional[Path]:
        """Publish ``data`` under ``key``; returns its path, ``None`` on lock timeout.

        An entry already published under ``key`` that verifies is kept
        (content addressing makes it equivalent); a corrupt one is
        quarantined and replaced.
        """
        faultinject.fire(self.publish_site, key)
        target = self.blob_path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        lock = FileLock(self.publish_lock_path(key), timeout=self.lock_timeout)
        try:
            lock.acquire()
        except LockTimeout:
            return None
        try:
            if target.is_file() and self._verify(key):
                return target
            sidecar: Dict[str, Any] = dict(metadata or {})
            sidecar.update(created=time.time(), size=len(data), sha256=sha256_bytes(data))
            atomic_write(target, data)
            faultinject.corrupt_file(self.write_site, key, target)
            atomic_write(self.meta_path(key), json.dumps(sidecar, indent=2, sort_keys=True).encode("utf-8"))
            return target
        finally:
            lock.release()

    def entry_count(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.rglob(f"*{self.suffix}"))

    def stats(self) -> Dict[str, Any]:
        """JSON-able counters for benchmark/CI publication."""
        return {"directory": str(self.directory), "entries": self.entry_count()}
