"""Persistent store of synthesis outcomes, keyed by fingerprint.

An entry records either a verified summary (the serialized
``CEGISResult``) or a definitive failure (no strategy produced a
verified summary) — both outcomes are deterministic functions of the
fingerprinted inputs (:mod:`repro.cache.fingerprint`), so warm runs can
replay them without re-synthesizing.

The store is a directory of per-fingerprint-prefix append logs
(:class:`~repro.cache.shards.ShardedStore`) with periodic compaction
and per-shard locks, safe for many concurrent writers: a save appends
only the entries recorded since the last save.  A store *file* left at
the path by the retired single-JSON format is imported once on open
(original preserved as ``<path>.migrated``).

Robustness rules:

* a missing store is treated as empty — a warm run silently degrades to
  a cold one; a torn shard log skips the damaged lines with a
  :class:`~repro.cache.integrity.CacheIntegrityWarning` and keeps every
  other record, and a corrupt legacy file is quarantined aside as
  ``<path>.corrupt-<n>`` before an empty store takes its place, so the
  evidence (or the bulk of the store) survives;
* entries carry the :data:`~repro.cache.fingerprint.CODE_VERSION` they
  were written with; a version mismatch discards the stale entries with
  a :class:`~repro.cache.integrity.StaleVersionWarning` naming the
  discarded count (explicit invalidation when templates/strategies
  change), while option changes invalidate implicitly because they
  change the fingerprint;
* appends are newline-delimited records whose torn tails are healed
  and skipped, serialized per shard through crash-reclaimable
  :class:`~repro.cache.locks.FileLock`\\ s: a writer killed mid-save
  leaves a lock file behind, and the next save detects the dead holder
  (pid liveness, then age) and reclaims it instead of deadlocking the
  warm run;
* entries created since the last drain are handed out by
  :meth:`SynthesisCache.drain_new_entries` so process-pool workers can
  ship them back to the parent, which merges and saves once — workers
  never write the store and therefore never race each other.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.ir import nodes as ir
from repro.cache.fingerprint import CODE_VERSION, fingerprint_synthesis
from repro.cache.serialize import CachePayloadError, result_from_payload, result_to_payload
from repro.cache.shards import ShardedStore

_STATUS_VERIFIED = "verified"
_STATUS_FAILURE = "failure"


@dataclass
class CachedOutcome:
    """One decoded cache entry: a verified summary or a recorded failure."""

    fingerprint: str
    verified: bool
    payload: Dict[str, Any]

    def result(self, kernel: ir.Kernel):
        """Rehydrate the stored ``CEGISResult`` against the live kernel."""
        if not self.verified:
            raise ValueError("cache entry records a failure, not a result")
        return result_from_payload(self.payload, kernel)

    @property
    def failure_message(self) -> str:
        return str(self.payload.get("message", "synthesis failed (cached)"))


class SynthesisCache:
    """Content-addressed store of synthesis outcomes.

    Parameters
    ----------
    path:
        Directory of the sharded store backing the cache; ``None`` keeps
        the cache purely in-memory (useful for tests and for pool
        workers that ship entries back to the parent instead of
        writing).
    autosave:
        Persist after every recorded entry — durable by default (a
        crash loses nothing).  Each save appends only the new entries
        but then re-reads the whole store to fold in other writers'
        entries, so a long sweep still pays O(n²) in reads.  Batch users
        (and the batch scheduler, automatically) disable this and call
        :meth:`save` once.
    cache_failures:
        Also record definitive synthesis failures so warm runs skip the
        (typically slowest) exhausted-space kernels.  Set to ``False``
        to re-attempt failed kernels on every run.
    lock_timeout:
        Per-shard lock patience for saves (see :meth:`save`).
    """

    def __init__(
        self,
        path: "os.PathLike[str] | str | None" = None,
        code_version: str = CODE_VERSION,
        autosave: bool = True,
        cache_failures: bool = True,
        lock_timeout: float = 10.0,
    ):
        self.path = Path(path) if path is not None else None
        self.code_version = code_version
        self.autosave = autosave
        self.cache_failures = cache_failures
        self.lock_timeout = lock_timeout
        self.hits = 0
        self.misses = 0
        self._shards: Optional[ShardedStore] = (
            ShardedStore(self.path, code_version=code_version, lock_timeout=lock_timeout)
            if self.path is not None
            else None
        )
        self._entries: Dict[str, Dict[str, Any]] = (
            self._shards.load_all() if self._shards is not None else {}
        )
        self._new: Dict[str, Dict[str, Any]] = {}
        # Entries recorded or merged since the last successful save:
        # what the next save appends.
        self._dirty: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, merge: bool = True) -> None:
        """Persist the entries recorded since the last save.

        With ``merge`` (the default) the save appends the dirty entries,
        each shard under its own crash-reclaimable
        :class:`~repro.cache.locks.FileLock` (compacting a shard once it
        has accumulated dead records), then re-reads the store and folds
        entries recorded there by *other* writers into memory, our own
        entries winning any fingerprint collision.  A shard whose lock
        a *live* holder keeps past ``lock_timeout`` is skipped with a
        :class:`~repro.cache.integrity.CacheIntegrityWarning`: its
        entries stay dirty (in memory) for the next save and its log is
        left untouched.  ``merge=False`` replaces the store with exactly
        the in-memory entries (used by :meth:`clear`, where resurrecting
        disk entries would defeat the point).
        """
        if self._shards is None:
            return
        if not merge:
            self._shards.clear()
            self._dirty = self._shards.append(dict(self._entries))
            return
        self._dirty = self._shards.append(self._dirty)
        self._entries = {**self._shards.load_all(warn=False), **self._entries}

    def clear(self) -> None:
        self._entries = {}
        self._new = {}
        self._dirty = {}
        if self.autosave:
            self.save(merge=False)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup and recording
    # ------------------------------------------------------------------
    def fingerprint(self, kernel: ir.Kernel, config: Mapping[str, Any]) -> str:
        return fingerprint_synthesis(kernel, config, code_version=self.code_version)

    def get(self, fingerprint: str) -> Optional[CachedOutcome]:
        """Decode the entry stored under ``fingerprint``, if any.

        With ``cache_failures=False`` recorded failures are invisible —
        both newly-recorded and previously-persisted ones — so failed
        kernels are re-attempted on every run.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        status = entry.get("status")
        if status == _STATUS_FAILURE and not self.cache_failures:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        return CachedOutcome(
            fingerprint=fingerprint,
            verified=status == _STATUS_VERIFIED,
            payload=payload,
        )

    def _put(self, fingerprint: str, entry: Dict[str, Any]) -> None:
        self._entries[fingerprint] = entry
        self._new[fingerprint] = entry
        self._dirty[fingerprint] = entry
        if self.autosave:
            self.save()

    def record_result(self, fingerprint: str, result, kernel_name: str = "") -> None:
        """Store a verified ``CEGISResult`` under ``fingerprint``."""
        try:
            payload = result_to_payload(result)
        except CachePayloadError:
            # An unserializable summary is simply not cached.
            return
        self._put(
            fingerprint,
            {
                "status": _STATUS_VERIFIED,
                "payload": payload,
                "kernel": kernel_name,
                "created": time.time(),
            },
        )

    def record_failure(self, fingerprint: str, message: str, kernel_name: str = "") -> None:
        """Store a definitive synthesis failure under ``fingerprint``."""
        if not self.cache_failures:
            return
        self._put(
            fingerprint,
            {
                "status": _STATUS_FAILURE,
                "payload": {"message": message},
                "kernel": kernel_name,
                "created": time.time(),
            },
        )

    # ------------------------------------------------------------------
    # Cross-process entry shipping
    # ------------------------------------------------------------------
    def drain_new_entries(self) -> Dict[str, Dict[str, Any]]:
        """Entries recorded since the last drain (picklable, JSON-ready).

        Pool workers call this after each job so every entry is shipped
        to the parent exactly once (the entries themselves stay in the
        worker's in-memory cache for intra-batch hits).
        """
        drained = self._new
        self._new = {}
        return dict(drained)

    def snapshot_entries(self) -> Dict[str, Dict[str, Any]]:
        """Every current entry (for seeding an in-memory worker cache)."""
        return dict(self._entries)

    def preload(self, entries: Mapping[str, Dict[str, Any]]) -> None:
        """Adopt pre-existing entries without marking them as new."""
        self._entries.update(entries)

    def merge_entries(self, entries: Mapping[str, Dict[str, Any]]) -> int:
        """Adopt entries shipped back from a worker; returns how many were new."""
        added = 0
        for fingerprint, entry in entries.items():
            if fingerprint not in self._entries:
                added += 1
            self._entries[fingerprint] = entry
            self._new[fingerprint] = entry
            self._dirty[fingerprint] = entry
        if added and self.autosave:
            self.save()
        return added
