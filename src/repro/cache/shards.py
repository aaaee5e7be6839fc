"""Sharded, append-compacted persistence for the synthesis store.

Entries are distributed over per-shard **append logs** by fingerprint
prefix, so concurrent writers touching different shards never contend,
a save appends only the entries recorded since the last save, and a
torn write can damage at most the final line of one shard.

Layout: a directory of ``shard-<p>.jsonl`` files, ``p`` the
:func:`shard_prefix` of the entry fingerprint (one lowercase hex/alnum
character by default, sixteen-ish shards).  Each line is one record::

    {"fp": "<fingerprint>", "version": "<code version>", "entry": {...}}

Append discipline: records are appended under a per-shard
crash-reclaimable :class:`~repro.cache.locks.FileLock`; a missing
trailing newline (a writer killed mid-append) is healed before the next
append so one torn record never corrupts its successor.  Loads are
line-wise and tolerant: an undecodable line — the torn tail of a killed
append, or mid-file damage — is skipped with a
:class:`~repro.cache.integrity.CacheIntegrityWarning` while every other
record on the shard still loads, so a kill-mid-append leaves the store
*loadable*, not quarantined.

Compaction: appends never remove anything, so a shard accumulates dead
records (same-fingerprint rewrites, stale code versions, damaged
lines).  When a shard's record count crosses
``compact_min_records`` and exceeds ``compact_factor`` times its live
entry count — or the shard carries damaged/stale lines — it is
rewritten in place (temp file + ``os.replace``) under the same
per-shard lock.  :meth:`ShardedStore.compact` forces a full sweep.

Version skew: records carry the code version they were written with;
loads discard other-version records with a
:class:`~repro.cache.integrity.StaleVersionWarning` naming the count —
explicit invalidation, per record.

Migration: pointing a :class:`ShardedStore` at a path holding a store
file in the retired *single-JSON format* imports every entry into
shards — built in a private temp directory, then published with two
renames so no reader ever observes a half-migrated store — and
preserves the original byte-for-byte as ``<path>.migrated``.  A file
too corrupt to decode is quarantined as ``<path>.corrupt-<n>`` instead
and an empty store takes its place.  Re-opening an already-migrated
store is a no-op, and concurrent openers serialize on a migration lock,
so migration is idempotent.

:func:`shard_prefix`/:func:`shard_path` are shared with
:class:`~repro.cache.blobs.BlobStore`, which buckets the compiled-artifact
and tuned-schedule files into ``<root>/<prefix>/`` subdirectories with
per-shard publication locks (same helper, two-character prefix).

Fault-injection hook sites (see :mod:`repro.testing.faultinject`):
``shard-append`` fires before a shard append, ``shard-log`` truncates
the shard after an append (torn tail), ``shard-compact`` fires before
a compaction rewrite, and ``shard-file`` truncates the compacted shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple

from repro.cache.fingerprint import CODE_VERSION
from repro.cache.integrity import (
    CacheIntegrityWarning,
    StaleVersionWarning,
    atomic_write,
    quarantine_file,
)
from repro.cache.locks import FileLock, LockTimeout
from repro.testing import faultinject

SHARD_FORMAT = "sharded-store-1"

# Characters allowed verbatim in a shard prefix (and therefore in shard
# file/directory names); anything else falls back to a digest prefix.
_SAFE_PREFIX = frozenset("0123456789abcdefghijklmnopqrstuvwxyz")

_STATUS_VALUES = ("verified", "failure")


def shard_prefix(key: str, width: int = 2) -> str:
    """The shard bucket of ``key``: its first ``width`` characters.

    Keys are normally SHA-256 hex digests, so the prefix is uniform and
    filesystem-safe as-is; a key whose leading characters are not safe
    (or which is shorter than ``width``) buckets by digest instead, so
    *every* key deterministically lands somewhere.
    """
    prefix = str(key)[:width].lower()
    if len(prefix) == width and all(c in _SAFE_PREFIX for c in prefix):
        return prefix
    return hashlib.sha256(str(key).encode("utf-8")).hexdigest()[:width]


def shard_path(root: "os.PathLike[str] | str", key: str, width: int = 2) -> Path:
    """The shard directory for ``key`` under ``root`` (not created)."""
    return Path(root) / shard_prefix(key, width)


def _read_legacy_store(path: Path, code_version: str) -> Dict[str, Dict[str, Any]]:
    """Decode a store file in the retired single-JSON format.

    A missing or unreadable file is an empty store; a corrupt file is
    quarantined aside with a :class:`CacheIntegrityWarning`; a
    version-skewed file discards every entry with a
    :class:`StaleVersionWarning` carrying the discarded count (explicit
    invalidation, not corruption).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("store root is not an object")
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError("store entries is not an object")
        decoded = {
            str(fp): entry
            for fp, entry in entries.items()
            if isinstance(entry, dict) and entry.get("status") in _STATUS_VALUES
        }
        if data.get("version") != code_version:
            if decoded:
                warnings.warn(
                    f"synthesis store {path.name} was written by code version "
                    f"{data.get('version')!r}; discarding {len(decoded)} stale "
                    f"entries (current version {code_version!r})",
                    StaleVersionWarning,
                    stacklevel=3,
                )
            return {}
        return decoded
    except OSError:
        # Missing or unreadable file: plain cold start.
        return {}
    except ValueError as exc:  # covers JSONDecodeError
        # Torn write or truncation: keep the evidence, degrade to cold.
        quarantine_file(path, f"synthesis store corrupt ({exc})")
        return {}


class ShardedStore:
    """A directory of per-prefix append logs holding store entries.

    Parameters
    ----------
    root:
        The store directory.  If a *file* exists at this path it is
        treated as a store in the retired single-JSON format and
        migrated into shards (original preserved as
        ``<root>.migrated``).
    code_version:
        Stamped into every appended record; other-version records are
        discarded on load (with a :class:`StaleVersionWarning`) and
        dropped by compaction.
    lock_timeout:
        Per-shard lock patience.  An append that cannot take its shard
        lock leaves those entries unpersisted (they are returned to the
        caller to retry on the next save) with a warning, never a torn
        file.
    shard_width:
        Prefix characters per shard (1 → 16 shards for hex keys).
    compact_min_records / compact_factor:
        Compaction triggers once a shard holds at least
        ``compact_min_records`` records *and* more than
        ``compact_factor`` records per live entry (or any damaged or
        stale line).
    """

    def __init__(
        self,
        root: "os.PathLike[str] | str",
        code_version: str = CODE_VERSION,
        lock_timeout: float = 10.0,
        shard_width: int = 1,
        compact_min_records: int = 64,
        compact_factor: int = 4,
    ):
        self.root = Path(root)
        self.code_version = code_version
        self.lock_timeout = lock_timeout
        self.shard_width = shard_width
        self.compact_min_records = max(1, compact_min_records)
        self.compact_factor = max(1, compact_factor)
        self.compactions = 0
        self._migrate_legacy_file()

    # ------------------------------------------------------------------
    # Shard naming
    # ------------------------------------------------------------------
    def shard_name(self, key: str) -> str:
        return f"shard-{shard_prefix(key, self.shard_width)}.jsonl"

    def shard_file(self, key: str) -> Path:
        return self.root / self.shard_name(key)

    def shard_files(self) -> "list[Path]":
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("shard-*.jsonl"))

    def _shard_lock(self, path: Path) -> FileLock:
        return FileLock(str(path) + ".lock", timeout=self.lock_timeout)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _decode_shard(self, path: Path) -> Tuple[Dict[str, Dict[str, Any]], int, int, int]:
        """``(entries, records, stale, damaged)`` for one shard log.

        Later records win fingerprint collisions (append order is write
        order).  Undecodable lines are counted as damaged and skipped —
        a torn tail never takes the rest of the shard down with it.
        """
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return {}, 0, 0, 0
        entries: Dict[str, Dict[str, Any]] = {}
        records = stale = damaged = 0
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                fingerprint = record["fp"]
                entry = record["entry"]
                if not isinstance(fingerprint, str) or not isinstance(entry, dict):
                    raise ValueError("malformed shard record")
            except (ValueError, KeyError, TypeError):
                damaged += 1
                continue
            records += 1
            if record.get("version") != self.code_version:
                stale += 1
                continue
            entries[fingerprint] = entry
        return entries, records, stale, damaged

    def load_all(self, warn: bool = True) -> Dict[str, Dict[str, Any]]:
        """Every live entry across every shard.

        With ``warn`` (the default) stale-version and damaged-line
        counts are reported once per load; saves re-read silently.
        """
        merged: Dict[str, Dict[str, Any]] = {}
        stale = damaged = 0
        for path in self.shard_files():
            entries, _records, shard_stale, shard_damaged = self._decode_shard(path)
            merged.update(entries)
            stale += shard_stale
            damaged += shard_damaged
        if warn and stale:
            warnings.warn(
                f"sharded store {self.root.name} holds {stale} entries from "
                f"other code versions; discarded (current {self.code_version!r})",
                StaleVersionWarning,
                stacklevel=3,
            )
        if warn and damaged:
            warnings.warn(
                f"sharded store {self.root.name} had {damaged} undecodable "
                f"log lines (torn appends); skipped, {len(merged)} entries recovered",
                CacheIntegrityWarning,
                stacklevel=3,
            )
        return merged

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _encode_lines(self, entries: Mapping[str, Dict[str, Any]]) -> str:
        """One newline-terminated log record per entry, in key order."""
        return "".join(
            json.dumps(
                {"fp": fp, "version": self.code_version, "entry": entries[fp]},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for fp in sorted(entries)
        )

    @staticmethod
    def _heal_torn_tail(path: Path) -> None:
        """Ensure the log ends in a newline before appending after a crash."""
        try:
            with open(path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
        except (OSError, ValueError):
            return  # missing or empty file: nothing to heal
        if torn:
            with open(path, "ab") as handle:
                handle.write(b"\n")

    def append(self, entries: Mapping[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
        """Append ``entries`` to their shards; returns the *unpersisted* rest.

        Entries are grouped by shard and each group appended under its
        shard lock.  A shard whose lock is held by a live writer past
        the timeout is skipped with a :class:`CacheIntegrityWarning`
        and its entries come back to the caller (kept dirty for the
        next save) — degrading to "not yet persisted" rather than
        risking an unlocked interleaved write.
        """
        if not entries:
            return {}
        groups: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for fingerprint, entry in entries.items():
            groups.setdefault(self.shard_name(fingerprint), {})[fingerprint] = entry
        leftover: Dict[str, Dict[str, Any]] = {}
        self.root.mkdir(parents=True, exist_ok=True)
        for name in sorted(groups):
            group = groups[name]
            path = self.root / name
            lock = self._shard_lock(path)
            try:
                lock.acquire()
            except (LockTimeout, OSError):
                warnings.warn(
                    f"shard lock busy: kept {len(group)} entries in memory "
                    f"without appending to {name}",
                    CacheIntegrityWarning,
                    stacklevel=3,
                )
                leftover.update(group)
                continue
            try:
                faultinject.fire("shard-append", name)
                self._heal_torn_tail(path)
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(self._encode_lines(group))
                faultinject.corrupt_file("shard-log", name, path)
                try:
                    self._maybe_compact_locked(path)
                except Exception as exc:
                    # Compaction is an optimization; the append above is
                    # already durable.  A failed rewrite (full disk, an
                    # injected fault) keeps the uncompacted log and
                    # retries on a later append.
                    warnings.warn(
                        f"shard compaction failed for {name}: {exc}; "
                        "keeping the append-only log",
                        CacheIntegrityWarning,
                        stacklevel=3,
                    )
            finally:
                lock.release()
        return leftover

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _maybe_compact_locked(self, path: Path) -> bool:
        """Compact ``path`` (lock already held) when it carries dead weight."""
        try:
            with open(path, "rb") as handle:
                line_count = handle.read().count(b"\n")
        except OSError:
            return False
        if line_count < self.compact_min_records:
            return False
        entries, records, stale, damaged = self._decode_shard(path)
        if stale or damaged or records > self.compact_factor * max(1, len(entries)):
            self._rewrite_locked(path, entries)
            return True
        return False

    def _rewrite_locked(self, path: Path, entries: Dict[str, Dict[str, Any]]) -> None:
        """Atomically replace a shard log with its compacted form."""
        faultinject.fire("shard-compact", path.name)
        atomic_write(path, self._encode_lines(entries).encode("utf-8"))
        self.compactions += 1
        faultinject.corrupt_file("shard-file", path.name, path)

    def compact(self) -> Dict[str, int]:
        """Force-compact every shard; returns before/after record counts."""
        before = after = shards = 0
        for path in self.shard_files():
            try:
                with self._shard_lock(path):
                    entries, records, _stale, _damaged = self._decode_shard(path)
                    self._rewrite_locked(path, entries)
            except LockTimeout:
                continue  # a live writer holds this shard; skip it
            before += records
            after += len(entries)
            shards += 1
        return {"shards": shards, "records_before": before, "records_after": after}

    def clear(self) -> None:
        """Remove every shard log (each under its lock; busy shards stay)."""
        for path in self.shard_files():
            try:
                with self._shard_lock(path):
                    os.unlink(path)
            except OSError:
                continue

    # ------------------------------------------------------------------
    # Legacy migration
    # ------------------------------------------------------------------
    def _migrate_legacy_file(self) -> None:
        """Import a single-JSON store file found at ``self.root``.

        The shards are built in a private temp directory, then
        published with two renames: the legacy file moves aside to
        ``<root>.migrated`` (preserved byte-for-byte) and the temp
        directory takes its place.  A file that does not decode has
        already been quarantined by the read, so only the (empty) temp
        directory is published.  Concurrent openers serialize on a
        migration lock and re-check, so exactly one migrates; opening
        an already-migrated store is a no-op.
        """
        if not self.root.is_file():
            return
        lock = FileLock(
            str(self.root) + ".migrate.lock", timeout=max(self.lock_timeout, 30.0)
        )
        lock.acquire()
        try:
            if not self.root.is_file():
                return  # another opener migrated while we waited
            entries = _read_legacy_store(self.root, self.code_version)
            tmp_dir = Path(
                tempfile.mkdtemp(
                    prefix=self.root.name + ".migrating-", dir=str(self.root.parent)
                )
            )
            try:
                groups: Dict[str, Dict[str, Dict[str, Any]]] = {}
                for fingerprint, entry in entries.items():
                    groups.setdefault(self.shard_name(fingerprint), {})[fingerprint] = entry
                for name, group in groups.items():
                    (tmp_dir / name).write_text(self._encode_lines(group), encoding="utf-8")
                if self.root.is_file():  # not quarantined by the read
                    os.replace(self.root, str(self.root) + ".migrated")
                os.rename(tmp_dir, self.root)
            except OSError:
                shutil.rmtree(tmp_dir, ignore_errors=True)
                raise
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        return len(self.load_all(warn=False))

    def record_count(self) -> int:
        """Total log records across shards (live + stale + rewritten)."""
        total = 0
        for path in self.shard_files():
            _entries, records, _stale, damaged = self._decode_shard(path)
            total += records + damaged
        return total

    def stats(self) -> Dict[str, Any]:
        """JSON-able counters for benchmark/CI publication."""
        return {
            "format": SHARD_FORMAT,
            "root": str(self.root),
            "shards": len(self.shard_files()),
            "entries": self.entry_count(),
            "records": self.record_count(),
            "compactions": self.compactions,
            "generated": time.time(),
        }
