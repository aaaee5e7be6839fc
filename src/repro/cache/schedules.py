"""Content-addressed store of tuned-schedule winners.

Measured autotuning is the most expensive mode the pipeline has: every
evaluation compiles and *times* a candidate schedule, and timing cannot
be cached, parallelised away or skipped — it is wall-clock by
definition.  But the *outcome* of a tuning run is a pure function of
what was tuned and where: the kernel (structurally, via
:func:`~repro.cache.fingerprint.fingerprint_kernel`), the search space
shape, the measuring backend, the compiler that built the candidates
and the machine that timed them, plus the tuning configuration (budget,
repeats, measurement grid, seed, thread count).  This store keys the
winning :class:`~repro.halide.schedule.Schedule` and its measurement
summary by the SHA-256 of exactly that tuple, so a warm ``measure``-mode
run performs **zero** measurements and zero compiler invocations — it
loads the winner and moves on.

Layout, atomic publication under per-shard locks and integrity come
from :class:`~repro.cache.blobs.BlobStore`: one ``<key>.json`` record
per entry, checked against the SHA-256 in its ``<key>.meta`` sidecar.
A record that fails the digest, does not parse or carries another
:data:`SCHEDULE_FORMAT` is quarantined aside as ``*.corrupt-<n>``
(:class:`~repro.cache.integrity.CacheIntegrityWarning`) and reported as
a miss, so the caller re-tunes instead of trusting a torn write.

Machine identity (:func:`machine_fingerprint`) deliberately covers the
platform, architecture and core count but *not* the hostname: two
identical containers share tuned schedules, while moving the store to a
different architecture or core count invalidates every entry.

The per-instance ``hits``/``misses`` counters let benchmarks *prove*
warmth: a warm application tune asserts ``misses == 0`` next to the
objective's ``evaluations == 0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.cache.blobs import BlobStore
from repro.halide.schedule import Schedule

# Bump when the record layout, the Schedule fields or the key recipe
# change: old records become unreachable rather than wrongly reused.
# "2" moved the record digest into a ``<key>.meta`` sidecar (BlobStore).
SCHEDULE_FORMAT = "tuned-schedule-2"


def machine_fingerprint() -> str:
    """Identity of the timing machine, folded into every schedule key.

    Platform, architecture and core count — the properties that change
    which schedule wins — but no hostname, so identical machines (CI
    containers, cluster nodes) share one cache population.
    """
    return (
        f"{platform.system()}|{platform.machine()}|cores={os.cpu_count() or 1}"
    )


def schedule_key(
    kernel_fingerprint: str,
    space_signature: str,
    backend: str,
    toolchain_fingerprint: str,
    machine: str,
    config: Mapping[str, Any],
) -> str:
    """Content address of one tuning run's outcome.

    The key covers everything the winning schedule depends on; any
    ingredient changing — a different kernel body, a wider search
    space, another backend or compiler, a machine with more cores, a
    different budget/seed — produces a different key, never a stale hit.
    """
    identity = {
        "format": SCHEDULE_FORMAT,
        "kernel": kernel_fingerprint,
        "space": space_signature,
        "backend": backend,
        "toolchain": toolchain_fingerprint,
        "machine": machine,
        "config": dict(config),
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def schedule_to_payload(schedule: Schedule) -> Dict[str, Any]:
    """A JSON-able dict carrying every Schedule field."""
    return {
        "parallel_dim": schedule.parallel_dim,
        "tile_sizes": list(schedule.tile_sizes),
        "vector_width": schedule.vector_width,
        "unroll": schedule.unroll,
        "dim_order": None if schedule.dim_order is None else list(schedule.dim_order),
        "gpu": schedule.gpu,
        "gpu_block": list(schedule.gpu_block),
        "inline": schedule.inline,
    }


def schedule_from_payload(payload: Mapping[str, Any]) -> Schedule:
    """Rebuild a Schedule from :func:`schedule_to_payload` output.

    Construction re-runs the Schedule invariant checks, so a record
    edited into inconsistency raises rather than lowering garbage.
    """
    dim_order = payload.get("dim_order")
    return Schedule(
        parallel_dim=payload.get("parallel_dim"),
        tile_sizes=tuple(payload.get("tile_sizes") or ()),
        vector_width=int(payload.get("vector_width", 1)),
        unroll=int(payload.get("unroll", 1)),
        dim_order=None if dim_order is None else tuple(dim_order),
        gpu=bool(payload.get("gpu", False)),
        gpu_block=tuple(payload.get("gpu_block") or (16, 16)),
        inline=bool(payload.get("inline", False)),
    )


class ScheduleStore(BlobStore):
    """A directory of content-addressed tuned-schedule records.

    Parameters
    ----------
    directory:
        Where records live; created on first write.
    lock_timeout:
        Patience for the publish-time lock; on timeout the record simply
        is not published (the tuning result is still returned to this
        process's caller).
    """

    def __init__(self, directory: "os.PathLike[str] | str", lock_timeout: float = 10.0):
        super().__init__(directory, ".json", "schedule-publish", "schedule-record", lock_timeout)

    record_path = BlobStore.blob_path

    def _accepts(self, data: bytes) -> bool:
        try:
            record = json.loads(data)
        except ValueError:
            return False
        return isinstance(record, dict) and record.get("format") == SCHEDULE_FORMAT

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified record for ``key``, or ``None`` (counted as a miss)."""
        path = super().get(key)
        return None if path is None else json.loads(path.read_bytes())

    def put(self, key: str, record: Mapping[str, Any]) -> Optional[Path]:
        """Publish one tuning outcome under ``key``; returns its path.

        The store stamps the format version and creation time.  A lock
        timeout skips publishing (returns ``None``) — the caller keeps
        its in-memory result.
        """
        stamped = {**record, "format": SCHEDULE_FORMAT, "created": time.time()}
        data = json.dumps(stamped, indent=2, sort_keys=True).encode("utf-8")
        return super().put(key, data)

    def stats(self) -> Dict[str, Any]:
        return {**super().stats(), "schedule_hits": self.hits, "schedule_misses": self.misses}
