"""Content-addressed cache of verified synthesis results.

The paper ran every per-kernel synthesis strategy from scratch on a
cluster; a production lifting service cannot afford to re-prove the
same kernel on every request.  This package memoizes the expensive
middle of the pipeline — template generation, CEGIS and bounded
verification — keyed by a *content address*:

* a structural hash of the kernel IR (:mod:`repro.cache.fingerprint`),
  independent of the kernel's display name, so textually renamed but
  structurally identical kernels share one entry;
* the synthesis-relevant pipeline options (seed, trials, candidate
  budget, verifier environments, strategy roster); and
* a code-version tag bumped whenever the template generator, strategy
  set or verifier change semantics.

Verified :class:`~repro.synthesis.cegis.CEGISResult` summaries (and
definitive failures) are persisted to a sharded directory of append
logs (:mod:`repro.cache.store`, :mod:`repro.cache.shards`) so warm runs
skip synthesis entirely.  Compiled native artifacts and tuned-schedule
winners live in two content-addressed file stores built on one
integrity-checked primitive, :class:`~repro.cache.blobs.BlobStore`.
"""

from repro.cache.artifacts import ArtifactStore, artifact_key
from repro.cache.blobs import BlobStore
from repro.cache.integrity import (
    CacheIntegrityWarning,
    StaleVersionWarning,
    quarantine_file,
    sha256_bytes,
)
from repro.cache.fingerprint import (
    CODE_VERSION,
    fingerprint_kernel,
    fingerprint_synthesis,
    options_signature,
)
from repro.cache.locks import FileLock, LockTimeout
from repro.cache.schedules import (
    SCHEDULE_FORMAT,
    ScheduleStore,
    machine_fingerprint,
    schedule_from_payload,
    schedule_key,
    schedule_to_payload,
)
from repro.cache.shards import (
    SHARD_FORMAT,
    ShardedStore,
    shard_path,
    shard_prefix,
)
from repro.cache.store import CachedOutcome, SynthesisCache

__all__ = [
    "ArtifactStore",
    "BlobStore",
    "CODE_VERSION",
    "CacheIntegrityWarning",
    "CachedOutcome",
    "FileLock",
    "LockTimeout",
    "SCHEDULE_FORMAT",
    "SHARD_FORMAT",
    "ScheduleStore",
    "ShardedStore",
    "StaleVersionWarning",
    "SynthesisCache",
    "shard_path",
    "shard_prefix",
    "artifact_key",
    "machine_fingerprint",
    "schedule_from_payload",
    "schedule_key",
    "schedule_to_payload",
    "fingerprint_kernel",
    "fingerprint_synthesis",
    "options_signature",
    "quarantine_file",
    "sha256_bytes",
]
