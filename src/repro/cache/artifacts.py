"""Content-addressed store of compiled native kernel artifacts.

The native execution backend (:mod:`repro.native`) compiles emitted C
kernels into shared objects with the system toolchain.  Compilation is
by far the most expensive part of native dispatch, and it is a pure
function of (generated source, compiler, flags) — exactly the shape of
an output cache: this store keys every ``.so`` by the SHA-256 of that
triple, so a warm run ``dlopen``\\ s the cached artifact instead of
re-lowering and re-compiling anything.

Layout, atomic publication under per-shard locks and the sha256
integrity check come from :class:`~repro.cache.blobs.BlobStore`: each
artifact is ``<key>.so`` next to a ``<key>.meta`` sidecar (kernel name,
schedule, source digest, compiler fingerprint, creation time, and the
SHA-256 of the published bytes).  A truncated or bit-flipped ``.so``
is quarantined and reported as a miss, so the caller recompiles instead
of ``dlopen``\\ ing garbage.

The store keeps per-instance counters (artifact hits/misses, compiles
performed, compile seconds) which the benchmarks publish next to the
speedup JSON — a warm run is *verified* warm by ``compiles == 0``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.cache.blobs import BlobStore

# Bump when the artifact layout or the generated-code ABI changes: old
# artifacts become unreachable (new keys) rather than wrongly loaded.
# "2" added the mandatory sha256 integrity digest to the sidecar.
# "3" added the trailing ``int64_t threads`` entry-point argument (the
# threaded parallel-band dispatch) — pre-thread .so files must never be
# called through the new signature.
# "4" moved the sidecar to ``<key>.meta`` (the shared BlobStore layout).
ARTIFACT_FORMAT = "native-artifact-4"


def artifact_key(source: str, toolchain_fingerprint: str) -> str:
    """Content address of one compiled kernel.

    The key covers everything the bits of the ``.so`` depend on: the
    generated C source (which itself encodes the lowered loop nest,
    i.e. kernel *and* schedule *and* strict-bounds mode), the compiler
    identity/version and the flag set, and the artifact format version.
    """
    digest = hashlib.sha256()
    digest.update(ARTIFACT_FORMAT.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(toolchain_fingerprint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


class ArtifactStore(BlobStore):
    """A directory of content-addressed compiled kernels.

    Parameters
    ----------
    directory:
        Where artifacts live; created on first write.
    lock_timeout:
        Patience for the publish-time lock; on timeout the artifact is
        still produced for this process (from its temp build), it just
        is not published to the shared directory.
    """

    def __init__(self, directory: "os.PathLike[str] | str", lock_timeout: float = 10.0):
        super().__init__(directory, ".so", "artifact-publish", "artifact-so", lock_timeout)
        self.compiles = 0
        self.compile_seconds = 0.0

    so_path = BlobStore.blob_path

    def put(self, key: str, built_so: "os.PathLike[str] | str", metadata: Optional[Dict[str, Any]] = None) -> Path:
        """Publish a freshly compiled ``.so`` under ``key``; returns its path.

        The build itself happens outside the store (and outside the
        lock).  If another process published the same key first, its
        artifact wins (the contents are identical by construction) once
        it re-verifies.  A lock timeout returns ``built_so`` itself: the
        private build stays usable, the shared store is just not updated.
        """
        sidecar = {"format": ARTIFACT_FORMAT, **(metadata or {})}
        published = super().put(key, Path(built_so).read_bytes(), sidecar)
        return Path(built_so) if published is None else published

    def note_compile(self, seconds: float) -> None:
        """Record one toolchain invocation (for the cold-vs-warm stats)."""
        self.compiles += 1
        self.compile_seconds += seconds

    def stats(self) -> Dict[str, Any]:
        return {
            **super().stats(),
            "bytes": sum(path.stat().st_size for path in self.directory.rglob("*.so")),
            "artifact_hits": self.hits,
            "artifact_misses": self.misses,
            "compiles": self.compiles,
            "compile_seconds": self.compile_seconds,
        }
