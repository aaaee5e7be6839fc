"""Corruption handling shared by the cache stores: quarantine, never destroy.

A torn write (power loss mid-``write``, a full disk, an injected fault)
leaves a store file that no longer decodes, or a compiled artifact whose
bytes no longer match their recorded digest.  The old behaviour —
silently treating the file as empty — meant the very next save
*overwrote the evidence*, making corruption bugs unreproducible.  Every
store routes through :func:`quarantine_file`: the damaged file is
renamed aside as ``<path>.corrupt-<n>`` (first free ``n``) and a
:class:`CacheIntegrityWarning` is emitted, so the run still degrades
gracefully but the forensic trail survives.  Whole-file rewrites go
through :func:`atomic_write`, so a crash leaves the old file or the
new one, never a torn mix.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from pathlib import Path
from typing import Optional


class CacheIntegrityWarning(UserWarning):
    """A cache file was corrupt or a degradation path engaged."""


class StaleVersionWarning(CacheIntegrityWarning):
    """Stored entries from another code version were discarded.

    Version skew is *explicit invalidation*, not corruption — templates,
    strategies or the verifier changed semantics, so replaying the old
    entries would be wrong.  It is still worth a signal: silently
    returning an empty cache makes "why did my warm run go cold?"
    undiagnosable, so the stores report how many entries they discarded
    and which versions disagreed.
    """


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` via a sibling temp file and ``os.replace``.

    Readers see the old file or the new one, never a partial write; on
    failure the temp file is removed and the error propagates.
    """
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=str(path.parent))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def quarantine_file(path: "os.PathLike[str] | str", reason: str) -> Optional[Path]:
    """Move ``path`` aside as ``<path>.corrupt-<n>`` and warn.

    Returns the quarantine path, or ``None`` when the file vanished
    first (a racing process quarantined it — both degrade, one keeps
    the evidence).  The rename is atomic, so two racing quarantiners
    cannot both "win" the same source file.
    """
    path = Path(path)
    for n in range(1, 1000):
        target = Path(f"{path}.corrupt-{n}")
        if target.exists():
            continue
        try:
            os.replace(path, target)
        except OSError:
            return None
        warnings.warn(
            f"{reason}: quarantined {path.name} as {target.name}",
            CacheIntegrityWarning,
            stacklevel=3,
        )
        return target
    return None
