"""Crash-safe advisory file locks for the cache stores.

The synthesis store and the compiled-artifact store both serialize
multi-process writers through a lock *file* created with
``O_CREAT | O_EXCL`` (atomic on every platform and on the network
filesystems where ``fcntl`` locks silently degrade).  The failure mode
of naive lock files is well known: a writer killed between acquire and
release leaves the file behind and every later writer deadlocks waiting
for a lock nobody holds.  :class:`FileLock` therefore records the
holder's pid and acquisition time inside the lock file, and a blocked
acquirer *reclaims* the lock when the holder is provably gone:

* the recorded pid is no longer alive (``os.kill(pid, 0)`` raises
  ``ESRCH``), or
* the lock is older than ``stale_after`` seconds (covers unparseable
  lock files and pid reuse on long-dead holders).

Reclaiming unlinks the stale file and retries the atomic create, so two
concurrent reclaimers still serialize — only one ``O_EXCL`` create wins.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

from repro.testing import faultinject


class LockTimeout(OSError):
    """Raised when a lock cannot be acquired within the timeout."""


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid currently running?

    ``EPERM`` means the pid exists but belongs to another user — alive.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM and the like: the pid exists
        return True
    return True


class FileLock:
    """An exclusive inter-process lock backed by an ``O_EXCL`` lock file.

    Usage::

        with FileLock(path + ".lock"):
            ...  # critical section

    Parameters
    ----------
    path:
        The lock file itself (conventionally ``<protected file>.lock``).
    timeout:
        Seconds to wait for the holder before giving up with
        :class:`LockTimeout`.
    stale_after:
        Age beyond which a lock is reclaimed even if its pid still looks
        alive (pid reuse) or cannot be parsed (partial write).  Cache
        critical sections are sub-second, so the default is generous.
    poll_interval:
        Sleep between acquisition attempts while the lock is held.
    """

    def __init__(
        self,
        path: "os.PathLike[str] | str",
        timeout: float = 10.0,
        stale_after: float = 30.0,
        poll_interval: float = 0.01,
    ):
        self.path = Path(path)
        self.timeout = timeout
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        self._held = False

    # -- holder metadata ----------------------------------------------------
    def _read_holder(self) -> "tuple[Optional[int], Optional[float]]":
        """(pid, acquired-at) recorded in the lock file; ``None`` if unreadable."""
        try:
            text = self.path.read_text(encoding="utf-8")
            pid_text, _, time_text = text.partition(" ")
            return int(pid_text), float(time_text)
        except (OSError, ValueError):
            return None, None

    def _is_stale(self) -> bool:
        pid, acquired = self._read_holder()
        if pid is not None and not _pid_alive(pid):
            return True
        if acquired is not None:
            return time.time() - acquired > self.stale_after
        # Unreadable/partially-written lock file: fall back to its mtime.
        try:
            return time.time() - self.path.stat().st_mtime > self.stale_after
        except OSError:
            # Vanished between attempts — not stale, just gone; retry.
            return False

    def _reclaim(self) -> None:
        """Unlink a stale lock file (racing reclaimers both succeed)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # -- acquisition --------------------------------------------------------
    def acquire(self) -> None:
        if self._held:
            raise RuntimeError(f"lock {self.path} is already held by this instance")
        faultinject.fire("lock-acquire", str(self.path))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._is_stale():
                    self._reclaim()
                    continue  # retry the atomic create immediately
                if time.monotonic() >= deadline:
                    pid, _acquired = self._read_holder()
                    raise LockTimeout(
                        f"could not acquire {self.path} within {self.timeout:.1f}s "
                        f"(held by pid {pid})"
                    )
                time.sleep(self.poll_interval)
                continue
            try:
                os.write(fd, f"{os.getpid()} {time.time()}".encode("ascii"))
            finally:
                os.close(fd)
            self._held = True
            faultinject.fire("lock-acquired", str(self.path))
            return

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self.release()
