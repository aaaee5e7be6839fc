"""Deterministic fault injection, keyed by an injection spec.

The fault-tolerance layer (:mod:`repro.pipeline.faults`) must be tested
against worker crashes, SIGKILLs, hangs, lock-holder death and torn
writes — failure modes that are miserable to reproduce with real races.
This module injects them *deterministically*: production code calls
:func:`fire` (or :func:`corrupt_file`) at a handful of hook points, and
when ``$REPRO_FAULTS`` names an injection-spec file the matching fault
executes on exactly the configured occurrence.  With the variable unset
— every production run — each hook is one dictionary lookup.

Spec format (JSON)::

    {
      "state_dir": "/tmp/faults-state",
      "faults": [
        {"site": "worker-job", "key": "heat_step", "kind": "kill",
         "occurrences": [1]},
        {"site": "shard-log", "kind": "truncate", "occurrences": [1],
         "keep_bytes": 40}
      ]
    }

``site`` names the hook point; ``key`` is a substring match against the
hook's key argument (empty matches everything); ``occurrences`` lists
which firings of this spec actually fault.  Occurrence counters are
allocated as ``O_CREAT | O_EXCL`` marker files under ``state_dir``, so
counting is atomic and *shared across processes*: a job SIGKILLed on
occurrence 1 is retried in a rebuilt pool worker, which observes
occurrence 2 and passes.  That cross-process discipline is what makes
the matrix deterministic — no sleeps, no timing assumptions.

Hook sites wired into production code:

=================== =====================================================
``worker-job``      batch-pool worker entry (key: job name)
``site-lift``       sequential application lifting (key: kernel name)
``lock-acquire``    :class:`~repro.cache.locks.FileLock` before acquiring
``lock-acquired``   just after acquiring (``kill`` here = holder death)
``artifact-publish``:meth:`~repro.cache.artifacts.ArtifactStore.put` entry
``artifact-so``     published ``.so`` (``truncate`` = torn write)
``schedule-publish`` :meth:`~repro.cache.schedules.ScheduleStore.put` entry
``schedule-record`` published tuned-schedule record (``truncate``)
``shard-append``    sharded-store append, lock held (key: shard name)
``shard-log``       shard log after an append (``truncate`` = torn tail)
``shard-compact``   before a shard compaction rewrite (key: shard name)
``shard-file``      compacted shard log (``truncate``)
``dedup-handoff``   service result handoff to deduped subscribers
``runlog-append``   service run-log line about to be appended
``toolchain-compile`` :meth:`~repro.native.toolchain.Toolchain.compile`
=================== =====================================================

Fault kinds: ``raise`` (:class:`InjectedFault`), ``kill`` (SIGKILL to
self), ``exit`` (``os._exit(3)``, death without a signal), ``hang``
(block for ``seconds``, relying on the scheduler deadline to kill the
worker), and ``truncate`` (file sites only; keeps ``keep_bytes`` or the
first half of the file).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ENV_VAR = "REPRO_FAULTS"

KIND_RAISE = "raise"
KIND_KILL = "kill"
KIND_EXIT = "exit"
KIND_HANG = "hang"
KIND_TRUNCATE = "truncate"


class InjectedFault(RuntimeError):
    """The exception a ``raise``-kind fault throws at its hook point."""


@dataclass(frozen=True)
class FaultSpec:
    """One entry of an injection spec."""

    index: int
    site: str
    key: str
    kind: str
    occurrences: Tuple[int, ...]
    seconds: float = 60.0
    keep_bytes: Optional[int] = None

    def matches(self, site: str, key: str) -> bool:
        return self.site == site and (not self.key or self.key in key)


class InjectionPlan:
    """A parsed spec plus the cross-process occurrence counters."""

    def __init__(self, state_dir: "os.PathLike[str] | str", faults: Sequence[FaultSpec]):
        self.state_dir = Path(state_dir)
        self.faults = list(faults)

    @classmethod
    def load(cls, path: "os.PathLike[str] | str") -> "InjectionPlan":
        """Parse a spec file; a broken spec raises loudly, never no-ops."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        faults = [
            FaultSpec(
                index=index,
                site=str(entry["site"]),
                key=str(entry.get("key", "")),
                kind=str(entry["kind"]),
                occurrences=tuple(int(n) for n in entry.get("occurrences", [1])),
                seconds=float(entry.get("seconds", 60.0)),
                keep_bytes=(
                    int(entry["keep_bytes"]) if "keep_bytes" in entry else None
                ),
            )
            for index, entry in enumerate(data.get("faults", []))
        ]
        return cls(data["state_dir"], faults)

    def _occurrence(self, spec: FaultSpec) -> int:
        """Allocate this spec's next occurrence number, atomically.

        The counter is a run of marker files ``fault-<i>.<n>``: the
        first ``n`` whose exclusive create succeeds is ours.  Exclusive
        creation is atomic across processes, so two workers racing the
        same spec observe distinct occurrence numbers.
        """
        self.state_dir.mkdir(parents=True, exist_ok=True)
        base = self.state_dir / f"fault-{spec.index}"
        n = 1
        while True:
            try:
                fd = os.open(f"{base}.{n}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                n += 1
                continue
            os.close(fd)
            return n

    def fire(self, site: str, key: str = "") -> None:
        for spec in self.faults:
            if spec.kind == KIND_TRUNCATE or not spec.matches(site, key):
                continue
            if self._occurrence(spec) in spec.occurrences:
                _execute(spec, site, key)

    def corrupt(self, site: str, key: str, path: "os.PathLike[str] | str") -> bool:
        """Fire a matching ``truncate`` fault against ``path``."""
        for spec in self.faults:
            if spec.kind != KIND_TRUNCATE or not spec.matches(site, key):
                continue
            if self._occurrence(spec) in spec.occurrences:
                _truncate(Path(path), spec.keep_bytes)
                return True
        return False


def _execute(spec: FaultSpec, site: str, key: str) -> None:
    if spec.kind == KIND_RAISE:
        raise InjectedFault(f"injected fault at {site}:{key or '*'}")
    if spec.kind == KIND_KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    if spec.kind == KIND_EXIT:
        os._exit(3)
    if spec.kind == KIND_HANG:
        time.sleep(spec.seconds)
        return
    raise ValueError(f"unknown fault kind {spec.kind!r} at {site}")


def _truncate(path: Path, keep_bytes: Optional[int]) -> None:
    try:
        size = path.stat().st_size
    except OSError:
        return
    keep = size // 2 if keep_bytes is None else min(keep_bytes, size)
    with open(path, "r+b") as handle:
        handle.truncate(keep)


# Plan memo, keyed by the env var's value so tests that repoint
# $REPRO_FAULTS (monkeypatch.setenv) take effect immediately.
_cached: Tuple[Optional[str], Optional[InjectionPlan]] = (None, None)


def _active_plan() -> Optional[InjectionPlan]:
    global _cached
    spec_path = os.environ.get(ENV_VAR)
    if spec_path is None:
        return None
    if _cached[0] != spec_path:
        _cached = (spec_path, InjectionPlan.load(spec_path))
    return _cached[1]


def fire(site: str, key: str = "") -> None:
    """Hook point: execute any matching fault; no-op without a spec."""
    plan = _active_plan()
    if plan is not None:
        plan.fire(site, key)


def corrupt_file(site: str, key: str, path: "os.PathLike[str] | str") -> bool:
    """File hook point: truncate ``path`` when a matching fault fires."""
    plan = _active_plan()
    if plan is None:
        return False
    return plan.corrupt(site, key, path)


def write_spec(
    path: "os.PathLike[str] | str",
    state_dir: "os.PathLike[str] | str",
    faults: Sequence[dict],
) -> Path:
    """Test helper: write a spec file (point ``$REPRO_FAULTS`` at it)."""
    path = Path(path)
    Path(state_dir).mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"state_dir": str(state_dir), "faults": list(faults)}, indent=2),
        encoding="utf-8",
    )
    return path
