"""Helpers shared by the workloads: statistics, isolation, run records."""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values: Sequence[float]) -> Tuple[Optional[int], Optional[float]]:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``(None, None)`` when even p90
    has fewer than ten samples above it.
    """
    ordered = sorted(values)
    for pct in (99, 95, 90):
        beyond = len(ordered) * (100 - pct) / 100
        if beyond >= 10:
            index = min(len(ordered) - 1, int(round(pct / 100 * (len(ordered) - 1))))
            return pct, ordered[index]
    return None, None


def machine_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop that no repository code runs.

    Recorded beside the results so runs taken while the host was slower
    can be told apart; no metric is scaled by it.
    """
    times = []
    gc.disable()  # a collection over the run's heap is not the host's speed
    try:
        for _ in range(repeats):
            times.append(_probe_once())
    finally:
        gc.enable()
    return 1000 * median(times)


def _probe_once() -> float:
    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for k in range(60_000):
        table[k & 255] = k
        total += table.get((k * 7) & 255, 1) * 3 % 11
    return time.perf_counter() - started


def cold_process_state() -> None:
    """Drop the process-wide memo tables a cold lift must not inherit."""
    from repro.compile import clear_compile_caches
    from repro.symbolic.expr import clear_intern_table
    from repro.symbolic.simplify import clear_simplify_cache

    clear_compile_caches()
    clear_simplify_cache()
    clear_intern_table()


def environment() -> Dict[str, object]:
    """Machine, toolchain and core count the results were measured on."""
    from repro.cache.schedules import machine_fingerprint
    from repro.native.toolchain import find_toolchain

    toolchain = find_toolchain()
    return {
        "machine": machine_fingerprint(),
        "toolchain": toolchain.fingerprint() if toolchain is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "native_threads": os.environ.get("REPRO_NATIVE_THREADS"),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    # Human-readable lines: every metric by name, unit and sample count.
    lines: List[str] = field(default_factory=list)
    # Per-layer figures of a traced run, by metric name.
    layers: Dict[str, float] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = (float(value), unit)
        note = f" (n={samples})" if samples is not None else ""
        self.lines.append(f"{name} = {value:.6g} {unit}{note}")

    def note(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        """Print a figure that is not one of the benchmark's metrics."""
        note = f" (n={samples})" if samples is not None else ""
        self.lines.append(f"{name} = {value:.6g} {unit}{note}")
