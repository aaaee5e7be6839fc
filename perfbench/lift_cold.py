"""lift-cold: cold synthesis + verification of a Table-1 cross-section.

Each kernel is lifted from a cold process state (memo tables cleared,
no synthesis store) with the shipped ``PipelineOptions()``, so the
inductive prover is on.  Passes over the cross-section repeat until the
run's time is spent; each kernel's time is the median over passes.

The cross-section is one kernel from each of four suites of
``representative_cases(3)``, light enough that six to eleven passes
fit one run on a 2-core box, so each kernel's median rests on that many
samples.  The full 16-kernel set takes over a minute per pass (TERRA
alone ~33 s, the Challenge kernels ~6 s each).  heat0 was left out as
well: it is a third of a five-kernel pass, and with it in, runs made
three to five passes and spread 1.5-2x wider over runs taken
alternately with the four-kernel set.

The synthesis seed stays 0: it changes the search itself (seed 1 takes
~60% longer on the full set and proves 15/16), so varying it would
measure the seed, not the code.  The workload seed orders the kernels.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from pathlib import Path
from typing import Dict, List

from perfbench.common import Outcome, cold_process_state, median
from perfbench.layers import install, lift_layers
from perfbench.spans import Tracer

KERNELS = ("grad0", "mgl18_interp", "akl81", "geomet1")
# Lifted in set-up, before the passes: the first lift in a process pays
# one-time lazy initialisation that no later cold lift repeats.
WARM_UP = "akl84"
EXPECTED = Path(__file__).with_name("expected_lift_cold.json")
# Set-up (kernel selection + warm-up lift) is repeated and setup_s is
# the median; only the first repeat pays the one-time initialisation.
SETUP_REPEATS = 5


def cross_section():
    from repro.suites.registry import representative_cases

    cases = {case.name: case for case in representative_cases(per_suite=3)}
    return [cases[name] for name in KERNELS]


def warm_up_case():
    from repro.suites.registry import representative_cases

    (case,) = [case for case in representative_cases(per_suite=3) if case.name == WARM_UP]
    return case


def signature_digest(report) -> str:
    from repro.pipeline import report_signature

    return hashlib.sha256(report_signature(report).encode()).hexdigest()


def run(seed: int, seconds: float, trace: bool, tracer: Tracer, scratch: Path) -> Outcome:
    from repro.pipeline import PipelineOptions, lift_cases_sequential

    out = Outcome()
    options = PipelineOptions()
    setups = []
    for _ in range(SETUP_REPEATS):
        cold_process_state()
        started = time.perf_counter()
        cases = cross_section()
        lift_cases_sequential([warm_up_case()], options)
        setups.append(time.perf_counter() - started)
    expected: Dict[str, str] = json.loads(EXPECTED.read_text())["signatures"]
    order = list(cases)
    random.Random(seed).shuffle(order)

    plain: Dict[str, List[float]] = {case.name: [] for case in order}
    traced: Dict[str, List[float]] = {case.name: [] for case in order}
    proved_per_pass: List[int] = []
    traced_passes = 0
    started = time.perf_counter()
    last_pass = 0.0
    passes = 0
    # Whole passes only; start another while it should end within the run.
    # Traced runs alternate untraced and traced passes, untraced first.
    while passes < 1 + trace or time.perf_counter() - started + last_pass <= seconds:
        tracing = trace and passes % 2 == 1
        if tracing:
            install(tracer)
        pass_started = time.perf_counter()
        proved = 0
        for case in order:
            cold_process_state()
            root = tracer.span("run.lift", rid=f"{case.name}-{passes}") if tracing else (
                contextlib.nullcontext())
            t0 = time.perf_counter()
            with root:
                reports = lift_cases_sequential([case], options)
            elapsed = time.perf_counter() - t0
            (traced if tracing else plain)[case.name].append(elapsed)
            out.attempted += 1
            if len(reports) != 1 or signature_digest(reports[0]) != expected.get(case.name):
                out.failed += 1
            proved += sum(1 for r in reports if r.lift is not None and r.lift.proved)
        tracer.unwrap_all()
        proved_per_pass.append(proved)
        last_pass = time.perf_counter() - pass_started
        passes += 1
        traced_passes += tracing

    per_kernel = {name: median(times) for name, times in plain.items()}
    lifted = sum(len(times) for times in plain.values())
    out.put("setup_s", median(setups), "s", len(setups))
    out.put("p50_ms", 1000 * sum(per_kernel.values()), "ms", len(plain[order[0].name]))
    out.put("heavy_ms", 1000 * max(per_kernel.values()), "ms", len(plain[order[0].name]))
    out.put("rate_per_s", lifted / sum(sum(t) for t in plain.values()), "1/s", lifted)
    out.put("kernels_proved", median(proved_per_pass), "count", len(proved_per_pass))
    for name in sorted(per_kernel):
        out.note(f"lift_s.{name}", per_kernel[name], "s", len(plain[name]))

    if trace:
        spans = tracer.closed()
        layer = lift_layers(spans, tracer.counters, traced_passes)
        traced_total = sum(median(times) for times in traced.values())
        layer["trace.overhead"] = traced_total / sum(per_kernel.values()) - 1
        out.layers = layer
    return out
