"""app-run: repeated runs of the translated ``cloverleaf_mini`` driver.

Set-up translates the application cold (fresh synthesis store, cleared
memo tables) and compiles its native runners into a fresh artifact
store.  The measured loop then alternates translated driver runs at
grids 8 and 48 (``run_application(translated=True)``, backend ``auto``,
default schedules, 1 native thread) and checks every run's arrays and
scalars ``tobytes``-equal to the reference interpreter's.

Grid 8 is where per-site dispatch cost shows; at grid 48 the
interpreted fallback loops dominate, so a dispatch change should move
``p50_ms`` and leave ``heavy_ms`` flat.  No synthesis happens here.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

from perfbench.common import Outcome, cold_process_state, median, tail_percentile
from perfbench.layers import install, totals
from perfbench.spans import Tracer, root_of

APP = "cloverleaf_mini"
GRIDS = (8, 48)
SETUP_REPEATS = 3
REFERENCE_REPEATS = 3


def _setup(scratch: Path, index: int):
    """Translate the app cold and build its native runners once."""
    from repro.application.execute import substitution_hooks
    from repro.application.translate import translate_application
    from repro.cache import SynthesisCache
    from repro.cache.artifacts import ArtifactStore
    from repro.pipeline import PipelineOptions
    from repro.suites.apps import mini_app

    root = scratch / f"setup-{index}"
    cache = SynthesisCache(root / "synthesis", autosave=False)
    artifacts = ArtifactStore(root / "artifacts")
    options = PipelineOptions(schedule_dir=str(root / "schedules"))
    bundle = translate_application(mini_app(APP), options=options, cache=cache)
    substitution_hooks(bundle, backend="auto", artifacts=artifacts, threads=1)
    return bundle, artifacts


def run(seed: int, seconds: float, trace: bool, tracer: Tracer, scratch: Path) -> Outcome:
    from repro.application.execute import run_application
    from repro.application.interp import allocate_arrays

    out = Outcome()
    setups = []
    for index in range(SETUP_REPEATS):
        cold_process_state()
        started = time.perf_counter()
        bundle, artifacts = _setup(scratch, index)
        setups.append(time.perf_counter() - started)
    app = bundle.app
    params = bundle.program.procedure(bundle.driver).params

    # Inputs from the seed, and the reference interpreter's final state.
    initial, expected, reference_ms = {}, {}, {}
    for grid in GRIDS:
        scalars = app.grid_scalars(grid)
        initial[grid] = allocate_arrays(bundle.program, bundle.driver, scalars, seed=seed)
        times = []
        for _ in range(REFERENCE_REPEATS):
            arrays = {name: data.copy() for name, data in initial[grid].items()}
            scope, elapsed = run_application(bundle, scalars, arrays, translated=False)
            times.append(elapsed)
        expected[grid] = _observable(scope, params)
        reference_ms[grid] = 1000 * median(times)

    def one_run(grid: int, samples: Dict[int, List[float]], walls: List[float],
                root=contextlib.nullcontext) -> None:
        arrays = {name: data.copy() for name, data in initial[grid].items()}
        t0 = time.perf_counter()
        with root():
            scope, elapsed = run_application(
                bundle, app.grid_scalars(grid), arrays, translated=True,
                backend="auto", artifacts=artifacts, threads=1,
            )
        walls.append(time.perf_counter() - t0)
        samples[grid].append(elapsed)
        out.attempted += 1
        if _observable(scope, params) != expected[grid]:
            out.failed += 1

    plain: Dict[int, List[float]] = {grid: [] for grid in GRIDS}
    walls: List[float] = []
    if trace:
        out.layers = _traced(tracer, one_run, seconds, len(setups), scratch, artifacts,
                             plain, walls, reference_ms)
    else:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for grid in GRIDS:
                one_run(grid, plain, walls)

    out.put("setup_s", median(setups), "s", len(setups))
    out.put("p50_ms", 1000 * median(plain[8]), "ms", len(plain[8]))
    out.put("heavy_ms", 1000 * median(plain[48]), "ms", len(plain[48]))
    out.put("rate_per_s", len(walls) / sum(walls), "1/s", len(walls))
    proved = sum(1 for tk in bundle.translated if tk.verification_level == "proved")
    out.put("kernels_proved", proved, "count", len(bundle.translated))
    for grid in GRIDS:
        pct, value = tail_percentile(plain[grid])
        if pct is not None:
            out.note(f"app_run_ms.g{grid}.p{pct}", 1000 * value, "ms", len(plain[grid]))
        out.note(f"application.reference_ms.g{grid}", reference_ms[grid], "ms", REFERENCE_REPEATS)
    return out


def _observable(scope, params) -> Dict[str, bytes]:
    """Every driver array plus the driver's scalar parameters, as bytes."""
    state = {name: array.data.tobytes() for name, array in scope.arrays.items()}
    for name in params:
        if name in scope.scalars:
            state["$" + name] = np.float64(scope.scalars[name]).tobytes()
    return state


def _traced(tracer, one_run, budget, setup_index, scratch, artifacts, plain, plain_walls,
            reference_ms) -> Dict[str, float]:
    """Alternate untraced and traced iterations; layers come from the traced ones."""
    install(tracer)
    # One traced set-up: lowering and cc compiles land in their own spans.
    cold_process_state()
    with tracer.span("run.setup", rid="setup"):
        _setup(scratch, setup_index)
    setup = totals(tracer.closed())
    tracer.unwrap_all()

    traced: Dict[int, List[float]] = {grid: [] for grid in GRIDS}
    moved = {grid: 0.0 for grid in GRIDS}
    hits = 0
    started = time.perf_counter()
    iteration = 0
    while time.perf_counter() - started < budget or not traced[GRIDS[0]]:
        if iteration % 2 == 0:
            for grid in GRIDS:
                one_run(grid, plain, plain_walls)
        else:
            install(tracer)
            hits_before = artifacts.hits
            for grid in GRIDS:
                before = tracer.counters["native.bytes"]
                one_run(grid, traced, [], lambda: tracer.span("run.app", rid=f"g{grid}"))
                moved[grid] += tracer.counters["native.bytes"] - before
            hits += artifacts.hits - hits_before
            tracer.unwrap_all()
        iteration += 1

    layers: Dict[str, float] = {
        "halide.lower_s": setup.get("halide.lower", 0.0),
        "native.cc_s": setup.get("native.cc", 0.0),
        "native.cc_calls": setup.get("native.cc#", 0),
        "cache.artifact_hits": hits / sum(len(times) for times in traced.values()),
        "trace.overhead": median(traced[8]) / median(plain[8]) - 1,
    }
    # Each layer's time summed per driver run, then the median over runs.
    spans = tracer.closed()
    by_root: Dict[int, list] = defaultdict(list)
    for span_id, root in root_of(spans).items():
        by_root[root].append(span_id)
    by_id = {span.id: span for span in spans}
    for grid in GRIDS:
        runs = [
            totals([by_id[i] for i in members])
            for root, members in by_root.items() if by_id[root].rid == f"g{grid}"
        ]

        def ms(value) -> float:
            return 1000 * median([value(run) for run in runs])

        layers[f"application.interp_ms.g{grid}"] = ms(
            lambda t: t.get("application.interp", 0.0) - t.get("application.site", 0.0))
        layers[f"application.site_ms.g{grid}"] = ms(lambda t: t.get("application.site", 0.0))
        layers[f"native.marshal_ms.g{grid}"] = ms(
            lambda t: t.get("native.call", 0.0) - t.get("native.kernel", 0.0))
        layers[f"native.kernel_ms.g{grid}"] = ms(lambda t: t.get("native.kernel", 0.0))
        layers[f"native.kernel_bytes.g{grid}"] = moved[grid] / len(runs)
        layers[f"application.reference_ms.g{grid}"] = reference_ms[grid]
        layers[f"speedup.g{grid}"] = reference_ms[grid] / (1000 * median(plain[grid]))
        layers[f"native.calls.g{grid}"] = median([run.get("native.call#", 0) for run in runs])
    return layers
