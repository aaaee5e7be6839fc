"""What each metric means on each workload, and what a layer metric should move.

Names, units, directions and bounds live in ``BENCHMARK.json`` alone;
``run.py`` reads them from there.  Every workload reports every metric,
so a layer metric that belongs to one workload reads 0 (or stays flat)
on the others — that flat reading is the prediction for those workloads.

End-to-end metrics mean, per workload:

=============== =========================== =========================== ===========================
metric          lift-cold                   app-run                     service-mix
=============== =========================== =========================== ===========================
setup_s         select the cross-section +  translate cloverleaf_mini   fresh store + service start
                the untimed-in-p50 warm-up  cold + compile its native   + warm both apps + self-
                lift (median of 5)          runners (median of 3)       check (median of 3)
p50_ms          cold lift of the cross-     translated driver run at    warm request (exact repeat
                section: sum of per-kernel  grid 8 (median)             or renamed driver), median
                medians over passes
heavy_ms        slowest kernel's cold lift  translated driver run at    cold request (renamed
                (median over passes)        grid 48 (median)            array), median
rate_per_s      kernels lifted per second   driver runs per second      requests completed per
                of lifting                  (grids 8 and 48 alternate)  second (closed-loop reader
                                                                        + clocked writer)
kernels_proved  kernels proved per pass     substituted sites proved    kernels proved across the
                                                                        two base manifests
=============== =========================== =========================== ===========================

Failures are reported through ``attempted``/``failed`` (their ratio is
``failed_frac``), not as a metric: at a correct commit it is 0.
"""

from __future__ import annotations

from typing import Dict

# Per-layer metric -> the end-to-end metric it should move (flat elsewhere).
# "Per op" = per operation of the workload: a cross-section pass on
# lift-cold, a driver run on app-run, a request on service-mix.
MOVES: Dict[str, str] = {
    "verification.quick_check_s": "lift-cold p50_ms; service-mix heavy_ms. Per op.",
    "verification.quick_check_calls": "lift-cold p50_ms. Per op.",
    "verification.verify_s": "lift-cold p50_ms; service-mix heavy_ms. Per op.",
    "verification.verify_calls": "lift-cold p50_ms. Per op.",
    "verification.states_checked": "lift-cold p50_ms. Per op.",
    "verification.setup_s":
        "lift-cold p50_ms; service-mix heavy_ms (BoundedVerifier construction). Per op.",
    "verification.prove_s": "lift-cold p50_ms. Per op.",
    "verification.proof_attempts": "lift-cold p50_ms. Per op.",
    "verification.proved_per_attempt": "lift-cold p50_ms (useful proofs per attempt).",
    "verification.cex_per_quick_check":
        "lift-cold p50_ms (counterexamples found per quick_check).",
    "synthesis.enumerate_s": "lift-cold p50_ms. Per op.",
    "synthesis.candidates_tried": "lift-cold p50_ms. Per op.",
    "synthesis.replay_s": "lift-cold p50_ms. Per op.",
    "synthesis.replay_calls": "lift-cold p50_ms. Per op.",
    "compile.codegen_s": "lift-cold p50_ms (codegen emitter build). Per op.",
    "compile.codegen_calls": "lift-cold p50_ms. Per op.",
    "templates.s": "lift-cold p50_ms. Per op.",
    "frontend.s": "lift-cold p50_ms and setup_s. Per op.",
    "backend.s": "lift-cold p50_ms. Per op.",
    "autotune.s": "lift-cold p50_ms; service-mix p50_ms. Per op.",
    "application.interp_ms.g8": "app-run p50_ms (driver time outside substituted sites). Per run.",
    "application.interp_ms.g48": "app-run heavy_ms. Per run.",
    "application.site_ms.g8": "app-run p50_ms (substituted sites). Per run.",
    "application.site_ms.g48": "app-run heavy_ms. Per run.",
    "native.marshal_ms.g8": "app-run p50_ms (NativeRunner.__call__ minus its C entry). Per run.",
    "native.marshal_ms.g48": "app-run heavy_ms. Per run.",
    "native.kernel_ms.g8": "app-run p50_ms (C entry). Per run.",
    "native.kernel_ms.g48": "app-run heavy_ms. Per run.",
    "native.calls.g8": "app-run p50_ms (NativeRunner calls). Per run.",
    "native.calls.g48": "app-run heavy_ms. Per run.",
    "native.kernel_bytes.g8": "app-run p50_ms; computed from array sizes, not measured.",
    "native.kernel_bytes.g48": "app-run heavy_ms; computed from array sizes, not measured.",
    "application.reference_ms.g8": "none: the reference interpreter at grid 8 (speedup base).",
    "application.reference_ms.g48": "none: the reference interpreter at grid 48 (speedup base).",
    "speedup.g8": "app-run p50_ms: reference / translated; divides two noisy timings.",
    "speedup.g48": "app-run heavy_ms: reference / translated; divides two noisy timings.",
    "halide.lower_s": "app-run setup_s. Per set-up.",
    "native.cc_s": "app-run setup_s. Per set-up.",
    "native.cc_calls": "app-run setup_s. Per set-up.",
    "cache.artifact_hits": "app-run setup_s (compiled-artifact store hits). Per run.",
    "cache.load_ms": "service-mix p50_ms and rate_per_s. Per warm request.",
    "cache.save_ms": "service-mix p50_ms and rate_per_s. Per warm request.",
    "cache.hits": "service-mix p50_ms and rate_per_s. Per request.",
    "cache.misses": "service-mix heavy_ms. Per request.",
    "cache.entries": "service-mix p50_ms (store size the warm path reloads). At run end.",
    "frontend.parse_ms": "service-mix p50_ms and rate_per_s. Per warm request.",
    "application.scan_ms": "service-mix p50_ms and rate_per_s. Per warm request.",
    "autotune.ms": "service-mix p50_ms and rate_per_s. Per warm request.",
    "verification.cert_replay_ms": "service-mix p50_ms and rate_per_s. Per warm request.",
    "service.queue_ms": "service-mix p50_ms (send to accepted). Median per warm request.",
    "service.translate_ms": "service-mix p50_ms (done.seconds). Median per warm request.",
    "service.stream_ms":
        "service-mix p50_ms (total - done.seconds; overlaps queue_ms). Median per warm request.",
    "service.deduped": "service-mix rate_per_s (submissions joined to an in-flight job). Per run.",
    "service.lifts_per_submission": "service-mix rate_per_s.",
    "synthesis.cold_s": "service-mix heavy_ms. Per cold request.",
    "trace.coverage": "none: self time of named layer spans / root wall clock.",
    "trace.overhead": "none: traced / untraced p50_ms - 1.",
}
