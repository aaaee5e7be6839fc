"""The layer boundaries the traced run wraps, and the sums drawn from them.

Every entry point is patched where its caller looks it up: module
functions on the module that imported them (``repro.pipeline.stng``
calls its own ``autotune`` binding, ``repro.synthesis.cegis`` its own
``generate_templates``), methods on their classes.  Span names are
``<layer>.<what>``; the benchmark's own roots are ``run.*``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from perfbench.spans import Span, Tracer

# Spans that only group other layers: their self time is glue, not a layer.
CONTAINERS = (
    "pipeline.lift_kernel",
    "synthesis.kernel",
    "synthesis.cold",
    "application.hooks",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the pipeline, application and service."""
    import repro.application.execute as execute
    import repro.application.translate as translate
    import repro.compile.codegen as codegen
    import repro.native.dispatch as dispatch
    import repro.pipeline.stng as stng
    import repro.synthesis.cegis as cegis
    from repro.application.translate import ApplicationBundle
    from repro.cache.shards import ShardedStore
    from repro.cache.store import SynthesisCache
    from repro.native.dispatch import NativeRunner
    from repro.native.toolchain import Toolchain
    from repro.pipeline.stng import STNGPipeline
    from repro.service.runlog import RunLog
    from repro.service.server import LiftService
    from repro.synthesis.space import CandidateSpace
    from repro.synthesis.strategies import Strategy
    from repro.verification.bounded import BoundedVerifier
    from repro.verification.inductive import InductiveProver

    count = tracer.count
    wrap = tracer.wrap

    # Frontend, synthesis, verification, code generation (a cold lift).
    wrap(stng, "parse_source", "frontend.parse")
    wrap(stng, "identify_candidates", "frontend.identify")
    wrap(stng, "lower_candidate", "frontend.lower")
    wrap(STNGPipeline, "lift_kernel", "pipeline.lift_kernel")
    wrap(stng, "synthesize_kernel", "synthesis.kernel")
    wrap(cegis, "synthesize_kernel_uncached", "synthesis.cold")
    wrap(cegis, "run_inductive_executions", "synthesis.symexec")
    wrap(cegis, "generate_templates", "templates.generate")
    wrap(cegis, "generate_vc", "vcgen.generate")
    wrap(cegis, "build_problem", "synthesis.problem")
    wrap(cegis, "check_postcondition_restrictions", "synthesis.restrictions")
    wrap(Strategy, "apply", "synthesis.strategy")
    wrap(CandidateSpace, "enumerate", "synthesis.enumerate", generator=True,
         on_return=lambda item, a, k: count("synthesis.candidates"))
    wrap(cegis.CounterexampleReplay, "__init__", "compile.replay_setup")
    wrap(cegis.CounterexampleReplay, "rejects", "synthesis.replay")
    wrap(BoundedVerifier, "__init__", "verification.setup")
    wrap(BoundedVerifier, "quick_check", "verification.quick_check",
         on_return=lambda cex, a, k: count("verification.quick_check_cex", cex is not None))
    wrap(BoundedVerifier, "verify", "verification.verify",
         on_return=lambda res, a, k: count("verification.states_checked", res.states_checked))
    wrap(InductiveProver, "__init__", "verification.prover_setup")
    wrap(InductiveProver, "proves_postcondition", "verification.post_filter")
    def proof_attempt(outcome, args, kwargs):
        # Proofs the postcondition pre-filter runs are not CEGIS attempts.
        caller = tracer.current()
        if caller is None or caller.name != "verification.post_filter":
            count("verification.proof_attempts")
            count("verification.proved", outcome.proved)

    wrap(InductiveProver, "prove", "verification.prove", on_return=proof_attempt)
    wrap(cegis, "make_certificate", "verification.certificate")
    wrap(cegis, "revalidate_certificate", "verification.cert_replay")
    wrap(codegen._Emitter, "build", "compile.codegen")
    wrap(stng, "postcondition_to_func", "backend.halide")
    wrap(stng, "emit_fortran_glue", "backend.glue")
    wrap(stng, "emit_serial_c", "backend.serial_c")
    wrap(stng, "workload_from_kernel", "perfmodel.workload")
    wrap(stng, "workload_from_func", "perfmodel.workload")
    wrap(stng, "autotune", "autotune.tune")

    # Synthesis store and whole-application translation (a served request).
    wrap(SynthesisCache, "__init__", "cache.open")
    wrap(ShardedStore, "load_all", "cache.load")
    wrap(SynthesisCache, "get", "cache.get",
         on_return=lambda hit, a, k: count("cache.hit" if hit is not None else "cache.miss"))
    wrap(SynthesisCache, "save", "cache.save")
    wrap(translate, "parse_source", "frontend.parse")
    wrap(translate, "scan_application", "application.scan")
    wrap(ApplicationBundle, "manifest", "application.manifest")
    wrap(RunLog, "append", "service.runlog")
    wrap(LiftService, "_run_job", "run.job", rid=lambda self, job, *rest: job.fingerprint[:12])

    # Translated-program execution and the native tier (a driver run).
    def time_sites(hooks, args, kwargs):
        for key, hook in list(hooks.items()):
            hooks[key] = tracer.spanned("application.site", hook)

    def kernel_bytes(out, args, kwargs):
        runner, inputs = args[0], args[2]
        count("native.bytes", out.nbytes + sum(
            inputs[name].nbytes for name in runner.source.image_names))

    wrap(execute, "substitution_hooks", "application.hooks", on_return=time_sites)
    wrap(execute.FortranInterpreter, "run", "application.interp")
    wrap(execute, "lower", "halide.lower")
    wrap(execute, "compile_nest_native", "native.compile")
    wrap(dispatch, "emit_c_source", "native.emit")
    wrap(Toolchain, "compile", "native.cc")
    wrap(NativeRunner, "__call__", "native.call", on_return=kernel_bytes)
    wrap(dispatch, "_load", "native.load",
         transform=lambda fn: tracer.spanned("native.kernel", fn))


def totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Span name -> summed seconds; ``<name>#`` -> number of spans."""
    out: Dict[str, float] = {}
    for span in spans:
        if span.end is None:
            continue
        out[span.name] = out.get(span.name, 0.0) + span.duration
        out[span.name + "#"] = out.get(span.name + "#", 0) + 1
    return out


def lift_layers(spans: Sequence[Span], counters: Dict[str, float], ops: int) -> Dict[str, float]:
    """The cold-lift layer metrics, per operation of the workload."""
    t = totals(spans)
    ops = max(ops, 1)

    def s(*names):
        return sum(t.get(name, 0.0) for name in names) / ops

    def n(*names):
        return sum(t.get(name + "#", 0) for name in names) / ops

    quick_calls = t.get("verification.quick_check#", 0)
    attempts = counters.get("verification.proof_attempts", 0)
    return {
        "verification.quick_check_s": s("verification.quick_check"),
        "verification.quick_check_calls": n("verification.quick_check"),
        "verification.verify_s": s("verification.verify"),
        "verification.verify_calls": n("verification.verify"),
        "verification.states_checked": counters.get("verification.states_checked", 0) / ops,
        "verification.setup_s": s("verification.setup"),
        "verification.prove_s": s("verification.prove"),
        "verification.proof_attempts": attempts / ops,
        "verification.proved_per_attempt": (
            counters.get("verification.proved", 0) / attempts if attempts else 0.0
        ),
        "verification.cex_per_quick_check": (
            counters.get("verification.quick_check_cex", 0) / quick_calls if quick_calls else 0.0
        ),
        "synthesis.enumerate_s": s("synthesis.enumerate"),
        "synthesis.candidates_tried": counters.get("synthesis.candidates", 0) / ops,
        "synthesis.replay_s": s("synthesis.replay"),
        "synthesis.replay_calls": n("synthesis.replay"),
        "compile.codegen_s": s("compile.codegen"),
        "compile.codegen_calls": n("compile.codegen"),
        "templates.s": s("templates.generate"),
        "frontend.s": s("frontend.parse", "frontend.identify", "frontend.lower"),
        "backend.s": s("backend.halide", "backend.glue", "backend.serial_c"),
        "autotune.s": s("autotune.tune"),
    }
