"""service-mix: a seeded request stream against an in-process lift server.

A ``LiftService`` (2 lift workers) runs on a fresh sharded store.  Two
client connections send, from seeded schedules:

* the reader, a closed loop of warm requests: exact repeats of
  ``cloverleaf_mini`` and ``heat_mini`` (store reads) and renamed-driver
  variants (a new request fingerprint, every kernel a hit);
* the writer, renamed-array variants of ``cloverleaf_mini`` on a clock
  (one new kernel each: a cold lift plus a shard append, i.e. writes
  beside the reader's reads);
* both, on a shared clock, the same new variant at once (the server may
  dedup it; overlap is not guaranteed, so it is counted, not asserted).

Warm requests come from one connection only: with two closed-loop
readers contending for the interpreter lock, the warm latency more than
doubled whenever a 2-core host slowed, and ten runs spread by up to a
third.

Set-up warms the store with both applications and then checks the
generator itself: an exact repeat and a renamed-driver variant must miss
no kernel, a renamed-array variant must miss one and append to a shard.
Every ``done`` manifest's counts and per-kernel verification levels must
equal those of an in-process ``translate_application`` of the same
program shape (renaming changes neither); an ``error`` event fails.
"""

from __future__ import annotations

import asyncio
import random
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.common import Outcome, cold_process_state, median, tail_percentile
from perfbench.layers import install, lift_layers, totals
from perfbench.spans import Tracer, root_of

APPS = ("cloverleaf_mini", "heat_mini")
# Warm requests, drawn from this bag in a seeded order.  The shares, like
# the cold and shared clocks below, are an assumption: no service log or
# cited workload fixes them.  They follow "mostly exact repeats, some
# renamed drivers", with the larger cloverleaf_mini ~2.5x as common as
# heat_mini.  Every run prints the shares it realised (``mix.*``).
WARM_BAG = (
    [("exact", "cloverleaf_mini")] * 11 + [("exact", "heat_mini")] * 4
    + [("driver", "cloverleaf_mini")] * 4 + [("driver", "heat_mini")] * 2
)
WARM = ("exact", "driver")
# Cold requests rename this cloverleaf_mini array, which only the
# viscosity kernel uses: each one is exactly one new kernel, so cold
# requests cost alike whatever the seed.
COLD_TARGET = "viscosity"
# Cold requests fall due on a clock, not a request count, so the store
# grows by the same amount in every run however fast warm requests are.
COLD_EVERY = 2.0  # seconds, on the writer
COLD_FIRST = 1.0  # seconds into a phase
SHARED_EVERY = 5.0  # seconds, both clients at once
SHARED_FIRST = 2.5  # seconds into a phase
CLIENTS = 2
WRITER = 1  # connection 0 is the reader
SETUP_REPEATS = 3
TIMEOUT = 600.0


def rename(source: str, old: str, new: str) -> str:
    return re.sub(rf"\b{re.escape(old)}\b", new, source)


@dataclass
class Request:
    kind: str
    source: str
    driver: str
    shape: Tuple[str, str]  # reference manifest this request must match


@dataclass
class Sample:
    request: Request
    sent: float
    accepted: float
    finished: float
    traced: bool
    event: dict

    @property
    def total(self) -> float:
        return self.finished - self.sent


def _view(manifest: dict) -> dict:
    """What a manifest must agree on across renamings: counts and levels."""
    return {
        "counts": manifest["counts"],
        "levels": [(k["name"], k["verification_level"]) for k in manifest["kernels"]],
    }


class Stream:
    """One client's seeded requests: warm ones in order, cold ones on demand."""

    def __init__(self, seed: int, client: int, apps):
        self.seed, self.client, self.apps = seed, client, apps
        self.rng = random.Random(f"{seed}/{client}")
        self.bag: List[Tuple[str, str]] = []
        self.serial = 0
        self.shared = 0

    def warm(self) -> Request:
        if not self.bag:
            self.bag = list(WARM_BAG)
            self.rng.shuffle(self.bag)
        kind, name = self.bag.pop()
        app = self.apps[name]
        tag = f"c{self.client}" if kind == "exact" else self._tag()
        driver = f"{app.driver}_{tag}"
        return Request(kind, rename(app.source, app.driver, driver), driver, (name, ""))

    def cold(self, shared: bool = False) -> Request:
        if shared:
            # Identical for both clients: the n-th shared variant of the run.
            tag = f"s{self.seed}x{self.shared}"
            self.shared += 1
        else:
            tag = self._tag()
        app = self.apps["cloverleaf_mini"]
        source = rename(app.source, COLD_TARGET, f"{COLD_TARGET}_{tag}")
        return Request("shared" if shared else "cold", source, app.driver, (app.name, COLD_TARGET))

    def _tag(self) -> str:
        self.serial += 1
        return f"s{self.seed}c{self.client}n{self.serial}"


class ServerThread:
    """An asyncio loop on its own thread hosting one ``LiftService``."""

    def __init__(self, store: Path):
        from repro.service import LiftService

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="service-loop")
        self.thread.start()
        self.service = LiftService(store, workers=2)
        self._call(self.service.start())

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(TIMEOUT)

    def stop(self) -> None:
        try:
            self._call(self.service.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(TIMEOUT)
            self.loop.close()


def _lift(client, request: Request, traced: bool) -> Sample:
    accepted = []

    def on_event(event):
        if event.get("event") == "accepted":
            accepted.append(time.perf_counter())

    sent = time.perf_counter()
    event = client.lift(request.source, request.driver, on_event=on_event)
    finished = time.perf_counter()
    return Sample(request, sent, accepted[0] if accepted else finished, finished, traced, event)


def _references(apps, scratch: Path) -> Dict[Tuple[str, str], dict]:
    """In-process translations of every request shape (the oracle)."""
    from repro.application.translate import translate_application
    from repro.cache import SynthesisCache
    from repro.pipeline import PipelineOptions

    cache = SynthesisCache(scratch / "reference", autosave=False)
    options = PipelineOptions()
    refs = {}
    for name, app in apps.items():
        bundle = translate_application(app.source, options=options, cache=cache,
                                       driver=app.driver, name=name)
        refs[(name, "")] = _view(bundle.manifest())
    clover = apps["cloverleaf_mini"]
    source = rename(clover.source, COLD_TARGET, f"{COLD_TARGET}_reference")
    bundle = translate_application(source, options=options, cache=cache,
                                   driver=clover.driver, name=clover.name)
    refs[(clover.name, COLD_TARGET)] = _view(bundle.manifest())
    return refs


def _setup(apps, store: Path, index: int) -> Tuple[ServerThread, int]:
    """Start a server, warm both apps, and check the generator's mix."""
    from repro.cache.shards import ShardedStore
    from repro.service import ServiceClient

    server = ServerThread(store)
    service = server.service
    proved = 0
    try:
        with ServiceClient(service.host, service.port, timeout=TIMEOUT) as client:
            for name, app in apps.items():
                done = client.lift(app.source, app.driver)
                _expect(done.get("event") == "done", f"warm-up of {name}: {done}")
                proved += sum(1 for k in done["manifest"]["kernels"]
                              if k["verification_level"] == "proved")
            clover = apps["cloverleaf_mini"]
            done = client.lift(clover.source, clover.driver)
            _expect(done["cache"]["misses"] == 0, f"exact repeat missed: {done['cache']}")
            heat = apps["heat_mini"]
            driver = f"{heat.driver}_check{index}"
            done = client.lift(rename(heat.source, heat.driver, driver), driver)
            _expect(done["cache"]["misses"] == 0, f"renamed driver missed: {done['cache']}")
            records = ShardedStore(service.synthesis_path).record_count()
            done = client.lift(
                rename(clover.source, COLD_TARGET, f"{COLD_TARGET}_check{index}"), clover.driver)
            _expect(done["cache"]["misses"] >= 1, f"renamed array hit: {done['cache']}")
            _expect(ShardedStore(service.synthesis_path).record_count() > records,
                    "renamed array appended no shard record")
    except BaseException:
        server.stop()
        raise
    return server, proved


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"service-mix self-check failed: {message}")


def _phase(server: ServerThread, streams: List[Stream], seconds: float,
           traced: bool) -> List[Sample]:
    """Reader and writer run until the deadline; returns every sample.

    Both join for the shared variant when it falls due.  Otherwise the
    reader sends its next warm request at once, and the writer sends a
    cold request when one is due on its clock and waits in between.
    """
    from repro.service import ServiceClient

    service = server.service
    started = time.perf_counter()
    deadline = started + seconds
    barrier = threading.Barrier(CLIENTS)
    samples: List[List[Sample]] = [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []

    def client_loop(index: int) -> None:
        stream = streams[index]
        cold_due = started + COLD_FIRST
        shared_due = started + SHARED_FIRST
        try:
            with ServiceClient(service.host, service.port, timeout=TIMEOUT) as client:
                while (now := time.perf_counter()) < deadline:
                    if now >= shared_due:
                        try:
                            barrier.wait(TIMEOUT)
                        except threading.BrokenBarrierError:
                            break
                        request = stream.cold(shared=True)
                        shared_due += SHARED_EVERY
                    elif index == WRITER and now >= cold_due:
                        request = stream.cold()
                        cold_due += COLD_EVERY
                    elif index == WRITER:
                        time.sleep(min(cold_due, shared_due, deadline) - now)
                        continue
                    else:
                        request = stream.warm()
                    samples[index].append(_lift(client, request, traced))
        except BaseException as exc:  # reported after the join
            errors.append(exc)
        finally:
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT + seconds)
    if errors:
        raise errors[0]
    return [sample for per_client in samples for sample in per_client]


def run(seed: int, seconds: float, trace: bool, tracer: Tracer, scratch: Path) -> Outcome:
    from repro.cache.shards import ShardedStore
    from repro.suites.apps import mini_app

    out = Outcome()
    apps = {name: mini_app(name) for name in APPS}
    cold_process_state()
    refs = _references(apps, scratch)

    setups = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        cold_process_state()
        started = time.perf_counter()
        server, proved = _setup(apps, scratch / f"service-{index}", index)
        setups.append(time.perf_counter() - started)

    streams = [Stream(seed, client, apps) for client in range(CLIENTS)]
    before = server.service.stats()
    try:
        # Traced runs interleave untraced and traced phases as U T T U U T T U
        # so the store's growth over the run weighs both sides alike.
        pattern = (False, True, True, False) * 2
        plan = [(seconds, False)] if not trace else [
            (seconds / len(pattern), traced) for traced in pattern
        ]
        samples: List[Sample] = []
        measured = 0.0
        for length, traced in plan:
            if traced:
                install(tracer)
            started = time.perf_counter()
            try:
                samples += _phase(server, streams, length, traced)
            finally:
                measured += time.perf_counter() - started
                tracer.unwrap_all()
        after = server.service.stats()
        entries = ShardedStore(server.service.synthesis_path).entry_count()
    finally:
        server.stop()

    for sample in samples:
        out.attempted += 1
        event = sample.event
        if event.get("event") != "done" or _view(event["manifest"]) != refs[sample.request.shape]:
            out.failed += 1

    plain = [s for s in samples if not s.traced]
    warm = [s.total for s in plain if s.request.kind in WARM]
    cold = [s.total for s in plain if s.request.kind == "cold"]
    out.put("setup_s", median(setups), "s", len(setups))
    out.put("p50_ms", 1000 * median(warm), "ms", len(warm))
    out.put("heavy_ms", 1000 * median(cold), "ms", len(cold))
    out.put("rate_per_s", len(samples) / measured, "1/s", len(samples))
    out.put("kernels_proved", proved, "count", len(APPS))
    pct, value = tail_percentile(warm)
    if pct is not None:
        out.note(f"svc_warm_p{pct}_ms", 1000 * value, "ms", len(warm))
    deduped = after["deduped"] - before["deduped"]
    out.note("svc_deduped", deduped, "count", len(samples))
    kinds = Counter(f"{s.request.kind}.{s.request.shape[0]}" for s in samples)
    for kind, count in sorted(kinds.items()):
        out.note(f"mix.{kind}", count / len(samples), "share", count)

    if trace:
        out.layers = _layers(tracer, samples, warm, deduped, before, after, entries)
    return out


def _layers(tracer, samples, plain_warm, deduped, before, after, entries) -> Dict[str, float]:
    spans = tracer.closed()
    roots = root_of(spans)
    jobs = {span.id: span.rid for span in spans if span.name == "run.job"}
    traced = [s for s in samples if s.traced]
    fingerprints = {
        s.event.get("fingerprint", "")[:12]: s.request.kind for s in traced
        if s.event.get("event") == "done"
    }
    under_jobs = [span for span in spans if roots.get(span.id) in jobs]
    warm_ids = {root for root, rid in jobs.items() if fingerprints.get(rid) in WARM}
    warm_spans = [span for span in under_jobs if roots[span.id] in warm_ids]
    warm_totals = totals(warm_spans)
    n_warm = max(len(warm_ids), 1)

    def warm_ms(name):
        return 1000 * warm_totals.get(name, 0.0) / n_warm

    layers = lift_layers(under_jobs, tracer.counters, max(len(traced), 1))
    traced_warm = [s for s in traced if s.request.kind in WARM]
    translate = [1000 * s.event.get("seconds", 0.0) for s in traced_warm]
    queue = [1000 * (s.accepted - s.sent) for s in traced_warm]
    layers.update({
        "cache.load_ms": warm_ms("cache.load"),
        "cache.save_ms": warm_ms("cache.save"),
        "frontend.parse_ms": warm_ms("frontend.parse"),
        "application.scan_ms": warm_ms("application.scan"),
        "autotune.ms": warm_ms("autotune.tune"),
        "verification.cert_replay_ms": warm_ms("verification.cert_replay"),
        "cache.hits": sum(s.event["cache"]["hits"] for s in traced if "cache" in s.event)
        / max(len(traced), 1),
        "cache.misses": sum(s.event["cache"]["misses"] for s in traced if "cache" in s.event)
        / max(len(traced), 1),
        "cache.entries": entries,
        "service.queue_ms": median(queue),
        "service.translate_ms": median(translate),
        # Everything but the server's translate: send, queueing, streaming.
        # Not minus queue_ms: the job starts before ``accepted`` is sent.
        "service.stream_ms": median([1000 * s.total - t for s, t in zip(traced_warm, translate)]),
        "service.deduped": deduped,
        "service.lifts_per_submission": (after["lifts"] - before["lifts"])
        / max(after["submissions"] - before["submissions"], 1),
    })
    cold_ids = {root for root, rid in jobs.items() if fingerprints.get(rid) == "cold"}
    cold_totals = totals([span for span in under_jobs if roots[span.id] in cold_ids])
    layers["synthesis.cold_s"] = cold_totals.get("synthesis.cold", 0.0) / max(len(cold_ids), 1)
    layers["trace.overhead"] = median([s.total for s in traced_warm]) / median(plain_warm) - 1
    return layers
