#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lift-cold --seed 0 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it give every figure by name, unit
and sample count.  A traced run also writes its spans as JSONL and as
Chrome trace-event JSON under ``.perfbench-out/traces/``.

Everything the run writes stays under ``.perfbench-out/`` in the
working directory: temporary stores, compiled artifacts and results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
# Metric names, units and bounds: the benchmark's one record of them.
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, [workload["name"] for workload in spec["workloads"]])
    if not (ROOT / "src" / "repro" / "pipeline" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from the repository root",
              file=sys.stderr)
        return 2
    # Serial native code, and every temporary file inside the checkout.
    os.environ["REPRO_NATIVE_THREADS"] = "1"
    out_dir = ROOT / ".perfbench-out"
    scratch = out_dir / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import app_run, lift_cold, service_mix
    from perfbench.common import environment, machine_probe_ms
    from perfbench.layers import CONTAINERS
    from perfbench.metrics import MOVES
    from perfbench.spans import Tracer, coverage, write_chrome, write_jsonl

    module = {"lift-cold": lift_cold, "app-run": app_run, "service-mix": service_mix}[
        args.workload
    ]
    tracer = Tracer()
    started = time.perf_counter()
    measured_on = environment()
    probe_before = machine_probe_ms()
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace), tracer, scratch)
    finally:
        tracer.unwrap_all()
        shutil.rmtree(scratch, ignore_errors=True)

    outcome.note("machine_probe_ms.start", probe_before, "ms", 5)
    outcome.note("machine_probe_ms.end", machine_probe_ms(), "ms", 5)
    if args.trace:
        spans = tracer.closed()
        outcome.layers["trace.coverage"] = coverage(spans, containers=CONTAINERS)
        metrics = {
            m["name"]: {"value": float(outcome.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        stem = out_dir / "traces" / f"{args.workload}-seed{args.seed}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        write_jsonl(spans, stem.with_suffix(".jsonl"))
        write_chrome(spans, stem.with_suffix(".trace.json"))
        for name, value in metrics.items():
            print(f"{name} = {value['value']:.6g} {value['unit']}  (moves {MOVES[name]})")
        for line in outcome.lines[-2:]:
            print(line)
        print(f"spans = {len(spans)} -> {stem}.jsonl, {stem}.trace.json")
    else:
        metrics = {}
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            value, measured_unit = outcome.metrics[name]
            if measured_unit != unit:
                raise ValueError(f"{name} measured in {measured_unit}, declared {unit}")
            metrics[name] = {"value": value, "unit": unit}
        for line in outcome.lines:
            print(line)
    print(f"failed_frac = {outcome.failed / max(outcome.attempted, 1):.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "environment": measured_on,
        "lines": outcome.lines,
        "metrics": metrics,
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    print(f"environment = {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
