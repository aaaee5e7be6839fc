#!/usr/bin/env python3
"""Write the lift-cold oracle: each kernel's report signature digest.

    python3 perfbench/make_expected.py

Run from the repository root.  The signatures come from the interpreted
evaluation path (``CompileOptions(enabled=False)``), which the compiled
path must match byte for byte, with otherwise shipped
``PipelineOptions()`` — the options the lift-cold workload lifts with.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.compile import CompileOptions
    from repro.pipeline import PipelineOptions, lift_cases_sequential

    from perfbench.common import cold_process_state
    from perfbench.lift_cold import EXPECTED, cross_section, signature_digest

    options = PipelineOptions(compile_options=CompileOptions(enabled=False))
    signatures = {}
    for case in cross_section():
        cold_process_state()
        (report,) = lift_cases_sequential([case], options)
        signatures[case.name] = signature_digest(report)
        print(case.name, report.verification_level, signatures[case.name][:16], flush=True)
    EXPECTED.write_text(json.dumps(
        {"options": "PipelineOptions(compile_options=CompileOptions(enabled=False))",
         "signatures": signatures},
        indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
