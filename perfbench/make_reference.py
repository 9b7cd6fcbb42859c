"""Regenerate ``reference.json`` from the current program.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/make_reference.py

The mesh workloads have one entry each (they take no seed); the trace
workloads get one entry per seed ``0 .. REFERENCE_SEEDS-1``, every seed a
run can map to.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._load_program()
    from repro.perf.cache import clear_caches
    from workloads import REFERENCE_SEEDS, TRACE_REQUESTS, WORKLOADS

    reference = {}
    for name in run.WORKLOAD_NAMES:
        wl = WORKLOADS[name]
        if not hasattr(wl, "write_inputs"):
            clear_caches()
            reference[name] = wl.unit(wl.setup(0, run.WORKDIR)).outputs
            print(f"{name}: done", file=sys.stderr)
            continue
        lut = wl.build_lut()
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            ctx = wl.write_inputs(seed, run.WORKDIR)
            ctx.lut = lut
            try:
                clear_caches()
                outputs = wl.unit(ctx).outputs
                errors = wl.invariants(ctx, outputs)
                if errors:
                    sys.exit(f"{name} seed {seed}: {errors}")
                seeds[str(seed)] = outputs
            finally:
                wl.cleanup(ctx)
            print(f"{name}: seed {seed}", file=sys.stderr)
        reference[name] = {"requests": TRACE_REQUESTS, "seeds": seeds}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
