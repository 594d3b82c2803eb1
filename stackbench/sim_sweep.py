"""sim_sweep: design-space exploration as ``repro sweep --mode both``
runs it on the default backend.

The unit is a fixed timing-knob grid (input FIFO depth x initiation
interval x vector port rate, 3 x 3 x 2 = 18 points) over every kernel of
a fixed set at ``medium`` scale, with ``jobs=1``.  Compiles happen in
set-up; every pass uses a fresh artifact cache, so every point
simulates.

Kernels and knob values are fixed because they set how much work a pass
is: host cost per simulated instruction differs about 3x between
kernels, and the knobs change the cycles simulated.  The seed draws the
input data seed, which leaves the work nearly unchanged (spmv's
instruction count moves by under 1% across seeds).  An operation is one
executed job (each DySER grid point, plus one scalar baseline per
kernel; the sweep deduplicates the other scalar points); its own time
is its engine worker call.
"""

from __future__ import annotations

import common

NAME = "sim_sweep"

KERNELS = ("kmeans", "mriq", "spmv")
AXES = (("input_fifo_depth", (2, 4, 8)),
        ("initiation_interval", (1, 2, 3)),
        ("vector_port_words_per_cycle", (1, 2)))
SCALE = "medium"
MIN_PASSES = 3
REFERENCE_SAMPLE = 1


def prepare(ctx) -> list:
    """The grid's jobs; compiles every kernel in both modes (the set-up
    work; a tiny run fills the process's compile memo)."""
    from repro import RunConfig, SweepSpec, run_workload

    sweep = SweepSpec(workloads=KERNELS, modes=("scalar", "dyser"),
                      base={"scale": SCALE,
                            "seed": ctx.rng(NAME).randrange(1, 10_000)},
                      axes=AXES)
    for name in KERNELS:
        for mode in sweep.modes:
            run_workload(RunConfig(workload=name, mode=mode, scale="tiny"))
    return sweep.jobs()


def speedup(specs, results) -> float:
    scalar = {spec.workload: result.stats.to_dict()
              for spec, result in zip(specs, results, strict=True)
              if spec.mode == "scalar"}
    return common.speedup(
        (scalar[spec.workload], result.stats.to_dict())
        for spec, result in zip(specs, results, strict=True)
        if spec.mode == "dyser")


def timed(ctx):
    with common.one_cpu():
        return common.engine_timed(
            ctx, NAME, prepare(ctx), jobs=1, min_passes=MIN_PASSES,
            reference_sample=REFERENCE_SAMPLE, speedup_of=speedup)


def traced(ctx):
    with common.one_cpu():
        return common.engine_traced(ctx, NAME, prepare(ctx), jobs=1)
