"""cold_suite: what a user's first ``repro suite --jobs 2`` does.

One pass runs every (kernel, mode) pair of a fixed kernel set at
``tiny`` scale through ``run_jobs(..., jobs=2)`` with empty compile
memos, an empty cost memo and a fresh artifact cache:

- one router-heavy kernel, ``conv2d`` (about 3.4 s of cold compile,
  most of it in a place-and-route attempt that fails before one fits;
  the cheapest of the router-heavy kernels, so a run holds four
  passes);
- one small shipped DSL kernel, ``spmv_csr_dsl``, stored
  content-addressed in the run's kernel store and resolved as
  ``dsl:<hash>``, so every pass validates and lowers it through
  ``repro.lang``;
- eight light kernels, chosen so that the median job (about 65 ms) and
  the p90 job (about 115 ms) each fall inside a run of similar jobs, not
  on a gap between two, where noise in a single job would move the
  percentile by the width of the gap.  ``vecadd``, ``newton_lcd`` and
  ``nbody`` are left out for that reason.

The seed draws the input data seed only.  Drawing kernels moved the
figures more than the draw is worth here: heavy kernels compile in
2.5-5.7 s, and swapping one light DSL kernel for the other moved the
median op by 40%.  An operation is one (kernel, mode) job; its own time
is its pre-flight lint, its cost estimate (which compiles it) and its
execution in a pool worker.
"""

from __future__ import annotations

import common

NAME = "cold_suite"

KERNELS = ("conv2d", "dotprod", "hist_weighted", "kmeans", "mm", "mriq",
           "saxpy", "spmv", "tpacf_bin")
DSL_KERNEL = "spmv_csr_dsl"
JOBS = 2
MIN_PASSES = 4
REFERENCE_SAMPLE = 2


def prepare(ctx) -> list:
    """Store the DSL kernel and build the pass's job list."""
    from repro import KernelStore, SweepSpec, check_source
    from repro.workloads.dsl_kernels import DSL_SOURCES

    source = DSL_SOURCES[DSL_KERNEL]
    spec, report = check_source(source)
    if spec is None:
        raise common.CheckFailed(f"shipped DSL kernel failed: {report}")
    KernelStore().put(source, spec)
    return SweepSpec.comparison(
        [*KERNELS, spec.workload_name], scale="tiny",
        seed=ctx.rng(NAME).randrange(1, 10_000)).jobs()


def make_cold(cache) -> None:
    """Empty every in-process memo and check the pass starts cold: the
    default artifact cache lies in the run's private directory and the
    pass's own cache is empty."""
    from repro.analysis.perf import clear_cost_memo
    from repro.engine.cache import default_cache_dir
    from repro.harness.runner import clear_caches
    from repro.workloads.suite import SUITE

    clear_caches()
    clear_cost_memo()
    for name in [n for n in SUITE if n.startswith("dsl:")]:
        del SUITE[name]
    if cache.root.parent not in default_cache_dir().parents:
        raise common.CheckFailed("the default artifact cache is not "
                                 "private to the run")
    if cache.root.exists() and any(cache.root.iterdir()):
        raise common.CheckFailed(f"artifact cache {cache.root} is not empty")


def speedup(specs, results) -> float:
    return common.speedup(
        (results[i].stats.to_dict(), results[i + 1].stats.to_dict())
        for i in range(0, len(specs), 2))


def timed(ctx):
    return common.engine_timed(
        ctx, NAME, prepare(ctx), jobs=JOBS, min_passes=MIN_PASSES,
        reference_sample=REFERENCE_SAMPLE, speedup_of=speedup,
        before=make_cold)


def traced(ctx):
    return common.engine_traced(ctx, NAME, prepare(ctx), jobs=JOBS,
                                before=make_cold)
