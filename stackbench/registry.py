"""The benchmark's metric registry: names, units, directions, bounds,
and the written-down prediction of which end-to-end metric each
per-layer metric should move.

``BENCHMARK.json`` at the repository root is generated from this
module (``python3 stackbench/registry.py > BENCHMARK.json``) and a test
keeps the two equal.  The predictions cannot live in ``BENCHMARK.json``
(its schema is fixed), so they live here, in :data:`PER_LAYER`'s
``moves``/``same`` fields, and ``run.py --trace 1`` prints them beside
the measured values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "stackbench/run.py"]
PATHS = ["stackbench"]
RUN_SECONDS = 15

#: name -> why (one line each).
WORKLOADS = {
    "cold_suite": "a user's first `repro suite --jobs 2`: cold compile, "
                  "place-and-route and the serial cost pre-flight take "
                  "nearly all the time; simulation a few percent",
    "sim_sweep": "`repro sweep` over DySER timing knobs at medium scale "
                 "with compiles in set-up: nearly all host time is in "
                 "the cpu/dyser simulator",
    "gateway_hits": "warm `execute` hits through `repro gateway` to two "
                    "`repro serve` shards: all time is HTTP, tenancy, "
                    "admission, forward and cache probe",
    "gateway_jobs": "durable /v2/jobs of fresh tiny specs on the same "
                    "fleet: the write path (journal, forward, lint, "
                    "estimate, queue, execute, cache store)",
}

GATEWAY = ("gateway_hits", "gateway_jobs")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str
    bound: float | None = None
    #: "workload.metric" entries this metric should move.
    moves: tuple = ()
    #: workloads (or "workload.metric") on which it should not move.
    same: tuple = ()
    #: for a count or ratio, the self-time metrics whose share of the
    #: traced unit decides whether a prediction held.
    layer: tuple = ()


#: Every end-to-end time is in nominal-host units: the raw time scaled
#: by the host-speed probe taken beside it (see ``stats.HostSpeed``), so
#: that a slow stretch of a shared host does not read as a slower
#: program.  Runs print the raw figures as notes.
END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25,
           doc="median of five fresh-process set-ups, each timed from "
               "interpreter start to ready (fleets: spawned, healthy "
               "and warm), at nominal host speed"),
    Metric("wall_s", "s", "lower", bound=0.25,
           doc="median wall time of one pass over the fixed unit of "
               "work (cold_suite: one suite pass; sim_sweep: one grid "
               "pass; gateway_*: one block of ops), at nominal host "
               "speed"),
    Metric("ops_per_s", "1/s", "higher", bound=0.25,
           doc="operations completed per second of measured time "
               "(runs, sweep points, requests or jobs), at nominal host "
               "speed"),
    Metric("latency_p50_ms", "ms", "lower", bound=0.25,
           doc="median of an operation's own time, at nominal host speed"),
    Metric("latency_p90_ms", "ms", "lower", bound=0.25,
           doc="nearest-rank p90 of an operation's own time, at nominal "
               "host speed; on cold_suite the sample is under 100 and "
               "the run says so"),
    Metric("slo_attainment", "ratio", "higher", bound=0.05,
           doc="share of attempted operations within the workload's "
               "latency limit (raw time; gateway_hits 10 ms, "
               "gateway_jobs 250 ms); failed or refused ops count as "
               "misses; cold_suite and sim_sweep have no limit, so "
               "there it is the share that succeeded"),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1,
           doc="peak RSS of the benchmark process plus its largest "
               "reaped child"),
    Metric("sim_kips", "kinsn/s", "higher", bound=0.25,
           doc="simulated instructions in the delivered results per "
               "millisecond of measured time, at nominal host speed"),
    Metric("dyser_speedup", "ratio", "higher", bound=0.1,
           doc="geomean of scalar/DySER simulated cycles over the "
               "workload's kernels (exact); the paper's abstract "
               "reports about 6x on its FPGA, this model is not "
               "validated against hardware so no error is given"),
)


def _stall_metrics():
    from_causes = ("data_hazard", "load_miss", "fetch_miss", "branch",
                   "structural_fpu", "dyser_send", "dyser_recv",
                   "dyser_config", "lsu_busy")
    return tuple(
        Metric(f"sim.stall_cycles.{cause}", "cycles", "lower",
               doc=f"simulated stall cycles attributed to {cause}",
               moves=("cold_suite.dyser_speedup",),
               same=("any speed-only change",))
        for cause in from_causes)


COMPILE = ("compiler.frontend_s", "compiler.offload_s",
           "compiler.schedule_s", "compiler.codegen_s", "compiler.driver_s")
PER_LAYER = (
    Metric("lang.check_s", "s", "lower",
           doc="self time in repro.lang check_source + lower_spec",
           moves=("cold_suite.wall_s",), same=("sim_sweep", *GATEWAY)),
    Metric("compiler.frontend_s", "s", "lower",
           doc="self time in compiler.driver.frontend",
           moves=("cold_suite.wall_s",), same=("sim_sweep.wall_s", *GATEWAY)),
    Metric("compiler.offload_s", "s", "lower",
           doc="self time in compiler.region.offload_regions, schedule "
               "excluded",
           moves=("cold_suite.wall_s",), same=("sim_sweep.wall_s", *GATEWAY)),
    Metric("compiler.schedule_s", "s", "lower",
           doc="self time in compiler.aepdg.schedule (place and route)",
           moves=("cold_suite.wall_s", "cold_suite.latency_p50_ms",
                  "sim_sweep.setup_s"),
           same=("sim_sweep.wall_s", "gateway_hits.latency_p50_ms",
                 "gateway_jobs.latency_p50_ms")),
    Metric("compiler.schedule.calls", "count", "lower",
           doc="schedule calls per traced unit",
           moves=("cold_suite.wall_s",), same=("sim_sweep.wall_s",),
           layer=("compiler.schedule_s",)),
    Metric("compiler.schedule.failed", "count", "lower",
           doc="schedule calls that raised SchedulingError",
           moves=("cold_suite.wall_s",), same=("sim_sweep.wall_s",),
           layer=("compiler.schedule_s",)),
    Metric("compiler.schedule.wasted_share", "ratio", "lower",
           doc="share of schedule time spent in calls that failed",
           moves=("cold_suite.wall_s",), same=("sim_sweep.wall_s",),
           layer=("compiler.schedule_s",)),
    Metric("compiler.codegen_s", "s", "lower",
           doc="self time in compiler.codegen.generate",
           moves=("cold_suite.wall_s",), same=("sim_sweep.wall_s",)),
    Metric("compiler.driver_s", "s", "lower",
           doc="self time in compile_dyser/compile_scalar outside the "
               "wrapped passes (post-offload optimize, IR dump)",
           moves=("cold_suite.wall_s",), same=("sim_sweep.wall_s",)),
    Metric("compiler.compiles", "count", "lower",
           doc="compile_dyser + compile_scalar calls per unit; more than "
               "the unit's (kernel, mode) pairs means a double compile",
           moves=("cold_suite.wall_s",),
           layer=COMPILE),
    Metric("analysis.lint_s", "s", "lower",
           doc="self time in lint_spec (engine pre-flight and service "
               "admission)",
           moves=("gateway_jobs.latency_p50_ms",), same=("sim_sweep",)),
    Metric("analysis.lint.calls", "count", "lower",
           doc="lint_spec calls per unit",
           moves=("gateway_jobs.latency_p50_ms",), same=("sim_sweep",),
           layer=("analysis.lint_s",)),
    Metric("analysis.estimate_s", "s", "lower",
           doc="self time in estimate_job_cost; the compiles it triggers "
               "count under compiler.*",
           moves=("cold_suite.wall_s", "gateway_jobs.latency_p50_ms"),
           same=("sim_sweep",)),
    Metric("analysis.estimate.calls", "count", "lower",
           doc="estimate_job_cost calls per unit",
           moves=("cold_suite.wall_s", "gateway_jobs.latency_p50_ms"),
           same=("sim_sweep",),
           layer=("analysis.estimate_s",)),
    Metric("engine.run_jobs_s", "s", "lower",
           doc="self time in engine.run_jobs (pre-flight loop, cache "
               "probe bookkeeping, pool management and waiting)",
           moves=("cold_suite.wall_s", "sim_sweep.ops_per_s"),
           same=("gateway_hits",)),
    Metric("engine.worker_s", "s", "lower",
           doc="self time in the engine's per-job worker (artifact "
               "reuse and result serialization)",
           moves=("sim_sweep.ops_per_s",), same=("gateway_hits",)),
    Metric("engine.parallelism", "ratio", "higher",
           doc="summed per-job worker busy time over the unit's wall "
               "(ideal 2.0 at jobs=2)",
           moves=("cold_suite.wall_s", "sim_sweep.ops_per_s"),
           same=("gateway_hits",),
           layer=("engine.worker_s",)),
    Metric("engine.cache.load_s", "s", "lower",
           doc="self time in ArtifactCache.load_run",
           moves=("gateway_hits.latency_p50_ms",
                  "gateway_jobs.latency_p50_ms"),
           same=("cold_suite.wall_s",)),
    Metric("engine.cache.loads", "count", "lower",
           doc="ArtifactCache.load_run calls per unit",
           moves=("gateway_hits.latency_p50_ms",), same=("cold_suite",),
           layer=("engine.cache.load_s",)),
    Metric("engine.cache.hit_ratio", "ratio", "higher",
           doc="share of load_run calls that returned a payload",
           moves=("gateway_hits.latency_p50_ms",), same=("cold_suite",),
           layer=("engine.cache.load_s",)),
    Metric("engine.cache.store_s", "s", "lower",
           doc="self time in ArtifactCache.store_run",
           moves=("gateway_jobs.latency_p50_ms",),
           same=("cold_suite.wall_s",)),
    Metric("engine.cache.stores", "count", "lower",
           doc="ArtifactCache.store_run calls per unit",
           moves=("gateway_jobs.latency_p50_ms",), same=("cold_suite",),
           layer=("engine.cache.store_s",)),
    Metric("harness.execute_s", "s", "lower",
           doc="self time in harness.runner.execute (input prep, output "
               "check, energy)",
           moves=("sim_sweep.ops_per_s",), same=("cold_suite.wall_s",)),
    Metric("cpu.decode_s", "s", "lower",
           doc="self time in decode_program",
           moves=("cold_suite.latency_p50_ms",), same=("gateway_hits",)),
    Metric("cpu.decode.hit_ratio", "ratio", "higher",
           doc="share of decode_program calls served by the decode cache",
           moves=("cold_suite.latency_p50_ms",), same=("gateway_hits",),
           layer=("cpu.decode_s",)),
    Metric("cpu.run_s", "s", "lower",
           doc="self time in the default backend core's run",
           moves=("sim_sweep.wall_s", "sim_sweep.sim_kips"),
           same=("cold_suite.wall_s", "gateway_hits")),
    Metric("cpu.host_ns_per_insn", "ns", "lower",
           doc="core run time per simulated instruction",
           moves=("sim_sweep.wall_s", "sim_sweep.sim_kips"),
           same=("cold_suite.wall_s", "gateway_hits"),
           layer=("cpu.run_s",)),
    Metric("sim.cycles", "cycles", "lower",
           doc="simulated cycles summed over the unit's runs (exact)",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    Metric("sim.instructions", "count", "lower",
           doc="simulated instructions summed over the unit's runs",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    Metric("sim.ipc", "ratio", "higher",
           doc="simulated instructions per simulated cycle",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    *_stall_metrics(),
    Metric("sim.dcache_miss_ratio", "ratio", "lower",
           doc="simulated D$ misses per access",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    Metric("sim.dyser.invocations", "count", "higher",
           doc="simulated DySER invocations",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    Metric("sim.dyser.config_hit_ratio", "ratio", "higher",
           doc="simulated configuration-cache hits per config load",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    Metric("sim.dyser.values_sent", "count", "lower",
           doc="simulated values sent to the fabric",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    Metric("sim.dyser.switch_hops", "count", "lower",
           doc="simulated switch hops on the fabric",
           moves=("cold_suite.dyser_speedup",),
           same=("any speed-only change",)),
    Metric("service.protocol_s", "s", "lower",
           doc="self time in protocol.spec_from_payload, "
               "parse_request_body, run_response, envelope_v2",
           moves=("gateway_hits.latency_p50_ms",),
           same=("cold_suite", "sim_sweep")),
    Metric("service.tenancy_s", "s", "lower",
           doc="self time in TenancyController.admit/release",
           moves=("gateway_hits.latency_p50_ms",
                  "gateway_jobs.latency_p50_ms", "gateway_hits.slo_attainment",
                  "gateway_jobs.slo_attainment"),
           same=("cold_suite", "sim_sweep")),
    Metric("service.tenancy.refused", "count", "lower",
           doc="admit verdicts that refused the request",
           moves=("gateway_hits.slo_attainment",),
           same=("cold_suite", "sim_sweep"),
           layer=("service.tenancy_s",)),
    Metric("service.admission_s", "s", "lower",
           doc="self time in AdmissionController.lint_verdict + "
               "probe_cache",
           moves=("gateway_hits.latency_p50_ms",),
           same=("cold_suite", "sim_sweep")),
    Metric("service.gateway_s", "s", "lower",
           doc="self time in the gateway's request handler outside every "
               "wrapped call",
           moves=("gateway_hits.latency_p50_ms",),
           same=("cold_suite", "sim_sweep")),
    Metric("service.worker_s", "s", "lower",
           doc="self time in a worker's request handler outside every "
               "wrapped call, its scheduler queue wait included",
           moves=("gateway_hits.latency_p50_ms",
                  "gateway_jobs.latency_p50_ms"),
           same=("cold_suite", "sim_sweep")),
    Metric("service.respond_s", "s", "lower",
           doc="self time writing HTTP responses (gateway and workers)",
           moves=("gateway_hits.latency_p50_ms",),
           same=("cold_suite", "sim_sweep")),
    Metric("service.forward_s", "s", "lower",
           doc="self time in the gateway's forward to a worker, the "
               "worker's own spans excluded",
           moves=("gateway_hits.latency_p50_ms",
                  "gateway_jobs.latency_p50_ms"),
           same=("cold_suite", "sim_sweep")),
    Metric("service.forward_ms", "ms", "lower",
           doc="p50 of a warm hit via the gateway minus p50 of the same "
               "hit sent straight to its owning worker",
           moves=("gateway_hits.latency_p50_ms", "gateway_hits.ops_per_s",
                  "gateway_jobs.latency_p50_ms"),
           same=("cold_suite", "sim_sweep")),
    Metric("service.forward.connects_per_request", "ratio", "lower",
           doc="asyncio.open_connection calls per forwarded request",
           moves=("gateway_hits.latency_p50_ms",),
           same=("cold_suite", "sim_sweep"),
           layer=("service.forward_s",)),
    Metric("service.queue_wait_ms", "ms", "lower",
           doc="median journal create -> running stamp of a job",
           moves=("gateway_jobs.latency_p50_ms",), same=("gateway_hits",)),
    Metric("service.execute_ms", "ms", "lower",
           doc="median journal running -> finish stamp of a job",
           moves=("gateway_jobs.latency_p50_ms",), same=("gateway_hits",)),
    Metric("service.jobstore_s", "s", "lower",
           doc="self time in JobStore create/mark_running/record_result/"
               "finish",
           moves=("gateway_jobs.latency_p50_ms",), same=("gateway_hits",)),
    Metric("service.jobstore.append_us", "us", "lower",
           doc="median duration of one JobStore mutation (one journal "
               "append each)",
           moves=("gateway_jobs.latency_p50_ms",), same=("gateway_hits",),
           layer=("service.jobstore_s",)),
    Metric("service.jobstore.appends", "count", "lower",
           doc="JobStore mutations per unit",
           moves=("gateway_jobs.latency_p50_ms",), same=("gateway_hits",),
           layer=("service.jobstore_s",)),
    Metric("service.retries", "count", "lower",
           doc="client requests sent again by the retry policy",
           moves=("gateway_hits.slo_attainment",
                  "gateway_jobs.slo_attainment")),
    Metric("service.refused_429", "count", "lower",
           doc="429/503 replies the client received",
           moves=("gateway_hits.slo_attainment",
                  "gateway_jobs.slo_attainment")),
    Metric("client.op_s", "s", "lower",
           doc="self time of the load generator's operations: http.client, "
               "sockets and server transport outside every wrapped call",
           moves=("gateway_hits.latency_p50_ms",)),
    Metric("trace.unit_wall_s", "s", "lower",
           doc="wall time of the traced unit; self times plus "
               "trace.unattributed_s sum to it"),
    Metric("trace.unattributed_s", "s", "lower",
           doc="traced-unit wall time outside every span"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           doc="traced unit wall over the untraced unit wall"),
)

#: Per-layer metrics only one workload measures (zero on the others).
MEASURED_ON = {
    "service.forward_ms": "gateway_hits",
    "service.queue_wait_ms": "gateway_jobs",
    "service.execute_ms": "gateway_jobs",
}

#: Per-layer self-time metrics, keyed by the span name they sum.
SELF_TIME = {m.name[:-2]: m.name for m in PER_LAYER
             if m.name.endswith("_s") and m.unit == "s"
             and not m.name.startswith("trace.")}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
