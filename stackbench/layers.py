"""Where each layer is wrapped, and how spans become per-layer metrics.

Every wrap point is the public name the layer above calls, looked up
where that caller looks it up (``repro.compiler.aepdg.schedule`` is
the name ``offload_body`` calls; ``repro.service.scheduler.run_jobs`` is
the name the service scheduler calls).
"""

from __future__ import annotations

import contextvars

import stats
from registry import MEASURED_ON, SELF_TIME
from tracing import SPAN_HEADER, Tracer, self_times

#: Span id of the last request routed on this connection's task, so the
#: response written after the handler returns nests under it.
_LAST_ROUTE: contextvars.ContextVar = contextvars.ContextVar(
    "stackbench_last_route", default=None)


def _spec_key(args, kwargs) -> dict:
    spec = args[0] if args else kwargs.get("spec")
    try:
        return {"key": spec.job_hash}
    except AttributeError:
        return {}


def op_timers(tracer: Tracer) -> None:
    """The thin set the untraced engine runs use to time each job's
    own lint, cost pre-flight and worker execution."""
    import repro.analysis.perf as perf
    import repro.analysis.speclint as speclint
    import repro.engine.pool as pool

    tracer.wrap(speclint, "lint_spec", "analysis.lint", attrs=_spec_key)
    tracer.wrap(perf, "estimate_job_cost", "analysis.estimate",
                attrs=_spec_key)
    tracer.wrap(pool, "_worker", "engine.worker", attrs=_spec_key,
                spill=True)


def engine_layers(tracer: Tracer) -> None:
    """lang, compiler, analysis, engine, harness and cpu wrap points."""
    import repro.compiler.aepdg as aepdg
    import repro.compiler.driver as driver
    import repro.compiler.region as region
    import repro.cpu.decode as decode
    import repro.cpu.fastcore as fastcore
    import repro.engine.pool as pool
    import repro.harness.runner as runner
    import repro.lang.lower as lower
    import repro.lang.validate as validate
    from repro.engine.cache import ArtifactCache
    from repro.harness.backends import DEFAULT_BACKEND, get_backend

    op_timers(tracer)
    tracer.wrap(pool, "run_jobs", "engine.run_jobs")
    tracer.wrap(validate, "check_source", "lang.check")
    tracer.wrap(lower, "lower_spec", "lang.check")
    tracer.wrap(runner, "compile_dyser", "compiler.driver")
    tracer.wrap(runner, "compile_scalar", "compiler.driver")
    tracer.wrap(driver, "frontend", "compiler.frontend")
    tracer.wrap(region, "offload_regions", "compiler.offload")
    tracer.wrap(aepdg, "schedule", "compiler.schedule")
    tracer.wrap(driver, "generate", "compiler.codegen")
    tracer.wrap(runner, "execute", "harness.execute")
    tracer.wrap(ArtifactCache, "load_run", "engine.cache.load",
                after=lambda span, result: span.attrs.update(
                    hit=result is not None))
    tracer.wrap(ArtifactCache, "store_run", "engine.cache.store")

    def decode_hit(args, kwargs) -> dict:
        program, line = args[0], args[1]
        entry = decode._DECODE_CACHE.get((id(program), line))
        return {"hit": entry is not None and entry[0]() is program}

    tracer.wrap(fastcore, "decode_program", "cpu.decode", attrs=decode_hit)
    core_cls = get_backend(DEFAULT_BACKEND).core_cls
    tracer.wrap(core_cls, "run", "cpu.run",
                after=lambda span, stats: span.attrs.update(
                    insns=stats.instructions))


def _header_parent(args, kwargs):
    value = args[1].headers.get(SPAN_HEADER.lower())
    try:
        return int(value) if value else None
    except ValueError:
        return None


def _remember_route(span, result) -> None:
    _LAST_ROUTE.set(span.sid)


def _tag_forward(span, kwargs) -> None:
    kwargs["headers"] = {**(kwargs.get("headers") or {}),
                         SPAN_HEADER: str(span.sid)}


def service_layers(tracer: Tracer) -> None:
    """Service wrap points, plus span propagation over HTTP and into
    executor threads.  Needs the in-process fleet."""
    import asyncio

    import repro.service.admission as admission
    import repro.service.protocol as protocol
    import repro.service.scheduler as scheduler
    from repro.service.client import Client
    from repro.service.gateway import GatewayService
    from repro.service.jobstore import JobStore
    from repro.service.server import HttpDaemon, ReproService
    from repro.service.tenancy import TenancyController

    engine_layers(tracer)
    tracer.propagate_executor()
    tracer.tag_http_requests()
    # The scheduler runs a batch from its own dispatch task, so link the
    # engine call to the request that submitted the batch's first job.
    submitters: dict[str, int] = {}
    tracer.wrap(scheduler.Scheduler, "submit", "service.worker.submit",
                after=lambda span, job: submitters.__setitem__(
                    job.job_hash, span.parent))
    tracer.wrap(scheduler, "run_jobs", "engine.run_jobs",
                parent=lambda args, kwargs: submitters.get(
                    args[0][0].job_hash))
    tracer.wrap(admission, "lint_spec", "analysis.lint", attrs=_spec_key)
    for name in ("spec_from_payload", "parse_request_body",
                 "run_response", "envelope_v2"):
        tracer.wrap(protocol, name, "service.protocol")
    tracer.wrap(TenancyController, "admit", "service.tenancy",
                after=lambda span, verdict: span.attrs.update(
                    refused=not verdict.allowed))
    tracer.wrap(TenancyController, "release", "service.tenancy")
    tracer.wrap(admission.AdmissionController, "lint_verdict",
                "service.admission")
    tracer.wrap(admission.AdmissionController, "probe_cache",
                "service.admission")
    tracer.wrap(GatewayService, "_route", "service.gateway",
                parent=_header_parent, after=_remember_route)
    tracer.wrap(ReproService, "_route", "service.worker",
                parent=_header_parent, after=_remember_route)
    tracer.wrap(HttpDaemon, "_respond", "service.respond",
                parent=lambda args, kwargs: _LAST_ROUTE.get())
    tracer.wrap(GatewayService, "_forward_raw", "service.forward",
                attrs=lambda args, kwargs: {"path": args[3]},
                rewrite=_tag_forward)
    tracer.wrap(asyncio, "open_connection", "service.forward.connect")
    for name in ("create", "mark_running", "record_result", "finish"):
        tracer.wrap(JobStore, name, "service.jobstore")
    tracer.wrap(Client, "request", "client.op.request")
    tracer.wrap(Client, "_send_once", "client.op.send",
                after=lambda span, result: span.attrs.update(
                    status=result[0]))


def metric_for(span_name: str) -> str:
    """The self-time metric a span counts under (longest prefix)."""
    parts = span_name.split(".")
    for end in range(len(parts), 0, -1):
        metric = SELF_TIME.get(".".join(parts[:end]))
        if metric is not None:
            return metric
    raise KeyError(f"span {span_name!r} maps to no self-time metric")


def named(spans, name: str) -> list:
    return [s for s in spans if s.name == name]


def layer_metrics(spans, t0: float, t1: float) -> dict:
    """Every per-layer metric that spans alone determine."""
    totals, unattributed = self_times(spans, t0, t1)
    out = {metric: 0.0 for metric in SELF_TIME.values()}
    for name, seconds in totals.items():
        out[metric_for(name)] += seconds
    for metric in MEASURED_ON:
        out[metric] = 0.0
    out["trace.unit_wall_s"] = t1 - t0
    out["trace.unattributed_s"] = unattributed

    inside = [s for s in spans if s.start >= t0 and s.end <= t1]
    sched = named(inside, "compiler.schedule")
    failed = [s for s in sched if s.error]
    sched_time = sum(s.duration for s in sched)
    out["compiler.schedule.calls"] = len(sched)
    out["compiler.schedule.failed"] = len(failed)
    out["compiler.schedule.wasted_share"] = (
        sum(s.duration for s in failed) / sched_time if sched_time else 0.0)
    out["compiler.compiles"] = len(named(inside, "compiler.driver"))
    out["analysis.lint.calls"] = len(named(inside, "analysis.lint"))
    out["analysis.estimate.calls"] = len(named(inside, "analysis.estimate"))
    busy = sum(s.duration for s in named(inside, "engine.worker"))
    out["engine.parallelism"] = busy / (t1 - t0) if t1 > t0 else 0.0
    loads = named(inside, "engine.cache.load")
    out["engine.cache.loads"] = len(loads)
    out["engine.cache.hit_ratio"] = (
        sum(1 for s in loads if s.attrs.get("hit")) / len(loads)
        if loads else 0.0)
    out["engine.cache.stores"] = len(named(inside, "engine.cache.store"))
    decodes = named(inside, "cpu.decode")
    out["cpu.decode.hit_ratio"] = (
        sum(1 for s in decodes if s.attrs.get("hit")) / len(decodes)
        if decodes else 0.0)
    runs = named(inside, "cpu.run")
    insns = sum(s.attrs.get("insns", 0) for s in runs)
    out["cpu.host_ns_per_insn"] = (
        sum(s.duration for s in runs) * 1e9 / insns if insns else 0.0)
    out["service.tenancy.refused"] = sum(
        1 for s in named(inside, "service.tenancy")
        if s.attrs.get("refused"))
    forwards = named(inside, "service.forward")
    probes = {s.sid for s in forwards if s.attrs.get("path") == "/healthz"}
    requests = len(forwards) - len(probes)
    connects = sum(1 for s in named(inside, "service.forward.connect")
                   if s.parent not in probes)
    out["service.forward.connects_per_request"] = (
        connects / requests if requests else 0.0)
    appends = named(inside, "service.jobstore")
    out["service.jobstore.appends"] = len(appends)
    out["service.jobstore.append_us"] = (
        stats.median([s.duration for s in appends]) * 1e6
        if appends else 0.0)
    sends = named(inside, "client.op.send")
    out["service.retries"] = max(
        0, len(sends) - len(named(inside, "client.op.request")))
    out["service.refused_429"] = sum(
        1 for s in sends if s.attrs.get("status") in (429, 503))
    return out
