"""Job execution: serial fallback and a fault-tolerant process pool.

:func:`run_jobs` takes a list of :class:`JobSpec`, consults the
persistent :class:`~repro.engine.cache.ArtifactCache`, deduplicates
identical specs, and executes the remaining jobs either in-process
(``jobs=1`` — byte-identical to the historical serial paths) or across
a ``ProcessPoolExecutor`` with per-job timeout and bounded retry on
worker crashes.  One failed design point never aborts the sweep; it is
recorded in the returned :class:`~repro.engine.report.EngineReport`.

The worker contract is a picklable callable ``worker(spec, cache) ->
payload dict`` (see :func:`result_to_dict`); tests inject failing or
sleeping workers to exercise the retry/timeout machinery.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.harness.runner import Comparison, RunResult, run_workload
from repro.obs.events import maybe_span

from repro.engine.cache import ArtifactCache, result_from_dict, result_to_dict
from repro.engine.jobs import JobSpec
from repro.engine.sweeps import SweepSpec
from repro.engine.report import (
    DUPLICATE,
    EXECUTED,
    FAILED,
    HIT,
    REJECTED,
    EngineReport,
    JobRecord,
)


def execute_job(spec: JobSpec, cache: ArtifactCache | None = None,
                trace=None) -> RunResult:
    """Run one job, reusing a cached compiled program when available.

    ``trace`` (a :class:`repro.obs.events.TraceOptions`) enables the
    structured event stream for this execution; tracing bypasses the
    compiled-artifact reuse so compiler passes appear in the timeline.
    """
    traced = trace is not None and trace.enabled
    compiled = (cache.load_compile(spec)
                if cache is not None and not traced else None)
    had_artifact = compiled is not None
    result = run_workload(spec.to_run_config(trace=trace),
                          compiled=compiled)
    if cache is not None and not had_artifact:
        cache.store_compile(spec, result.compile_result)
    return result


def _worker(spec: JobSpec, cache: ArtifactCache | None = None) -> dict:
    """Default worker: execute and return a serialized run summary."""
    return result_to_dict(execute_job(spec, cache))


#: Marker key of a per-point failure inside a batch worker's payload
#: list; its value is the formatted error string a solo worker raise
#: would have produced.
_BATCH_FAILED = "__batch_failed__"


def _batch_worker(specs, cache: ArtifactCache | None = None) -> list:
    """Run one lane of ``batched``-backend specs in lockstep.

    Returns one entry per spec: either the serialized run summary —
    byte-identical to what :func:`_worker` produces for the same spec,
    by the batched parity contract — or ``{_BATCH_FAILED: "..."}``
    carrying the error string the solo path would have recorded.
    Compiled artifacts are reused from / stored into ``cache`` exactly
    like :func:`execute_job` (one compile per lane).
    """
    from repro.harness.batch import execute_batch_group

    compiled = cache.load_compile(specs[0]) if cache is not None else None
    stored = compiled is not None
    outcomes = execute_batch_group(
        [spec.to_run_config() for spec in specs], compiled=compiled)
    payloads = []
    for spec, outcome in zip(specs, outcomes, strict=True):
        if outcome.error is not None:
            payloads.append({_BATCH_FAILED:
                             f"{type(outcome.error).__name__}: "
                             f"{outcome.error}"})
            continue
        if cache is not None and not stored:
            cache.store_compile(spec, outcome.result.compile_result)
            stored = True
        payloads.append(result_to_dict(outcome.result))
    return payloads


def _plan_job_batches(specs, pending):
    """Split pending indices into lockstep lanes and leftovers.

    Only ``backend="batched"`` specs batch, grouped by the harness's
    :func:`~repro.harness.batch.lane_key` over their expanded run
    configs — the same planner the direct API uses, so engine batching
    can never group what the harness would refuse.  Lanes need at
    least two members; everything else stays on the solo path.  Both
    come back in first-index order.
    """
    from repro.harness.batch import lane_key

    lanes: dict[tuple, list[int]] = {}
    rest: list[int] = []
    for i in pending:
        if specs[i].backend != "batched":
            rest.append(i)
            continue
        lanes.setdefault(lane_key(specs[i].to_run_config()), []).append(i)
    groups = []
    for members in lanes.values():
        if len(members) >= 2:
            groups.append(members)
        else:
            rest.extend(members)
    groups.sort(key=lambda g: g[0])
    rest.sort()
    return groups, rest


def _notify(progress, record) -> None:
    """Fire a progress callback; a broken observer never kills a run."""
    if progress is None:
        return
    with contextlib.suppress(Exception):
        progress(record)


def _finish_batch(members, payloads, specs, records, results, cache,
                  wall_s, progress=None) -> None:
    """Record one batch group's payload list onto its member jobs."""
    for i, payload in zip(members, payloads, strict=False):
        records[i].attempts += 1
        records[i].wall_s = wall_s
        if _BATCH_FAILED in payload:
            records[i].status = FAILED
            records[i].error = payload[_BATCH_FAILED]
        else:
            _finish(i, payload, specs, records, results, cache)
        _notify(progress, records[i])


def _run_batches(specs, groups, records, results, cache, jobs, timeout,
                 events=None, progress=None) -> list[int]:
    """Execute lockstep lanes; returns indices needing solo retry.

    A group whose worker call fails outright (crash, timeout, decode
    error at the lane level) is not retried as a lane — its members
    are handed back for the ordinary solo path, which has its own
    retry budget and is always parity-safe.
    """
    leftovers: list[int] = []
    if jobs > 1 and len(groups) > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(groups)))
        futures = {}
        starts = {}
        for members in groups:
            starts[members[0]] = time.perf_counter()
            futures[pool.submit(
                _batch_worker, [specs[i] for i in members], cache)] = members
        timed_out = False
        for future, members in futures.items():
            try:
                payloads = future.result(timeout=timeout)
            except FutureTimeout:
                timed_out = True
                future.cancel()
                leftovers.extend(members)
                continue
            except Exception:  # noqa: BLE001 — lane falls back to solo
                leftovers.extend(members)
                continue
            _finish_batch(members, payloads, specs, records, results,
                          cache, time.perf_counter() - starts[members[0]],
                          progress)
        pool.shutdown(wait=not timed_out, cancel_futures=True)
        if timed_out:
            for proc in getattr(pool, "_processes", None) or {}:
                with contextlib.suppress(Exception):  # pragma: no cover
                    pool._processes[proc].terminate()
        return leftovers
    for members in groups:
        t0 = time.perf_counter()
        with maybe_span(events, f"batch[{len(members)}] "
                                f"{specs[members[0]].describe()}",
                        "engine.batch") as info:
            try:
                payloads = _batch_worker([specs[i] for i in members],
                                         cache)
            except Exception:  # noqa: BLE001 — lane falls back to solo
                info["status"] = "fallback"
                leftovers.extend(members)
                continue
            info["status"] = "executed"
        _finish_batch(members, payloads, specs, records, results, cache,
                      time.perf_counter() - t0, progress)
    return leftovers


def run_jobs(
    specs: list[JobSpec] | SweepSpec,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
    worker=None,
    events=None,
    progress=None,
) -> EngineReport:
    """Execute ``specs``; returns a report with results aligned to them.

    ``specs`` is a list of :class:`JobSpec` or a :class:`SweepSpec`
    (expanded via :meth:`SweepSpec.jobs`, in its documented order).

    ``jobs=1`` runs serially in-process (no pool, fully deterministic);
    ``jobs>1`` fans out over worker processes in index order.  The
    parent only lints and probes the cache; each worker compiles its
    own job, so compiles run in parallel.  ``timeout`` (seconds, per
    job) and crash recovery apply to the pooled path; a job is
    retried at most ``retries`` times before being recorded as FAILED.

    Cache-miss specs with ``backend="batched"`` are grouped by lane
    (same program, same functional knobs) and dispatched to the
    lockstep :func:`_batch_worker` before the solo paths run; their
    cached payloads are byte-identical to solo runs, and a lane that
    fails wholesale falls back to the solo path transparently.
    Batching only applies with the default worker — an injected
    ``worker`` sees every job individually, as before.

    ``events`` (an :class:`repro.obs.events.EventStream` or None)
    records the job lifecycle — cache hits, dedups, executions and
    failures — as wall-clock events for the timeline exporter.

    ``progress`` (callable or None) fires once per job as it reaches a
    terminal status, with its :class:`~repro.engine.report.JobRecord`
    — the service layer streams these as live progress for async jobs.
    Callback exceptions are swallowed; observation never aborts work.
    """
    from repro.analysis.speclint import lint_spec

    if isinstance(specs, SweepSpec):
        specs = specs.jobs()
    batching = worker is None
    worker = worker or _worker
    started = time.perf_counter()
    n = len(specs)
    records = [JobRecord(spec=spec) for spec in specs]
    results: list = [None] * n

    def mark(name: str, spec: JobSpec) -> None:
        if events is not None:
            events.instant(name, "engine.job",
                           time.perf_counter() * 1e6, domain="wall",
                           spec=spec.describe())

    # Pre-flight lint (once per unique hash): an illegal spec becomes a
    # REJECTED record carrying its diagnostics instead of burning a
    # worker slot (or a timeout) discovering the problem dynamically.
    lint_by_hash: dict[str, object] = {}

    # Cache probe + dedup (first occurrence of a hash is the primary).
    primary: dict[str, int] = {}
    dup_of: dict[int, int] = {}
    pending: list[int] = []
    for i, spec in enumerate(specs):
        h = spec.job_hash
        lint = lint_by_hash.get(h)
        if lint is None:
            lint = lint_by_hash[h] = lint_spec(spec)
        if lint.diagnostics:
            records[i].diagnostics = list(lint.diagnostics)
        if not lint.ok:
            records[i].status = REJECTED
            records[i].error = "; ".join(
                f"{d.code}: {d.message}" for d in lint.errors)
            mark("job_rejected", spec)
            _notify(progress, records[i])
            continue
        if h in primary:
            dup_of[i] = primary[h]
            records[i].status = DUPLICATE
            mark("job_duplicate", spec)
            _notify(progress, records[i])
            continue
        primary[h] = i
        payload = cache.load_run(spec) if cache is not None else None
        if payload is not None:
            # A stale/unreadable entry falls through as a miss.
            with contextlib.suppress(KeyError, ValueError):
                results[i] = result_from_dict(payload)
                records[i].status = HIT
                mark("job_cache_hit", spec)
                _notify(progress, records[i])
                continue
        pending.append(i)

    if pending and batching:
        groups, pending = _plan_job_batches(specs, pending)
        if groups:
            pending = sorted(pending + _run_batches(
                specs, groups, records, results, cache, jobs, timeout,
                events, progress))

    if pending:
        if jobs <= 1:
            _run_serial(specs, pending, records, results, cache, retries,
                        worker, events, progress)
        else:
            _run_pooled(specs, pending, records, results, cache, jobs,
                        timeout, retries, worker, events, progress)

    for i, j in dup_of.items():
        results[i] = results[j]

    return EngineReport(
        jobs=max(1, jobs),
        records=records,
        results=results,
        wall_s=time.perf_counter() - started,
    )


def _finish(index: int, payload: dict, specs, records, results, cache) -> bool:
    """Decode one successful payload; returns False on a decode error."""
    try:
        results[index] = result_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        records[index].status = FAILED
        records[index].error = f"bad worker payload: {exc}"
        return False
    records[index].status = EXECUTED
    if cache is not None:
        cache.store_run(specs[index], payload)
    return True


def _run_serial(specs, pending, records, results, cache, retries,
                worker, events=None, progress=None) -> None:
    for i in pending:
        record = records[i]
        t0 = time.perf_counter()
        payload = None
        with maybe_span(events, specs[i].describe(), "engine.job") as info:
            while record.attempts <= retries:
                record.attempts += 1
                try:
                    payload = worker(specs[i], cache)
                    break
                except Exception as exc:  # noqa: BLE001 — must survive
                    record.error = f"{type(exc).__name__}: {exc}"
            info["attempts"] = record.attempts
            info["status"] = "failed" if payload is None else "executed"
        record.wall_s = time.perf_counter() - t0
        if payload is None:
            record.status = FAILED
        else:
            _finish(i, payload, specs, records, results, cache)
        _notify(progress, record)


def _run_pooled(specs, pending, records, results, cache, jobs, timeout,
                retries, worker, events=None, progress=None) -> None:
    queue = list(pending)
    while queue:
        round_jobs, queue = queue, []
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(round_jobs)))
        futures = {}
        starts = {}
        for i in round_jobs:
            records[i].attempts += 1
            starts[i] = time.perf_counter()
            futures[pool.submit(worker, specs[i], cache)] = i
        timed_out = False
        for future, i in futures.items():
            record = records[i]
            try:
                payload = future.result(timeout=timeout)
            except FutureTimeout:
                timed_out = True
                future.cancel()
                record.error = f"timed out after {timeout}s"
                record.wall_s = time.perf_counter() - starts[i]
                if record.attempts <= retries:
                    queue.append(i)
                else:
                    record.status = FAILED
                    _notify(progress, record)
                continue
            except BrokenProcessPool:
                # A worker died (segfault/os._exit); every unfinished
                # future in this round reports broken.  Retry each such
                # job in a fresh pool until its attempts run out.
                record.error = "worker process crashed"
                record.wall_s = time.perf_counter() - starts[i]
                if record.attempts <= retries:
                    queue.append(i)
                else:
                    record.status = FAILED
                    _notify(progress, record)
                continue
            except Exception as exc:  # noqa: BLE001 — sweep must survive
                record.error = f"{type(exc).__name__}: {exc}"
                record.wall_s = time.perf_counter() - starts[i]
                if record.attempts <= retries:
                    queue.append(i)
                else:
                    record.status = FAILED
                    _notify(progress, record)
                continue
            record.wall_s = time.perf_counter() - starts[i]
            _finish(i, payload, specs, records, results, cache)
            _notify(progress, record)
            if events is not None:
                events.complete(specs[i].describe(), "engine.job",
                                starts[i] * 1e6, record.wall_s * 1e6,
                                domain="wall",
                                attempts=record.attempts)
        pool.shutdown(wait=not timed_out, cancel_futures=True)
        if timed_out:
            # Don't let a hung worker outlive its round.
            for proc in getattr(pool, "_processes", None) or {}:
                with contextlib.suppress(Exception):  # pragma: no cover
                    pool._processes[proc].terminate()


def run_comparisons(
    workloads,
    scale: str = "small",
    seed: int = 7,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
    **knobs,
) -> tuple[dict[str, Comparison], EngineReport]:
    """Scalar-vs-DySER comparisons for ``workloads`` through the engine.

    Returns ``(comparisons by workload name, report)``.  Raises
    :class:`~repro.engine.report.EngineFailure` if any job failed.
    """
    specs = SweepSpec.comparison(workloads, scale=scale, seed=seed,
                                 **knobs).jobs()
    report = run_jobs(specs, jobs=jobs, cache=cache, timeout=timeout,
                      retries=retries)
    report.raise_on_failure()
    comparisons = {}
    for i in range(0, len(specs), 2):
        comparisons[specs[i].workload] = Comparison(
            workload=specs[i].workload,
            scalar=report.results[i],
            dyser=report.results[i + 1],
        )
    return comparisons, report
