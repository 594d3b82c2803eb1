"""gateway_jobs: durable ``POST /v2/jobs`` jobs of fresh specs on the
gateway_hits fleet.

Two tenants, one thread each, submit a job with a fresh ``tiny`` spec
of a cheap kernel that no cache has seen (a new input seed each time)
and poll it to a terminal state with results, as ``repro submit``'s
``Client.submit(wait=True)`` does, then submit the next (closed loop).
Jobs come in (scalar, DySER) pairs of the same kernel and input seed.
Compile artifacts are warmed on both workers in set-up.  An operation
is one job; its latency runs from the submit call to the job's
server-side terminal stamp, so the poll interval does not quantise it.
Tenants poll every :data:`POLL_S`: ``repro submit``'s 50 ms would let
the poll set throughput, and 5 ms polls took so much of the shared CPU
that they moved latency by 10% from run to run.  The host-speed probe
runs between blocks, while the fleet is idle.
"""

from __future__ import annotations

import contextlib
import threading
import time

import common
import fleet
import layers
import stats

NAME = "gateway_jobs"

#: Latency limit behind ``slo_attainment``, in ms.
SLO_MS = 250.0

KERNELS = ("vecadd", "saxpy", "dotprod", "newton_lcd")
TENANTS = 2
#: Seconds between status polls of one tenant.
POLL_S = 0.01
BLOCK = 40
TRACED_JOBS = 80
REFERENCE_SAMPLE = 2


class JobPlan:
    """The seeded job sequence: index -> fresh spec."""

    def __init__(self, ctx) -> None:
        rng = ctx.rng(NAME)
        self.base = rng.randrange(10_000, 10_000_000)
        self.kernels = list(KERNELS)
        rng.shuffle(self.kernels)

    def spec(self, index: int):
        from repro import JobSpec

        pair = index // 2
        return JobSpec(workload=self.kernels[pair % len(self.kernels)],
                       mode=("scalar", "dyser")[index % 2], scale="tiny",
                       seed=self.base + pair)


def warm(ports) -> None:
    """Compile every (kernel, mode) on every worker, with set-up-only
    input seeds below any measured job's."""
    from repro import Client, JobSpec
    from repro.service import spec_to_payload

    for index, port in enumerate(ports):
        with Client(port=port, timeout=120) as client:
            for kernel in KERNELS:
                for mode in ("scalar", "dyser"):
                    client.execute(spec_to_payload(JobSpec(
                        workload=kernel, mode=mode, scale="tiny",
                        seed=1 + index)))


def run_jobs_closed(port: int, plan: JobPlan, n: int, tracer=None,
                    start_index: int = 0):
    """Two tenants drive ``n`` jobs; returns (records, t0, t1, errors)."""
    from repro import Client
    from repro.service import spec_to_payload

    counter = iter(range(start_index, start_index + n))
    lock = threading.Lock()
    stop = threading.Event()
    records = []
    errors = []

    def tenant(slot: int) -> None:
        with Client(port=port, timeout=60, retries=3,
                    tenant=f"tenant-{slot}") as client:
            while True:
                with lock:
                    index = next(counter, None)
                if index is None or stop.is_set():
                    return
                spec = plan.spec(index)
                try:
                    with (tracer.span("client.op") if tracer
                          else contextlib.nullcontext()):
                        submitted = time.time()
                        handle = client.submit(spec_to_payload(spec))
                        while True:
                            time.sleep(POLL_S)
                            status = client.job(handle.id, results=True)
                            if status.terminal:
                                break
                except Exception as exc:  # noqa: BLE001 - counted failed
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                        records.append((index, spec, None, None))
                    continue
                with lock:
                    records.append((index, spec,
                                    (status.updated - submitted) * 1e3,
                                    status))

    threads = [threading.Thread(target=tenant, args=(slot,))
               for slot in range(TENANTS)]
    t0 = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()
    t1 = time.perf_counter()
    records.sort(key=lambda r: r[0])
    return records, t0, t1, errors


def _result(status):
    if status is None or not status.succeeded or not status.results:
        return None
    result = status.results[0].get("result")
    return result if isinstance(result, dict) else None


def check_records(ctx, records) -> int:
    """Every job succeeded with a correct result, byte-identical to a
    direct engine run of its spec; a seeded sample also matches the
    reference backend."""
    failed = 0
    for _, spec, _, status in records:
        result = _result(status)
        if result is None or result.get("correct") is not True \
                or not ctx.same_bytes(common.direct_run(spec),
                                      stats.canonical(result)):
            failed += 1
    served = [(spec, _result(status)) for _, spec, _, status in records
              if _result(status) is not None]
    return failed + common.reference_check(
        ctx, [spec for spec, _ in served], [r for _, r in served],
        REFERENCE_SAMPLE)


def pair_speedup(records) -> float:
    by_index = {index: _result(status) for index, _, _, status in records}
    pairs = [(by_index[i]["stats"], by_index[i + 1]["stats"])
             for i in sorted(by_index) if i % 2 == 0
             and by_index.get(i) and by_index.get(i + 1)]
    return common.speedup(pairs)


def block_digest(records) -> str:
    return stats.stats_digest(_result(status)["stats"]
                              for _, _, _, status in records
                              if _result(status) is not None)


def timed(ctx):
    with common.one_cpu():
        setup_s, running = fleet.fleet_setups(
            ctx, lambda running: warm(running.worker_ports))
        plan = JobPlan(ctx)
        walls, raw_walls, records, ops, errors = [], [], [], [], []
        try:
            start = time.perf_counter()
            while len(walls) < 3 \
                    or time.perf_counter() - start < ctx.seconds:
                ctx.hosts.sample()
                out, t0, t1, errs = run_jobs_closed(
                    running.port, plan, BLOCK, start_index=len(records))
                ctx.hosts.sample()
                raw_walls.append(t1 - t0)
                walls.append(ctx.hosts.scale(t0, t1))
                factor = ctx.hosts.factor(t0, t1)
                ops += [(ms, ms * factor) for _, _, ms, status in out
                        if _result(status) is not None]
                records += out
                errors += errs
        finally:
            running.stop()
    failed = check_records(ctx, records)
    if not common.check_digest(ctx, NAME, block_digest(records[:BLOCK])):
        failed += 1
    if errors:
        ctx.note("errors", errors[:5])
    insns = sum(_result(status)["stats"]["instructions"]
                for _, _, _, status in records
                if _result(status) is not None)
    metrics = common.end_to_end(
        ctx, setup_s=setup_s, walls=walls, raw_walls=raw_walls, ops=ops,
        failed=failed, slo_ms=SLO_MS, insns=insns,
        speedup=pair_speedup(records))
    return metrics, len(records), failed


def _journal_stages(path) -> tuple[float, float]:
    """Median create->running and running->finish journal gaps, in ms."""
    import json

    created, running, finished = {}, {}, {}
    for line in path.read_text().splitlines():
        event = json.loads(line)
        kind = event.get("event")
        if kind == "create":
            created[event["job"]["id"]] = event["job"]["created"]
        elif kind == "running":
            running[event["id"]] = event["t"]
        elif kind == "finish":
            finished[event["id"]] = event["t"]
    waits = [(running[j] - created[j]) * 1e3 for j in running
             if j in created]
    runs = [(finished[j] - running[j]) * 1e3 for j in finished
            if j in running]
    return stats.median(waits), stats.median(runs)


def _unit(ctx, tag: str, tracer=None) -> common.Unit:
    """One unit of jobs on a fresh in-process fleet.  The in-process
    workers share this process's compile and cost memos, so those are
    emptied first: every unit starts as a freshly spawned fleet does."""
    from repro.analysis.perf import clear_cost_memo
    from repro.harness.runner import clear_caches

    clear_caches()
    clear_cost_memo()
    root = ctx.private / f"threads-{tag}"
    threads = fleet.thread_fleet(root)
    try:
        warm(fleet.worker_ports(threads))
        if tracer is not None:
            layers.service_layers(tracer)
        records, t0, t1, _ = run_jobs_closed(threads.port, JobPlan(ctx),
                                             TRACED_JOBS, tracer)
    finally:
        threads.shutdown(timeout=30)
    extra = {}
    if tracer is not None:
        wait_ms, execute_ms = _journal_stages(
            root / fleet.JOURNAL)
        extra = {"service.queue_wait_ms": wait_ms,
                 "service.execute_ms": execute_ms}
    return common.Unit(
        t0, t1, check_records(ctx, records), block_digest(records[:BLOCK]),
        [_result(status)["stats"] for _, _, _, status in records
         if _result(status) is not None], extra)


def traced(ctx):
    tags = iter(("plain", "traced", "again"))
    with common.one_cpu():
        metrics, failed, spans = common.traced_bracket(
            ctx, NAME, lambda tracer: _unit(ctx, next(tags), tracer))
    return metrics, 3 * TRACED_JOBS, failed, spans
