"""What every workload shares: the run context, fresh-process set-up
timing, output checks, the end-to-end metrics of a timed run and the
plain/traced/plain bracket of a traced run; plus the pass loop of the
two engine workloads (cold_suite, sim_sweep)."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import stats

HERE = pathlib.Path(__file__).resolve().parent

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Seconds between background host-speed probes in engine workloads.
PROBE_INTERVAL_S = 0.2


class CheckFailed(Exception):
    """An output check failed; the run reports it and exits non-zero."""


@dataclass
class Context:
    checkout: pathlib.Path
    private: pathlib.Path
    seed: int
    seconds: float
    plant_fault: bool = False
    notes: dict = field(default_factory=dict)
    hosts: stats.HostSpeed = field(default_factory=stats.HostSpeed)
    _planted: bool = False

    @property
    def out_dir(self) -> pathlib.Path:
        """Persistent outputs (Perfetto traces, digests), inside the
        checkout and ignored by git."""
        path = self.checkout / ".stackbench-out"
        path.mkdir(exist_ok=True)
        return path

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")

    def env(self) -> dict:
        """Environment for child processes: the checkout's sources and
        this run's private cache and kernel store."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.checkout / "src"), str(HERE)])
        return env

    def note(self, key: str, value) -> None:
        self.notes[key] = value

    def same_bytes(self, expected: str, got: str) -> bool:
        """Compare two canonical byte forms.  With ``--plant-fault`` the
        first comparison sees one flipped byte, to show the check bites."""
        if self.plant_fault and not self._planted:
            self._planted = True
            flipped = chr(ord(got[len(got) // 2]) ^ 1)
            got = got[:len(got) // 2] + flipped + got[len(got) // 2 + 1:]
        return expected == got


@contextlib.contextmanager
def one_cpu():
    """Run this thread, and the processes it starts, on one CPU."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def setup_seconds(ctx: Context, workload: str) -> float:
    """Median of fresh-process set-ups, each timed from before the
    interpreter starts until the child reports ready, in nominal-host
    seconds.  Probe and child share one CPU."""
    raw = []
    with one_cpu():
        start = time.perf_counter()
        for i in range(SETUP_SAMPLES):
            scratch = ctx.private / f"setup-{i}"
            scratch.mkdir()
            cmd = [sys.executable, str(HERE / "setup_probe.py"), workload,
                   str(ctx.seed), str(scratch)]
            ctx.hosts.sample()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    env=ctx.env(), text=True)
            try:
                line = proc.stdout.readline().strip()
                raw.append(time.perf_counter() - t0)
            finally:
                proc.stdout.close()
                code = proc.wait(timeout=60)
            if line != "ready" or code != 0:
                raise RuntimeError(f"set-up probe for {workload} failed "
                                   f"(exit {code}, said {line!r})")
        ctx.hosts.sample()
    return setup_median(ctx, raw, start)


def setup_median(ctx: Context, raw, start: float) -> float:
    """Median set-up time scaled by the median probe of the whole set-up
    phase: a set-up is mostly imports and process start, which follow
    the probe over seconds but not probe by probe."""
    ctx.note("setup_raw_s", [round(s, 4) for s in raw])
    return stats.median(raw) * ctx.hosts.factor(start, time.perf_counter())


def check_digest(ctx: Context, workload: str, digest: str) -> bool:
    """Record this run's simulated-statistics digest; False if another
    run of the same workload and seed, on the same program and benchmark
    sources, recorded a different one."""
    prints = ctx.notes.get("fingerprint", {})
    code = f"{prints.get('src_hash')}-{prints.get('bench_hash')}"
    path = ctx.out_dir / f"digest-{workload}-{ctx.seed}-{code}.txt"
    ctx.note("stats_digest", digest)
    if path.exists():
        return path.read_text().strip() == digest
    path.write_text(digest + "\n")
    return True


def direct_run(spec, backend: str | None = None) -> str:
    """Canonical bytes of a direct engine run of ``spec``."""
    import dataclasses

    from repro import run_workload
    from repro.engine import result_to_dict

    if backend is not None:
        spec = dataclasses.replace(spec, backend=backend)
    return stats.canonical(result_to_dict(run_workload(spec.to_run_config())))


def reference_check(ctx: Context, specs, payloads, sample: int) -> int:
    """Re-run a seeded sample of ``specs`` on the reference backend and
    require each served payload (a run summary dict) to be
    byte-identical; returns the mismatch count."""
    picks = ctx.rng("reference").sample(range(len(specs)),
                                        min(sample, len(specs)))
    bad = sum(1 for i in picks if not ctx.same_bytes(
        direct_run(specs[i], "reference"), stats.canonical(payloads[i])))
    ctx.note("reference_checked", len(picks))
    return bad


def sim_metrics(stats_dicts) -> dict:
    """Exact simulated statistics summed over a unit's runs."""
    keys = ("data_hazard", "load_miss", "fetch_miss", "branch",
            "structural_fpu", "dyser_send", "dyser_recv", "dyser_config",
            "lsu_busy")
    total = {"cycles": 0, "instructions": 0, "dcache_hits": 0,
             "dcache_misses": 0, "dyser_invocations": 0,
             "dyser_config_loads": 0, "dyser_config_hits": 0,
             "dyser_values_sent": 0, "dyser_switch_hops": 0}
    stalls = dict.fromkeys(keys, 0)
    for s in stats_dicts:
        for name in total:
            total[name] += s.get(name, 0)
        for cause, cycles in s.get("stall_cycles", {}).items():
            stalls[cause.lower()] += cycles
    accesses = total["dcache_hits"] + total["dcache_misses"]
    out = {
        "sim.cycles": total["cycles"],
        "sim.instructions": total["instructions"],
        "sim.ipc": (total["instructions"] / total["cycles"]
                    if total["cycles"] else 0.0),
        "sim.dcache_miss_ratio": (total["dcache_misses"] / accesses
                                  if accesses else 0.0),
        "sim.dyser.invocations": total["dyser_invocations"],
        "sim.dyser.config_hit_ratio": (
            total["dyser_config_hits"] / total["dyser_config_loads"]
            if total["dyser_config_loads"] else 0.0),
        "sim.dyser.values_sent": total["dyser_values_sent"],
        "sim.dyser.switch_hops": total["dyser_switch_hops"],
    }
    for cause in keys:
        out[f"sim.stall_cycles.{cause}"] = stalls[cause]
    return out


def speedup(pairs) -> float:
    """Geomean of scalar/DySER cycles over (scalar, dyser) stat pairs."""
    return stats.geomean(s["cycles"] / d["cycles"] for s, d in pairs)


# -- engine workloads (cold_suite, sim_sweep) ---------------------------------

def engine_pass(ctx: Context, specs, jobs: int, index: int,
                before=None) -> tuple:
    """One ``run_jobs`` pass over ``specs`` with a fresh, empty artifact
    cache; ``before(cache)`` runs just before the timed call.  Returns
    (report, t0, t1)."""
    import repro.engine.pool as pool
    from repro import ArtifactCache

    root = ctx.private / f"cache-{index}"
    if root.exists():
        shutil.rmtree(root)
    cache = ArtifactCache(root)
    if before is not None:
        before(cache)
    # Every pass starts with the same heap, so the collector's pauses
    # land alike in each.
    gc.collect()
    t0 = time.perf_counter()
    report = pool.run_jobs(specs, jobs=jobs, cache=cache)
    t1 = time.perf_counter()
    return report, t0, t1


def check_engine_pass(report) -> tuple[int, list]:
    """Failed jobs of one pass, and the stats dicts of those it ran.
    Every job must run (or be a duplicate of one that ran) and be
    correct."""
    from repro.engine.report import DUPLICATE, EXECUTED

    failed, stats_dicts = 0, []
    for record, result in zip(report.records, report.results, strict=True):
        if record.status not in (EXECUTED, DUPLICATE) or result is None \
                or not result.correct:
            failed += 1
        elif record.status == EXECUTED:
            stats_dicts.append(result.stats.to_dict())
    return failed, stats_dicts


def op_latencies(spans, hosts: stats.HostSpeed) -> list[tuple]:
    """(raw ms, nominal-host ms) of each job's own time: the spans the
    op timers keyed by job hash, each scaled by the host speed around
    it.  Probes hold up only this process, so only its spans lose the
    probe time."""
    own: dict[str, list] = {}
    for span in spans:
        key = span.attrs.get("key")
        if key is None:
            continue
        raw = span.duration
        if span.pid == os.getpid():
            raw -= hosts.probing(span.start, span.end)
        acc = own.setdefault(key, [0.0, 0.0])
        acc[0] += raw * 1e3
        acc[1] += raw * 1e3 * hosts.factor(span.start, span.end)
    return [tuple(v) for v in own.values()]


def engine_timed(ctx: Context, name: str, specs, *, jobs: int,
                 min_passes: int, reference_sample: int, speedup_of,
                 before=None):
    """The timed run of an engine workload: passes over ``specs`` until
    ``ctx.seconds`` have gone, with the op timers on and the host-speed
    probe running in the background.

    Returns (metrics, attempted, failed).
    """
    import layers
    from tracing import Tracer

    setup_s = setup_seconds(ctx, name)
    tracer = Tracer(spill_dir=ctx.private / "spans")
    tracer.spill_dir.mkdir()
    layers.op_timers(tracer)
    passes, digests = [], []
    failed = insns = 0
    first = None
    start = time.perf_counter()
    try:
        with ctx.hosts.every(PROBE_INTERVAL_S):
            while len(passes) < min_passes \
                    or time.perf_counter() - start < ctx.seconds:
                tracer.reset()
                report, t0, t1 = engine_pass(ctx, specs, jobs,
                                             len(passes), before)
                passes.append((t0, t1, tracer.collect()))
                bad, stats_dicts = check_engine_pass(report)
                failed += bad
                digests.append(stats.stats_digest(stats_dicts))
                insns += sum(s["instructions"] for s in stats_dicts)
                if first is None:
                    first = report
    finally:
        tracer.restore()
    hosts = ctx.hosts
    walls = [hosts.scale(t0, t1) for t0, t1, _ in passes]
    raw_walls = [t1 - t0 - hosts.probing(t0, t1) for t0, t1, _ in passes]
    ops = [op for _, _, spans in passes for op in op_latencies(spans, hosts)]
    if len(set(digests)) != 1 \
            or not check_digest(ctx, name, digests[0]):
        failed += 1
    failed += reference_check(
        ctx, specs, [r.to_dict() for r in first.results], reference_sample)
    metrics = end_to_end(
        ctx, setup_s=setup_s, walls=walls, raw_walls=raw_walls, ops=ops,
        failed=failed, slo_ms=None, insns=insns,
        speedup=speedup_of(specs, first.results))
    return metrics, len(ops) + failed, failed


def end_to_end(ctx: Context, *, setup_s: float, walls, raw_walls, ops,
               failed: int, slo_ms, insns: int, speedup: float) -> dict:
    """Every end-to-end metric of a timed run.

    ``walls`` are the units' nominal-host seconds (``raw_walls`` as
    measured), ``ops`` the (raw ms, nominal-host ms) of each successful
    operation.  Times are reported at nominal host speed; the SLO is
    judged on raw latency, as a user meets it, with failures as misses
    (no limit: the share of operations that succeeded).
    """
    raw = [r for r, _ in ops]
    scaled = [n for _, n in ops]
    total = sum(walls)
    lat = stats.summarize(scaled)
    ctx.note("units", len(walls))
    ctx.note("unit_walls_s", [round(w, 4) for w in walls])
    ctx.note("raw", {"wall_s": stats.median(raw_walls),
                     "latency_p50_ms": stats.median(raw),
                     "ops_per_s": len(ops) / sum(raw_walls)})
    ctx.note("latency_ms", {k: round(v, 4) for k, v in lat.items()})
    if not stats.supported(len(scaled), 90.0):
        ctx.note("latency_p90_note",
                 f"{len(scaled)} ops: fewer than ten beyond p90")
    ctx.note("host_probe", ctx.hosts.note())
    return {
        "setup_s": setup_s,
        "wall_s": stats.median(walls),
        "ops_per_s": len(ops) / total,
        "latency_p50_ms": lat["p50"],
        "latency_p90_ms": stats.percentile(scaled, 90.0),
        "slo_attainment": stats.slo_attainment(
            raw, failed, math.inf if slo_ms is None else slo_ms),
        "peak_rss_mb": stats.peak_rss_mb(),
        "sim_kips": insns / (total * 1e3),
        "dyser_speedup": speedup,
    }


# -- the traced run ----------------------------------------------------------

@dataclass
class Unit:
    """One unit of work of a traced run."""
    t0: float
    t1: float
    failed: int
    #: Digest of the unit's distinct simulated results.
    digest: str
    #: Stats dicts summed into the ``sim.*`` metrics.
    runs: list
    #: Per-layer metrics only this workload measures.
    extra: dict = field(default_factory=dict)


def traced_bracket(ctx: Context, name: str, run_unit):
    """An untraced, a traced and another untraced unit of the same work.

    ``run_unit(tracer)`` runs one :class:`Unit`; given a tracer it wraps
    the layers itself, once its own set-up is done.  Returns (per-layer
    metrics, failed, spans).
    """
    import layers
    from tracing import Tracer

    plain = run_unit(None)
    tracer = Tracer(spill_dir=ctx.private / "spans")
    tracer.spill_dir.mkdir(exist_ok=True)
    try:
        traced = run_unit(tracer)
    finally:
        tracer.restore()
    again = run_unit(None)
    units = (plain, traced, again)
    failed = sum(u.failed for u in units)
    if len({u.digest for u in units}) != 1 \
            or not check_digest(ctx, name, traced.digest):
        failed += 1
    spans = tracer.collect()
    metrics = layers.layer_metrics(spans, traced.t0, traced.t1)
    metrics.update(traced.extra)
    metrics["trace.overhead_ratio"] = (traced.t1 - traced.t0) / (
        (plain.t1 - plain.t0 + again.t1 - again.t0) / 2)
    metrics.update(sim_metrics(traced.runs))
    return metrics, failed, spans


def engine_traced(ctx: Context, name: str, specs, *, jobs: int,
                  before=None):
    """The traced run of an engine workload: three passes."""
    import layers

    index = iter(range(3))

    def run_unit(tracer) -> Unit:
        if tracer is not None:
            layers.engine_layers(tracer)
        report, t0, t1 = engine_pass(ctx, specs, jobs, next(index), before)
        bad, stats_dicts = check_engine_pass(report)
        return Unit(t0, t1, bad, stats.stats_digest(stats_dicts),
                    stats_dicts)

    metrics, failed, spans = traced_bracket(ctx, name, run_unit)
    return metrics, 3 * len(specs), failed, spans
