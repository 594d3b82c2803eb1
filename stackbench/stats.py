"""Summary statistics, SLO accounting, digests and machine notes.

Every timing the benchmark reports goes through :func:`summarize`:
nearest-rank percentiles, the sample count, and only those tail
percentiles that have at least ten samples beyond them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import sys
import threading
import time

#: Tail percentiles considered for notes, highest last.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(1, rank) - 1]


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples leave at least ten beyond percentile p."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentiles(n: int) -> list[float]:
    """The tail percentiles a sample of ``n`` supports."""
    return [p for p in TAIL_PERCENTILES if supported(n, p)]


def median(values) -> float:
    return percentile(values, 50.0)


def summarize(values) -> dict:
    """n, p50 and every supported tail percentile of a sample."""
    values = list(values)
    out = {"n": len(values), "p50": median(values)}
    for p in tail_percentiles(len(values)):
        out[f"p{p:g}"] = percentile(values, p)
    return out


def slo_attainment(latencies, failed: int, limit: float) -> float:
    """Share of attempted operations answered within ``limit``.

    ``latencies`` holds the successful operations only; every failed
    or refused operation counts as a miss.
    """
    attempted = len(latencies) + failed
    if attempted == 0:
        raise ValueError("no operations attempted")
    met = sum(1 for value in latencies if value <= limit)
    return met / attempted


def geomean(values) -> float:
    """Geometric mean.  Unlike ``repro.harness.report.geomean``, which
    drops non-positive values, this raises: a run with zero cycles is a
    broken result the benchmark must not average away."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def canonical(payload) -> str:
    """The byte form two results are compared in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stats_digest(stats_dicts) -> str:
    """One digest over simulated statistics, independent of order."""
    lines = sorted(canonical(s) for s in stats_dicts)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def tree_hash(root: pathlib.Path) -> str:
    """Content hash of every ``.py`` file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit(checkout: pathlib.Path) -> str:
    head = checkout / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "none"
    if ref.startswith("ref: "):
        try:
            return (checkout / ".git" / ref[5:]).read_text().strip()[:12]
        except OSError:
            return "unknown"
    return ref[:12]


def fingerprint(checkout: pathlib.Path) -> dict:
    """Machine and code identity printed beside every run."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(checkout),
        "src_hash": tree_hash(checkout / "src" / "repro")[:16],
        "bench_hash": tree_hash(pathlib.Path(__file__).parent)[:16],
    }


#: Iterations of the host-speed probe loop (about 1.5 ms on a 2-vCPU
#: Xeon VM).
PROBE_LOOP = 20_000

#: Probe time, in ms, of the nominal host every reported time is scaled
#: to.
NOMINAL_PROBE_MS = 1.5

def probe_ms(rounds: int = 3, n: int = PROBE_LOOP) -> float:
    """Fastest of ``rounds`` runs of a fixed pure-Python loop, in ms."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i & 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _last_cpu(tid: int) -> int | None:
    """The CPU thread ``tid`` of this process last ran on (Linux)."""
    try:
        stat = pathlib.Path(f"/proc/self/task/{tid}/stat").read_text()
    except OSError:
        return None
    # Field 39 (processor); fields after the ")" closing the name
    # start at field 3.
    return int(stat.rpartition(")")[2].split()[36])


class HostSpeed:
    """Host-speed probes taken between pieces of the measured work.

    On a shared host the CPU's speed drifts by a quarter within seconds,
    and the probe loop slows down with the program (both are
    interpreted Python on the same core).  Every time the benchmark
    reports is therefore scaled to a nominal host: raw time x
    :data:`NOMINAL_PROBE_MS` / the probe measured next to the work.  A
    slower program still reads slower; a slow stretch of the host does
    not.  The raw figures are printed as notes.
    """

    def __init__(self) -> None:
        #: (start, end, probe ms) of every probe, in perf_counter time.
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        ms = probe_ms()
        self.samples.append((t0, time.perf_counter(), ms))
        return ms

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured host speed for ``[t0, t1]``: from the
        median of the probes inside it and the nearest one on either
        side."""
        near = [ms for a, b, ms in self.samples if a >= t0 and b <= t1]
        before = [s for s in self.samples if s[1] < t0]
        after = [s for s in self.samples if s[0] > t1]
        if before:
            near.append(max(before, key=lambda s: s[1])[2])
        if after:
            near.append(min(after, key=lambda s: s[0])[2])
        if not near:
            raise RuntimeError("no host-speed probe taken")
        return NOMINAL_PROBE_MS / statistics.median(near)

    @contextlib.contextmanager
    def every(self, interval_s: float):
        """Probe from a background thread every ``interval_s`` seconds
        while the block runs, so that long operations are probed inside
        too.  Each probe runs on the CPU the calling thread last ran
        on: the two vCPUs of a shared host drift apart, and an unpinned
        thread would otherwise often probe the idle one.  The probe
        holds the interpreter lock for a few ms, which :meth:`scale`
        leaves out of the work it times."""
        stop = threading.Event()
        worker = threading.get_native_id()

        def loop() -> None:
            allowed = os.sched_getaffinity(0)
            while not stop.wait(interval_s):
                cpu = _last_cpu(worker)
                if cpu in allowed:
                    os.sched_setaffinity(0, {cpu})
                self.sample()
                os.sched_setaffinity(0, allowed)

        thread = threading.Thread(target=loop, name="host-probe",
                                  daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def probing(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` spent in probes."""
        return sum(max(0.0, min(b, t1) - max(a, t0))
                   for a, b, _ in self.samples)

    def scale(self, t0: float, t1: float) -> float:
        """Nominal-host seconds of ``[t0, t1]``, probes left out."""
        return (t1 - t0 - self.probing(t0, t1)) * self.factor(t0, t1)

    def note(self) -> dict:
        values = [ms for _, _, ms in self.samples]
        return {"n": len(values), "min_ms": round(min(values), 4),
                "p50_ms": round(median(values), 4),
                "max_ms": round(max(values), 4)} if values else {"n": 0}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return (own + child) / scale
