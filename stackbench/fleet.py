"""The service fleet: ``repro gateway --no-cache`` in front of two
``repro serve`` workers with shard-local caches.

:class:`ProcessFleet` runs it as subprocesses in one process group of
their own, reaped on every exit path; :func:`thread_fleet` runs the same
configuration in-process (the traced runs need one process to wrap).
Both bind ephemeral ports.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import common

#: Micro-batch window of the workers, as ``bench_service.py --workers``.
BATCH_WINDOW_MS = 1.0
N_WORKERS = 2
JOURNAL = "gateway-jobs.jsonl"

_BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")


class ProcessFleet:
    """Gateway + workers as subprocesses in their own process group."""

    def __init__(self, root: pathlib.Path, env: dict) -> None:
        self.root = root
        self.env = env
        self.procs: list[subprocess.Popen] = []
        self.pgid: int | None = None
        self.worker_ports: list[int] = []
        self.port = 0

    def _spawn(self, args: list[str]) -> int:
        log = (self.root / f"proc-{len(self.procs)}.log").open("w")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=subprocess.PIPE, stderr=log, text=True,
                env=self.env, process_group=self.pgid or 0)
        finally:
            log.close()
        self.procs.append(proc)
        if self.pgid is None:
            self.pgid = proc.pid
        line = proc.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            raise RuntimeError(f"repro {args[0]} failed to start: "
                               f"{line.strip()!r}")
        return int(match.group(2))

    def start(self) -> "ProcessFleet":
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            for i in range(N_WORKERS):
                self.worker_ports.append(self._spawn([
                    "serve", "--port", "0",
                    "--cache-dir", str(self.root / f"shard-{i}"),
                    "--batch-window-ms", str(BATCH_WINDOW_MS)]))
            workers = []
            for port in self.worker_ports:
                workers += ["--worker-addr", f"127.0.0.1:{port}"]
            self.port = self._spawn([
                "gateway", "--port", "0", "--no-cache", *workers,
                "--journal", str(self.root / JOURNAL)])
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """SIGTERM the group (the daemons drain), then reap; SIGKILL
        whatever is still alive after a grace period."""
        if self.pgid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.pgid, signal.SIGTERM)
        deadline = time.monotonic() + 15
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(self.pgid, signal.SIGKILL)
                proc.wait()
        for proc in self.procs:
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs = []
        self.pgid = None


def thread_fleet(root: pathlib.Path):
    """The same fleet in this process, as a started
    ``repro.GatewayThread``; its journal is ``root / JOURNAL``.

    Its two workers share one cache directory; since the gateway's ring
    sends each spec to one worker, every worker loads only what it
    stored, as with the shard-local caches of :class:`ProcessFleet`.
    """
    from repro import ArtifactCache, GatewayThread

    root.mkdir(parents=True, exist_ok=True)
    return GatewayThread(
        N_WORKERS,
        worker_kwargs={"cache": ArtifactCache(root / "shards"),
                       "batch_window_s": BATCH_WINDOW_MS / 1e3},
        cache=None, journal=root / JOURNAL).start()


def worker_ports(threads) -> list[int]:
    return [w.port for w in threads.workers]


def owner_port(threads, spec) -> int:
    """Port of the worker the gateway's ring routes ``spec`` to."""
    addr = threads.gateway.service.ring.node_for(spec.job_hash)
    return int(addr.rpartition(":")[2])


def fleet_setups(ctx, warm_fleet):
    """Median of fresh fleet set-ups, each timed from spawning the
    processes until the fleet is healthy and ``warm_fleet(fleet)`` is
    done, in nominal-host seconds; returns it with the last fleet, left
    running for the measurement.  Every other fleet is stopped, on
    every exit path."""
    raw = []
    running = None
    start = time.perf_counter()
    try:
        for i in range(common.SETUP_SAMPLES):
            if running is not None:
                running.stop()
                running = None
            ctx.hosts.sample()
            t0 = time.perf_counter()
            running = ProcessFleet(ctx.private / f"fleet-{i}",
                                   ctx.env()).start()
            warm_fleet(running)
            raw.append(time.perf_counter() - t0)
        ctx.hosts.sample()
    except BaseException:
        if running is not None:
            running.stop()
        raise
    return common.setup_median(ctx, raw, start), running
