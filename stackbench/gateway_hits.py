"""gateway_hits: a closed loop of warm ``execute`` requests from one
keep-alive client through ``repro gateway --no-cache`` to two
``repro serve`` workers with shard-local caches.

The gateway has no cache, so every request crosses the gateway ->
worker hop and is a worker cache hit.  The mix is three cheap kernels
in both modes at ``tiny`` scale, each with two input seeds; the seed
draws those input seeds and the order requests are sent in.  The
kernels are fixed because reply size and simulated instruction count
differ between kernels, which would move every per-request figure with
the draw.  The load generator and the fleet are pinned to one CPU, and
the host-speed probe runs on it between blocks.  An
operation is one request, timed by the client; a unit is a block of
:data:`BLOCK` requests.
"""

from __future__ import annotations

import time

import common
import fleet
import layers
import stats

NAME = "gateway_hits"

#: Latency limit behind ``slo_attainment``, in ms.
SLO_MS = 10.0

KERNELS = ("saxpy", "spmv", "spmv_csr_dsl")
SEEDS_PER_KERNEL = 2
#: Requests per block: six passes over the shuffled order (each spec
#: three times), so every block serves the same mix whatever the seed.
BLOCK = 6 * 3 * len(KERNELS) * SEEDS_PER_KERNEL * 2
TRACED_REQUESTS = 400
FORWARD_ROUNDS = 10
FORWARD_BLOCK = 40
REFERENCE_SAMPLE = 2


def draw_mix(ctx) -> list:
    from repro import JobSpec

    rng = ctx.rng(NAME)
    seeds = [rng.randrange(1, 10_000) for _ in range(SEEDS_PER_KERNEL)]
    return [JobSpec(workload=k, mode=m, scale="tiny", seed=seed)
            for k in KERNELS for seed in seeds for m in ("scalar", "dyser")]


def expected_results(specs) -> dict:
    """Canonical bytes of a direct engine run of every spec."""
    return {s.job_hash: common.direct_run(s) for s in specs}


def warm(port: int, specs) -> None:
    from repro import Client

    with Client(port=port, timeout=120) as client:
        for spec in specs:
            client.execute(_payload(spec))


def _payload(spec) -> dict:
    from repro.service import spec_to_payload

    return spec_to_payload(spec)


def closed_loop(port: int, order, n: int, tracer=None):
    """Send ``n`` requests in ``order`` over one keep-alive client;
    returns [(spec, latency_ms, reply)] and the loop's start and end."""
    from repro import Client

    out = []
    with Client(port=port, timeout=60, retries=3) as client:
        t0 = time.perf_counter()
        for i in range(n):
            spec = order[i % len(order)]
            payload = _payload(spec)
            start = time.perf_counter()
            if tracer is None:
                reply = client.execute(payload, raise_on_error=False)
            else:
                with tracer.span("client.op"):
                    reply = client.execute(payload, raise_on_error=False)
            out.append((spec, (time.perf_counter() - start) * 1e3, reply))
        t1 = time.perf_counter()
    return out, t0, t1


def check_replies(ctx, replies, expected) -> int:
    """Every reply served, correct, and byte-identical to a direct
    engine run of its spec."""
    failed = 0
    for spec, _, reply in replies:
        result = reply.get("result")
        if not reply.get("ok") or not isinstance(result, dict) \
                or result.get("correct") is not True \
                or not ctx.same_bytes(expected[spec.job_hash],
                                      stats.canonical(result)):
            failed += 1
    return failed


def served_results(replies) -> dict:
    """The result served for each distinct spec, by job hash."""
    return {spec.job_hash: reply["result"] for spec, _, reply in replies
            if isinstance(reply.get("result"), dict)}


def mix_speedup(specs, served) -> float:
    pairs = [(served[specs[i].job_hash]["stats"],
              served[specs[i + 1].job_hash]["stats"])
             for i in range(0, len(specs), 2)]
    return common.speedup(pairs)


def _order(ctx, specs) -> list:
    """Every spec three times, in seeded order."""
    order = list(specs) * 3
    ctx.rng(f"{NAME}:order").shuffle(order)
    return order


def timed(ctx):
    with common.one_cpu():
        specs = draw_mix(ctx)
        ctx.note("mix", [s.describe() for s in specs])
        expected = expected_results(specs)
        setup_s, running = fleet.fleet_setups(
            ctx, lambda running: warm(running.port, specs))
        order = _order(ctx, specs)
        walls, raw_walls, ops, served = [], [], [], {}
        failed = insns = 0
        try:
            start = time.perf_counter()
            while len(walls) < 3 \
                    or time.perf_counter() - start < ctx.seconds:
                ctx.hosts.sample()
                out, t0, t1 = closed_loop(running.port, order, BLOCK)
                raw_walls.append(t1 - t0)
                # Checked between blocks, outside the timed loop, so the
                # replies need not be kept.
                failed += check_replies(ctx, out, expected)
                served.update(served_results(out))
                ctx.hosts.sample()
                factor = ctx.hosts.factor(t0, t1)
                walls.append(ctx.hosts.scale(t0, t1))
                for _, ms, reply in out:
                    if reply.get("ok"):
                        ops.append((ms, ms * factor))
                        insns += reply["result"]["stats"]["instructions"]
        finally:
            running.stop()
    failed += common.reference_check(
        ctx, specs, [served.get(s.job_hash) for s in specs],
        REFERENCE_SAMPLE)
    if not common.check_digest(ctx, NAME, served_digest(served)):
        failed += 1
    metrics = common.end_to_end(
        ctx, setup_s=setup_s, walls=walls, raw_walls=raw_walls, ops=ops,
        failed=failed, slo_ms=SLO_MS, insns=insns,
        speedup=mix_speedup(specs, served))
    return metrics, len(ops) + failed, failed


def served_digest(served: dict) -> str:
    return stats.stats_digest(r["stats"] for r in served.values())


def forward_ms(threads, order) -> float:
    """p50 via the gateway minus p50 straight to the owning worker,
    both warm hits, in alternating blocks."""
    from repro import Client

    via, direct = [], []
    owners = {s.job_hash: fleet.owner_port(threads, s) for s in order}
    clients = {port: Client(port=port, timeout=60)
               for port in {threads.port, *owners.values()}}
    try:
        for _ in range(FORWARD_ROUNDS):
            for spec in order[:FORWARD_BLOCK]:
                t0 = time.perf_counter()
                clients[threads.port].execute(_payload(spec))
                via.append(time.perf_counter() - t0)
            for spec in order[:FORWARD_BLOCK]:
                t0 = time.perf_counter()
                clients[owners[spec.job_hash]].execute(_payload(spec))
                direct.append(time.perf_counter() - t0)
    finally:
        for client in clients.values():
            client.close()
    return (stats.median(via) - stats.median(direct)) * 1e3


def traced(ctx):
    with common.one_cpu():
        specs = draw_mix(ctx)
        order = _order(ctx, specs)
        expected = expected_results(specs)
        threads = fleet.thread_fleet(ctx.private / "threads")
        try:
            warm(threads.port, specs)
            extra = {"service.forward_ms": forward_ms(threads, order)}

            def run_unit(tracer) -> common.Unit:
                if tracer is not None:
                    layers.service_layers(tracer)
                out, t0, t1 = closed_loop(threads.port, order,
                                          TRACED_REQUESTS, tracer)
                return common.Unit(
                    t0, t1, check_replies(ctx, out, expected),
                    served_digest(served_results(out)),
                    [reply["result"]["stats"] for _, _, reply in out
                     if reply.get("ok")], extra)

            metrics, failed, spans = common.traced_bracket(
                ctx, NAME, run_unit)
        finally:
            threads.shutdown(timeout=30)
    return metrics, 3 * TRACED_REQUESTS, failed, spans
