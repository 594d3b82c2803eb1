"""The repository's benchmark: one command, end to end and per layer.

Usage (from the root of a checkout)::

    python3 stackbench/run.py --workload cold_suite --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced unit of the same work and prints the per-layer
metrics, writing the traced unit's spans as a Perfetto/Chrome trace
under ``.stackbench-out/``.  Notes (machine fingerprint, host-speed
probe, sample counts, tail percentiles, the simulated-statistics
digest) come first; the last line of standard output is the JSON
result.  A failed output check exits with code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import shutil
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import registry  # noqa: E402
import stats  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(registry.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=registry.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", action="store_true",
                        help="flip one byte in the first compared output "
                             "to show the output checks fail the run")
    return parser.parse_args(argv)


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def _emit_notes(ctx, extra: dict) -> None:
    for key, value in {**ctx.notes, **extra}.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")


def _verdict(metric, metrics: dict, moved: bool) -> str:
    """Did the traced unit bear a written prediction out?

    A layer "moves" an end-to-end metric when its self time (for a count
    or ratio, the self time of the layer it counts) is at least 2% of the
    traced unit's wall, and leaves it unchanged when under 1%; a metric
    with no such layer moves when non-zero and is unchanged at zero.
    """
    wall = metrics["trace.unit_wall_s"]
    layer = (metric.name,) if metric.unit == "s" else metric.layer
    if layer:
        share = sum(metrics[name] for name in layer) / wall
        active, idle = share >= 0.02, share < 0.01
    else:
        value = metrics[metric.name]
        active, idle = value != 0, value == 0
    if moved:
        return "confirmed" if active else "refuted"
    return "confirmed" if idle else "refuted"


def _untested(metric, workload: str, moves: list) -> bool:
    """Set-up lies outside the traced unit, and some metrics only one
    workload measures: such predictions cannot be checked here."""
    if registry.MEASURED_ON.get(metric.name, workload) != workload:
        return True
    return bool(moves) and all(t.endswith(".setup_s") for t in moves)


def _predictions(metrics: dict, workload: str) -> dict:
    """The registry's written predictions for this workload, each with
    the measured value and whether the traced unit bore it out."""
    out = {}
    for m in registry.PER_LAYER:
        moves = [t for t in m.moves if t.split(".")[0] == workload]
        same = [t for t in m.same if t.split(".")[0] == workload]
        if not (moves or same):
            continue
        out[m.name] = {
            "value": metrics[m.name],
            "predicted": "moves " + ", ".join(moves) if moves
            else "no change on " + ", ".join(same),
            "verdict": ("untested" if _untested(m, workload, moves)
                        else _verdict(m, metrics, bool(moves))),
        }
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    checkout = pathlib.Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("stackbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    private = checkout / ".stackbench" / f"run-{os.getpid()}"
    private.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(private / "repro-cache")
    os.environ["REPRO_KERNEL_DIR"] = str(private / "kernels")
    signal.signal(signal.SIGTERM, _interrupt)
    ctx = common.Context(checkout=checkout, private=private,
                         seed=args.seed, seconds=args.seconds,
                         plant_fault=args.plant_fault)
    try:
        ctx.note("fingerprint", stats.fingerprint(checkout))
        ctx.note("host_probe_ms", round(stats.probe_ms(), 4))
        module = importlib.import_module(args.workload)
        started = time.perf_counter()
        try:
            if args.trace:
                metrics, attempted, failed, spans = module.traced(ctx)
            else:
                metrics, attempted, failed = module.timed(ctx)
        except common.CheckFailed as exc:
            print(f"stackbench: {exc}", file=sys.stderr)
            return 1
        extra = {"elapsed_s": round(time.perf_counter() - started, 3),
                 "host_probe_after_ms": round(stats.probe_ms(), 4)}
        if args.trace:
            names = [m.name for m in registry.PER_LAYER]
            missing = [n for n in names if n not in metrics]
            if missing:
                raise RuntimeError(f"per-layer metrics missing: {missing}")
            self_sum = sum(metrics[n] for n in registry.SELF_TIME.values())
            extra["self_plus_unattributed_s"] = \
                self_sum + metrics["trace.unattributed_s"]
            extra["predictions"] = _predictions(metrics, args.workload)
            path = ctx.out_dir / f"trace-{args.workload}-{args.seed}.json"
            from tracing import export_perfetto

            export_perfetto(spans, path, {"workload": args.workload,
                                          "seed": args.seed})
            extra["perfetto_trace"] = str(path.relative_to(checkout))
            table = registry.PER_LAYER
        else:
            extra["dyser_speedup_context"] = (
                "the paper's abstract reports about 6x on the FPGA "
                "prototype; this model is not validated against that "
                "hardware, so no error figure is given")
            table = registry.END_TO_END
        _emit_notes(ctx, extra)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                        for m in table},
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(private, ignore_errors=True)
        with_runs = private.parent
        if with_runs.is_dir() and not any(with_runs.iterdir()):
            with_runs.rmdir()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("stackbench: interrupted", file=sys.stderr)
        sys.exit(130)
