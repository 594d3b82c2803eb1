"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest stackbench/tests -q``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import layers
import registry
import stats
import tracing

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- percentiles and the tail rule ---------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))            # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 50) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([1, 2], 50) == 1     # rank ceil(1.0) = 1


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_tail_rule_needs_ten_samples_beyond():
    assert not stats.supported(99, 90.0)
    assert stats.supported(100, 90.0)
    assert not stats.supported(999, 99.0)
    assert stats.supported(1000, 99.0)
    assert stats.tail_percentiles(50) == []
    assert stats.tail_percentiles(100) == [90.0]
    assert stats.tail_percentiles(1000) == [90.0, 99.0]
    assert stats.tail_percentiles(10_000) == [90.0, 99.0, 99.9]


def test_summarize_reports_count_and_supported_tails():
    summary = stats.summarize(range(1000))
    assert summary["n"] == 1000
    assert set(summary) == {"n", "p50", "p90", "p99"}
    assert set(stats.summarize(range(20))) == {"n", "p50"}


# -- SLO accounting --------------------------------------------------------

def test_slo_counts_failures_as_misses():
    assert stats.slo_attainment([1, 2, 3, 20], 0, 10) == 0.75
    assert stats.slo_attainment([1, 2, 3, 4], 4, 10) == 0.5
    assert stats.slo_attainment([], 3, 10) == 0.0
    with pytest.raises(ValueError):
        stats.slo_attainment([], 0, 10)


def test_slo_limit_is_inclusive():
    assert stats.slo_attainment([10.0], 0, 10.0) == 1.0


# -- digests -----------------------------------------------------------------

def test_digest_is_order_independent_and_content_sensitive():
    a = {"cycles": 10, "stall_cycles": {"BRANCH": 2}, "instructions": 5}
    b = {"cycles": 11, "stall_cycles": {}, "instructions": 5}
    assert stats.stats_digest([a, b]) == stats.stats_digest([b, a])
    assert stats.stats_digest([a, b]) == stats.stats_digest(
        [dict(reversed(list(a.items()))), b])
    changed = dict(a, cycles=12)
    assert stats.stats_digest([a, b]) != stats.stats_digest([changed, b])


def test_canonical_form_ignores_key_order():
    assert stats.canonical({"a": 1, "b": [1, 2]}) == \
        stats.canonical({"b": [1, 2], "a": 1})


def test_geomean():
    assert stats.geomean([2, 8]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geomean([1, 0])


# -- host-speed normalization -----------------------------------------------

def test_slower_host_reads_as_nominal():
    hosts = stats.HostSpeed()
    slow = 2 * stats.NOMINAL_PROBE_MS
    hosts.samples = [(0.0, 0.1, slow), (10.5, 10.6, slow)]
    assert hosts.factor(1.0, 10.0) == pytest.approx(0.5)
    assert hosts.scale(1.0, 10.0) == pytest.approx(4.5)


def test_factor_uses_inside_and_nearest_outside_probes():
    n = stats.NOMINAL_PROBE_MS
    hosts = stats.HostSpeed()
    hosts.samples = [(-5.0, -4.9, 9 * n), (0.0, 0.1, 2 * n),
                     (5.0, 5.1, 2 * n), (20.0, 20.1, n), (30.0, 30.1, 9 * n)]
    # Median of 2n (before), 2n (inside) and n (after); the 9n probes
    # further out do not count.
    assert hosts.factor(1.0, 10.0) == pytest.approx(0.5)
    assert hosts.probing(1.0, 10.0) == pytest.approx(0.1)
    assert hosts.scale(1.0, 10.0) == pytest.approx(8.9 * 0.5)
    with pytest.raises(RuntimeError):
        stats.HostSpeed().factor(0.0, 1.0)


def test_background_probe_samples_while_running():
    import time

    hosts = stats.HostSpeed()
    with hosts.every(0.01):
        time.sleep(0.2)
    assert len(hosts.samples) >= 2
    assert all(a < b and ms > 0 for a, b, ms in hosts.samples)


# -- BENCHMARK.json against the registry -----------------------------------

def test_benchmark_json_matches_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == registry.benchmark_json()


def test_registry_names_are_unique_and_well_formed():
    import re

    names = [m.name for m in registry.END_TO_END + registry.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(registry.WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for metric in registry.END_TO_END + registry.PER_LAYER:
        assert metric.better in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit)
    bounds = {m.name: m.bound for m in registry.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_slo_limits_only_where_defined():
    import gateway_hits
    import gateway_jobs

    assert gateway_hits.SLO_MS == 10.0
    assert gateway_jobs.SLO_MS == 250.0
    assert stats.slo_attainment([1e6, 2e6], 1, float("inf")) == 2 / 3


def test_predictions_name_real_workloads_and_metrics():
    e2e = {m.name for m in registry.END_TO_END}
    for metric in registry.PER_LAYER:
        for target in metric.moves:
            workload, _, name = target.partition(".")
            assert workload in registry.WORKLOADS, target
            assert name in e2e, target


# -- spans and attribution ---------------------------------------------------

def _span(sid, parent, name, start, end):
    return tracing.Span(sid, parent, name, start, end)


def test_self_time_subtracts_children():
    spans = [_span(1, None, "engine.run_jobs", 0.0, 10.0),
             _span(2, 1, "compiler.schedule", 1.0, 4.0),
             _span(3, 2, "compiler.frontend", 2.0, 3.0)]
    totals, unattributed = tracing.self_times(spans, 0.0, 10.0)
    assert totals == pytest.approx({"engine.run_jobs": 7.0,
                                    "compiler.schedule": 2.0,
                                    "compiler.frontend": 1.0})
    assert unattributed == 0.0


def test_parallel_children_split_and_sum_to_wall():
    spans = [_span(1, None, "engine.run_jobs", 0.0, 10.0),
             _span(2, 1, "engine.worker", 2.0, 8.0),
             _span(3, 1, "engine.worker", 4.0, 6.0)]
    totals, unattributed = tracing.self_times(spans, 0.0, 12.0)
    assert totals["engine.run_jobs"] == pytest.approx(4.0)
    assert totals["engine.worker"] == pytest.approx(6.0)
    assert unattributed == pytest.approx(2.0)
    assert sum(totals.values()) + unattributed == pytest.approx(12.0)


def test_child_outliving_parent_still_covers_ancestors():
    spans = [_span(1, None, "client.op", 0.0, 10.0),
             _span(2, 1, "service.gateway", 1.0, 2.0),
             _span(3, 2, "service.jobstore", 3.0, 5.0)]
    totals, _ = tracing.self_times(spans, 0.0, 10.0)
    assert totals["service.jobstore"] == pytest.approx(2.0)
    assert totals["client.op"] == pytest.approx(7.0)


def test_tracer_wraps_and_restores(tmp_path):
    import types

    module = types.SimpleNamespace(work=lambda x: x * 2)
    original = module.work
    tracer = tracing.Tracer()
    tracer.wrap(module, "work", "harness.execute")
    with tracer.span("engine.run_jobs"):
        assert module.work(3) == 6
    tracer.restore()
    assert module.work is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert inner.parent == outer.sid


def test_every_span_name_maps_to_a_self_time_metric():
    for name in ("lang.check", "compiler.driver", "compiler.schedule",
                 "engine.cache.load", "service.forward.connect",
                 "service.worker.submit", "client.op.request",
                 "client.op.send", "cpu.run"):
        assert layers.metric_for(name).endswith("_s")
    with pytest.raises(KeyError):
        layers.metric_for("nowhere.at_all")


def test_sim_metrics_cover_every_stall_cause():
    from repro.cpu.statistics import StallCause

    import common

    out = common.sim_metrics([{"cycles": 4, "instructions": 2,
                               "stall_cycles": {"BRANCH": 1}}])
    for cause in StallCause:
        assert f"sim.stall_cycles.{cause.value}" in out
    per_layer = {m.name for m in registry.PER_LAYER}
    assert set(out) <= per_layer
