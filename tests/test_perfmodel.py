"""Static performance-bound analyzer (repro.analysis.perf).

Three layers of coverage:

- **golden attributions** — the three bottleneck stories the model must
  tell correctly: dotprod's loop-carried recurrence (RPR401), scalar
  saxpy's interface-port pressure (RPR400), and a hand-built
  two-config program thrashing a capacity-1 configuration cache
  (RPR402);
- **contracts** — exactness parity against the reference simulator on
  real kernels, plus a hypothesis property that the perfbound fuzz
  oracle finds nothing on generated programs (soundness + exactness on
  adversarial inputs);
- **plumbing** — CLI exit codes for ``repro lint [--perf]``, the
  diagnostics ordering guarantee, the engine cost pre-flight ordering,
  and the service scheduler's calibrated wait estimates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.perf import (
    analyze_program,
    analyze_workload,
    clear_cost_memo,
    emit_region_diagnostics,
    estimate_job_cost,
    perf_report,
)
from repro.cpu import Memory
from repro.dyser import (
    ConstRef,
    Dfg,
    DyserConfig,
    Fabric,
    FabricGeometry,
    FuOp,
    PortRef,
)
from repro.dyser.config_cache import ConfigCacheParams
from repro.engine.jobs import JobSpec
from repro.isa import assemble


def codes(report: DiagnosticReport) -> list[str]:
    return [d.code for d in report.diagnostics]


# ---------------------------------------------------------------------
# golden attributions
# ---------------------------------------------------------------------


class TestGoldenAttributions:
    def test_dotprod_is_recurrence_bound(self):
        # The compiled dot product accumulates through the core: every
        # invocation waits on the previous result round-tripping the
        # fabric.  That is the E6 gap story, and the analyzer must name
        # it without simulating.
        report = perf_report("dotprod", mode="dyser")
        assert "RPR401" in codes(report)
        assert "RPR404" in codes(report)

    def test_unvectorized_saxpy_is_port_bound(self):
        from repro.compiler import CompilerOptions

        report = perf_report(
            "saxpy", mode="dyser",
            options=CompilerOptions(fabric=Fabric(FabricGeometry(8, 8)),
                                    vectorize=False))
        assert "RPR400" in codes(report)

    def test_vectorized_saxpy_is_not_port_bound(self):
        # Wide vector transfers collapse both the per-element sends and
        # the address-generation chains; the residual host loop is the
        # limit, which has no dedicated RPR40x code.
        report = perf_report("saxpy", mode="dyser")
        assert "RPR400" not in codes(report)
        assert "RPR401" not in codes(report)
        assert "RPR402" not in codes(report)
        assert "RPR404" in codes(report)

    def test_scalar_mode_has_no_region_diagnostics(self):
        report = perf_report("dotprod", mode="scalar")
        assert codes(report) == ["RPR404"]


# ---------------------------------------------------------------------
# config-thrash golden (hand-built E9b shape)
# ---------------------------------------------------------------------

#: Two configs used alternately inside one loop: with a capacity-1
#: configuration cache every ``dinit`` is a full reload, so reload
#: stalls dominate each invocation — the E9b thrash axis in miniature.
THRASH_SRC = """
    li   r1, 0
    li   r2, 8
loop:
    dinit 0
    dfsend p0, f8
    dfrecv f1, p0
    dinit 1
    dfsend p0, f8
    dfrecv f2, p0
    addi r1, r1, 1
    blt  r1, r2, loop
    halt
"""


def _unary_config(config_id: int, constant: float) -> DyserConfig:
    # Wide but shallow: a balanced constant tree folded into the one
    # live input.  One send and one recv per invocation keeps the
    # interface cheap, while the many mapped FUs make every reload
    # stream a large configuration — so thrash stalls dominate.
    dfg = Dfg(f"tree{config_id}")
    nodes = [dfg.add_node(FuOp.FADD,
                          [ConstRef(constant), ConstRef(constant + i)])
             for i in range(6)]
    while len(nodes) > 1:
        nodes = ([dfg.add_node(FuOp.FADD, [nodes[i], nodes[i + 1]])
                  for i in range(0, len(nodes) - 1, 2)]
                 + ([nodes[-1]] if len(nodes) % 2 else []))
    root = dfg.add_node(FuOp.FADD, [nodes[0], PortRef(0)])
    dfg.set_output(0, root)
    return DyserConfig(config_id, dfg, Fabric(FabricGeometry(4, 4)))


class TestConfigThrash:
    def analyze(self, capacity: int):
        program = assemble(THRASH_SRC)
        program.dyser_configs[0] = _unary_config(0, 1.0)
        program.dyser_configs[1] = _unary_config(1, 2.0)
        return analyze_program(
            program,
            memory=Memory(1 << 16),
            fp_args=(3.0,),
            fabric=Fabric(FabricGeometry(4, 4)),
            cache_params=ConfigCacheParams(capacity=1),
            subject="thrash")

    def test_alternating_configs_are_config_bound(self):
        prediction = self.analyze(capacity=1)
        assert prediction.exact
        assert prediction.invocations == 16
        assert prediction.regions
        for region in prediction.regions:
            assert region.bottleneck == "config"
            assert region.config_ii > 0

    def test_thrash_emits_rpr402(self):
        prediction = self.analyze(capacity=1)
        report = DiagnosticReport(subject="thrash:perf")
        emit_region_diagnostics(report, "thrash", prediction)
        assert "RPR402" in codes(report)

    def test_prediction_matches_simulator(self):
        from repro.cpu import Core
        from repro.dyser import DyserDevice
        from repro.dyser.config_cache import ConfigCache

        prediction = self.analyze(capacity=1)

        program = assemble(THRASH_SRC)
        program.dyser_configs[0] = _unary_config(0, 1.0)
        program.dyser_configs[1] = _unary_config(1, 2.0)
        dyser = DyserDevice(
            fabric=Fabric(FabricGeometry(4, 4)),
            cache_params=ConfigCacheParams(capacity=1))
        core = Core(program, Memory(1 << 16), dyser=dyser)
        core.set_args(fp_args=(3.0,))
        stats = core.run()
        assert prediction.predicted_cycles == stats.cycles
        assert prediction.lower_bound <= stats.cycles


# ---------------------------------------------------------------------
# contracts: exactness parity and the fuzz-oracle property
# ---------------------------------------------------------------------


class TestExactnessParity:
    @pytest.mark.parametrize("name,mode", [
        ("dotprod", "dyser"),
        ("dotprod", "scalar"),
        ("saxpy", "dyser"),
        ("fir", "dyser"),
        ("spmv", "scalar"),
    ])
    def test_prediction_matches_run(self, name, mode):
        from repro import RunConfig, run_workload

        prediction = analyze_workload(name, mode=mode, scale="small")
        result = run_workload(
            RunConfig(workload=name, mode=mode, scale="small"))
        assert prediction.exact
        assert prediction.predicted_cycles == result.stats.cycles
        assert prediction.lower_bound <= result.stats.cycles

    def test_unknown_workload_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            analyze_workload("nosuchkernel")


class TestPerfboundOracleProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=40),
           index=st.integers(min_value=0, max_value=40),
           irregularity=st.sampled_from([0.2, 0.5, 0.8]))
    def test_bound_sound_on_generated_programs(self, seed, index,
                                               irregularity):
        from repro.harness.fuzz.generator import CaseGenerator
        from repro.harness.fuzz.oracles import perfbound_oracle

        case = CaseGenerator(seed, irregularity).generate(index)
        if case.kind == "kernel":
            return  # oracle covers scalar + dyser cases
        finding = perfbound_oracle(case)
        assert finding is None, finding.detail


# ---------------------------------------------------------------------
# plumbing: CLI, diagnostics ordering, engine, service
# ---------------------------------------------------------------------


class TestLintCli:
    def test_lint_error_exits_nonzero(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "nosuchkernel"]) == 1

    def test_lint_clean_exits_zero(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "dotprod"]) == 0

    def test_lint_perf_prints_prediction(self, tmp_path, monkeypatch,
                                         capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "dotprod", "--perf"]) == 0
        out = capsys.readouterr().out
        assert "RPR401" in out
        assert "RPR404" in out

    def test_lint_perf_json(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "dotprod", "--perf", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        perf = [r for r in doc["reports"]
                if r["subject"].endswith(":perf")]
        assert perf
        codes_seen = {d["code"] for r in perf for d in r["diagnostics"]}
        assert "RPR404" in codes_seen


class TestDiagnosticOrdering:
    def test_to_dict_sorts_by_code_then_location(self):
        report = DiagnosticReport(subject="x")
        report.emit("RPR404", "m", location="b", source="perf")
        report.emit("RPR400", "m", location="z", source="perf")
        report.emit("RPR400", "m", location="a", source="perf")
        got = [(d["code"], d["location"])
               for d in report.to_dict()["diagnostics"]]
        assert got == [("RPR400", "a"), ("RPR400", "z"),
                       ("RPR404", "b")]


class TestEngineCostPreflight:
    def test_estimate_matches_prediction_and_memoizes(self):
        clear_cost_memo()
        spec = JobSpec(workload="dotprod", mode="dyser", scale="small")
        cost = estimate_job_cost(spec)
        prediction = analyze_workload("dotprod", mode="dyser",
                                      scale="small")
        assert cost == prediction.predicted_cycles
        assert estimate_job_cost(spec) == cost  # memo hit


class TestSchedulerEstimates:
    def make(self):
        from repro.service.scheduler import Scheduler

        return Scheduler(queue_limit=8, jobs=1)

    def test_no_calibration_means_no_estimate(self):
        sched = self.make()
        assert sched.cycles_per_s() is None
        assert sched.estimated_wait_s() is None
        assert sched.retry_after_s() == 0.5

    def test_calibrated_wait_estimate(self):
        import asyncio

        from repro.service.scheduler import Scheduler

        async def scenario():
            sched = Scheduler(queue_limit=8, jobs=1)
            sched._cycles_done = 1_000_000
            sched._wall_done = 1.0
            sched.submit(JobSpec(workload="a"), cost=500_000)
            sched.submit(JobSpec(workload="b"), cost=250_000)
            assert sched.cycles_per_s() == pytest.approx(1e6)
            assert sched.estimated_wait_s() == pytest.approx(0.75)
            assert sched.retry_after_s() == pytest.approx(0.75)
            return True

        assert asyncio.run(scenario())

    def test_uncosted_queued_job_disables_estimate(self):
        import asyncio

        from repro.service.scheduler import Scheduler

        async def scenario():
            sched = Scheduler(queue_limit=8, jobs=1)
            sched._cycles_done = 1_000_000
            sched._wall_done = 1.0
            sched.submit(JobSpec(workload="a"), cost=500_000)
            sched.submit(JobSpec(workload="b"), cost=None)
            assert sched.estimated_wait_s() is None
            return True

        assert asyncio.run(scenario())
