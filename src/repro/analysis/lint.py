"""DFG and DyserConfig linter: structural, placement and routing checks.

A non-throwing superset of ``Dfg.validate``/``DyserConfig.validate``:
instead of stopping at the first inconsistency it reports *every*
finding as an ``RPR2xx`` diagnostic, including checks the throwing
validators skip entirely — dead nodes, unrouted sinks, constant-driven
outputs and fabric-capacity violations.  ``repro lint`` and the
mutation tests run on this; the execution path keeps the cheap throwing
validators.
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticReport
from repro.dyser.config import (
    DyserConfig,
    SinkKey,
    SourceKey,
    source_key,
)
from repro.dyser.dfg import ConstRef, Dfg, NodeRef
from repro.dyser.fabric import Coord
from repro.dyser.ops import FU_OP_INFO, capability_of

_SOURCE = "linter"


def lint_dfg(dfg: Dfg, report: DiagnosticReport | None = None
             ) -> DiagnosticReport:
    """Structural DFG checks (RPR201..RPR205, RPR214)."""
    report = report if report is not None else DiagnosticReport(
        subject=f"dfg {dfg.name}")
    for nid in sorted(dfg.nodes):
        node = dfg.nodes[nid]
        arity = FU_OP_INFO[node.op].arity
        if len(node.inputs) != arity:
            report.emit(
                "RPR201",
                f"node {nid} ({node.op.value}) has {len(node.inputs)} "
                f"inputs, expected {arity}",
                location=f"node {nid}", source=_SOURCE, node=nid,
                op=node.op.value, arity=arity, got=len(node.inputs))
        for slot, src in enumerate(node.inputs):
            if isinstance(src, NodeRef) and src.node not in dfg.nodes:
                report.emit(
                    "RPR202",
                    f"node {nid} input {slot} reads undefined node "
                    f"{src.node}",
                    location=f"node {nid}", source=_SOURCE, node=nid,
                    slot=slot, target=src.node)
    if not dfg.outputs:
        report.emit("RPR203", f"DFG {dfg.name} has no outputs",
                    source=_SOURCE, dfg=dfg.name)
    for port in sorted(dfg.outputs):
        src = dfg.outputs[port]
        if isinstance(src, NodeRef) and src.node not in dfg.nodes:
            report.emit(
                "RPR202",
                f"output port {port} reads undefined node {src.node}",
                location=f"port {port}", source=_SOURCE, port=port,
                target=src.node)
        elif isinstance(src, ConstRef):
            report.emit(
                "RPR214",
                f"output port {port} is driven by constant "
                f"{src.value!r}; constants are configured, not routed",
                location=f"port {port}", source=_SOURCE, port=port)
    _check_cycles(dfg, report)
    _check_dead_nodes(dfg, report)
    return report


def _check_cycles(dfg: Dfg, report: DiagnosticReport) -> None:
    """Kahn's algorithm; anything left over sits on a cycle."""
    indeg = {nid: 0 for nid in dfg.nodes}
    consumers: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    for node in dfg.nodes.values():
        for src in node.inputs:
            if isinstance(src, NodeRef) and src.node in dfg.nodes:
                indeg[node.id] += 1
                consumers[src.node].append(node.id)
    ready = [nid for nid, d in sorted(indeg.items()) if d == 0]
    seen = 0
    while ready:
        nid = ready.pop()
        seen += 1
        for consumer in consumers[nid]:
            indeg[consumer] -= 1
            if indeg[consumer] == 0:
                ready.append(consumer)
    if seen != len(dfg.nodes):
        cyclic = sorted(nid for nid, d in indeg.items() if d > 0)
        report.emit(
            "RPR204",
            f"combinational loop through nodes {cyclic}; DySER "
            f"configurations are acyclic (carried values round-trip "
            f"through the core)",
            source=_SOURCE, nodes=cyclic, dfg=dfg.name)


def _check_dead_nodes(dfg: Dfg, report: DiagnosticReport) -> None:
    live: set[int] = set()
    stack = [src.node for src in dfg.outputs.values()
             if isinstance(src, NodeRef) and src.node in dfg.nodes]
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        for src in dfg.nodes[nid].inputs:
            if isinstance(src, NodeRef) and src.node in dfg.nodes:
                stack.append(src.node)
    for nid in sorted(set(dfg.nodes) - live):
        node = dfg.nodes[nid]
        report.emit(
            "RPR205",
            f"node {nid} ({node.op.value}) drives no output port; it "
            f"burns an FU and switch bandwidth for nothing",
            location=f"node {nid}", source=_SOURCE, node=nid,
            op=node.op.value)


def lint_config(config: DyserConfig,
                report: DiagnosticReport | None = None
                ) -> DiagnosticReport:
    """Full configuration lint: DFG + ports + placement + routes."""
    report = report if report is not None else DiagnosticReport(
        subject=f"config #{config.config_id} ({config.dfg.name})")
    lint_dfg(config.dfg, report)
    geometry = config.fabric.geometry
    dfg = config.dfg

    if len(dfg.nodes) > geometry.num_fus:
        report.emit(
            "RPR213",
            f"{len(dfg.nodes)} ops exceed the fabric's "
            f"{geometry.num_fus} FUs",
            source=_SOURCE, ops=len(dfg.nodes), fus=geometry.num_fus)
    for port in dfg.input_ports:
        if port >= geometry.num_input_ports:
            report.emit(
                "RPR206",
                f"input port {port} exceeds the fabric's "
                f"{geometry.num_input_ports} input ports",
                location=f"port {port}", source=_SOURCE, port=port,
                direction="in", limit=geometry.num_input_ports)
    for port in dfg.output_ports:
        if port >= geometry.num_output_ports:
            report.emit(
                "RPR206",
                f"output port {port} exceeds the fabric's "
                f"{geometry.num_output_ports} output ports",
                location=f"port {port}", source=_SOURCE, port=port,
                direction="out", limit=geometry.num_output_ports)

    if config.placement is not None:
        _lint_placement(config, report)
    if config.routes is not None and config.placement is not None:
        _lint_routes(config, report)
    return report


def _lint_placement(config: DyserConfig, report: DiagnosticReport) -> None:
    placed: dict[Coord, int] = {}
    for nid in sorted(config.dfg.nodes):
        node = config.dfg.nodes[nid]
        fu = config.placement.get(nid)
        if fu is None:
            report.emit("RPR207", f"node {nid} is not placed on any FU",
                        location=f"node {nid}", source=_SOURCE, node=nid)
            continue
        if fu in placed:
            report.emit(
                "RPR208",
                f"FU {fu} hosts both node {placed[fu]} and node {nid}",
                location=f"fu {fu}", source=_SOURCE, fu=fu,
                nodes=[placed[fu], nid])
        else:
            placed[fu] = nid
        capability = capability_of(node.op)
        if fu not in config.fabric.capabilities \
                or not config.fabric.supports(fu, capability):
            report.emit(
                "RPR209",
                f"FU {fu} lacks the {capability.value} capability "
                f"needed by node {nid} ({node.op.value})",
                location=f"fu {fu}", source=_SOURCE, fu=fu, node=nid,
                op=node.op.value, capability=capability.value)


def _expected_edges(config: DyserConfig
                    ) -> list[tuple[SourceKey, SinkKey]]:
    """Every (source, sink) pair a concrete config must route."""
    edges: list[tuple[SourceKey, SinkKey]] = []
    for nid in sorted(config.dfg.nodes):
        node = config.dfg.nodes[nid]
        for slot, src in enumerate(node.inputs):
            skey = source_key(src)
            if skey is not None:
                edges.append((skey, ("node", nid, slot)))
    for port in sorted(config.dfg.outputs):
        skey = source_key(config.dfg.outputs[port])
        if skey is not None:
            edges.append((skey, ("out", port, 0)))
    return edges


def _lint_routes(config: DyserConfig, report: DiagnosticReport) -> None:
    geometry = config.fabric.geometry
    in_switches = geometry.input_port_switches()
    out_switches = geometry.output_port_switches()

    def entry_switch(skey: SourceKey) -> Coord | None:
        kind, n = skey
        if kind == "port":
            return in_switches[n] if n < len(in_switches) else None
        fu = config.placement.get(n)
        return None if fu is None else geometry.fu_output_switch(fu)

    def target_switches(sink: SinkKey) -> list[Coord] | None:
        kind, n, _slot = sink
        if kind == "out":
            return ([out_switches[n]] if n < len(out_switches) else None)
        fu = config.placement.get(n)
        return None if fu is None else geometry.fu_input_switches(fu)

    # Unrouted sinks: every DFG edge must have a committed path.
    for skey, sink in _expected_edges(config):
        if (skey, sink) not in config.routes:
            report.emit(
                "RPR212",
                f"no route for signal {skey} -> sink {sink}",
                location=f"sink {sink}", source=_SOURCE,
                signal=skey, sink=sink)

    # Route well-formedness + circuit-switched link exclusivity.
    link_owner: dict[tuple[Coord, Coord], SourceKey] = {}
    for (skey, sink) in sorted(config.routes):
        path = config.routes[(skey, sink)]
        where = f"{skey}->{sink}"
        if len(path) < 1:
            report.emit("RPR210", f"empty route for {where}",
                        location=where, source=_SOURCE,
                        signal=skey, sink=sink)
            continue
        expected_start = entry_switch(skey)
        if expected_start is not None and path[0] != expected_start:
            report.emit(
                "RPR210",
                f"route {where} starts at {path[0]}, expected "
                f"{expected_start}",
                location=where, source=_SOURCE, signal=skey, sink=sink,
                start=path[0], expected=expected_start)
        expected_end = target_switches(sink)
        if expected_end is not None and path[-1] not in expected_end:
            report.emit(
                "RPR210",
                f"route {where} ends at {path[-1]}, expected one of "
                f"{expected_end}",
                location=where, source=_SOURCE, signal=skey, sink=sink,
                end=path[-1], expected=expected_end)
        for a, b in zip(path, path[1:], strict=False):
            if not geometry.is_link(a, b):
                report.emit(
                    "RPR210",
                    f"route {where}: hop {a}->{b} is not an adjacent "
                    f"switch link",
                    location=where, source=_SOURCE, signal=skey,
                    sink=sink, hop=[a, b])
                continue
            owner = link_owner.get((a, b))
            if owner is not None and owner != skey:
                report.emit(
                    "RPR211",
                    f"link {a}->{b} carries both signal {owner} and "
                    f"signal {skey}; a circuit-switched link has one "
                    f"owner",
                    location=f"link {a}->{b}", source=_SOURCE,
                    link=[a, b], owners=[owner, skey])
            link_owner[(a, b)] = skey
