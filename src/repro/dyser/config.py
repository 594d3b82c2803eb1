"""Datapath configuration: a placed-and-routed DFG.

``dyser_init`` loads one of these into the fabric.  The spatial scheduler
(:mod:`repro.compiler.schedule`) produces the placement and routes; this
module owns the data structure, its validation, and the derived hardware
metrics the timing/energy models need (per-output path delay, configuration
size in words).

A configuration can also be *abstract* (placement without routes, or no
placement at all): functional evaluation only needs the DFG, and the timing
model falls back to distance/depth estimates.  Benches use this to isolate
scheduler quality from execution-model effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.dyser.dfg import ConstRef, Dfg, NodeRef, PortRef, Source
from repro.dyser.fabric import Coord, Fabric
from repro.dyser.ops import capability_of, latency_of

#: A signal source key: ("port", n) or ("node", id).
SourceKey = tuple[str, int]
#: A signal sink key: ("node", id, input_index) or ("out", port, 0).
SinkKey = tuple[str, int, int]


def source_key(src: Source) -> SourceKey | None:
    """Routing key for a source (constants are configured, not routed)."""
    if isinstance(src, PortRef):
        return ("port", src.port)
    if isinstance(src, NodeRef):
        return ("node", src.node)
    return None


@dataclass
class DyserConfig:
    """One loadable fabric configuration.

    Attributes:
        config_id: the id ``dinit`` names.
        dfg: the computation.
        fabric: the target fabric (geometry + capabilities).
        placement: DFG node id -> FU coordinate (None until scheduled).
        routes: (source key, sink key) -> switch path, first element is the
            source's entry switch, last is the sink's target switch.
    """

    config_id: int
    dfg: Dfg
    fabric: Fabric
    placement: dict[int, Coord] | None = None
    routes: dict[tuple[SourceKey, SinkKey], list[Coord]] | None = None
    _delay_cache: dict[int, int] | None = field(default=None, repr=False)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check DFG structure, placement legality and route continuity."""
        self.dfg.validate()
        geometry = self.fabric.geometry
        for port in self.dfg.input_ports:
            if port >= geometry.num_input_ports:
                raise ConfigurationError(
                    f"input port {port} exceeds fabric's "
                    f"{geometry.num_input_ports} ports",
                    code="RPR206", port=port, direction="in",
                    limit=geometry.num_input_ports,
                )
        for port in self.dfg.output_ports:
            if port >= geometry.num_output_ports:
                raise ConfigurationError(
                    f"output port {port} exceeds fabric's "
                    f"{geometry.num_output_ports} ports",
                    code="RPR206", port=port, direction="out",
                    limit=geometry.num_output_ports,
                )
        if self.placement is not None:
            self._validate_placement()
        if self.routes is not None:
            self._validate_routes()

    def _validate_placement(self) -> None:
        placed = set()
        for nid, node in self.dfg.nodes.items():
            fu = self.placement.get(nid)
            if fu is None:
                raise ConfigurationError(f"node {nid} not placed",
                                         code="RPR207", node=nid)
            if fu in placed:
                raise ConfigurationError(f"FU {fu} hosts two nodes",
                                         code="RPR208", fu=fu, node=nid)
            placed.add(fu)
            if not self.fabric.supports(fu, capability_of(node.op)):
                raise ConfigurationError(
                    f"FU {fu} lacks capability for {node.op.value}",
                    code="RPR209", fu=fu, node=nid, op=node.op.value,
                    capability=capability_of(node.op).value,
                )

    def _validate_routes(self) -> None:
        geometry = self.fabric.geometry
        in_switches = geometry.input_port_switches()
        out_switches = geometry.output_port_switches()
        # Circuit switching: each directed switch->switch link carries one
        # signal; the same signal may fan out over the same link for free.
        link_owner: dict[tuple[Coord, Coord], SourceKey] = {}
        for (skey, sink), path in self.routes.items():
            if len(path) < 1:
                raise ConfigurationError(f"empty route for {skey}->{sink}",
                                         code="RPR210", signal=skey,
                                         sink=sink)
            expected_start = self._entry_switch(skey, in_switches)
            if path[0] != expected_start:
                raise ConfigurationError(
                    f"route {skey}->{sink} starts at {path[0]}, "
                    f"expected {expected_start}",
                    code="RPR210", signal=skey, sink=sink,
                    start=path[0], expected=expected_start,
                )
            expected_end = self._target_switches(sink, out_switches)
            if path[-1] not in expected_end:
                raise ConfigurationError(
                    f"route {skey}->{sink} ends at {path[-1]}, "
                    f"expected one of {expected_end}",
                    code="RPR210", signal=skey, sink=sink,
                    end=path[-1], expected=expected_end,
                )
            for a, b in zip(path, path[1:], strict=False):
                if not geometry.is_link(a, b):
                    raise ConfigurationError(
                        f"route {skey}->{sink}: {a}->{b} not adjacent",
                        code="RPR210", signal=skey, sink=sink, hop=[a, b],
                    )
                owner = link_owner.get((a, b))
                if owner is not None and owner != skey:
                    raise ConfigurationError(
                        f"link {a}->{b} carries both {owner} and {skey}",
                        code="RPR211", link=[a, b], owners=[owner, skey],
                    )
                link_owner[(a, b)] = skey

    def _entry_switch(self, skey: SourceKey, in_switches: list[Coord]) -> Coord:
        kind, n = skey
        if kind == "port":
            return in_switches[n]
        return self.fabric.geometry.fu_output_switch(self.placement[n])

    def _target_switches(self, sink: SinkKey, out_switches: list[Coord]) -> list[Coord]:
        kind, n, _slot = sink
        if kind == "out":
            return [out_switches[n]]
        return self.fabric.geometry.fu_input_switches(self.placement[n])

    # -- derived metrics -----------------------------------------------------

    def _route_hops(self, skey: SourceKey | None, sink: SinkKey) -> int:
        """Switch hops from a source to a sink, best available estimate."""
        if skey is None:  # constant: baked into the FU config
            return 0
        if self.routes is not None and (skey, sink) in self.routes:
            return len(self.routes[(skey, sink)]) - 1
        if self.placement is not None:
            start = self._entry_switch(
                skey, self.fabric.geometry.input_port_switches())
            targets = self._target_switches(
                sink, self.fabric.geometry.output_port_switches())
            return min(
                abs(start[0] - t[0]) + abs(start[1] - t[1]) for t in targets
            )
        return 1  # abstract config: one hop per edge

    def path_delays(self) -> dict[int, int]:
        """Cycles from invocation fire to each output port's value.

        Delay of a node = max over inputs of (source delay + route hops *
        switch delay) + op latency; an output port's delay adds its final
        route.  Cached (configs are immutable once built).
        """
        if self._delay_cache is not None:
            return self._delay_cache
        sw = self.fabric.switch_delay
        node_delay: dict[int, int] = {}
        for node in self.dfg.topo_order():
            arrivals = []
            for slot, src in enumerate(node.inputs):
                skey = source_key(src)
                base = node_delay[src.node] if isinstance(src, NodeRef) else 0
                hops = self._route_hops(skey, ("node", node.id, slot))
                arrivals.append(base + hops * sw)
            node_delay[node.id] = max(arrivals, default=0) + latency_of(node.op)
        delays: dict[int, int] = {}
        for port, src in self.dfg.outputs.items():
            skey = source_key(src)
            base = node_delay[src.node] if isinstance(src, NodeRef) else 0
            hops = self._route_hops(skey, ("out", port, 0))
            delays[port] = max(1, base + hops * sw)
        self._delay_cache = delays
        return delays

    def critical_delay(self) -> int:
        return max(self.path_delays().values())

    def config_words(self) -> int:
        """Configuration size in 8-byte words (drives dinit load time).

        2 words per FU (op select + constants base), 1 word per constant,
        1 word per routed switch hop, 1 word per used port.
        """
        words = 2 * len(self.dfg.nodes)
        words += sum(
            1
            for node in self.dfg.nodes.values()
            for src in node.inputs
            if isinstance(src, ConstRef)
        )
        if self.routes is not None:
            words += sum(len(path) - 1 for path in self.routes.values())
        else:
            edge_count = sum(
                1
                for node in self.dfg.nodes.values()
                for src in node.inputs
                if not isinstance(src, ConstRef)
            ) + len(self.dfg.outputs)
            # Abstract estimate: average route of 2 hops per edge.
            words += 2 * edge_count
        words += len(self.dfg.input_ports) + len(self.dfg.output_ports)
        return words

    def used_fus(self) -> int:
        return len(self.dfg.nodes)

    def used_switch_links(self) -> int:
        if self.routes is None:
            return 0
        return len({
            (a, b)
            for path in self.routes.values()
            for a, b in zip(path, path[1:], strict=False)
        })
