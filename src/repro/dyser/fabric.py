"""DySER fabric topology: the checkerboard of FUs and switches.

Geometry (matching the HPCA 2011 microarchitecture): a ``width`` x
``height`` grid of functional units embedded in a ``(width+1)`` x
``(height+1)`` grid of circuit-switched switches.  FU ``(x, y)`` reads its
operands from its corner switches ``(x, y)``, ``(x+1, y)`` and ``(x, y+1)``
and writes its result into the south-east corner switch ``(x+1, y+1)``,
giving configurations a natural north-west to south-east flow.

Input ports sit on the north and west edge switches; output ports on the
south and east edges.  The fabric is heterogeneous: every FU has the ALU
capability, alternate FUs add an integer multiplier, FP capability covers
half the grid, and one FU per quadrant provides divide/sqrt — a capability
*profile* chosen to mirror the prototype's mix and easily replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.dyser.ops import FuCapability

Coord = tuple[int, int]


@dataclass(frozen=True)
class FabricGeometry:
    """Size and port arrangement of a fabric instance.

    ``ports_per_edge_switch`` models the wide vector port interface: each
    edge switch multiplexes that many logical ports onto its injection
    link (the HPCA'11 design exposes more named ports than edge switches
    for exactly this reason).
    """

    width: int = 8
    height: int = 8
    ports_per_edge_switch: int = 2

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("fabric must be at least 1x1")
        if self.ports_per_edge_switch < 1:
            raise ConfigurationError("need at least one port per switch")

    @property
    def num_fus(self) -> int:
        return self.width * self.height

    @property
    def switch_cols(self) -> int:
        return self.width + 1

    @property
    def switch_rows(self) -> int:
        return self.height + 1

    @property
    def num_switches(self) -> int:
        return self.switch_cols * self.switch_rows

    def fus(self) -> list[Coord]:
        return [(x, y) for y in range(self.height) for x in range(self.width)]

    def switches(self) -> list[Coord]:
        return [
            (x, y)
            for y in range(self.switch_rows)
            for x in range(self.switch_cols)
        ]

    def fu_input_switches(self, fu: Coord) -> list[Coord]:
        x, y = fu
        return [(x, y), (x + 1, y), (x, y + 1)]

    def fu_output_switch(self, fu: Coord) -> Coord:
        x, y = fu
        return (x + 1, y + 1)

    def switch_neighbors(self, sw: Coord) -> list[Coord]:
        """Switches reachable in one hop (E, S, W, N order)."""
        x, y = sw
        candidates = [(x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)]
        return [
            (cx, cy)
            for cx, cy in candidates
            if 0 <= cx < self.switch_cols and 0 <= cy < self.switch_rows
        ]

    # -- ports -------------------------------------------------------------

    def input_port_switches(self) -> list[Coord]:
        """Edge switch of each input port, in port-number order.

        Ports run along the north edge west-to-east, then down the west
        edge (skipping the shared corner); the whole sequence repeats
        ``ports_per_edge_switch`` times.
        """
        north = [(x, 0) for x in range(self.switch_cols)]
        west = [(0, y) for y in range(1, self.switch_rows)]
        return (north + west) * self.ports_per_edge_switch

    def output_port_switches(self) -> list[Coord]:
        """South edge west-to-east, then east edge north-to-south."""
        south = [(x, self.height) for x in range(self.switch_cols)]
        east = [(self.width, y) for y in range(self.switch_rows - 1)]
        return (south + east) * self.ports_per_edge_switch

    @property
    def num_input_ports(self) -> int:
        return len(self.input_port_switches())

    @property
    def num_output_ports(self) -> int:
        return len(self.output_port_switches())

    def is_link(self, a: Coord, b: Coord) -> bool:
        """Whether ``a -> b`` is a directed link between two switches on
        this fabric (answered from the cached :func:`routing_tables`)."""
        return (a, b) in routing_tables(self).link_ids


@dataclass(frozen=True)
class RoutingTables:
    """Integer-id view of one geometry's switch graph for the router.

    Switch ``(x, y)`` has id ``x * switch_rows + y``, so id order equals
    coordinate-tuple order.  Each directed link has its own id; ``A -> B``
    and ``B -> A`` differ.
    """

    #: switch id -> coordinate.
    coords: tuple[Coord, ...]
    #: coordinate -> switch id.
    switch_ids: dict[Coord, int]
    #: switch id -> ((neighbour id, link id), ...) in E, S, W, N order.
    neighbours: tuple[tuple[tuple[int, int], ...], ...]
    #: (from, to) coordinates -> link id.
    link_ids: dict[tuple[Coord, Coord], int]
    #: FU -> ids of its three input switches (``fu_input_switches`` order).
    fu_inputs: dict[Coord, tuple[int, ...]]
    #: FU -> id of its output switch.
    fu_output: dict[Coord, int]
    #: input / output port number -> switch id.
    in_ports: tuple[int, ...]
    out_ports: tuple[int, ...]

    @property
    def num_links(self) -> int:
        return len(self.link_ids)


@lru_cache(maxsize=16)
def routing_tables(geometry: FabricGeometry) -> RoutingTables:
    """The :class:`RoutingTables` of ``geometry``, built on first use.

    Every caller shares the cached instance: treat it as read-only.
    Bounded, because specs choose the geometry.
    """
    rows = geometry.switch_rows
    coords = tuple((x, y) for x in range(geometry.switch_cols)
                   for y in range(rows))
    switch_ids = {sw: i for i, sw in enumerate(coords)}
    link_ids: dict[tuple[Coord, Coord], int] = {}
    neighbours = []
    for sw in coords:
        row = []
        for nxt in geometry.switch_neighbors(sw):
            row.append((switch_ids[nxt], len(link_ids)))
            link_ids[(sw, nxt)] = len(link_ids)
        neighbours.append(tuple(row))
    fus = geometry.fus()
    return RoutingTables(
        coords=coords,
        switch_ids=switch_ids,
        neighbours=tuple(neighbours),
        link_ids=link_ids,
        fu_inputs={fu: tuple(switch_ids[sw]
                             for sw in geometry.fu_input_switches(fu))
                   for fu in fus},
        fu_output={fu: switch_ids[geometry.fu_output_switch(fu)]
                   for fu in fus},
        in_ports=tuple(switch_ids[sw]
                       for sw in geometry.input_port_switches()),
        out_ports=tuple(switch_ids[sw]
                        for sw in geometry.output_port_switches()),
    )


def default_capabilities(geometry: FabricGeometry) -> dict[Coord, set[FuCapability]]:
    """The prototype-flavoured heterogeneous capability profile.

    Every FU does integer ALU work; half add an integer multiplier;
    three quarters handle FP multiply-add (the prototype targets FP
    throughput kernels); divide/sqrt units are scarce (one per 4x2
    neighbourhood) because they dominate FU area.
    """
    caps: dict[Coord, set[FuCapability]] = {}
    for x, y in geometry.fus():
        fu_caps = {FuCapability.ALU}
        if (x + y) % 2 == 0:
            fu_caps.add(FuCapability.MUL)
        if y % 2 == 1 or x % 2 == 0 or geometry.height == 1:
            fu_caps.add(FuCapability.FP)
        if x % 4 == 1 and y % 2 == 1:
            fu_caps.add(FuCapability.FPDIV)
        caps[(x, y)] = fu_caps
    # Guarantee at least one FU of every capability even on tiny fabrics.
    all_caps = set().union(*caps.values())
    for needed in FuCapability:
        if needed not in all_caps:
            caps[next(iter(sorted(caps)))].add(needed)
    return caps


def uniform_capabilities(geometry: FabricGeometry) -> dict[Coord, set[FuCapability]]:
    """Every FU can do everything (upper-bound / testing profile)."""
    return {fu: set(FuCapability) for fu in geometry.fus()}


@dataclass
class Fabric:
    """A fabric instance: geometry plus a per-FU capability map."""

    geometry: FabricGeometry = field(default_factory=FabricGeometry)
    capabilities: dict[Coord, set[FuCapability]] | None = None
    switch_delay: int = 1          # cycles per switch hop

    def __post_init__(self) -> None:
        if self.capabilities is None:
            self.capabilities = default_capabilities(self.geometry)
        missing = set(self.geometry.fus()) - set(self.capabilities)
        if missing:
            raise ConfigurationError(f"FUs without capabilities: {missing}")

    def fus_with(self, capability: FuCapability) -> list[Coord]:
        return [
            fu for fu in self.geometry.fus()
            if capability in self.capabilities[fu]
        ]

    def supports(self, fu: Coord, capability: FuCapability) -> bool:
        return capability in self.capabilities[fu]

    def describe(self) -> str:
        g = self.geometry
        lines = [
            f"fabric {g.width}x{g.height}: {g.num_fus} FUs, "
            f"{g.num_switches} switches, "
            f"{g.num_input_ports} in-ports, {g.num_output_ports} out-ports"
        ]
        for cap in FuCapability:
            lines.append(f"  {cap.value}: {len(self.fus_with(cap))} FUs")
        return "\n".join(lines)
