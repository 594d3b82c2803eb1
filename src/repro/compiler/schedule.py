"""Spatial scheduler: place a DFG onto the fabric and route its signals.

Two phases, mirroring the prototype toolchain:

1. **Placement** — greedy constructive placement in topological order
   (each node goes to the legal FU minimizing wirelength to its already-
   placed producers and its ports), followed by a deterministic
   improvement loop of relocations/swaps.
2. **Routing** — PathFinder-style negotiated congestion: each signal
   grows one fan-out tree over the directed switch graph by Dijkstra,
   where a link costs 1 + its congestion history + a penalty per other
   signal already on it.  Rounds repeat, raising history on shared
   links and the sharing penalty, until every link has one owner (the
   circuit-switched exclusivity constraint: a switch output link carries
   exactly one signal, with free fan-out of the same signal).  If
   congestion does not resolve, :func:`schedule` re-places with a new
   seed and routes again.

The hot loops run on the integer switch and link ids of
:func:`repro.dyser.fabric.routing_tables`; routes leave as coordinate
lists.

Raises :class:`SchedulingError` when the DFG cannot be mapped, which the
region selector turns into a scalar fallback (exactly what the paper's
compiler does for oversized regions).
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

from repro.dyser.config import DyserConfig, SinkKey, SourceKey, source_key
from repro.dyser.dfg import Dfg, NodeRef, PortRef
from repro.dyser.fabric import Coord, Fabric, routing_tables
from repro.dyser.ops import capability_of
from repro.errors import SchedulingError

#: Improvement iterations for the placement refiner.
_REFINE_ITERS = 300
#: Negotiated-congestion routing iterations.
_ROUTE_ROUNDS = 48


#: Placement attempts (fresh seed each) before giving up on routing.
_PLACE_ATTEMPTS = 8

_INF = float("inf")


def schedule(config_id: int, dfg: Dfg, fabric: Fabric,
             refine: bool = True, seed: int = 0xD75E2) -> DyserConfig:
    """Place and route ``dfg``; returns a validated config.

    Routing failures trigger re-placement with a different seed — the
    cheap version of the rip-up-and-reroute loop a production spatial
    scheduler runs.
    """
    dfg.validate()
    if len(dfg.nodes) > fabric.geometry.num_fus:
        raise SchedulingError(
            f"{dfg.name}: {len(dfg.nodes)} ops exceed "
            f"{fabric.geometry.num_fus} FUs",
            code="RPR213", dfg=dfg.name, ops=len(dfg.nodes),
            fus=fabric.geometry.num_fus)
    if dfg.input_ports and max(dfg.input_ports) >= \
            fabric.geometry.num_input_ports:
        raise SchedulingError(
            f"{dfg.name}: not enough input ports",
            code="RPR206", dfg=dfg.name, direction="in",
            port=max(dfg.input_ports),
            limit=fabric.geometry.num_input_ports)
    if dfg.output_ports and max(dfg.output_ports) >= \
            fabric.geometry.num_output_ports:
        raise SchedulingError(
            f"{dfg.name}: not enough output ports",
            code="RPR206", dfg=dfg.name, direction="out",
            port=max(dfg.output_ports),
            limit=fabric.geometry.num_output_ports)
    last_error: SchedulingError | None = None
    for attempt in range(_PLACE_ATTEMPTS):
        rng = random.Random(seed + attempt * 7919)
        placement = _place(dfg, fabric, rng, refine, jitter=2 * attempt)
        try:
            # Alternate the congestion-history pressure across attempts:
            # different DFG shapes converge under different schedules.
            routes = _route(dfg, fabric, placement,
                            history_increment=1.5 + 0.75 * (attempt % 3))
        except SchedulingError as exc:
            last_error = exc
            continue
        config = DyserConfig(config_id, dfg, fabric, placement=placement,
                             routes=routes)
        config.validate()
        return config
    raise last_error if last_error is not None else SchedulingError(
        f"{dfg.name}: unroutable")


# -- placement -------------------------------------------------------------


def _place(dfg: Dfg, fabric: Fabric, rng: random.Random,
           refine: bool, jitter: int = 0) -> dict[int, Coord]:
    geometry = fabric.geometry
    in_switches = geometry.input_port_switches()
    out_switches = geometry.output_port_switches()
    fu_inputs = {fu: geometry.fu_input_switches(fu) for fu in geometry.fus()}
    fu_output = {fu: geometry.fu_output_switch(fu) for fu in geometry.fus()}

    # Per-node wiring, built once: one entry per input slot / output port,
    # and each consumer once however many of its slots read the node.
    producers: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    port_starts: dict[int, list[Coord]] = {nid: [] for nid in dfg.nodes}
    out_targets: dict[int, list[Coord]] = {nid: [] for nid in dfg.nodes}
    consumers: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    for node in dfg.nodes.values():
        for src in node.inputs:
            if isinstance(src, NodeRef):
                producers[node.id].append(src.node)
                if src.node != node.id and \
                        node.id not in consumers[src.node]:
                    consumers[src.node].append(node.id)
            elif isinstance(src, PortRef):
                port_starts[node.id].append(in_switches[src.port])
    for port, src in dfg.outputs.items():
        if isinstance(src, NodeRef):
            out_targets[src.node].append(out_switches[port])

    placement: dict[int, Coord] = {}

    def node_cost(nid: int, fu: Coord) -> int:
        targets = fu_inputs[fu]
        cost = 0
        for producer in producers[nid]:
            if producer in placement:
                cost += _reach(fu_output[placement[producer]], targets)
        for start in port_starts[nid]:
            cost += _reach(start, targets)
        source = fu_output[fu]
        for target in out_targets[nid]:
            cost += _dist(source, target)
        # Consumers placed already (refinement path).
        for consumer in consumers[nid]:
            if consumer in placement:
                cost += _reach(source, fu_inputs[placement[consumer]])
        return cost

    # Placement cost carries a scarcity penalty (3 per extra capability)
    # so cheap ops avoid parking on rare FP/divide-capable FUs.
    scarcity = {fu: 3 * (len(caps) - 1)
                for fu, caps in fabric.capabilities.items()}
    fus_with = {cap: fabric.fus_with(cap)
                for cap in {capability_of(n.op) for n in dfg.nodes.values()}}
    occupied: set[Coord] = set()
    for node in dfg.topo_order():
        candidates = [fu for fu in fus_with[capability_of(node.op)]
                      if fu not in occupied]
        if not candidates:
            raise SchedulingError(
                f"{dfg.name}: no free FU supports {node.op.value}",
                code="RPR216", dfg=dfg.name, node=node.id,
                op=node.op.value,
                capability=capability_of(node.op).value)
        best = min(
            candidates,
            key=lambda fu: (
                node_cost(node.id, fu) + scarcity[fu]
                # Retry attempts explore different placements: a little
                # cost noise is what un-sticks congestion hotspots.
                + (rng.randint(0, jitter) if jitter else 0),
                fu,
            ),
        )
        placement[node.id] = best
        occupied.add(best)

    if refine and len(dfg.nodes) > 1:
        _refine(dfg, fabric, placement, rng, node_cost)
    return placement


def _refine(dfg, fabric, placement, rng, node_cost) -> None:
    node_ids = list(placement)
    all_fus = fabric.geometry.fus()
    cap_of = {nid: capability_of(dfg.nodes[nid].op) for nid in node_ids}
    occupant = {fu: nid for nid, fu in placement.items()}
    for _ in range(_REFINE_ITERS):
        nid = rng.choice(node_ids)
        target = rng.choice(all_fus)
        if target == placement[nid] or \
                not fabric.supports(target, cap_of[nid]):
            continue
        old = placement[nid]
        before = node_cost(nid, old)
        other = occupant.get(target)
        if other is not None:
            if not fabric.supports(old, cap_of[other]):
                continue
            before += node_cost(other, target)
            # Tentatively swap.
            placement[nid], placement[other] = target, old
            after = node_cost(nid, target) + node_cost(other, old)
            if after > before:
                placement[nid], placement[other] = old, target
            else:
                occupant[target], occupant[old] = nid, other
        else:
            placement[nid] = target
            after = node_cost(nid, target)
            if after > before:
                placement[nid] = old
            else:
                del occupant[old]
                occupant[target] = nid


def _dist(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _reach(start: Coord, targets: list[Coord]) -> int:
    """Hops from ``start`` to the nearest of ``targets``."""
    return min(_dist(start, t) for t in targets)


# -- routing ------------------------------------------------------------------


def _route(dfg: Dfg, fabric: Fabric, placement: dict[int, Coord],
           history_increment: float = 1.5
           ) -> dict[tuple[SourceKey, SinkKey], list[Coord]]:
    tables = routing_tables(fabric.geometry)

    def entry(skey: SourceKey) -> int:
        if skey[0] == "port":
            return tables.in_ports[skey[1]]
        return tables.fu_output[placement[skey[1]]]

    # Collect (source key, sink key, target switches, entry switch) jobs.
    jobs: list[tuple[SourceKey, SinkKey, frozenset[int], int]] = []
    for node in dfg.nodes.values():
        targets = frozenset(tables.fu_inputs[placement[node.id]])
        for slot, src in enumerate(node.inputs):
            skey = source_key(src)
            if skey is None:
                continue
            jobs.append((skey, ("node", node.id, slot), targets, entry(skey)))
    for port, src in dfg.outputs.items():
        skey = source_key(src)
        if skey is None:
            raise SchedulingError(
                f"{dfg.name}: output port {port} driven by a constant",
                code="RPR214", dfg=dfg.name, port=port)
        jobs.append((skey, ("out", port, 0),
                     frozenset((tables.out_ports[port],)), entry(skey)))

    # Route each signal's whole fan-out tree contiguously (compact trees)
    # and route edge-port signals before internal node signals: ports
    # enter at corner/edge switches with few outgoing links.
    jobs.sort(key=lambda j: (j[0][0] != "port", j[0], j[1]))

    # PathFinder-style negotiated congestion routing: sharing a link is
    # allowed during search but priced; shared links accumulate history
    # cost between iterations until every link has one owner.
    history = [0.0] * tables.num_links
    present_penalty = 2.0
    for _iteration in range(_ROUTE_ROUNDS):
        # Per round: how many signals use each link, and which links each
        # signal's tree owns.
        users = [0] * tables.num_links
        owned: dict[SourceKey, set[int]] = {}
        # The unshared part of each link's cost, ``1.0 + history``.
        base = [1.0 + h for h in history]
        signal_parent: dict[SourceKey, dict[int, int | None]] = {}
        paths: dict[tuple[SourceKey, SinkKey], list[int]] = {}
        for skey, sink, targets, start in jobs:
            tree = signal_parent.setdefault(skey, {start: None})
            target = _grow_tree_negotiated(
                tables.neighbours, tree, targets, users,
                owned.setdefault(skey, set()), base, present_penalty)
            if target is None:
                raise SchedulingError(
                    f"{dfg.name}: signal {skey} -> {sink} has no path",
                    code="RPR210", dfg=dfg.name, signal=skey, sink=sink)
            paths[(skey, sink)] = _backtrack(tree, target)
        shared = [link for link, count in enumerate(users) if count > 1]
        if not shared:
            coords = tables.coords
            return {key: [coords[sw] for sw in path]
                    for key, path in paths.items()}
        for link in shared:
            history[link] += history_increment
        # Uncapped: late iterations effectively forbid sharing, which is
        # what finally shakes the last contested link loose.
        present_penalty *= 1.6
    raise SchedulingError(
        f"{dfg.name}: congestion did not resolve in {_ROUTE_ROUNDS} "
        f"routing iterations ({len(shared)} links still shared)",
        code="RPR217", dfg=dfg.name, rounds=_ROUTE_ROUNDS,
        shared=len(shared))


def _grow_tree_negotiated(neighbours, tree: dict[int, int | None],
                          targets: frozenset[int], users: list[int],
                          own: set[int], base: list[float],
                          present_penalty: float) -> int | None:
    """Dijkstra from the signal's current tree to any target.

    Link cost = 1 + history + present-sharing penalty, where sharing
    counts the *other* signals on the link; links already in this
    signal's tree (``own``) fan out for free.  Commits the found branch
    into the tree, ``own`` and ``users``, and returns the target switch.
    """
    already = sorted(targets.intersection(tree))
    if already:
        return already[0]
    count = len(neighbours)
    dist = [_INF] * count
    for sw in tree:
        dist[sw] = 0.0
    parent = [0] * count
    via = [0] * count
    # A sorted list already satisfies the heap invariant.
    heap = [(0.0, sw) for sw in sorted(tree)]
    visited = bytearray(count)
    pop, push = heappop, heappush
    while heap:
        d, current = pop(heap)
        if visited[current]:
            continue
        visited[current] = 1
        if current in targets:
            node = current
            while node not in tree:
                tree[node] = parent[node]
                link = via[node]
                own.add(link)
                users[link] += 1
                node = parent[node]
            return current
        for nxt, link in neighbours[current]:
            if visited[nxt]:
                continue
            sharing = users[link]
            if sharing:
                sharing -= link in own
                nd = d + (base[link] + sharing * present_penalty)
            else:
                # ``+ 0 * present_penalty`` adds exactly 0.0.
                nd = d + base[link]
            if nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = current
                via[nxt] = link
                push(heap, (nd, nxt))
    return None


def _backtrack(tree: dict[int, int | None], target: int) -> list[int]:
    path = [target]
    node = tree[target]
    while node is not None:
        path.append(node)
        node = tree[node]
    path.reverse()
    return path
