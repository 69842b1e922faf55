"""Negotiated-congestion global routing on a layered gcell grid.

The routing graph is an X x Y x L lattice.  Each layer carries planar edges
only along its preferred direction; adjacent layers are joined by via edges
at every gcell (capacity 1 per gcell when the fabric's via stacks are
single-signal, as in S3DC).

Routing is PathFinder style: nets are routed by A* with edge costs
``1 + history + present_factor * overuse``; after each iteration the nets
crossing overused edges are ripped up and rerouted while the present-factor
grows and overused edges accumulate history cost.  Multi-terminal nets are
decomposed over a rectilinear MST of their terminal gcells, and each new
connection may start from any node of the net's partial tree, so shared
segments cost nothing.
"""

from __future__ import annotations

import bisect
import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .fabric import DEFAULT_VIA_CAPACITY, FabricSpec
from .netlist import Netlist
from .placement import Placement

logger = logging.getLogger(__name__)


class RoutingError(RuntimeError):
    pass


PRESENT_FACTOR = 1.0  # first-pass weight of an edge's overuse
PRESENT_GROWTH = 1.5  # present-factor growth per reroute iteration
HISTORY_INCREMENT = 1.0  # history added per unit of overuse per iteration
BBOX_MARGIN = 2  # gcells searched beyond a net's terminal bounding box
STAGNATION_ITERS = 3  # stop after this many expensive iterations without progress
STAGNATION_GAIN = 0.02  # >=2% overflow reduction counts as progress
STAGNATION_MIN_NETS = 128  # smaller reroute batches are cheap; let them run


@dataclass
class RouteParams:
    max_iters: int = 40

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


class RoutingGraph:
    """Gcell lattice with per-edge capacity/demand/history arrays.

    Node ids are ``(layer * Y + y) * X + x`` with 0-based layers, which makes
    ascending-id tie-breaking equal to lexicographic (layer, y, x) order.
    Edge ids pack all planar edges (layer by layer) followed by all via
    edges.  ``blocks[layer]`` is the ``(rows, cols)`` shape of a layer's
    planar edges, the edge from (gx, gy) toward +x on an 'h' layer or +y on
    a 'v' layer being ``pbase[layer] + gy * cols + gx``; ``via_block`` is
    the (layer, y, x) shape of the via edges after them.
    """

    __slots__ = (
        "x", "y", "layers", "gcell_size", "site_dim_nm", "layer_dirs",
        "fabric", "blocks", "pbase", "via_base", "num_edges", "capacity", "demand",
        "history",
    )

    def __init__(self, x: int, y: int, layers: int, gcell_size: int,
                 site_dim_nm: float, layer_dirs: tuple[str, ...],
                 layer_capacities: tuple[int, ...], via_capacity: int,
                 fabric: FabricSpec | None = None):
        if x < 1 or y < 1 or layers < 1:
            raise ValueError("grid dimensions must be positive")
        if via_capacity < 1:
            raise ValueError("via capacity must be >= 1")
        if not len(layer_dirs) == len(layer_capacities) == layers:
            raise ValueError(f"layer_dirs and layer_capacities need {layers} entries each, "
                             f"got {len(layer_dirs)} and {len(layer_capacities)}")
        self.x = x
        self.y = y
        self.layers = layers
        self.gcell_size = gcell_size
        self.site_dim_nm = site_dim_nm
        self.layer_dirs = layer_dirs
        self.fabric = fabric

        self.blocks = [(y, x - 1) if layer_dirs[li] == "h" else (y - 1, x)
                       for li in range(layers)]
        self.pbase = []
        capacity = []
        for li, (rows, cols) in enumerate(self.blocks):
            self.pbase.append(len(capacity))
            capacity.extend([layer_capacities[li]] * (rows * cols))
        self.via_base = len(capacity)
        capacity.extend([via_capacity] * math.prod(self.via_block))
        self.capacity = capacity
        self.num_edges = len(capacity)
        self.demand = [0] * self.num_edges
        self.history = [0.0] * self.num_edges

    @property
    def via_block(self) -> tuple[int, int, int]:
        return (self.layers - 1, self.y, self.x)

    # -- id helpers --------------------------------------------------------

    def node_id(self, gx: int, gy: int, layer0: int) -> int:
        return (layer0 * self.y + gy) * self.x + gx

    def planar_edge(self, layer0: int, gx: int, gy: int) -> int:
        """Edge from (gx,gy) toward +x on 'h' layers, +y on 'v' layers."""
        return self.pbase[layer0] + gy * self.blocks[layer0][1] + gx

    def via_edge(self, layer0: int, gx: int, gy: int) -> int:
        """Edge between layer0 and layer0+1 at (gx, gy)."""
        return self.via_base + (layer0 * self.y + gy) * self.x + gx

    def planar_layer(self, eid: int) -> int:
        """The 0-based layer of planar edge ``eid``."""
        return bisect.bisect_right(self.pbase, eid) - 1

    def edge_info(self, eid: int) -> tuple[str, int, int, int]:
        """Decode an edge id to (kind, layer0, gx, gy); kind is 'h'/'v'/'via'."""
        if not 0 <= eid < self.num_edges:
            raise ValueError(f"bad edge id {eid}")
        if eid >= self.via_base:
            li, rel = divmod(eid - self.via_base, self.x * self.y)
            gy, gx = divmod(rel, self.x)
            return "via", li, gx, gy
        li = self.planar_layer(eid)
        gy, gx = divmod(eid - self.pbase[li], self.blocks[li][1])
        return self.layer_dirs[li], li, gx, gy

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        kind, li, gx, gy = self.edge_info(eid)
        a = self.node_id(gx, gy, li)
        if kind == "h":
            return a, self.node_id(gx + 1, gy, li)
        if kind == "v":
            return a, self.node_id(gx, gy + 1, li)
        return a, self.node_id(gx, gy, li + 1)

    @property
    def gcell_um(self) -> float:
        return self.gcell_size * self.site_dim_nm / 1000.0


def build_grid(fabric: FabricSpec, die, gcell_size: int) -> RoutingGraph:
    """Routing lattice over a die: ``ceil(sites / gcell_size)`` gcells per
    axis, one graph layer per fabric routing layer.  Via capacity is 1 per
    gcell for exclusive via stacks and 4 otherwise."""
    if gcell_size < 1:
        raise ValueError("gcell_size must be >= 1")
    return RoutingGraph(
        x=-(-die.width // gcell_size), y=-(-die.height // gcell_size),
        layers=fabric.num_layers, gcell_size=gcell_size, site_dim_nm=fabric.site_dim_nm,
        layer_dirs=tuple(layer.direction for layer in fabric.layers),
        layer_capacities=tuple(layer.capacity for layer in fabric.layers),
        via_capacity=1 if fabric.via_stack_exclusive else DEFAULT_VIA_CAPACITY, fabric=fabric,
    )


def terminal_gcells(net, netlist: Netlist, placement: Placement,
                    graph: RoutingGraph) -> list[list[int]]:
    """Entry nodes for each terminal of a net.

    A terminal may enter the grid at any of its pin's access points, so S3DC
    pins offer one node per access layer while planar/monolithic pins sit on
    layer 1 only.  Duplicate (gcell, layer) entries collapse.  An access
    layer above the grid's top layer is an error.  Every cell must lie
    inside the die, so that each access falls in a gcell of the grid.
    """
    g = graph.gcell_size
    out: list[list[int]] = []
    for cid, pin_name in net.terminals:
        if cid not in placement.assignments:
            raise RoutingError(f"net {net.id!r}: cell {cid!r} is not placed")
        ox, oy = placement.assignments[cid]
        pin = netlist.master_of(cid).pin(pin_name)
        entries: dict[int, None] = {}
        for layer, dx, dy in pin.accesses:
            if layer > graph.layers:
                raise RoutingError(
                    f"net {net.id!r}: pin {cid}.{pin_name} accesses layer {layer}, "
                    f"above the grid's {graph.layers} layers"
                )
            entries.setdefault(graph.node_id((ox + dx) // g, (oy + dy) // g, layer - 1), None)
        out.append(list(entries))
    return out


@dataclass(frozen=True)
class NetRoute:
    net_id: str
    edges: tuple[int, ...]


def _edge_ratio(demand, capacity) -> np.ndarray:
    """Demand over capacity, elementwise: 0 where both are 0, inf where
    only the capacity is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(demand > 0, np.true_divide(demand, capacity), 0.0)


@dataclass
class CongestionMap:
    """Per-layer demand/capacity matrices plus via matrices.

    Each layer's matrices have its ``RoutingGraph.blocks`` shape and the via
    matrices the graph's ``via_block`` shape, so that edge (gx, gy) of a
    layer is element ``[gy, gx]``.
    """

    layer_dirs: tuple[str, ...]
    layer_demand: list[np.ndarray]
    layer_capacity: list[np.ndarray]
    via_demand: np.ndarray
    via_capacity: np.ndarray

    def layer_max_ratio(self, layer0: int) -> float:
        dem = self.layer_demand[layer0]
        if dem.size == 0:
            return 0.0
        return float(_edge_ratio(dem, self.layer_capacity[layer0]).max())

    def layer_aggregate_ratio(self, layer0: int) -> float:
        return float(_edge_ratio(self.layer_demand[layer0].sum(),
                                self.layer_capacity[layer0].sum()))

    @property
    def overflow_edge_count(self) -> int:
        count = 0
        for dem, cap in zip(self.layer_demand, self.layer_capacity):
            count += int((dem > cap).sum())
        count += int((self.via_demand > self.via_capacity).sum())
        return count

    @property
    def congested(self) -> bool:
        """Any edge, planar or via, carries more demand than its capacity."""
        return self.overflow_edge_count > 0


def build_congestion_map(graph: RoutingGraph) -> CongestionMap:
    dem = np.asarray(graph.demand, dtype=np.int64)
    cap = np.asarray(graph.capacity, dtype=np.int64)
    layer_demand = []
    layer_capacity = []
    for base, (rows, cols) in zip(graph.pbase, graph.blocks):
        layer_demand.append(dem[base:base + rows * cols].reshape(rows, cols))
        layer_capacity.append(cap[base:base + rows * cols].reshape(rows, cols))
    via_demand = dem[graph.via_base:].reshape(graph.via_block)
    via_capacity = cap[graph.via_base:].reshape(graph.via_block)
    return CongestionMap(
        layer_dirs=graph.layer_dirs,
        layer_demand=layer_demand,
        layer_capacity=layer_capacity,
        via_demand=via_demand,
        via_capacity=via_capacity,
    )


@dataclass(frozen=True)
class LayerRatio:
    layer: int  # 1-based
    demand: int
    capacity: int
    aggregate_ratio: float
    max_edge_ratio: float


def demand_resource_ratios(cmap: CongestionMap) -> list[LayerRatio]:
    """Per-layer demand/resource summary, ordered by layer (planar edges).

    Via edges are not summarised here; ``CongestionMap.congested`` counts
    them too.
    """
    rows = []
    for li in range(len(cmap.layer_dirs)):
        rows.append(
            LayerRatio(
                layer=li + 1,
                demand=int(cmap.layer_demand[li].sum()),
                capacity=int(cmap.layer_capacity[li].sum()),
                aggregate_ratio=cmap.layer_aggregate_ratio(li),
                max_edge_ratio=cmap.layer_max_ratio(li),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# The router core


def _prim_order(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """MST construction order over terminal gcells (rectilinear metric).

    Returns (new_terminal, tree_terminal) attachment pairs in the order
    Prim's algorithm adds them, starting from terminal 0.
    """
    t = len(points)
    in_tree = [False] * t
    in_tree[0] = True
    dist = [0] * t
    near = [0] * t
    for i in range(1, t):
        dist[i] = abs(points[i][0] - points[0][0]) + abs(points[i][1] - points[0][1])
    order = []
    for _ in range(t - 1):
        best, best_d = -1, None
        for i in range(t):
            if not in_tree[i] and (best_d is None or (dist[i], i) < (best_d, best)):
                best, best_d = i, dist[i]
        order.append((best, near[best]))
        in_tree[best] = True
        bx, by = points[best]
        for i in range(t):
            if not in_tree[i]:
                d = abs(points[i][0] - bx) + abs(points[i][1] - by)
                if d < dist[i]:
                    dist[i] = d
                    near[i] = best
    return order


class _Scratch:
    """Per-search node state reused across A* calls via generation stamps,
    plus the grid's per-node tables, built once per routing call.

    ``nx``/``ny``/``nz`` give each node's coordinates, ``pplus`` the id of
    its planar edge toward +x ('h' layers) or +y ('v' layers), -1 where its
    layer's block has no such edge, and ``horiz`` flags the 'h' layers.  A
    node's -direction planar edge is ``pplus`` of its -direction neighbour;
    its via edges are ``via_base + u - X*Y`` (down) and ``via_base + u``
    (up).
    """

    __slots__ = ("g", "stamp", "closed_stamp", "parent_node", "parent_edge", "gen",
                 "nx", "ny", "nz", "pplus", "horiz")

    def __init__(self, graph: RoutingGraph):
        x_dim, y_dim, layers = graph.x, graph.y, graph.layers
        nnodes = x_dim * y_dim * layers
        self.g = [0.0] * nnodes
        self.stamp = [0] * nnodes
        self.closed_stamp = [0] * nnodes
        self.parent_node = [-1] * nnodes
        self.parent_edge = [-1] * nnodes
        self.gen = 0

        self.nx = list(range(x_dim)) * (y_dim * layers)
        self.ny = [gy for _ in range(layers) for gy in range(y_dim) for _ in range(x_dim)]
        self.nz = [z for z in range(layers) for _ in range(x_dim * y_dim)]
        self.horiz = [d == "h" for d in graph.layer_dirs]
        self.pplus = [
            graph.planar_edge(z, gx, gy) if gx < cols and gy < rows else -1
            for z, (rows, cols) in enumerate(graph.blocks)
            for gy in range(y_dim) for gx in range(x_dim)
        ]


def _astar(graph: RoutingGraph, sources, targets: set[int],
           bounds: tuple[int, int, int, int], pres_fac: float, scratch: _Scratch):
    """Cheapest path from any source to any target inside ``bounds``.

    Edge cost is 1 + history + pres_fac * (overuse if this net were added);
    zero-capacity planar edges are impassable.  Ties break on ascending node
    id, i.e. lexicographic (layer, y, x).  Returns (edges, nodes) or None.
    """
    x_dim = graph.x
    xy = x_dim * graph.y
    top = graph.layers - 1
    xlo, xhi, ylo, yhi = bounds
    cap = graph.capacity
    dem = graph.demand
    hist = graph.history
    via_base = graph.via_base

    scratch.gen += 1
    gen = scratch.gen
    gs = scratch.g
    stamp = scratch.stamp
    closed = scratch.closed_stamp
    pnode = scratch.parent_node
    pedge = scratch.parent_edge
    nx = scratch.nx
    ny = scratch.ny
    nz = scratch.nz
    pplus = scratch.pplus
    horiz = scratch.horiz

    # Bounding box of the target set: distance-to-box is admissible for any
    # number of targets and collapses to Manhattan distance for one target.
    # hx/hy/hz hold each axis's integer distance to the box.
    txs = [nx[t] for t in targets]
    tys = [ny[t] for t in targets]
    tzs = [nz[t] for t in targets]
    txlo, txhi = min(txs), max(txs)
    tylo, tyhi = min(tys), max(tys)
    tzlo, tzhi = min(tzs), max(tzs)
    hx = [*range(txlo, 0, -1), *[0] * (txhi - txlo + 1), *range(1, x_dim - txhi)]
    hy = [*range(tylo, 0, -1), *[0] * (tyhi - tylo + 1), *range(1, graph.y - tyhi)]
    hz = [*range(tzlo, 0, -1), *[0] * (tzhi - tzlo + 1), *range(1, top + 1 - tzhi)]

    heap: list[tuple[float, int]] = []
    for s in sources:
        sx = nx[s]
        sy = ny[s]
        if not (xlo <= sx <= xhi and ylo <= sy <= yhi):
            continue
        if stamp[s] != gen:
            stamp[s] = gen
            gs[s] = 0.0
            pnode[s] = -1
            heapq.heappush(heap, (float(hx[sx] + hy[sy] + hz[nz[s]]), s))

    # Moves are unrolled: planar -/+ along the layer's direction within the
    # region bounds (zero-capacity planar edges are impassable), then via
    # down/up.  ``g1 + hist[eid] + present`` keeps the float association of
    # ``g + 1 + history + present``, so costs and tie-breaks are exact.
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        _, u = pop(heap)
        if closed[u] == gen:
            continue
        closed[u] = gen
        if u in targets:
            edges = []
            nodes = [u]
            v = u
            while pnode[v] >= 0:
                edges.append(pedge[v])
                v = pnode[v]
                nodes.append(v)
            edges.reverse()
            nodes.reverse()
            return edges, nodes
        g1 = gs[u] + 1.0
        ux = nx[u]
        uy = ny[u]
        uz = nz[u]

        # Planar moves step by 1 on 'h' layers and by X on 'v' layers.
        if horiz[uz]:
            at, lo, hi, step, hp, hrest = ux, xlo, xhi, 1, hx, hy[uy] + hz[uz]
        else:
            at, lo, hi, step, hp, hrest = uy, ylo, yhi, x_dim, hy, hx[ux] + hz[uz]
        if at > lo:
            v = u - step
            if closed[v] != gen:
                eid = pplus[v]
                c = cap[eid]
                if c > 0:
                    over = dem[eid] + 1 - c
                    ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                    if stamp[v] != gen or gs[v] > ng:
                        stamp[v] = gen
                        gs[v] = ng
                        pnode[v] = u
                        pedge[v] = eid
                        push(heap, (ng + (hp[at - 1] + hrest), v))
        if at < hi:
            v = u + step
            if closed[v] != gen:
                eid = pplus[u]
                c = cap[eid]
                if c > 0:
                    over = dem[eid] + 1 - c
                    ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                    if stamp[v] != gen or gs[v] > ng:
                        stamp[v] = gen
                        gs[v] = ng
                        pnode[v] = u
                        pedge[v] = eid
                        push(heap, (ng + (hp[at + 1] + hrest), v))
        if uz > 0:
            v = u - xy
            if closed[v] != gen:
                eid = via_base + v
                over = dem[eid] + 1 - cap[eid]
                ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                if stamp[v] != gen or gs[v] > ng:
                    stamp[v] = gen
                    gs[v] = ng
                    pnode[v] = u
                    pedge[v] = eid
                    push(heap, (ng + (hx[ux] + hy[uy] + hz[uz - 1]), v))
        if uz < top:
            v = u + xy
            if closed[v] != gen:
                eid = via_base + u
                over = dem[eid] + 1 - cap[eid]
                ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                if stamp[v] != gen or gs[v] > ng:
                    stamp[v] = gen
                    gs[v] = ng
                    pnode[v] = u
                    pedge[v] = eid
                    push(heap, (ng + (hx[ux] + hy[uy] + hz[uz + 1]), v))
    return None


@dataclass
class _NetTask:
    net_id: str
    entries: list[list[int]]  # per terminal, candidate entry nodes
    reps: list[tuple[int, int]]  # representative gcell per terminal
    bbox: tuple[int, int, int, int]
    hp: int
    order: list[tuple[int, int]] = field(default_factory=list)  # MST attach pairs


def _region(task: _NetTask, margin: int, graph: RoutingGraph) -> tuple[int, int, int, int]:
    x0, x1, y0, y1 = task.bbox
    return (
        max(0, x0 - margin),
        min(graph.x - 1, x1 + margin),
        max(0, y0 - margin),
        min(graph.y - 1, y1 + margin),
    )


def _route_one(graph: RoutingGraph, task: _NetTask, bounds, pres_fac: float,
               scratch: _Scratch):
    """Route a whole net inside ``bounds``; returns edge list or None."""
    entry_sets = [set(e) for e in task.entries]
    tree_nodes: set[int] | None = None
    edges: list[int] = []
    for new_t, from_t in task.order:
        targets = entry_sets[new_t]
        if tree_nodes is None:
            sources = task.entries[from_t]
            common = entry_sets[from_t] & targets
            if common:
                tree_nodes = {min(common)}
                continue
        else:
            sources = tree_nodes
            if tree_nodes & targets:
                continue
        found = _astar(graph, sources, targets, bounds, pres_fac, scratch)
        if found is None:
            return None
        path_edges, path_nodes = found
        if tree_nodes is None:
            tree_nodes = set(path_nodes)
        else:
            tree_nodes.update(path_nodes)
        edges.extend(path_edges)
    return edges


def route_terminal_sets(
    graph: RoutingGraph,
    nets: list[tuple[str, list[list[int]]]],
    params: RouteParams | None = None,
) -> tuple[list[NetRoute], CongestionMap]:
    """Route nets given raw terminal entry-node sets.

    ``nets`` holds (net_id, [entry nodes per terminal]); every entry list
    must be non-empty.  Returns routes in input order plus the final
    congestion map.  Zero overflow on return means demand <= capacity on
    every edge.
    """
    params = params or RouteParams()
    x_dim = graph.x
    y_dim = graph.y

    tasks: list[_NetTask] = []
    for net_id, entries in nets:
        if not entries or any(not e for e in entries):
            raise RoutingError(f"net {net_id!r}: empty terminal entry set")
        reps = []
        xs: list[int] = []
        ys: list[int] = []
        for entry in entries:
            ex = entry[0] % x_dim
            ey = (entry[0] // x_dim) % y_dim
            reps.append((ex, ey))
            for node in entry:
                xs.append(node % x_dim)
                ys.append((node // x_dim) % y_dim)
        bbox = (min(xs), max(xs), min(ys), max(ys))
        task = _NetTask(
            net_id=net_id, entries=entries, reps=reps, bbox=bbox,
            hp=(bbox[1] - bbox[0]) + (bbox[3] - bbox[2]),
        )
        if len(entries) > 1:
            task.order = _prim_order(reps)
        tasks.append(task)

    order = sorted(range(len(tasks)), key=lambda i: (-tasks[i].hp, tasks[i].net_id))
    routed_edges: dict[int, list[int]] = {}
    dem = graph.demand
    pres_fac = PRESENT_FACTOR

    scratch = _Scratch(graph)
    cap = graph.capacity
    # Edges with demand > capacity, kept current at every demand change.
    overflowed = {e for e in range(graph.num_edges) if dem[e] > cap[e]}
    best_overflow = None
    stale = 0
    pending = list(order)
    for iteration in range(params.max_iters + 1):
        if iteration > 0:
            over = sorted(overflowed)
            if not over:
                break
            if best_overflow is None or len(over) < best_overflow * (1.0 - STAGNATION_GAIN):
                best_overflow = len(over)
                stale = 0
            else:
                best_overflow = min(best_overflow, len(over))
                stale += 1
            users: dict[int, list[int]] = {e: [] for e in over}
            for i in order:
                edges = routed_edges.get(i)
                if edges is None or overflowed.isdisjoint(edges):
                    continue
                for e in edges:
                    if e in overflowed:
                        users[e].append(i)
            # Per overflowed edge, only the excess (demand - capacity) users
            # reroute, lowest-priority first.  Earlier-routed (larger) nets
            # keep their claim; history keeps pressure on edges that stay
            # contested.
            ripped = set()
            for e in over:
                need = dem[e] - cap[e]
                need -= sum(1 for i in users[e] if i in ripped)
                for i in reversed(users[e]):
                    if need <= 0:
                        break
                    if i not in ripped:
                        ripped.add(i)
                        need -= 1
            pending = [i for i in order if i in ripped]
            if not pending:
                break
            if stale >= STAGNATION_ITERS and len(pending) > STAGNATION_MIN_NETS:
                logger.debug("overflow stagnant for %d iterations, stopping", stale)
                break
            for e in over:
                graph.history[e] += HISTORY_INCREMENT * (dem[e] - cap[e])
            for i in pending:
                for e in routed_edges.pop(i):
                    dem[e] -= 1
                    if dem[e] == cap[e]:
                        overflowed.discard(e)
            pres_fac *= PRESENT_GROWTH
            logger.debug(
                "reroute iteration %d: %d overflowed edges, %d nets",
                iteration, len(over), len(pending),
            )
        # Route in order, committing each net's demand before the next one.
        for i in pending:
            task = tasks[i]
            edges = _route_one(graph, task, _region(task, BBOX_MARGIN, graph), pres_fac, scratch)
            if edges is None:
                edges = _route_with_growth(graph, task, BBOX_MARGIN, pres_fac, scratch)
            for e in edges:
                dem[e] += 1
                if dem[e] > cap[e]:
                    overflowed.add(e)
            routed_edges[i] = edges

    routes = [NetRoute(net_id=t.net_id, edges=tuple(routed_edges.get(i, ())))
              for i, t in enumerate(tasks)]
    cmap = build_congestion_map(graph)
    if cmap.overflow_edge_count:
        logger.warning("routing finished with %d overflowed edges", cmap.overflow_edge_count)
    return routes, cmap


def _route_with_growth(graph, task, margin, pres_fac, scratch):
    m = max(1, margin)
    while True:
        m *= 4
        bounds = _region(task, m, graph)
        edges = _route_one(graph, task, bounds, pres_fac, scratch)
        if edges is not None:
            return edges
        if bounds == (0, graph.x - 1, 0, graph.y - 1):
            raise RoutingError(
                f"net {task.net_id!r}: no route exists (isolated terminal gcell)"
            )


def route(
    netlist: Netlist,
    placement: Placement,
    graph: RoutingGraph,
    params: RouteParams | None = None,
) -> tuple[list[NetRoute], CongestionMap]:
    """Route every multi-terminal net of a placed netlist.

    Dangling (single-terminal) nets are skipped with a warning, the one
    place that reports them, and appear in the result with an empty edge
    set.  Deterministic: the result depends only on the netlist, the
    placement, the graph and ``params``.
    """
    work: list[tuple[str, list[list[int]]]] = []
    skipped: list[str] = []
    for net in netlist.nets:
        if len(net.terminals) < 2:
            skipped.append(net.id)
            continue
        work.append((net.id, terminal_gcells(net, netlist, placement, graph)))
    if skipped:
        logger.warning("skipping %d dangling net(s): %s", len(skipped), ", ".join(skipped[:5]))

    routes, cmap = route_terminal_sets(graph, work, params)
    by_id = {r.net_id: r for r in routes}
    full = [by_id.get(net.id, NetRoute(net_id=net.id, edges=())) for net in netlist.nets]
    return full, cmap


def congestion_csv(cmap: CongestionMap, layer: int) -> str:
    """Heatmap rows for one 1-based layer: ``layer,x,y,dir,demand,capacity,ratio``.

    Via edges between this layer and the next appear as ``dir=via`` rows.
    """
    if not 1 <= layer <= len(cmap.layer_dirs):
        raise ValueError(f"layer {layer} outside 1..{len(cmap.layer_dirs)}")
    li = layer - 1
    lines = ["layer,x,y,dir,demand,capacity,ratio"]
    grids = [(cmap.layer_dirs[li], cmap.layer_demand[li], cmap.layer_capacity[li])]
    if li < cmap.via_demand.shape[0]:
        grids.append(("via", cmap.via_demand[li], cmap.via_capacity[li]))
    for d, dem, cap in grids:
        ratio = _edge_ratio(dem, cap)
        for (gy, gx), v in np.ndenumerate(dem):
            lines.append(f"{layer},{gx},{gy},{d},{int(v)},{int(cap[gy, gx])},{ratio[gy, gx]:.6g}")
    return "\n".join(lines) + "\n"
