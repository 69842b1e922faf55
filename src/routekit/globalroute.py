"""Negotiated-congestion global routing on a layered gcell grid.

The routing graph is an X x Y x L lattice.  Each layer carries planar edges
only along its preferred direction; adjacent layers are joined by via edges
at every gcell, each holding the fabric's ``via_capacity`` (1 on S3DC,
whose via stacks are single-signal).

Routing is PathFinder style: nets are routed by A* with edge costs
``1 + history + present_factor * overuse``, guided by a consistent lower
bound that adds to the planar distance the vias a path needs to reach an
'h' layer for x travel, a 'v' layer for y travel and the targets' layers,
so every search returns a cheapest path; after each iteration the nets
crossing overused edges are ripped up and rerouted while the present-factor
grows and overused edges accumulate history cost.  Multi-terminal nets are
decomposed over a rectilinear MST of their terminal gcells, and each new
connection may start from any node of the net's partial tree, so shared
segments cost nothing.

A reroute pass costs what it reroutes, not a scan of every net: from the
first reroute pass on, an index maps each edge to the nets that use it,
kept current at every rip-up and commit, so a pass reads the users of its
overflowed edges and sorts them, and the nets it rips up, by routing order.
A run that converges in its first pass never builds it.

The router keeps the routing of the pass that left the fewest overflowed
edges and returns it, with its demand, if the last pass left more.  It
stops once ``STAGNATION_NETS`` nets have been rerouted since that pass:
cheap passes of a few nets keep running, a string of large passes that do
not pay stops.  As the passes of a run with ``max_iters`` m are the first
passes of one with m + 1, one more iteration never returns more overflow.

Most searches find a path that costs exactly their lower bound.  So each
search first walks, on a heap of bare node ids, only the steps that keep
A*'s f value at the sources' least bound, which A* pops before any other;
when no target lies among them it runs the full search.  Both give the same
path and count the same heap pops (see ``_astar``).

Each net is searched only inside its terminals' bounding box widened by
``BBOX_MARGIN`` gcells, and a net that finds no route there is an error:
capacities are uniform per layer and every via's is >= 1, so a path that
leaves the box stays a path when clamped to it, and a net with no route
inside its box has none on the whole die.
"""

from __future__ import annotations

import bisect
import heapq
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .fabric import FabricSpec
from .netlist import Netlist
from .placement import Placement

logger = logging.getLogger(__name__)


class RoutingError(RuntimeError):
    pass


PRESENT_FACTOR = 1.0  # first-pass weight of an edge's overuse
PRESENT_GROWTH = 1.5  # present-factor growth per reroute iteration
HISTORY_INCREMENT = 1.0  # history added per unit of overuse per iteration
BBOX_MARGIN = 2  # gcells searched beyond a net's terminal bounding box
STAGNATION_NETS = 384  # stop once this many nets rerouted since the last new best


@dataclass
class RouteParams:
    max_iters: int = 40

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


class RoutingGraph:
    """Gcell lattice with per-edge capacity/demand/history arrays.

    ``layers`` is the length of ``layer_dirs``.  A layer's planar edges
    share its capacity (0 blocks the layer) and every via holds
    ``via_capacity`` >= 1, which lets the router search each net inside its
    own region only (see the module docstring).

    Node ids are ``(layer * Y + y) * X + x`` with 0-based layers, which makes
    ascending-id tie-breaking equal to lexicographic (layer, y, x) order.
    Edge ids pack all planar edges (layer by layer) followed by all via
    edges.  ``blocks[layer]`` is the ``(rows, cols)`` shape of a layer's
    planar edges, the edge from (gx, gy) toward +x on an 'h' layer or +y on
    a 'v' layer being ``pbase[layer] + gy * cols + gx``; ``via_block`` is
    the (layer, y, x) shape of the via edges after them, the via from node
    u up to node u + X*Y being ``via_base + u``.
    """

    __slots__ = (
        "x", "y", "layers", "gcell_size", "site_dim_nm", "layer_dirs",
        "blocks", "pbase", "via_base", "num_edges", "capacity", "demand", "history",
    )

    def __init__(self, x: int, y: int, gcell_size: int, site_dim_nm: float,
                 layer_dirs: tuple[str, ...], layer_capacities: tuple[int, ...],
                 via_capacity: int):
        layers = len(layer_dirs)
        if x < 1 or y < 1 or layers < 1:
            raise ValueError("grid dimensions must be positive")
        if via_capacity < 1:
            raise ValueError("via capacity must be >= 1")
        if len(layer_capacities) != layers:
            raise ValueError(f"layer_capacities needs {layers} entries, one per layer "
                             f"direction, got {len(layer_capacities)}")
        self.x = x
        self.y = y
        self.layers = layers
        self.gcell_size = gcell_size
        self.site_dim_nm = site_dim_nm
        self.layer_dirs = layer_dirs

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

    def planar_layer(self, eid: int) -> int:
        """The 0-based layer of planar edge ``eid``."""
        return bisect.bisect_right(self.pbase, eid) - 1

    @property
    def gcell_um(self) -> float:
        return self.gcell_size * self.site_dim_nm / 1000.0


def check_gcell_size(gcell_size: int) -> None:
    if gcell_size < 1:
        raise ValueError(f"gcell_size must be >= 1, got {gcell_size}")


def build_grid(fabric: FabricSpec, die, gcell_size: int) -> RoutingGraph:
    """Routing lattice over a die: ``ceil(sites / gcell_size)`` gcells per
    axis, one graph layer per fabric routing layer, and every via holding
    the fabric's ``via_capacity``."""
    check_gcell_size(gcell_size)
    return RoutingGraph(
        x=-(-die.width // gcell_size), y=-(-die.height // gcell_size),
        gcell_size=gcell_size, site_dim_nm=fabric.site_dim_nm,
        layer_dirs=tuple(layer.direction for layer in fabric.layers),
        layer_capacities=tuple(layer.capacity for layer in fabric.layers),
        via_capacity=fabric.via_capacity,
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
    x_dim, y_dim, layers = graph.x, graph.y, graph.layers
    assignments = placement.assignments
    out: list[list[int]] = []
    for cid, pin_name in net.terminals:
        at = assignments.get(cid)
        if at is None:
            raise RoutingError(f"net {net.id!r}: cell {cid!r} is not placed")
        ox, oy = at
        entries: dict[int, None] = {}
        for layer, dx, dy in netlist.master_of(cid).pin(pin_name).accesses:
            if layer > layers:
                raise RoutingError(
                    f"net {net.id!r}: pin {cid}.{pin_name} accesses layer {layer}, "
                    f"above the grid's {layers} layers"
                )
            entries[((layer - 1) * y_dim + (oy + dy) // g) * x_dim + (ox + dx) // g] = None
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
    for li, (dem, cap) in enumerate(zip(cmap.layer_demand, cmap.layer_capacity)):
        demand, capacity = int(dem.sum()), int(cap.sum())
        rows.append(LayerRatio(
            layer=li + 1,
            demand=demand,
            capacity=capacity,
            aggregate_ratio=float(_edge_ratio(demand, capacity)),
            max_edge_ratio=float(_edge_ratio(dem, cap).max()) if dem.size else 0.0,
        ))
    return rows


# ---------------------------------------------------------------------------
# The router core


def _prim_order(points: list[tuple[int, int]]) -> list[int]:
    """MST construction order over terminal gcells (rectilinear metric).

    Returns the terminals other than terminal 0 in the order Prim's
    algorithm attaches them to the tree that starts at terminal 0.
    """
    t = len(points)
    in_tree = [False] * t
    in_tree[0] = True
    dist = [0] * t
    for i in range(1, t):
        dist[i] = abs(points[i][0] - points[0][0]) + abs(points[i][1] - points[0][1])
    order = []
    for _ in range(t - 1):
        best, best_d = -1, None
        for i in range(t):
            if not in_tree[i] and (best_d is None or (dist[i], i) < (best_d, best)):
                best, best_d = i, dist[i]
        order.append(best)
        in_tree[best] = True
        bx, by = points[best]
        for i in range(t):
            if not in_tree[i]:
                d = abs(points[i][0] - bx) + abs(points[i][1] - by)
                if d < dist[i]:
                    dist[i] = d
    return order


NO_WALK = 1 << 30  # via bound when the stack lacks a direction the walk needs


def _via_bound_table(layer_dirs: tuple[str, ...]) -> list[list[int]]:
    """Fewest via steps a path needs, by target layer interval.

    Entry ``[lo * L + hi][4 * z + 2 * need_h + need_v]`` is the length of
    the shortest walk over the layers from ``z`` to some layer in
    ``lo..hi`` that visits an 'h' layer if ``need_h`` and a 'v' layer if
    ``need_v``; ``NO_WALK`` when the stack has no layer of a needed
    direction.  Entries with ``hi < lo`` are empty lists.  It is a
    breadth-first search over (layer, 'h' seen, 'v' seen) states from each
    start state.
    """
    n = len(layer_dirs)
    has_h = [d == "h" for d in layer_dirs]
    has_v = [d == "v" for d in layer_dirs]

    def state(z: int, hs: bool, vs: bool) -> int:
        return 4 * z + 2 * hs + vs

    # dist[s][t]: via steps from state s to state t.
    dist = []
    for s in range(4 * n):
        d = [NO_WALK] * (4 * n)
        d[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                z, hs, vs = u >> 2, u >> 1 & 1, u & 1
                for w in (z - 1, z + 1):
                    if 0 <= w < n:
                        v = state(w, hs or has_h[w], vs or has_v[w])
                        if d[v] == NO_WALK:
                            d[v] = d[u] + 1
                            nxt.append(v)
            frontier = nxt
        dist.append(d)
    # The walk starts in state (z, met or not needed) for each need.
    starts = [dist[state(z, not nh or has_h[z], not nv or has_v[z])]
              for z in range(n) for nh in (0, 1) for nv in (0, 1)]
    table: list[list[int]] = [[] for _ in range(n * n)]
    for lo in range(n):
        row = [NO_WALK] * (4 * n)
        for hi in range(lo, n):
            goal = state(hi, True, True)
            row = [min(r, d[goal]) for r, d in zip(row, starts)]
            table[lo * n + hi] = row
    return table


class _Scratch:
    """Per-search node state reused across A* calls via generation stamps,
    plus the grid's per-node tables, built once per routing call.

    ``gen`` counts the searches and ``pops`` their heap pops.  In search
    ``gen`` node v is open when ``stamp[v] == gen``, closed when it is
    ``-gen`` and unseen otherwise: ``gen`` only grows from 1.  ``_astar``'s
    tier marks a node ``-gen`` as soon as it reaches it.

    ``nx``/``ny``/``nz`` give each node's coordinates, ``pplus`` the id of
    its planar edge toward +x ('h' layers) or +y ('v' layers), -1 where its
    layer's block has no such edge, and ``horiz`` flags the 'h' layers.  A
    node's -direction planar edge is ``pplus`` of its -direction neighbour;
    its via edges are ``via_base + u - X*Y`` (down) and ``via_base + u``
    (up), so adjacent nodes v and w share the edge ``pplus[min(v, w)]`` on
    one layer and ``via_base + min(v, w)`` across two.  ``via_bound`` is the
    grid's ``_via_bound_table``; ``cuts`` says whether no layer joins the
    columns (no 'h' capacity) and the rows (no 'v' capacity).  ``xrows`` and
    ``yrows`` memoise ``_heuristic_tables``' per-axis rows by the targets'
    interval on that axis.
    """

    __slots__ = ("g", "stamp", "parent_node", "gen", "pops", "nx", "ny", "nz", "pplus",
                 "horiz", "via_bound", "cuts", "xrows", "yrows")

    def __init__(self, graph: RoutingGraph):
        x_dim, y_dim, layers = graph.x, graph.y, graph.layers
        nnodes = x_dim * y_dim * layers
        self.g = [0.0] * nnodes
        self.stamp = [0] * nnodes
        self.parent_node = [-1] * nnodes
        self.gen = 0
        self.pops = 0

        self.nx = list(range(x_dim)) * (y_dim * layers)
        self.ny = [gy for gy in range(y_dim) for _ in range(x_dim)] * layers
        self.nz = [z for z in range(layers) for _ in range(x_dim * y_dim)]
        self.horiz = [d == "h" for d in graph.layer_dirs]
        # Row gy of a layer's block numbers its ``cols`` edges from
        # ``pbase + gy * cols``; nodes past the block's last row or column
        # have no + edge.
        self.pplus = []
        for base, (rows, cols) in zip(graph.pbase, graph.blocks):
            for gy in range(y_dim):
                row = range(base + gy * cols, base + (gy + 1) * cols) if gy < rows else ()
                self.pplus += [*row, *[-1] * (x_dim - len(row))]
        self.via_bound = _via_bound_table(graph.layer_dirs)
        self.xrows: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        self.yrows: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        # An axis of one gcell needs no layer; on a longer one, a layer's
        # first planar edge holds the capacity of all of them.
        self.cuts = tuple(
            n > 1 and not any(graph.capacity[b] > 0
                              for b, d in zip(graph.pbase, graph.layer_dirs) if d == axis)
            for n, axis in ((x_dim, "h"), (y_dim, "v")))


def _heuristic_tables(graph: RoutingGraph, targets: set[int], scratch: _Scratch):
    """Tables of the A* lower bound toward ``targets``.

    Returns ``(hx, hy, fx, fy, vb)``, with which a node (x, y, z) has the
    bound ``hx[x] + hy[y] + vb[4 * z + fx[x] + fy[y]]``:

    - ``hx``/``hy`` hold each axis's distance to the bounding box of the
      target set, which is admissible for any number of targets and
      collapses to Manhattan distance for one target;
    - ``fx`` is 2 on the columns outside the box's x range and ``fy`` is 1
      on the rows outside its y range, 0 inside: a path from there must run
      on an 'h' (a 'v') layer somewhere;
    - ``vb`` is the ``_via_bound_table`` row of the targets' layer interval:
      the fewest vias that reach that interval through the layer directions
      the path needs.

    The axis rows are built once per targets' interval on their axis and
    routing call, and kept on ``scratch``.

    Every edge costs at least 1 and the bound is 0 on every target.  It is
    consistent: a via step changes the ``vb`` term by at most 1, and a
    planar step changes ``hx`` or ``hy`` by at most 1 and runs on a layer
    of its own direction, which already meets the need that the step may
    flip, so the ``vb`` term stays.  A* with it returns a cheapest path
    (Hart, Nilsson & Raphael, 1968).
    """
    nx = scratch.nx
    ny = scratch.ny
    nz = scratch.nz
    txs = [nx[t] for t in targets]
    tys = [ny[t] for t in targets]
    tzs = [nz[t] for t in targets]
    xkey = min(txs), max(txs)
    ykey = min(tys), max(tys)
    xrow = scratch.xrows.get(xkey)
    if xrow is None:
        xrow = scratch.xrows[xkey] = _axis_rows(*xkey, graph.x, 2)
    yrow = scratch.yrows.get(ykey)
    if yrow is None:
        yrow = scratch.yrows[ykey] = _axis_rows(*ykey, graph.y, 1)
    return (xrow[0], yrow[0], xrow[1], yrow[1],
            scratch.via_bound[min(tzs) * graph.layers + max(tzs)])


def _axis_rows(lo: int, hi: int, n: int, flag: int) -> tuple[list[int], list[int]]:
    """Distance to ``lo..hi`` along an axis of ``n`` gcells, and ``flag``
    outside that interval, 0 inside."""
    out = n - 1 - hi
    inside = hi - lo + 1
    return ([*range(lo, 0, -1), *[0] * inside, *range(1, out + 1)],
            [flag] * lo + [0] * inside + [flag] * out)


def _astar(graph: RoutingGraph, sources, targets: set[int],
           bounds: tuple[int, int, int, int], pres_fac: float, scratch: _Scratch):
    """Cheapest path from any source to any target inside ``bounds``.

    Edge cost is 1 + history + pres_fac * (overuse if this net were added);
    zero-capacity planar edges are impassable.  The search is guided by the
    consistent lower bound of ``_heuristic_tables``: planar distance to the
    targets' box plus the vias that the layer directions force.  Ties break
    on ascending node id, i.e. lexicographic (layer, y, x).  Returns
    (edges, nodes) or None.

    It first searches the bound's tight tier and returns what
    ``_full_search`` returns, with the same ``scratch.gen`` and
    ``scratch.pops`` counts.  Let F be the least bound among the sources
    inside ``bounds``.  A step costs exactly 1 when its edge has no history
    and a free track, and at least 2 otherwise, since history holds whole
    numbers and the present factor is >= 1; along a step the consistent,
    integer bound falls by 1 at most.  So the tight nodes, those reached
    from a source of bound F by steps that cost 1 and lower the bound by 1,
    get f = F and every other entry f >= F + 1: until the full search pops
    an entry above F it pops exactly the tight nodes, the least id first,
    and each keeps as parent the first tight node that relaxed it.  The
    tier replays that on an int heap of node ids, without g values.  If a
    target pops, its path is the full search's; if the tier runs out, its
    nodes are unmarked and the full search runs from the start, its pops
    alone counted.
    """
    x_dim = graph.x
    xy = x_dim * graph.y
    top = graph.layers - 1
    xlo, xhi, ylo, yhi = bounds
    nx = scratch.nx
    ny = scratch.ny
    nz = scratch.nz
    hx, hy, fx, fy, vb = _heuristic_tables(graph, targets, scratch)

    tier: list[int] = []
    f_min = 0
    for s in sources:
        sx = nx[s]
        sy = ny[s]
        if xlo <= sx <= xhi and ylo <= sy <= yhi:
            h0 = hx[sx] + hy[sy] + vb[4 * nz[s] + fx[sx] + fy[sy]]
            if not tier or h0 < f_min:
                f_min = h0
                tier = [s]
            elif h0 == f_min:
                tier.append(s)

    cap = graph.capacity
    dem = graph.demand
    hist = graph.history
    via_base = graph.via_base
    # The tier marks a node when it is first reached, as it never relaxes
    # one twice, and lends ``_full_search`` back its generation if it runs
    # out.
    gen = scratch.gen + 1
    reached = -gen
    stamp = scratch.stamp
    pnode = scratch.parent_node
    pplus = scratch.pplus
    horiz = scratch.horiz
    heap = []
    for s in tier:
        if stamp[s] != reached:
            stamp[s] = reached
            pnode[s] = -1
            heap.append(s)
    heapq.heapify(heap)
    popped = []

    # Each move is tight when the bound table falls by 1 along it (tested
    # first) and its edge costs exactly 1.
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        u = pop(heap)
        popped.append(u)
        if u in targets:
            scratch.gen = gen
            scratch.pops += len(popped)
            return _path(u, scratch, via_base)
        ux = nx[u]
        uy = ny[u]
        uz = nz[u]
        if horiz[uz]:
            at, lo, hi, step, hp = ux, xlo, xhi, 1, hx
        else:
            at, lo, hi, step, hp = uy, ylo, yhi, x_dim, hy
        down = hp[at] - 1
        if at > lo and hp[at - 1] == down:
            v = u - step
            if stamp[v] != reached:
                eid = pplus[v]
                if hist[eid] == 0.0 and dem[eid] < cap[eid]:
                    stamp[v] = reached
                    pnode[v] = u
                    push(heap, v)
        if at < hi and hp[at + 1] == down:
            v = u + step
            if stamp[v] != reached:
                eid = pplus[u]
                if hist[eid] == 0.0 and dem[eid] < cap[eid]:
                    stamp[v] = reached
                    pnode[v] = u
                    push(heap, v)
        zf = 4 * uz + fx[ux] + fy[uy]
        down = vb[zf] - 1
        if uz > 0 and vb[zf - 4] == down:
            v = u - xy
            if stamp[v] != reached:
                eid = via_base + v
                if hist[eid] == 0.0 and dem[eid] < cap[eid]:
                    stamp[v] = reached
                    pnode[v] = u
                    push(heap, v)
        if uz < top and vb[zf + 4] == down:
            v = u + xy
            if stamp[v] != reached:
                eid = via_base + u
                if hist[eid] == 0.0 and dem[eid] < cap[eid]:
                    stamp[v] = reached
                    pnode[v] = u
                    push(heap, v)
    for u in popped:
        stamp[u] = 0
    return _full_search(graph, sources, targets, bounds, pres_fac, scratch)


def _path(u: int, scratch: _Scratch, via_base: int) -> tuple[list[int], list[int]]:
    """The (edges, nodes) of the search path that ends at ``u``, from its
    source, by ``scratch.parent_node``."""
    pnode = scratch.parent_node
    pplus = scratch.pplus
    nz = scratch.nz
    edges = []
    nodes = [u]
    v = u
    while (w := pnode[v]) >= 0:
        m = min(v, w)
        edges.append(pplus[m] if nz[v] == nz[w] else via_base + m)
        nodes.append(w)
        v = w
    edges.reverse()
    nodes.reverse()
    return edges, nodes


def _full_search(graph: RoutingGraph, sources, targets: set[int],
                 bounds: tuple[int, int, int, int], pres_fac: float, scratch: _Scratch):
    """``_astar`` without its tight tier: A* over (f, node id) heap entries.

    As the bound is consistent, a closed node is final, and the sign of
    its stamp marks it; a path edge is derived from its two nodes (see
    ``_Scratch``).
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
    closed = -gen
    gs = scratch.g
    stamp = scratch.stamp
    pnode = scratch.parent_node
    nx = scratch.nx
    ny = scratch.ny
    nz = scratch.nz
    pplus = scratch.pplus
    horiz = scratch.horiz
    hx, hy, fx, fy, vb = _heuristic_tables(graph, targets, scratch)

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
            h0 = hx[sx] + hy[sy] + vb[4 * nz[s] + fx[sx] + fy[sy]]
            heapq.heappush(heap, (float(h0), s))

    # Moves are unrolled: planar -/+ along the layer's direction within the
    # region bounds (zero-capacity planar edges are impassable), then via
    # down/up.  ``g1 + hist[eid] + present`` keeps the float association of
    # ``g + 1 + history + present``, so costs and tie-breaks are exact.
    push = heapq.heappush
    pop = heapq.heappop
    pops = 0
    while heap:
        _, u = pop(heap)
        pops += 1
        if stamp[u] == closed:
            continue
        stamp[u] = closed
        if u in targets:
            scratch.pops += pops
            return _path(u, scratch, via_base)
        g1 = gs[u] + 1.0
        ux = nx[u]
        uy = ny[u]
        uz = nz[u]
        hxy = hx[ux] + hy[uy]
        zf = 4 * uz + fx[ux] + fy[uy]

        # Planar moves step by 1 on 'h' layers and by X on 'v' layers and
        # keep the node's via term ``vb[zf]``.
        if horiz[uz]:
            at, lo, hi, step, hp, hrest = ux, xlo, xhi, 1, hx, hy[uy] + vb[zf]
        else:
            at, lo, hi, step, hp, hrest = uy, ylo, yhi, x_dim, hy, hx[ux] + vb[zf]
        if at > lo:
            v = u - step
            sv = stamp[v]
            if sv != closed:
                eid = pplus[v]
                c = cap[eid]
                if c > 0:
                    over = dem[eid] + 1 - c
                    ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                    if sv != gen or gs[v] > ng:
                        stamp[v] = gen
                        gs[v] = ng
                        pnode[v] = u
                        push(heap, (ng + (hp[at - 1] + hrest), v))
        if at < hi:
            v = u + step
            sv = stamp[v]
            if sv != closed:
                eid = pplus[u]
                c = cap[eid]
                if c > 0:
                    over = dem[eid] + 1 - c
                    ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                    if sv != gen or gs[v] > ng:
                        stamp[v] = gen
                        gs[v] = ng
                        pnode[v] = u
                        push(heap, (ng + (hp[at + 1] + hrest), v))
        if uz > 0:
            v = u - xy
            sv = stamp[v]
            if sv != closed:
                eid = via_base + v
                over = dem[eid] + 1 - cap[eid]
                ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                if sv != gen or gs[v] > ng:
                    stamp[v] = gen
                    gs[v] = ng
                    pnode[v] = u
                    push(heap, (ng + (hxy + vb[zf - 4]), v))
        if uz < top:
            v = u + xy
            sv = stamp[v]
            if sv != closed:
                eid = via_base + u
                over = dem[eid] + 1 - cap[eid]
                ng = g1 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
                if sv != gen or gs[v] > ng:
                    stamp[v] = gen
                    gs[v] = ng
                    pnode[v] = u
                    push(heap, (ng + (hxy + vb[zf + 4]), v))
    scratch.pops += pops
    return None


@dataclass
class _NetTask:
    net_id: str
    entries: list[list[int]]  # per terminal, candidate entry nodes
    bounds: tuple[int, int, int, int]  # the search region (xlo, xhi, ylo, yhi)
    hp: int  # the terminal box's half-perimeter
    order: list[int] = field(default_factory=list)  # MST attach order, after terminal 0


def _route_one(graph: RoutingGraph, task: _NetTask, pres_fac: float, scratch: _Scratch):
    """Route a whole net inside ``task.bounds``; returns edge list or None.

    Vias join each gcell's stack, so the lattice's connected parts are the
    die, its columns, its rows or its gcell stacks (``scratch.cuts``).  Each
    terminal keeps only its entries in the lowest part that holds an entry
    of every terminal; with no such part the net has no route.
    """
    entries = task.entries
    cut_x, cut_y = scratch.cuts
    if cut_x or cut_y:
        nx, ny = scratch.nx, scratch.ny

        def part(u: int) -> tuple[int, int]:
            return (ny[u] if cut_y else 0, nx[u] if cut_x else 0)

        shared = set.intersection(*({part(u) for u in e} for e in entries))
        if not shared:
            return None
        lowest = min(shared)
        entries = [[u for u in e if part(u) == lowest] for e in entries]
    entry_sets = [set(e) for e in entries]
    tree_nodes: set[int] | None = None
    edges: list[int] = []
    for t in task.order:
        targets = entry_sets[t]
        if tree_nodes is None:
            sources = entries[0]
            common = entry_sets[0] & targets
            if common:
                tree_nodes = {min(common)}
                continue
        else:
            sources = tree_nodes
            if tree_nodes & targets:
                continue
        found = _astar(graph, sources, targets, task.bounds, pres_fac, scratch)
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
    must be non-empty, and a one-terminal net gets no search and no edges.
    Each net is searched inside its terminals' box widened by
    ``BBOX_MARGIN``; as capacities are uniform per layer and vias are at
    least 1, a net that fails there has no route at all, and RoutingError
    names it.  Returns routes in input order plus the final congestion map.
    Zero overflow on return means demand <= capacity on every edge.

    Nets route in ``order``: by falling half-perimeter, then by id.  A
    reroute pass takes each overflowed edge's users from the edge-to-nets
    index, in that order, and rips up the excess, last-routed first; so a
    pass costs O(its overflowed edges' users + its ripped nets' edges) on
    top of its searches.  Demand that no net holds (placed on the graph
    before the call) counts toward overflow but has no user to rip up.
    """
    params = params or RouteParams()
    scratch = _Scratch(graph)
    nx = scratch.nx
    ny = scratch.ny

    tasks: list[_NetTask] = []
    for net_id, entries in nets:
        if not entries or any(not e for e in entries):
            raise RoutingError(f"net {net_id!r}: empty terminal entry set")
        reps = [(nx[entry[0]], ny[entry[0]]) for entry in entries]
        xs = [nx[node] for entry in entries for node in entry]
        ys = [ny[node] for entry in entries for node in entry]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        tasks.append(_NetTask(
            net_id=net_id, entries=entries,
            bounds=(max(0, x0 - BBOX_MARGIN), min(graph.x - 1, x1 + BBOX_MARGIN),
                    max(0, y0 - BBOX_MARGIN), min(graph.y - 1, y1 + BBOX_MARGIN)),
            hp=(x1 - x0) + (y1 - y0),
            order=_prim_order(reps),
        ))

    order = sorted(range(len(tasks)), key=lambda i: (-tasks[i].hp, tasks[i].net_id))
    rank = [0] * len(tasks)  # each net's position in ``order``
    for r, i in enumerate(order):
        rank[i] = r
    routed_edges: list[list[int]] = [[] for _ in tasks]
    # Edge -> the nets whose edge lists hold it, one entry per use; built at
    # the first reroute pass.
    users_of: dict[int, list[int]] | None = None
    dem = graph.demand
    pres_fac = PRESENT_FACTOR

    cap = graph.capacity
    # Edges with demand > capacity, kept current at every demand change.
    overflowed = {e for e in range(graph.num_edges) if dem[e] > cap[e]}
    # The routing of the pass that left the fewest overflowed edges.  A
    # reroute replaces a net's edge list and never edits it, so a shallow
    # copy keeps it.
    best_overflow = best_pass = best_routing = None
    fruitless = 0  # nets rerouted since the last new best
    passes = 0
    stop = "max_iters"
    pending = list(order)
    for iteration in range(params.max_iters + 1):
        if iteration > 0:
            over = sorted(overflowed)
            if not over:
                break
            if best_overflow is None or len(over) < best_overflow:
                best_overflow, best_pass, best_routing = len(over), passes, routed_edges.copy()
                fruitless = 0
            if users_of is None:
                users_of = defaultdict(list)
                for i, edges in enumerate(routed_edges):
                    for e in edges:
                        users_of[e].append(i)
            # An edge overflowed by demand that no net holds has no users.
            users = {e: sorted(users_of.get(e, ()), key=rank.__getitem__) for e in over}
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
            pending = sorted(ripped, key=rank.__getitem__)
            if not pending:
                stop = "nothing to reroute"
                break
            if fruitless >= STAGNATION_NETS:
                logger.debug("overflow stagnant: %d nets rerouted since pass %d, stopping",
                             fruitless, best_pass)
                stop = "stagnation"
                break
            passes = iteration
            fruitless += len(pending)
            for e in over:
                graph.history[e] += HISTORY_INCREMENT * (dem[e] - cap[e])
            for i in pending:
                for e in routed_edges[i]:
                    dem[e] -= 1
                    if dem[e] == cap[e]:
                        overflowed.discard(e)
                    users_of[e].remove(i)
            pres_fac *= PRESENT_GROWTH
            # Logged before this iteration's searches, so that the record
            # marks where the previous pass ended; it carries that pass's
            # search and heap-pop counts.
            logger.debug(
                "reroute iteration %d: %d overflowed edges, %d nets, "
                "%d searches and %d heap pops in the pass before",
                iteration, len(over), len(pending), searches, pops,
            )
        # Route in order, committing each net's demand before the next one.
        gen0, pops0 = scratch.gen, scratch.pops
        for i in pending:
            task = tasks[i]
            edges = _route_one(graph, task, pres_fac, scratch)
            if edges is None:
                raise RoutingError(
                    f"net {task.net_id!r}: no route exists (isolated terminal gcell)")
            for e in edges:
                dem[e] += 1
                if dem[e] > cap[e]:
                    overflowed.add(e)
            if users_of is not None:
                for e in edges:
                    users_of[e].append(i)
            routed_edges[i] = edges
        searches, pops = scratch.gen - gen0, scratch.pops - pops0
        if iteration == 0:
            logger.debug("first pass: %d nets, %d searches, %d heap pops",
                         len(pending), searches, pops)
    logger.debug("router stopped after %d reroute passes: %s; the last pass made "
                 "%d searches and %d heap pops", passes,
                 "converged" if not overflowed else stop, searches, pops)
    if best_routing is not None and best_overflow < len(overflowed):
        logger.debug("restored the routing of pass %d: %d overflowed edges, against %d "
                     "after the last pass", best_pass, best_overflow, len(overflowed))
        for edges, kept in zip(routed_edges, best_routing):
            if edges is not kept:
                for e in edges:
                    dem[e] -= 1
                for e in kept:
                    dem[e] += 1
        routed_edges = best_routing

    routes = [NetRoute(net_id=t.net_id, edges=tuple(routed_edges[i]))
              for i, t in enumerate(tasks)]
    cmap = build_congestion_map(graph)
    if cmap.overflow_edge_count:
        logger.warning("routing finished with %d overflowed edges", cmap.overflow_edge_count)
    return routes, cmap


def route(
    netlist: Netlist,
    placement: Placement,
    graph: RoutingGraph,
    params: RouteParams | None = None,
) -> tuple[list[NetRoute], CongestionMap]:
    """Route every net of a placed netlist; routes come in netlist order.

    Dangling (single-terminal) nets are reported with a warning, the one
    place that reports them; they route to an empty edge set without a
    search, and the ``first pass: N nets`` record counts them.
    Deterministic: the result depends only on the netlist, the placement,
    the graph and ``params``.
    """
    skipped = [net.id for net in netlist.nets if len(net.terminals) < 2]
    if skipped:
        logger.warning("skipping %d dangling net(s): %s", len(skipped), ", ".join(skipped[:5]))
    return route_terminal_sets(
        graph, [(net.id, terminal_gcells(net, netlist, placement, graph))
                for net in netlist.nets], params)


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
    # The ratio depends only on (demand, capacity), so each pair's row tail
    # is formatted once, and each column's head once per grid.
    tails: dict[tuple[int, int], str] = {}
    for d, dem, cap in grids:
        heads = [f"{layer},{gx}," for gx in range(dem.shape[1])]
        ratio = _edge_ratio(dem, cap).tolist()
        for gy, (vs, cs, rs) in enumerate(zip(dem.tolist(), cap.tolist(), ratio)):
            mid = f"{gy},{d},"
            for head, v, c, r in zip(heads, vs, cs, rs):
                tail = tails.get((v, c))
                if tail is None:
                    tail = tails[v, c] = f"{v},{c},{r:.6g}"
                lines.append(head + mid + tail)
    return "\n".join(lines) + "\n"
