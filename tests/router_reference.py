"""Frozen reference copies of the router's A* search and reroute loop.

``_Scratch`` and ``_astar`` below are verbatim copies of the search as it
stood before node tables, per-search heuristic lists and unrolled moves
replaced the per-expansion candidate tuples.  The table-driven search in
``routekit.globalroute`` bounds its search more tightly than this one, so
the two can break ties between equal-cost paths differently.  What holds is
checked by two tests.  ``test_astar_matches_frozen_reference``: over runs
of 1 to 6 searches per scratch state the live search returns exactly what
this one returns, the same edges and nodes in the same order.
``test_astar_keeps_reference_costs_over_many_searches``: over longer runs
it returns a path of the same cost.

``route_terminal_sets`` is a copy of the negotiation loop as it stood before
it kept its set of overflowed edges current: it rescans every edge on every
iteration.  It calls the live helpers (``_route_one`` and the table-driven
search), so comparing it with ``routekit.globalroute.route_terminal_sets``
checks the overflow bookkeeping alone.  The schedule values it once read
from ``RouteParams`` (present factor 1.0 growing 1.5x, history increment
1.0, bounding-box margin 2, a stop once 384 nets have been rerouted since
the last pass that left fewer overflowed edges than any before it, whose
routing is then put back if it beats the last pass's) are written in as
literals, so that the copy does not follow the live constants.  Do not edit
or optimise this file.
"""

import heapq
import logging

from routekit import globalroute as gr
from routekit.globalroute import RoutingGraph

logger = logging.getLogger(__name__)


class _Scratch:
    """Per-search node state reused across A* calls via generation stamps."""

    __slots__ = ("g", "stamp", "closed_stamp", "parent_node", "parent_edge", "gen")

    def __init__(self, nnodes: int):
        self.g = [0.0] * nnodes
        self.stamp = [0] * nnodes
        self.closed_stamp = [0] * nnodes
        self.parent_node = [-1] * nnodes
        self.parent_edge = [-1] * nnodes
        self.gen = 0


def _astar(graph: RoutingGraph, sources, targets: set[int],
           bounds: tuple[int, int, int, int], pres_fac: float, scratch: _Scratch):
    """Cheapest path from any source to any target inside ``bounds``.

    Edge cost is 1 + history + pres_fac * (overuse if this net were added);
    zero-capacity planar edges are impassable.  Ties break on ascending node
    id, i.e. lexicographic (layer, y, x).  Returns (edges, nodes) or None.
    """
    x_dim, y_dim, layers = graph.x, graph.y, graph.layers
    xy = x_dim * y_dim
    xlo, xhi, ylo, yhi = bounds
    cap = graph.capacity
    dem = graph.demand
    hist = graph.history
    dirs = graph.layer_dirs
    pbase = graph.pbase
    via_base = graph.via_base

    scratch.gen += 1
    gen = scratch.gen
    gs = scratch.g
    stamp = scratch.stamp
    closed = scratch.closed_stamp
    pnode = scratch.parent_node
    pedge = scratch.parent_edge

    # Bounding box of the target set: distance-to-box is admissible for any
    # number of targets and collapses to Manhattan distance for one target.
    txlo = tylo = tzlo = 1 << 60
    txhi = tyhi = tzhi = -1
    for t in targets:
        tx = t % x_dim
        ty = (t // x_dim) % y_dim
        tz = t // xy
        if tx < txlo:
            txlo = tx
        if tx > txhi:
            txhi = tx
        if ty < tylo:
            tylo = ty
        if ty > tyhi:
            tyhi = ty
        if tz < tzlo:
            tzlo = tz
        if tz > tzhi:
            tzhi = tz

    heap: list[tuple[float, int]] = []
    for s in sources:
        sx = s % x_dim
        sy = (s // x_dim) % y_dim
        if not (xlo <= sx <= xhi and ylo <= sy <= yhi):
            continue
        if stamp[s] != gen:
            stamp[s] = gen
            gs[s] = 0.0
            pnode[s] = -1
            sz = s // xy
            h0 = ((txlo - sx if sx < txlo else (sx - txhi if sx > txhi else 0))
                  + (tylo - sy if sy < tylo else (sy - tyhi if sy > tyhi else 0))
                  + (tzlo - sz if sz < tzlo else (sz - tzhi if sz > tzhi else 0)))
            heapq.heappush(heap, (float(h0), s))

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
        gu = gs[u]
        ux = u % x_dim
        uy = (u // x_dim) % y_dim
        uz = u // xy

        # Candidate (neighbor, edge, x, y, z) moves; planar moves respect the
        # layer direction and region bounds, vias are always present.
        cands = []
        if dirs[uz] == "h":
            row = pbase[uz] + uy * (x_dim - 1)
            if ux > xlo:
                cands.append((u - 1, row + ux - 1, ux - 1, uy, uz))
            if ux < xhi:
                cands.append((u + 1, row + ux, ux + 1, uy, uz))
        else:
            col = pbase[uz] + ux
            if uy > ylo:
                cands.append((u - x_dim, col + (uy - 1) * x_dim, ux, uy - 1, uz))
            if uy < yhi:
                cands.append((u + x_dim, col + uy * x_dim, ux, uy + 1, uz))
        via_at = via_base + uy * x_dim + ux
        if uz > 0:
            cands.append((u - xy, via_at + (uz - 1) * xy, ux, uy, uz - 1))
        if uz < layers - 1:
            cands.append((u + xy, via_at + uz * xy, ux, uy, uz + 1))

        for v, eid, vx, vy, vz in cands:
            if closed[v] == gen:
                continue
            c = cap[eid]
            if c <= 0 and eid < via_base:
                continue
            over = dem[eid] + 1 - c
            ng = gu + 1.0 + hist[eid] + (pres_fac * over if over > 0 else 0.0)
            if stamp[v] == gen and gs[v] <= ng:
                continue
            stamp[v] = gen
            gs[v] = ng
            pnode[v] = u
            pedge[v] = eid
            h = ((txlo - vx if vx < txlo else (vx - txhi if vx > txhi else 0))
                 + (tylo - vy if vy < tylo else (vy - tyhi if vy > tyhi else 0))
                 + (tzlo - vz if vz < tzlo else (vz - tzhi if vz > tzhi else 0)))
            push(heap, (ng + h, v))
    return None


def route_terminal_sets(
    graph: gr.RoutingGraph,
    nets: list[tuple[str, list[list[int]]]],
    params: gr.RouteParams | None = None,
) -> tuple[list[gr.NetRoute], gr.CongestionMap]:
    """Route nets given raw terminal entry-node sets.

    ``nets`` holds (net_id, [entry nodes per terminal]); every entry list
    must be non-empty.  Returns routes in input order plus the final
    congestion map.  Zero overflow on return means demand <= capacity on
    every edge.
    """
    params = params or gr.RouteParams()
    x_dim = graph.x
    y_dim = graph.y
    margin = 2

    tasks: list[gr._NetTask] = []
    for net_id, entries in nets:
        if not entries or any(not e for e in entries):
            raise gr.RoutingError(f"net {net_id!r}: empty terminal entry set")
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
        task = gr._NetTask(
            net_id=net_id, entries=entries,
            bounds=(max(0, bbox[0] - margin), min(x_dim - 1, bbox[1] + margin),
                    max(0, bbox[2] - margin), min(y_dim - 1, bbox[3] + margin)),
            hp=(bbox[1] - bbox[0]) + (bbox[3] - bbox[2]),
        )
        if len(entries) > 1:
            task.order = gr._prim_order(reps)
        tasks.append(task)

    order = sorted(range(len(tasks)), key=lambda i: (-tasks[i].hp, tasks[i].net_id))
    routed_edges: dict[int, list[int]] = {}
    dem = graph.demand
    pres_fac = 1.0

    scratch = gr._Scratch(graph)
    best_overflow = None
    best_routing: dict[int, list[int]] = {}
    fruitless = 0
    pending = list(order)
    for iteration in range(params.max_iters + 1):
        if iteration > 0:
            over = [e for e in range(graph.num_edges) if dem[e] > graph.capacity[e]]
            if not over:
                break
            if best_overflow is None or len(over) < best_overflow:
                best_overflow = len(over)
                best_routing = dict(routed_edges)
                fruitless = 0
            over_set = set(over)
            users: dict[int, list[int]] = {e: [] for e in over}
            for i in order:
                edges = routed_edges.get(i)
                if edges is None:
                    continue
                for e in edges:
                    if e in over_set:
                        users[e].append(i)
            # Per overflowed edge, only the excess (demand - capacity) users
            # reroute, lowest-priority first.  Earlier-routed (larger) nets
            # keep their claim; history keeps pressure on edges that stay
            # contested.
            ripped = set()
            for e in over:
                need = dem[e] - graph.capacity[e]
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
            if fruitless >= 384:
                logger.debug("overflow stagnant: %d nets rerouted, stopping", fruitless)
                break
            fruitless += len(pending)
            for e in over:
                graph.history[e] += 1.0 * (dem[e] - graph.capacity[e])
            for i in pending:
                for e in routed_edges.pop(i):
                    dem[e] -= 1
            pres_fac *= 1.5
            logger.debug(
                "reroute iteration %d: %d overflowed edges, %d nets",
                iteration, len(over), len(pending),
            )
        # Route in order, committing each net's demand before the next one.
        for i in pending:
            task = tasks[i]
            edges = gr._route_one(graph, task, pres_fac, scratch)
            if edges is None:
                raise gr.RoutingError(f"net {task.net_id!r}: no route exists (isolated terminal gcell)")
            for e in edges:
                dem[e] += 1
            routed_edges[i] = edges
    last_overflow = sum(1 for e in range(graph.num_edges) if dem[e] > graph.capacity[e])
    if best_overflow is not None and best_overflow < last_overflow:
        for edges in routed_edges.values():
            for e in edges:
                dem[e] -= 1
        for edges in best_routing.values():
            for e in edges:
                dem[e] += 1
        routed_edges = best_routing

    routes = [gr.NetRoute(net_id=t.net_id, edges=tuple(routed_edges.get(i, ())))
              for i, t in enumerate(tasks)]
    cmap = gr.build_congestion_map(graph)
    if cmap.overflow_edge_count:
        logger.warning("routing finished with %d overflowed edges", cmap.overflow_edge_count)
    return routes, cmap
