"""Independent reference algorithms used to check the router.

These deliberately re-derive edge ids and graph traversal from the grid's
documented layout, reading only its size, layer directions and capacities,
instead of reusing the router's id helpers or search code: hop-count BFS
for shortest paths, exhaustive simple-path enumeration for joint-capacity
optima, and an enumeration of layer walks for the fewest vias a path needs.
"""

import bisect
import functools
from collections import Counter, deque


@functools.cache
def _layout(x, y, dirs):
    """First planar edge id per layer and the first via edge id, from the
    documented packing: an 'h' layer holds (x-1)*y edges and a 'v' layer
    x*(y-1), layer by layer, then one via per gcell and layer pair."""
    layer_start = []
    eid = 0
    for d in dirs:
        layer_start.append(eid)
        eid += (x - 1) * y if d == "h" else x * (y - 1)
    return layer_start, eid


def _via_start(graph):
    return _layout(graph.x, graph.y, graph.layer_dirs)[1]


def planar_id(graph, layer0, gx, gy):
    """The edge from (gx, gy) toward +x on an 'h' layer, +y on a 'v' layer."""
    width = graph.x - 1 if graph.layer_dirs[layer0] == "h" else graph.x
    return _layout(graph.x, graph.y, graph.layer_dirs)[0][layer0] + gy * width + gx


def via_id(graph, layer0, gx, gy):
    """The via between layers layer0 and layer0+1 at (gx, gy)."""
    return _via_start(graph) + (layer0 * graph.y + gy) * graph.x + gx


def edge_sites(graph):
    """Every edge of the lattice as (kind, layer0, gx, gy, id), kind being
    'h', 'v' or 'via'; planar edges first, layer by layer."""
    X, Y = graph.x, graph.y
    for li, d in enumerate(graph.layer_dirs):
        for gy in range(Y - (d == "v")):
            for gx in range(X - (d == "h")):
                yield d, li, gx, gy, planar_id(graph, li, gx, gy)
    for li in range(len(graph.layer_dirs) - 1):
        for gy in range(Y):
            for gx in range(X):
                yield "via", li, gx, gy, via_id(graph, li, gx, gy)


def edge_endpoints(graph, eid):
    """The two node ids that edge ``eid`` joins, lower first."""
    X, XY = graph.x, graph.x * graph.y
    layer_start, via_start = _layout(X, graph.y, graph.layer_dirs)
    if eid >= via_start:
        lower = eid - via_start  # the node id of the lower end
        return lower, lower + XY
    li = bisect.bisect_right(layer_start, eid) - 1
    if graph.layer_dirs[li] == "h":
        gy, gx = divmod(eid - layer_start[li], X - 1)
        a = li * XY + gy * X + gx
        return a, a + 1
    a = li * XY + eid - layer_start[li]
    return a, a + X


def neighbors(graph, u):
    X, Y, L = graph.x, graph.y, len(graph.layer_dirs)
    XY = X * Y
    ux, uy, uz = u % X, (u // X) % Y, u // XY
    out = []
    if graph.layer_dirs[uz] == "h":
        if ux > 0:
            out.append((u - 1, planar_id(graph, uz, ux - 1, uy)))
        if ux < X - 1:
            out.append((u + 1, planar_id(graph, uz, ux, uy)))
    else:
        if uy > 0:
            out.append((u - X, planar_id(graph, uz, ux, uy - 1)))
        if uy < Y - 1:
            out.append((u + X, planar_id(graph, uz, ux, uy)))
    if uz > 0:
        out.append((u - XY, via_id(graph, uz - 1, ux, uy)))
    if uz < L - 1:
        out.append((u + XY, via_id(graph, uz, ux, uy)))
    return out


def traversable(graph, eid):
    return eid >= _via_start(graph) or graph.capacity[eid] > 0


def bfs_hops(graph, sources, targets):
    """Minimum edge count from any source to any target, or None."""
    dist = {s: 0 for s in sources}
    q = deque(sources)
    tset = set(targets)
    while q:
        u = q.popleft()
        if u in tset:
            return dist[u]
        for v, e in neighbors(graph, u):
            if v not in dist and traversable(graph, e):
                dist[v] = dist[u] + 1
                q.append(v)
    return None


def components(graph):
    """A connected-part label per node id, by BFS over traversable edges."""
    label = [None] * (graph.x * graph.y * graph.layers)
    for start in range(len(label)):
        if label[start] is None:
            label[start] = start
            q = deque([start])
            while q:
                for v, e in neighbors(graph, q.popleft()):
                    if label[v] is None and traversable(graph, e):
                        label[v] = start
                        q.append(v)
    return label


def simple_paths(graph, src, dst, max_len):
    """All simple paths (as edge tuples) from src to dst up to max_len edges."""
    out = []
    edges: list[int] = []

    def dfs(u, visited):
        if u == dst:
            out.append(tuple(edges))
            return
        if len(edges) >= max_len:
            return
        for v, e in neighbors(graph, u):
            if v not in visited and traversable(graph, e):
                visited.add(v)
                edges.append(e)
                dfs(v, visited)
                edges.pop()
                visited.remove(v)

    dfs(src, {src})
    return out


def best_joint_cost(graph, paths_a, paths_b):
    """Minimum total edge count over capacity-feasible path pairs."""
    best = None
    min_b = min((len(p) for p in paths_b), default=None)
    if min_b is None:
        return None
    for pa in paths_a:
        if best is not None and len(pa) + min_b >= best:
            continue
        ca = Counter(pa)
        for pb in paths_b:
            total = len(pa) + len(pb)
            if best is not None and total >= best:
                continue
            joint = ca + Counter(pb)
            if all(joint[e] <= graph.capacity[e] for e in joint):
                best = total
    return best


def fewest_vias(dirs, z, need_h, need_v):
    """Per end layer ``e``, the fewest via steps of a walk over the layer
    stack ``dirs`` from layer ``z`` to ``e`` that visits an 'h' layer if
    ``need_h`` and a 'v' layer if ``need_v``; None where no walk does.

    A walk visits exactly the layers of a run ``a..b`` around ``z`` and
    ends at some ``e`` in it; the cheapest walk of that shape sweeps to one
    end of the run, then to the other, then back to ``e``.  Every run and
    end is tried.
    """
    n = len(dirs)
    best = [None] * n
    for a in range(z + 1):
        for b in range(z, n):
            run = dirs[a:b + 1]
            if (need_h and "h" not in run) or (need_v and "v" not in run):
                continue
            for e in range(a, b + 1):
                steps = (b - a) + min((z - a) + (b - e), (b - z) + (e - a))
                if best[e] is None or steps < best[e]:
                    best[e] = steps
    return best
