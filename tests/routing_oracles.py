"""Independent reference algorithms used to check the router.

These deliberately re-derive graph traversal from the grid layout instead of
reusing the router's search code: hop-count BFS for shortest paths,
exhaustive simple-path enumeration for joint-capacity optima, and an
enumeration of layer walks for the fewest vias a path needs.
"""

from collections import Counter, deque


def neighbors(graph, u):
    X, Y, L = graph.x, graph.y, graph.layers
    XY = X * Y
    ux, uy, uz = u % X, (u // X) % Y, u // XY
    out = []
    if graph.layer_dirs[uz] == "h":
        if ux > 0:
            out.append((u - 1, graph.planar_edge(uz, ux - 1, uy)))
        if ux < X - 1:
            out.append((u + 1, graph.planar_edge(uz, ux, uy)))
    else:
        if uy > 0:
            out.append((u - X, graph.planar_edge(uz, ux, uy - 1)))
        if uy < Y - 1:
            out.append((u + X, graph.planar_edge(uz, ux, uy)))
    if uz > 0:
        out.append((u - XY, graph.via_edge(uz - 1, ux, uy)))
    if uz < L - 1:
        out.append((u + XY, graph.via_edge(uz, ux, uy)))
    return out


def traversable(graph, eid):
    return eid >= graph.via_base or graph.capacity[eid] > 0


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
