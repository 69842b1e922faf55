"""Property tests for the router and its lattice, on random small grids.

Edge ids, the congestion map, its CSV rows and the wire metrics must agree
on where every edge of the lattice lies, by the oracle's own id arithmetic.  The table-driven A* search and the overflow bookkeeping of the reroute loop
must give exactly what the frozen references in ``router_reference.py``
give; over runs of dozens of searches on one scratch state, where the two
searches' lower bounds may break ties between equal-cost paths
differently, the search must still return a walk of the lattice at the
reference's cost.  Searching the bound's tight tier first must return
the full search's path, with its search and heap-pop counts, on every
search.  The search's lower bound must be consistent and its via table
must match an enumeration of layer walks, and routed nets must be trees
whose usage accounts for every unit of demand.  On any layer stack, a net
searched in its own region fails exactly when a BFS over the whole die
finds no connected part that holds an entry of every terminal.  The
hypothesis profile is bounded and derandomised, so every run checks the
same examples.
"""

import contextlib
import copy
import logging
import math
import types
from unittest import mock

import pytest
import router_reference as ref
import routing_oracles as oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from routekit import fabric as fab
from routekit import globalroute as gr
from routekit import metrics

BOUNDED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def grids(draw, max_side=6, max_layers=4, max_cap=3):
    """A routing graph with a random layer stack.  Layers 1 and 2 run in
    different directions with capacity >= 1, so every node is reachable;
    the layers above take any direction and capacity, zero included.  No
    capacity exceeds ``max_cap``."""
    x = draw(st.integers(1, max_side))
    y = draw(st.integers(1, max_side))
    layers = draw(st.integers(2, max_layers))
    dirs = list(draw(st.sampled_from(["hv", "vh"])))
    dirs += draw(st.lists(st.sampled_from("hv"), min_size=layers - 2, max_size=layers - 2))
    caps = draw(st.lists(st.integers(1, max_cap), min_size=2, max_size=2))
    caps += draw(st.lists(st.integers(0, max_cap), min_size=layers - 2, max_size=layers - 2))
    via_cap = draw(st.integers(1, max_cap))
    return gr.RoutingGraph(x, y, 1, 100.0, tuple(dirs), tuple(caps), via_cap)


def node_sets(rnd, nnodes, count, max_size=3):
    return [rnd.sample(range(nnodes), rnd.randint(1, min(max_size, nnodes)))
            for _ in range(count)]


def pin_stack(rnd, graph):
    """Entry nodes of one gcell on a run of adjacent layers, like a pin with
    access on several metal layers."""
    z0 = rnd.randrange(graph.layers)
    z1 = rnd.randint(z0, graph.layers - 1)
    gx, gy = rnd.randrange(graph.x), rnd.randrange(graph.y)
    return [graph.node_id(gx, gy, z) for z in range(z0, z1 + 1)]


# --- the table-driven search against the frozen reference


def random_costs(graph, rnd, flat):
    """Random capacity (zero-capacity planar edges included), demand and
    integer history, or none of them (a first pass: all costs equal, so
    tie-breaks decide)."""
    for e in range(graph.num_edges):
        if e < graph.via_base and rnd.random() < 0.2:
            graph.capacity[e] = 0
        if not flat:
            graph.demand[e] = rnd.randint(0, 4)
            graph.history[e] = float(rnd.randint(0, 6))


def sparse_costs(graph, rnd):
    """Random capacity as ``random_costs`` gives it, then integer history on
    a tenth of the edges and a full track on another tenth, as a reroute
    pass finds them: most steps still cost exactly 1."""
    random_costs(graph, rnd, flat=True)
    for e in range(graph.num_edges):
        if rnd.random() < 0.1:
            graph.history[e] = float(rnd.randint(1, 6))
        if rnd.random() < 0.1:
            graph.demand[e] = graph.capacity[e]


def search_inputs(graph, rnd, stacked, calls):
    """The inputs of a run of searches between random node sets or pin
    stacks, each in a random region: (sources, targets, bounds, pres_fac)."""
    nnodes = graph.x * graph.y * graph.layers
    for k, region_seed in calls:
        if stacked:
            sources, target_list = pin_stack(rnd, graph), pin_stack(rnd, graph)
        else:
            sources, target_list = node_sets(rnd, nnodes, 2)
        x0 = region_seed % graph.x
        y0 = (region_seed // graph.x) % graph.y
        bounds = (x0, rnd.randint(x0, graph.x - 1), y0, rnd.randint(y0, graph.y - 1))
        yield sources, set(target_list), bounds, 1.5 ** k


def commit(graph, found):
    """Add a found path's demand, as the router does."""
    if found is not None:
        for e in found[0]:
            graph.demand[e] += 1


def search_pairs(graph, rnd, flat, stacked, calls):
    """Run the live search and the frozen reference side by side, one
    scratch state each, and yield each pair of results with the search's
    inputs; the live path is then committed."""
    random_costs(graph, rnd, flat)
    new_scratch = gr._Scratch(graph)
    ref_scratch = ref._Scratch(graph.x * graph.y * graph.layers)
    for args in search_inputs(graph, rnd, stacked, calls):
        got = gr._astar(graph, *args, new_scratch)
        want = ref._astar(graph, *args, ref_scratch)
        yield got, want, args
        commit(graph, got)


@settings(BOUNDED, max_examples=300)
@given(graph=grids(max_side=7, max_layers=5), rnd=st.randoms(use_true_random=False),
       flat=st.booleans(), stacked=st.booleans(),
       calls=st.lists(st.tuples(st.integers(0, 45), st.integers(0, 2**16)),
                      min_size=1, max_size=6))
def test_astar_matches_frozen_reference(graph, rnd, flat, stacked, calls):
    # Exact path equality holds over these runs of 1 to 6 searches per
    # scratch state only.  The live search's lower bound is not the
    # reference's, so on longer runs the two can break a tie between
    # equal-cost paths differently;
    # test_astar_keeps_reference_costs_over_many_searches checks those runs
    # for equal cost instead.
    for got, want, _ in search_pairs(graph, rnd, flat, stacked, calls):
        assert got == want


def path_cost(graph, edges, pres_fac):
    """A path's cost summed in path order, as the searches sum it."""
    cost = 0.0
    for e in edges:
        over = graph.demand[e] + 1 - graph.capacity[e]
        cost = cost + 1.0 + graph.history[e] + (pres_fac * over if over > 0 else 0.0)
    return cost


@settings(BOUNDED, max_examples=200)
@given(graph=grids(max_side=7, max_layers=5), rnd=st.randoms(use_true_random=False),
       flat=st.booleans(), stacked=st.booleans(),
       calls=st.lists(st.tuples(st.integers(0, 45), st.integers(0, 2**16)),
                      min_size=24, max_size=48))
def test_astar_keeps_reference_costs_over_many_searches(graph, rnd, flat, stacked, calls):
    # One scratch state serves dozens of searches, so nodes closed in one
    # search are reached again in later ones.  On runs this long the two
    # searches' different lower bounds can break a tie between equal-cost
    # paths differently, so each path is checked as a walk of the lattice
    # whose edges, decoded independently, join its nodes, at the
    # reference's cost.
    for got, want, (sources, targets, bounds, pres_fac) in search_pairs(
            graph, rnd, flat, stacked, calls):
        assert (got is None) == (want is None)
        if got is None:
            continue
        edges, nodes = got
        assert nodes[0] in sources and nodes[-1] in targets
        assert len(edges) == len(nodes) - 1
        for e, a, b in zip(edges, nodes, nodes[1:]):
            assert sorted(oracle.edge_endpoints(graph, e)) == sorted((a, b))
            assert e >= graph.via_base or graph.capacity[e] > 0
        xlo, xhi, ylo, yhi = bounds
        assert all(xlo <= u % graph.x <= xhi and ylo <= u // graph.x % graph.y <= yhi
                   for u in nodes)
        assert path_cost(graph, edges, pres_fac) == path_cost(graph, want[0], pres_fac)


# --- the search's tight tier against the full search


@pytest.fixture
def tier_spy(monkeypatch):
    """``search`` is the full search alone, while ``gr._astar`` counts in
    ``fallbacks`` the searches whose tight tier found no target."""
    spy = types.SimpleNamespace(search=gr._full_search, fallbacks=0)

    def counted(*args):
        spy.fallbacks += 1
        return spy.search(*args)

    monkeypatch.setattr(gr, "_full_search", counted)
    return spy


def test_tier_search_matches_full_search(tier_spy):
    # gr._astar on one scratch state and the full search alone on its twin,
    # over runs of dozens of searches on flat, random and sparse costs: the
    # same path, and the same search and heap-pop counts, after every
    # search.  Both kinds of search occur: some end in the tier and some
    # fall back to the full search.
    searches = 0

    @settings(BOUNDED, max_examples=200)
    @given(graph=grids(max_side=7, max_layers=5), rnd=st.randoms(use_true_random=False),
           costs=st.sampled_from(["flat", "random", "sparse"]), stacked=st.booleans(),
           calls=st.lists(st.tuples(st.integers(0, 45), st.integers(0, 2**16)),
                          min_size=24, max_size=48))
    def check(graph, rnd, costs, stacked, calls):
        nonlocal searches
        if costs == "sparse":
            sparse_costs(graph, rnd)
        else:
            random_costs(graph, rnd, flat=costs == "flat")
        tiered, full = gr._Scratch(graph), gr._Scratch(graph)
        for args in search_inputs(graph, rnd, stacked, calls):
            got = gr._astar(graph, *args, tiered)
            assert got == tier_spy.search(graph, *args, full)
            assert (tiered.gen, tiered.pops) == (full.gen, full.pops)
            searches += 1
            commit(graph, got)

    check()
    assert 0 < tier_spy.fallbacks < searches


def test_tier_dead_ends_at_a_bound_zero_node_that_is_no_target(tier_spy):
    # Targets at x 0 and 2 of row 0 on the 'h' layer: the node between
    # them lies in the targets' box with bound 0.  The tight walk from
    # (1, 2) down the 'v' layer and its via ends there, so the search falls
    # back and finds a path one step above the bound.
    graph = gr.RoutingGraph(3, 3, 1, 100.0, ("h", "v"), (2, 2), 4)
    source = graph.node_id(1, 2, 1)
    targets = {graph.node_id(0, 0, 0), graph.node_id(2, 0, 0)}
    args = ([source], targets, (0, 2, 0, 2), 1.0)
    tiered, full = gr._Scratch(graph), gr._Scratch(graph)
    edges, nodes = gr._astar(graph, *args, tiered)
    assert tier_spy.fallbacks == 1
    assert (edges, nodes) == tier_spy.search(graph, *args, full)
    assert (tiered.gen, tiered.pops) == (full.gen, full.pops)
    assert search_bound(graph, targets)[source] == 3 and len(edges) == 4


@pytest.mark.parametrize("demand, history, fallbacks", [(1, 0.0, 0), (2, 0.0, 1), (1, 1.0, 1)])
def test_tier_step_blocked_by_a_full_edge(tier_spy, demand, history, fallbacks):
    # The one route from x 0 to x 2 crosses an edge of capacity 2: with a
    # free track and no history the tier finds it; with demand == capacity,
    # or with history, the step costs more than 1, so the full search finds
    # the route at its higher cost.
    graph = gr.RoutingGraph(3, 1, 1, 100.0, ("h",), (2,), 1)
    graph.demand[oracle.planar_id(graph, 0, 1, 0)] = demand
    graph.history[oracle.planar_id(graph, 0, 1, 0)] = history
    args = ([graph.node_id(0, 0, 0)], {graph.node_id(2, 0, 0)}, (0, 2, 0, 0), 1.0)
    tiered, full = gr._Scratch(graph), gr._Scratch(graph)
    found = gr._astar(graph, *args, tiered)
    assert tier_spy.fallbacks == fallbacks
    assert found == tier_spy.search(graph, *args, full) == ([0, 1], [0, 1, 2])
    assert (tiered.gen, tiered.pops) == (full.gen, full.pops)


# --- the search's lower bound


@settings(BOUNDED, max_examples=200)
@given(dirs=st.lists(st.sampled_from("hv"), min_size=1, max_size=13))
def test_via_bound_table_matches_walk_enumeration(dirs):
    # Single-direction stacks included: a need that no layer meets gives
    # NO_WALK.
    n = len(dirs)
    table = gr._via_bound_table(tuple(dirs))
    walks = {(z, need_h, need_v): oracle.fewest_vias(dirs, z, need_h, need_v)
             for z in range(n) for need_h in (0, 1) for need_v in (0, 1)}
    for lo in range(n):
        for hi in range(n):
            row = table[lo * n + hi]
            if hi < lo:
                assert row == []
                continue
            for z in range(n):
                for need_h in (0, 1):
                    for need_v in (0, 1):
                        ends = walks[z, need_h, need_v][lo:hi + 1]
                        want = min((s for s in ends if s is not None), default=gr.NO_WALK)
                        assert row[4 * z + 2 * need_h + need_v] == want


def search_bound(graph, targets):
    """The A* lower bound toward ``targets``, per node id."""
    hx, hy, fx, fy, vb = gr._heuristic_tables(graph, targets, gr._Scratch(graph))
    return [hx[x] + hy[y] + vb[4 * z + fx[x] + fy[y]]
            for z in range(graph.layers) for y in range(graph.y) for x in range(graph.x)]


@settings(BOUNDED, max_examples=300)
@given(graph=grids(max_side=7, max_layers=8), rnd=st.randoms(use_true_random=False),
       stacked=st.booleans())
def test_search_bound_is_consistent_and_zero_on_targets(graph, rnd, stacked):
    # Every edge costs at least 1, so a consistent bound rises by at most 1
    # across an edge, either way; then A* returns a cheapest path.
    nnodes = graph.x * graph.y * graph.layers
    targets = set(pin_stack(rnd, graph) if stacked else node_sets(rnd, nnodes, 1, 4)[0])
    h = search_bound(graph, targets)
    assert all(h[t] == 0 for t in targets)
    for e in range(graph.num_edges):
        a, b = oracle.edge_endpoints(graph, e)
        assert h[a] <= 1 + h[b] and h[b] <= 1 + h[a]
    for u in rnd.sample(range(nnodes), min(8, nnodes)):
        hops = oracle.bfs_hops(graph, [u], targets)
        assert hops is not None and h[u] <= hops


# --- routed nets


def route_tree_nodes(graph, edges):
    """Nodes of a route's edges, after checking that they form a tree."""
    assert len(set(edges)) == len(edges)
    adj: dict[int, list[int]] = {}
    for e in edges:
        a, b = oracle.edge_endpoints(graph, e)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    assert len(edges) == len(adj) - 1
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == set(adj)
    return seen


@settings(BOUNDED, max_examples=120)
@given(graph=grids(), rnd=st.randoms(use_true_random=False),
       nnets=st.integers(1, 14), seed_overflow=st.booleans(),
       max_iters=st.integers(0, 12))
def test_routes_are_trees_and_account_for_demand(graph, rnd, nnets, seed_overflow,
                                                 max_iters):
    nnodes = graph.x * graph.y * graph.layers
    if seed_overflow:
        # demand already on the graph, some of it above capacity
        for e in rnd.sample(range(graph.num_edges), min(4, graph.num_edges)):
            graph.demand[e] = graph.capacity[e] + rnd.randint(0, 2)
    initial = list(graph.demand)
    nets = [(f"n{i}", node_sets(rnd, nnodes, rnd.randint(2, 4))) for i in range(nnets)]
    params = gr.RouteParams(max_iters=max_iters)
    ref_graph = copy.deepcopy(graph)

    routes, cmap = gr.route_terminal_sets(graph, nets, params)

    ref_routes, _ = ref.route_terminal_sets(ref_graph, nets, params)
    assert routes == ref_routes
    assert graph.demand == ref_graph.demand
    assert graph.history == ref_graph.history

    assert [r.net_id for r in routes] == [nid for nid, _ in nets]
    usage = list(initial)
    for route, (_, entries) in zip(routes, nets):
        if route.edges:
            nodes = route_tree_nodes(graph, route.edges)
            assert all(nodes & set(entry) for entry in entries)
        else:
            # colocated terminals: one node is an entry of every terminal
            assert set.intersection(*(set(entry) for entry in entries))
        for e in route.edges:
            usage[e] += 1
    assert graph.demand == usage
    overflowed = sum(d > c for d, c in zip(graph.demand, graph.capacity))
    assert cmap.overflow_edge_count == overflowed
    assert cmap.congested == (overflowed > 0)


@contextlib.contextmanager
def pass_records(module, sink):
    """Calls ``sink`` with the args of each ``reroute iteration`` DEBUG
    record of ``module``'s logger while the block runs."""
    handler = logging.Handler(logging.DEBUG)
    handler.addFilter(lambda record: record.msg.startswith("reroute iteration"))
    handler.emit = lambda record: sink(record.args)
    logger = logging.getLogger(module.__name__)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def test_negotiation_stays_exact_under_heavy_rerouting():
    # Tight grids (capacities 1-2) and 10-30 nets make the router rip up and
    # reroute for many passes.  Each pass picks its nets from an index of
    # edge -> users kept across passes; the routes, demand, history and the
    # (overflowed edges, nets) of every pass must equal the frozen
    # reference's, which rescans every net each pass.  A spy on
    # ``_route_one`` replays the routing to check that some examples run at
    # least 5 passes and that some rip up a net from two overflowed edges at
    # once.  About 5 s on a 2-core host.
    passes_seen = []
    multi_edge_rips = []

    @settings(BOUNDED, max_examples=100)
    @given(graph=grids(max_cap=2), rnd=st.randoms(use_true_random=False),
           nnets=st.integers(10, 30), seed_overflow=st.booleans(),
           max_iters=st.integers(0, 40))
    def check(graph, rnd, nnets, seed_overflow, max_iters):
        nnodes = graph.x * graph.y * graph.layers
        if seed_overflow:
            for e in rnd.sample(range(graph.num_edges), min(4, graph.num_edges)):
                graph.demand[e] = graph.capacity[e] + rnd.randint(0, 2)
        initial = list(graph.demand)
        nets = [(f"n{i}", node_sets(rnd, nnodes, rnd.randint(2, 4))) for i in range(nnets)]
        params = gr.RouteParams(max_iters=max_iters)
        ref_graph = copy.deepcopy(graph)

        events = []  # ("pass", args) from the DEBUG records, ("route", net, edges)
        route_one = gr._route_one

        def spy(graph, task, pres_fac, scratch):
            edges = route_one(graph, task, pres_fac, scratch)
            events.append(("route", task.net_id, edges))
            return edges

        with pass_records(gr, lambda args: events.append(("pass", args))), \
                mock.patch.object(gr, "_route_one", spy):
            routes, _ = gr.route_terminal_sets(graph, nets, params)
        ref_passes = []
        with pass_records(ref, ref_passes.append):
            ref_routes, _ = ref.route_terminal_sets(ref_graph, nets, params)

        assert routes == ref_routes
        assert graph.demand == ref_graph.demand
        assert graph.history == ref_graph.history
        live_passes = [event[1] for event in events if event[0] == "pass"]
        assert [args[:3] for args in live_passes] == ref_passes

        # Replay: at each pass record the routing is still that of the pass
        # before, so its overflowed edges are the pass's, and the nets routed
        # after the record are the ones it ripped up.
        held: dict[str, list[int]] = {}
        over: set[int] = set()
        for event in events:
            if event[0] == "pass":
                demand = list(initial)
                for edges in held.values():
                    for e in edges:
                        demand[e] += 1
                over = {e for e, (d, c) in enumerate(zip(demand, graph.capacity)) if d > c}
                assert len(over) == event[1][1]
            else:
                _, net_id, edges = event
                if over:
                    multi_edge_rips.append(len(over.intersection(held[net_id])) >= 2)
                held[net_id] = edges
        passes_seen.append(len(live_passes))

    check()
    assert max(passes_seen) >= 5
    assert any(multi_edge_rips)


@settings(BOUNDED, max_examples=120)
@given(graph=grids(), rnd=st.randoms(use_true_random=False), nnets=st.integers(2, 14),
       seed_overflow=st.booleans())
def test_one_more_reroute_pass_never_returns_more_overflow(graph, rnd, nnets, seed_overflow):
    # The router returns the routing of its best pass, and the passes of a
    # run with max_iters m are the first passes of one with m + 1, so
    # overflow at m + 1 is at most overflow at m.
    nnodes = graph.x * graph.y * graph.layers
    if seed_overflow:
        for e in rnd.sample(range(graph.num_edges), min(4, graph.num_edges)):
            graph.demand[e] = graph.capacity[e] + rnd.randint(0, 2)
    nets = [(f"n{i}", node_sets(rnd, nnodes, rnd.randint(2, 4))) for i in range(nnets)]
    overflow = [gr.route_terminal_sets(copy.deepcopy(graph), nets,
                                       gr.RouteParams(max_iters=m))[1].overflow_edge_count
                for m in range(8)]
    assert overflow == sorted(overflow, reverse=True)


@st.composite
def any_stacks(draw, max_side=6, max_layers=4):
    """A routing graph whose stack may leave nodes unreachable: any layer
    count from 1, any direction per layer (one-direction stacks included)
    and any capacity per layer, zero included."""
    x = draw(st.integers(1, max_side))
    y = draw(st.integers(1, max_side))
    layers = draw(st.integers(1, max_layers))
    dirs = draw(st.lists(st.sampled_from("hv"), min_size=layers, max_size=layers))
    caps = draw(st.lists(st.integers(0, 2), min_size=layers, max_size=layers))
    return gr.RoutingGraph(x, y, 1, 100.0, tuple(dirs), tuple(caps), draw(st.integers(1, 3)))


@settings(BOUNDED, max_examples=800)
@given(graph=any_stacks(), rnd=st.randoms(use_true_random=False), nnets=st.integers(1, 6),
       max_iters=st.integers(0, 3), stacked=st.booleans())
def test_a_net_fails_exactly_when_a_terminal_is_unreachable_on_the_die(graph, rnd, nnets,
                                                                       max_iters, stacked):
    # Each net is searched inside its terminals' box widened by BBOX_MARGIN
    # only, and a failed search is final; a net has a route exactly when
    # one connected part of the whole die, labelled by the BFS oracle,
    # holds an entry of every terminal.  A terminal's entries are one
    # gcell's run of layers, as a pin's are, so that vias join them, or
    # random nodes, which may lie in different parts.
    nnodes = graph.x * graph.y * graph.layers
    nets = [(f"n{i}", [pin_stack(rnd, graph) for _ in range(rnd.randint(2, 4))] if stacked
             else node_sets(rnd, nnodes, rnd.randint(2, 4)))
            for i in range(nnets)]
    part = oracle.components(graph)
    unroutable = {nid for nid, entries in nets
                  if not set.intersection(*({part[u] for u in entry} for entry in entries))}
    if unroutable:
        with pytest.raises(gr.RoutingError, match="no route exists") as err:
            gr.route_terminal_sets(graph, nets, gr.RouteParams(max_iters=max_iters))
        assert str(err.value).split("'")[1] in unroutable
        return
    routes, _ = gr.route_terminal_sets(graph, nets, gr.RouteParams(max_iters=max_iters))
    for route, (_, entries) in zip(routes, nets):
        nodes = route_tree_nodes(graph, route.edges) if route.edges else set(entries[0])
        assert all(nodes & set(entry) for entry in entries)


# --- the lattice's edge blocks


@settings(BOUNDED, max_examples=200)
@given(graph=grids(), data=st.data())
def test_lattice_edge_ids_map_and_metrics_agree(graph, data):
    # Each edge's (kind, layer, gx, gy), from the oracle's own id arithmetic.
    site = {}
    pplus = gr._Scratch(graph).pplus
    for kind, li, gx, gy, e in oracle.edge_sites(graph):
        if kind == "via":
            assert graph.via_base + graph.node_id(gx, gy, li) == e
        else:
            assert pplus[graph.node_id(gx, gy, li)] == e
        assert e not in site
        site[e] = kind, li, gx, gy
        graph.demand[e] = e + 1
    assert sorted(site) == list(range(graph.num_edges))

    cmap = gr.build_congestion_map(graph)
    assert sum(d.size for d in cmap.layer_demand) + cmap.via_demand.size == graph.num_edges
    for e, (kind, li, gx, gy) in site.items():
        if kind == "via":
            dem, cap = cmap.via_demand[li], cmap.via_capacity[li]
        else:
            dem, cap = cmap.layer_demand[li], cmap.layer_capacity[li]
        assert dem[gy, gx] == e + 1
        assert cap[gy, gx] == graph.capacity[e]

    caps = data.draw(st.lists(st.floats(0.01, 5.0), min_size=graph.layers,
                              max_size=graph.layers))
    fabric = fab.FabricSpec(
        kind=fab.FabricKind.PLANAR_2D,
        layers=tuple(fab.RoutingLayer(li + 1, d, fab.DEFAULT_EDGE_CAPACITY, c)
                     for li, (d, c) in enumerate(zip(graph.layer_dirs, caps))),
        supply_voltage=0.8, site_dim_nm=graph.site_dim_nm, access_layer_ids=(1,),
    )
    edge_lists = data.draw(st.lists(
        st.lists(st.integers(0, graph.num_edges - 1), max_size=12), max_size=4))
    routes = [gr.NetRoute(f"n{i}", tuple(edges)) for i, edges in enumerate(edge_lists)]
    planar = 0
    cap_ff = 0.0
    for route in routes:
        for e in route.edges:
            kind, li, _, _ = site[e]
            if kind != "via":
                planar += 1
                cap_ff += graph.gcell_um * caps[li]
    power = metrics.PowerParams()
    v = power.supply_voltage
    expected = power.switching_activity * power.clock_freq_ghz * v * v * cap_ff * 1e-3
    assert metrics.wire_power_mw(routes, graph, fabric, power) == expected
    assert metrics.total_wirelength_mm(routes, graph) == planar * graph.gcell_um / 1000.0


@settings(BOUNDED, max_examples=200)
@given(graph=any_stacks(), rnd=st.randoms(use_true_random=False))
def test_congestion_csv_rows_match_a_per_row_formatter(graph, rnd):
    # congestion_csv formats each (demand, capacity) pair's row tail once;
    # on any stack, zero-capacity layers included, every row must read as
    # if formatted on its own from the edge the oracle's ids name
    graph.demand[:] = [rnd.choice([0, 0, 1, 2, 3, 5]) for _ in graph.demand]
    cmap = gr.build_congestion_map(graph)
    rows = {layer: ["layer,x,y,dir,demand,capacity,ratio"]
            for layer in range(1, graph.layers + 1)}
    for kind, li, gx, gy, e in oracle.edge_sites(graph):
        d, c = graph.demand[e], graph.capacity[e]
        r = 0.0 if d == 0 else d / c if c else math.inf
        rows[li + 1].append(f"{li + 1},{gx},{gy},{kind},{d},{c},{r:.6g}")
    for layer, lines in rows.items():
        assert gr.congestion_csv(cmap, layer) == "\n".join(lines) + "\n"
