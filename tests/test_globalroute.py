import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

import routing_oracles as oracle
from conftest import NAND3_ACCESS_COUNTS, tiny_netlist
from routekit import cli
from routekit import fabric as fab
from routekit import flow
from routekit import globalroute as gr
from routekit import netlist as nl
from routekit import placement as pl
from routekit.placement import Die


def small_graph(x=4, y=4, layers=2, dirs=("h", "v"), caps=(2, 2), via_cap=4):
    return gr.RoutingGraph(x, y, 1, 100.0, tuple(dirs), tuple(caps), via_cap)


def test_build_grid_dimensions():
    fabric = fab.builtin_fabric("2d")
    die = Die(10, 10, fabric.site_dim_nm, 0.6)
    graph = gr.build_grid(fabric, die, 5)
    assert (graph.x, graph.y, graph.layers) == (2, 2, 8)


def test_build_grid_rounds_up_partial_gcells():
    fabric = fab.builtin_fabric("2d")
    die = Die(11, 9, fabric.site_dim_nm, 0.6)
    graph = gr.build_grid(fabric, die, 5)
    assert (graph.x, graph.y) == (3, 2)


def test_s3dc_via_stacks_are_single_signal():
    fabric = fab.builtin_fabric("s3dc")
    graph = gr.build_grid(fabric, Die(30, 30, fabric.site_dim_nm, 0.6), 3)
    via_caps = {graph.capacity[e] for e in range(graph.via_base, graph.num_edges)}
    assert via_caps == {1}


def test_planar_via_capacity_default():
    fabric = fab.builtin_fabric("2d")
    graph = gr.build_grid(fabric, Die(30, 30, fabric.site_dim_nm, 0.6), 3)
    via_caps = {graph.capacity[e] for e in range(graph.via_base, graph.num_edges)}
    assert via_caps == {4}


def test_edge_info_roundtrip():
    # the router's edge ids are the oracle's, which it derives from the
    # documented layout alone, and they number the edges 0..num_edges-1
    graph = small_graph(x=5, y=3, layers=3, dirs=("h", "v", "h"), caps=(2, 2, 2))
    pplus = gr._Scratch(graph).pplus
    ids = []
    for kind, li, gx, gy, eid in oracle.edge_sites(graph):
        if kind == "via":
            assert graph.via_base + graph.node_id(gx, gy, li) == eid
        else:
            assert pplus[graph.node_id(gx, gy, li)] == eid
        ids.append(eid)
    assert sorted(ids) == list(range(graph.num_edges))


# --- terminal derivation


def nand3_design(kind):
    counts = NAND3_ACCESS_COUNTS[fab.normalize_kind(kind)]
    text = "master NAND3 pins A B C OUT\ncell c1 NAND3\ncell c2 NAND3\nnet n1 c1.OUT c2.A\nnet n2 c1.A c2.B\n"
    d = nl.parse_netlist(text)
    fabric = fab.builtin_fabric(kind)
    bound = fab.bind_masters(d, fabric)
    # rebuild masters with the published NAND3 access counts
    pin_dirs = {"A": "input", "B": "input", "C": "input", "OUT": "output"}
    bound.masters["NAND3"] = fab.make_cell_master(
        fabric, [(p, pin_dirs[p], c) for p, c in counts.items()], name="NAND3"
    )
    return bound, fabric


def test_terminal_entries_s3dc_pin_spans_five_layers():
    d, fabric = nand3_design("s3dc")
    die = pl.size_die(d, fabric, 0.6)
    placed = pl.random_placement(d, fabric, die, seed=0)
    graph = gr.build_grid(fabric, die, 1)
    entries = gr.terminal_gcells(d.nets[1], d, placed, graph)
    pin_a_entries = entries[0]  # c1.A
    assert len(pin_a_entries) == 5
    layers = {e // (graph.x * graph.y) for e in pin_a_entries}
    assert layers == {1, 2, 3, 4, 5}  # 0-based layers 2..6


def test_terminal_entries_tmi_pin_b_layer1():
    d, fabric = nand3_design("tmi")
    die = pl.size_die(d, fabric, 0.6)
    placed = pl.random_placement(d, fabric, die, seed=0)
    graph = gr.build_grid(fabric, die, 1)
    entries = gr.terminal_gcells(d.nets[1], d, placed, graph)
    pin_b_entries = entries[1]  # c2.B
    assert len(pin_b_entries) == 2
    assert all(e // (graph.x * graph.y) == 0 for e in pin_b_entries)


def test_terminal_entries_2d_single_access_gcell():
    d = tiny_netlist(2, [(0, 1)])
    fabric = fab.builtin_fabric("2d")
    die = Die(24, 24, fabric.site_dim_nm, 0.6)
    placed = pl.Placement({"c0": (3 * 4, 4 * 4), "c1": (0, 0)}, die)
    graph = gr.build_grid(fabric, die, 4)
    entries = gr.terminal_gcells(d.nets[0], d, placed, graph)
    assert entries[0] == [graph.node_id(3, 4, 0)]


def test_terminal_entries_require_placement():
    d = tiny_netlist(2, [(0, 1)])
    fabric = fab.builtin_fabric("2d")
    die = Die(12, 12, fabric.site_dim_nm, 0.6)
    placed = pl.Placement({"c0": (0, 0)}, die)
    graph = gr.build_grid(fabric, die, 4)
    with pytest.raises(gr.RoutingError, match="c1"):
        gr.terminal_gcells(d.nets[0], d, placed, graph)


def test_terminal_entries_reject_access_above_grid():
    d = tiny_netlist(2, [(0, 1)])
    d.masters["u"] = fab.CellMaster(
        name="u", width=1, height=1,
        pins=(fab.PinDef("p0", "output", ((3, 0, 0),)),
              fab.PinDef("p1", "input", ((1, 0, 0),))),
    )
    fabric = fab.builtin_fabric("2d")
    die = Die(4, 4, fabric.site_dim_nm, 0.6)
    placed = pl.Placement({"c0": (0, 0), "c1": (3, 3)}, die)
    graph = small_graph()  # two layers
    with pytest.raises(gr.RoutingError, match="layer 3"):
        gr.terminal_gcells(d.nets[0], d, placed, graph)


# --- single-net routing against the BFS oracle


def test_single_net_routes_match_bfs_oracle():
    rng = random.Random(7)
    for _ in range(25):
        x, y, layers = rng.randint(2, 6), rng.randint(2, 6), rng.randint(2, 4)
        dirs = tuple(rng.choice("hv") for _ in range(layers))
        caps = tuple(rng.randint(1, 3) for _ in range(layers))
        graph = gr.RoutingGraph(x, y, 1, 100.0, dirs, caps, via_capacity=2)
        a, b = rng.sample(range(x * y * layers), 2)
        expected = oracle.bfs_hops(graph, [a], [b])
        if expected is None:
            with pytest.raises(gr.RoutingError):
                gr.route_terminal_sets(graph, [("n0", [[a], [b]])], gr.RouteParams())
        else:
            routes, _ = gr.route_terminal_sets(graph, [("n0", [[a], [b]])],
                                               gr.RouteParams())
            assert len(routes[0].edges) == expected
    # Stacks of up to 13 layers whose layers above 2 may have no capacity,
    # and terminals that enter at a run of adjacent layers of one gcell, as
    # multi-layer pins do: a target spanning several layers is where the
    # search's via bound differs most from the layer distance.
    for _ in range(60):
        x, y, layers = rng.randint(1, 6), rng.randint(1, 6), rng.randint(2, 13)
        dirs = tuple(rng.sample("hv", 2)) + tuple(rng.choice("hv") for _ in range(layers - 2))
        caps = (rng.randint(1, 3), rng.randint(1, 3)) + tuple(
            rng.choice((0, 0, 1, 3)) for _ in range(layers - 2))
        graph = gr.RoutingGraph(x, y, 1, 100.0, dirs, caps, via_capacity=1)
        terminals = []
        for _ in range(2):
            z0 = rng.randrange(layers)
            z1 = rng.randint(z0, min(layers - 1, z0 + 4))
            gx, gy = rng.randrange(x), rng.randrange(y)
            terminals.append([graph.node_id(gx, gy, z) for z in range(z0, z1 + 1)])
        routes, _ = gr.route_terminal_sets(graph, [("n0", terminals)], gr.RouteParams())
        assert len(routes[0].edges) == oracle.bfs_hops(graph, *terminals)


def test_route_colocated_terminals_is_empty():
    graph = small_graph()
    node = graph.node_id(1, 1, 0)
    routes, cmap = gr.route_terminal_sets(graph, [("n0", [[node], [node], [node]])])
    assert routes[0].edges == ()
    assert cmap.overflow_edge_count == 0


def test_route_tree_spans_all_terminals():
    graph = small_graph(x=6, y=6, layers=2, caps=(4, 4))
    terms = [graph.node_id(0, 0, 0), graph.node_id(5, 5, 0),
             graph.node_id(0, 5, 0), graph.node_id(5, 0, 0)]
    routes, _ = gr.route_terminal_sets(graph, [("n0", [[t] for t in terms])])
    # edge set forms a connected subgraph containing every terminal
    nodes = set()
    adj = {}
    for e in routes[0].edges:
        a, b = oracle.edge_endpoints(graph, e)
        nodes.update((a, b))
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    assert set(terms) <= nodes
    seen = {terms[0]}
    stack = [terms[0]]
    while stack:
        for v in adj.get(stack.pop(), []):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert nodes == seen
    # tree: connected with |edges| == |nodes| - 1 means no cycles
    assert len(set(routes[0].edges)) == len(nodes) - 1


def test_two_net_conflict_reaches_joint_optimum():
    # a capacity-1 corridor that only one of two identical nets may use
    graph = gr.RoutingGraph(4, 2, 1, 100.0, ("h", "v"), (1, 1), via_capacity=4)
    a = graph.node_id(0, 0, 0)
    b = graph.node_id(3, 0, 0)
    routes, cmap = gr.route_terminal_sets(
        graph, [("na", [[a], [b]]), ("nb", [[a], [b]])], gr.RouteParams()
    )
    assert cmap.overflow_edge_count == 0
    total = sum(len(r.edges) for r in routes)
    paths = oracle.simple_paths(graph, a, b, max_len=12)
    assert total == oracle.best_joint_cost(graph, paths, paths)


def test_route_demand_conservation():
    graph = small_graph(x=6, y=6, layers=3, dirs=("h", "v", "h"), caps=(3, 3, 3))
    rng = random.Random(1)
    nets = []
    nodes = graph.x * graph.y * graph.layers
    for i in range(40):
        k = rng.randint(2, 4)
        nets.append((f"n{i}", [[rng.randrange(nodes)] for _ in range(k)]))
    routes, cmap = gr.route_terminal_sets(graph, nets, gr.RouteParams())
    per_edge = [0] * graph.num_edges
    for r in routes:
        for e in r.edges:
            per_edge[e] += 1
    assert per_edge == graph.demand
    # congestion map mirrors the demand arrays exactly
    for li in range(graph.layers):
        rows = gr.demand_resource_ratios(cmap)
        assert rows[li].demand == sum(
            graph.demand[e] for kind, layer0, _, _, e in oracle.edge_sites(graph)
            if kind != "via" and layer0 == li
        )


def test_zero_overflow_really_means_fits():
    graph = small_graph(x=5, y=5, layers=2, caps=(4, 4))
    rng = random.Random(3)
    nodes = graph.x * graph.y * graph.layers
    nets = [(f"n{i}", [[rng.randrange(nodes)], [rng.randrange(nodes)]]) for i in range(30)]
    nets = [(nid, t) for nid, t in nets if t[0] != t[1]]
    _, cmap = gr.route_terminal_sets(graph, nets, gr.RouteParams())
    if cmap.overflow_edge_count == 0:
        assert all(d <= c for d, c in zip(graph.demand, graph.capacity))


def test_doubling_capacity_never_increases_overflow():
    rng = random.Random(5)
    for trial in range(3):
        nets = []
        for i in range(60):
            nets.append((f"n{i}", None))  # placeholder, built per graph below
        overflow = {}
        for scale in (1, 2):
            graph = gr.RoutingGraph(6, 6, 1, 100.0, ("h", "v"),
                                    (1 * scale, 1 * scale), via_capacity=2 * scale)
            nodes = graph.x * graph.y * graph.layers
            pair_rng = random.Random(100 + trial)
            built = []
            for i in range(60):
                a, b = pair_rng.sample(range(nodes), 2)
                built.append((f"n{i}", [[a], [b]]))
            _, cmap = gr.route_terminal_sets(graph, built, gr.RouteParams())
            overflow[scale] = cmap.overflow_edge_count
        assert overflow[2] <= overflow[1]


def test_route_deterministic():
    fabric = fab.builtin_fabric("2d")
    die = Die(48, 48, fabric.site_dim_nm, 0.6)
    results = []
    for _ in range(2):
        graph = gr.build_grid(fabric, die, 4)
        nodes = graph.x * graph.y * graph.layers
        pair_rng = random.Random(42)
        nets = []
        for i in range(70):
            k = pair_rng.randint(2, 3)
            nets.append((f"n{i}", [[pair_rng.randrange(nodes)] for _ in range(k)]))
        routes, _ = gr.route_terminal_sets(graph, nets)
        results.append([r.edges for r in routes])
    assert results[0] == results[1]


LIGHT_ANNEAL = ["--moves-per-temp", "4000", "--max-temps", "40"]


@pytest.mark.parametrize("cells, design_seed, fabric, flags, digest", [
    (600, 1, "2d", ["--seed", "1", "--moves-per-temp", "2000"],
     "2c4e72b35789c089b72db7a0b3a60a43e5b8029c171698369278d44cecebc84f"),
    (600, 1, "tmi", ["--seed", "1", "--moves-per-temp", "2000"],
     "fabfba0ccc374a63b2122507eea1cd0c2f3bc2067ed554bdff02933f5773dc6b"),
    (600, 1, "s3dc", ["--seed", "1", "--moves-per-temp", "2000"],
     "bd36721b61d316260bc06b51945f0fa4b20c665f29600f0dde82e8dc8e90f90f"),
    (1000, 102, "tmi", ["--seed", "2", *LIGHT_ANNEAL],
     "eb3498850c6375ecf056b505a8de6d119bd7df65e5b099045b6aaed913854dd5"),
    (1600, 100, "2d", ["--seed", "0", *LIGHT_ANNEAL],
     "a98662c7e9facb71c1dde02ba0ae05bc987870cb34ef1f7d4e3388d1c0388826"),
    (1600, 100, "s3dc", ["--seed", "0", *LIGHT_ANNEAL],
     "034d84280115b7ea6f56f6b53d268b3d2f970bec754222518ea13e6e2cc60b05"),
], ids=["sweep-2d", "sweep-tmi", "sweep-s3dc", "c102-tmi", "open-2d", "open-s3dc"])
def test_route_output_is_pinned(tmp_path, cells, design_seed, fabric, flags, digest):
    # the benchmark's six jobs (fabric-sweep, congested-reroute and
    # open-first-pass), each a 'run' of a generated netlist file: the digest
    # is that of the routes.txt it writes, so that a faster router must
    # return the same routes, tie-breaks included
    net = tmp_path / "design.net"
    net.write_text(nl.serialize_netlist(
        nl.generate_synthetic(nl.SynthesisParams(num_cells=cells, seed=design_seed))))
    cli.main(["run", "--netlist", str(net), "--fabric", fabric, "-o", str(tmp_path / "out"),
              *flags])
    routes = (tmp_path / "out" / "routes.txt").read_bytes()
    assert hashlib.sha256(routes).hexdigest() == digest


def test_unroutable_reports_isolated_terminal():
    # both layers vertical: no x movement possible anywhere
    graph = gr.RoutingGraph(3, 3, 1, 100.0, ("v", "v"), (2, 2), via_capacity=2)
    a = graph.node_id(0, 0, 0)
    b = graph.node_id(2, 0, 0)
    with pytest.raises(gr.RoutingError, match="no route"):
        gr.route_terminal_sets(graph, [("n0", [[a], [b]])])


def test_terminal_entries_keep_to_a_part_that_reaches_every_terminal():
    # one 'v' layer: the lattice falls apart into columns, and only column 2
    # holds an entry of every terminal; a first connection in column 0 would
    # leave the third terminal cut off
    graph = gr.RoutingGraph(3, 3, 1, 100.0, ("v",), (1,), via_capacity=1)
    n = graph.node_id
    nets = [("n0", [[n(0, 0, 0), n(2, 0, 0)], [n(0, 1, 0), n(2, 1, 0)], [n(2, 2, 0)]])]
    routes, _ = gr.route_terminal_sets(graph, nets)
    assert routes[0].edges == (oracle.planar_id(graph, 0, 2, 0), oracle.planar_id(graph, 0, 2, 1))


def test_blocked_layer_is_not_traversable():
    # layer 1 blocked (capacity 0); the route must climb to layer 2
    graph = gr.RoutingGraph(4, 1, 1, 100.0, ("h", "h"), (0, 2), via_capacity=2)
    a = graph.node_id(0, 0, 0)
    b = graph.node_id(3, 0, 0)
    routes, cmap = gr.route_terminal_sets(graph, [("n0", [[a], [b]])])
    assert len(routes[0].edges) == 5  # via up, 3 hops, via down
    assert cmap.overflow_edge_count == 0


def test_routed_netlist_trees_are_valid():
    # every routed net's edges form a connected acyclic subgraph touching an
    # entry node of each terminal
    design = nl.generate_synthetic(nl.SynthesisParams(num_cells=200, seed=13))
    fabric = fab.builtin_fabric("s3dc")
    design = fab.bind_masters(design, fabric)
    die = pl.size_die(design, fabric, 0.6)
    placed = pl.place(design, fabric, die, seed=13,
                      config=pl.AnnealConfig(moves_per_temp=1000, max_temps=15))
    graph = gr.build_grid(fabric, die, 3)
    routes, _ = gr.route(design, placed, graph, gr.RouteParams())
    by_id = {r.net_id: r for r in routes}
    for net in design.nets:
        entries = gr.terminal_gcells(net, design, placed, graph)
        edges = by_id[net.id].edges
        if not edges:
            continue  # dangling or fully co-located net
        assert len(set(edges)) == len(edges)  # each edge used once per net
        nodes = set()
        adj = {}
        for e in edges:
            a, b = oracle.edge_endpoints(graph, e)
            nodes.update((a, b))
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        assert len(edges) == len(nodes) - 1  # acyclic
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert seen == nodes  # connected
        for entry in entries:
            assert nodes & set(entry)  # every terminal reachable at an access


def test_route_skips_dangling_nets(caplog):
    d = tiny_netlist(3, [(0, 1), (2,)])
    fabric = fab.builtin_fabric("2d")
    die = Die(12, 12, fabric.site_dim_nm, 0.6)
    placed = pl.Placement({"c0": (0, 0), "c1": (8, 8), "c2": (4, 4)}, die)
    graph = gr.build_grid(fabric, die, 4)
    with caplog.at_level("WARNING", logger="routekit.globalroute"):
        routes, _ = gr.route(d, placed, graph)
    assert "skipping 1 dangling net(s): n1" in caplog.text
    assert len(routes) == 2
    assert routes[1].edges == ()
    assert len(routes[0].edges) > 0


# --- congestion reporting


def test_demand_resource_ratio_rows():
    graph = small_graph(x=3, y=3, layers=2, caps=(10, 10))
    e = oracle.planar_id(graph, 0, 0, 0)
    graph.demand[e] = 8
    cmap = gr.build_congestion_map(graph)
    rows = gr.demand_resource_ratios(cmap)
    assert [row.layer for row in rows] == [1, 2]
    assert rows[0].max_edge_ratio == pytest.approx(0.8)
    assert not cmap.congested


def test_all_zero_demand_not_congested():
    graph = small_graph()
    cmap = gr.build_congestion_map(graph)
    assert cmap.overflow_edge_count == 0
    assert not cmap.congested
    assert all(row.aggregate_ratio == 0 for row in gr.demand_resource_ratios(cmap))


def test_ratio_above_one_flags_congested():
    graph = small_graph(x=3, y=3, layers=2, caps=(4, 4))
    e = oracle.planar_id(graph, 1, 0, 0)  # layer 2 vertical edge
    graph.demand[e] = 5
    cmap = gr.build_congestion_map(graph)
    assert cmap.congested
    assert cmap.overflow_edge_count == 1
    assert gr.demand_resource_ratios(cmap)[1].max_edge_ratio == pytest.approx(1.25)


def test_via_overflow_flags_congested():
    # one gcell, two layers: the only edge is a capacity-1 via
    graph = gr.RoutingGraph(1, 1, 1, 100.0, ("h", "v"), (10, 10), via_capacity=1)
    _, cmap = gr.route_terminal_sets(graph, [("na", [[0], [1]]), ("nb", [[0], [1]])])
    assert cmap.overflow_edge_count == 1
    assert cmap.congested is True


def via_graph():
    # one gcell, two layers: the only edge is a capacity-1 via
    return gr.RoutingGraph(1, 1, 1, 100.0, ("h", "v"), (10, 10), via_capacity=1)


def closing_record(caplog, graph, nets, params=None):
    """The args of the router's one closing record: (reroute passes, stop
    reason, the last pass's searches, its heap pops)."""
    caplog.clear()
    with caplog.at_level("DEBUG", logger="routekit.globalroute"):
        gr.route_terminal_sets(graph, nets, params)
    (record,) = [r for r in caplog.records if r.msg.startswith("router stopped")]
    reroutes = [r for r in caplog.records if r.msg.startswith("reroute iteration")]
    assert record.args[0] == len(reroutes)
    return record.args


def test_router_closing_record_gives_each_stop_reason(caplog, monkeypatch):
    one, two = [("na", [[0], [1]])], [("na", [[0], [1]]), ("nb", [[0], [1]])]
    assert closing_record(caplog, via_graph(), one) == (0, "converged", 1, 2)
    assert closing_record(caplog, via_graph(), one, gr.RouteParams(max_iters=0)) == (
        0, "converged", 1, 2)
    # two nets share the via: the overflow never clears
    assert closing_record(caplog, via_graph(), two, gr.RouteParams(max_iters=0)) == (
        0, "max_iters", 2, 4)
    assert closing_record(caplog, via_graph(), two, gr.RouteParams(max_iters=3)) == (
        3, "max_iters", 1, 2)
    graph = via_graph()
    graph.demand[graph.via_base] = 2  # an overflow that no routed net holds
    assert closing_record(caplog, graph, []) == (0, "nothing to reroute", 0, 0)
    monkeypatch.setattr(gr, "STAGNATION_NETS", 2)
    passes, *rest = closing_record(caplog, via_graph(), two)
    assert 0 < passes < gr.RouteParams().max_iters
    assert rest == ["stagnation", 1, 2]


def test_router_puts_back_a_better_earlier_pass(caplog):
    # a congested tmi job whose first pass leaves the fewest overflowed
    # edges: five reroute passes end at 63, and the first pass's routing,
    # with its demand, comes back
    spec = flow.JobSpec(fabric="tmi", cells=200, moves_per_temp=100, max_temps=20, gcell=6)
    placed = flow.place_job(spec)
    first = flow.route_job(placed, replace(spec, max_iters=0))
    with caplog.at_level("DEBUG", logger="routekit.globalroute"):
        kept = flow.route_job(placed, replace(spec, max_iters=5))
    assert first.meta["overflow_edges"] == kept.meta["overflow_edges"] == 57
    assert kept.routes == first.routes
    assert kept.graph.demand == first.graph.demand
    (record,) = [r for r in caplog.records if r.msg.startswith("restored")]
    assert record.args == (0, 57, 63)  # (pass, its overflow, the last pass's)


def test_zero_capacity_edge_ratio_agrees_everywhere():
    graph = gr.RoutingGraph(3, 1, 1, 100.0, ("h", "v"), (0, 10), via_capacity=1)
    graph.demand[0] = 1
    cmap = gr.build_congestion_map(graph)
    row = gr.demand_resource_ratios(cmap)[0]
    assert row.max_edge_ratio == row.aggregate_ratio == float("inf")
    lines = gr.congestion_csv(cmap, 1).splitlines()
    assert "1,0,0,h,1,0,inf" in lines
    assert "1,1,0,h,0,0,0" in lines  # no demand on no capacity reads 0
    graph.demand[0] = 0
    row = gr.demand_resource_ratios(gr.build_congestion_map(graph))[0]
    assert row.max_edge_ratio == row.aggregate_ratio == 0.0


def test_congestion_csv_shape():
    graph = small_graph(x=3, y=2, layers=2, caps=(5, 5))
    graph.demand[oracle.planar_id(graph, 0, 0, 0)] = 2
    cmap = gr.build_congestion_map(graph)
    text = gr.congestion_csv(cmap, 1)
    lines = text.strip().splitlines()
    assert lines[0] == "layer,x,y,dir,demand,capacity,ratio"
    assert "1,0,0,h,2,5,0.4" in lines
    assert any(",via," in line for line in lines)
    # top layer has no via rows
    top = gr.congestion_csv(cmap, 2).strip().splitlines()
    assert not any(",via," in line for line in top[1:])


def test_congestion_csv_matches_per_edge_formatting():
    # random demands, with zero capacities, against the row-by-row writer
    # that formats each edge from the numpy matrices
    graph = small_graph(x=5, y=4, layers=3, dirs=("h", "v", "h"), caps=(3, 0, 7), via_cap=2)
    rng = random.Random(5)
    graph.demand[:] = [rng.choice([0, 0, 1, 2, 3, 5, 9]) for _ in graph.demand]
    cmap = gr.build_congestion_map(graph)
    for layer in range(1, 4):
        li = layer - 1
        lines = ["layer,x,y,dir,demand,capacity,ratio"]
        grids = [(cmap.layer_dirs[li], cmap.layer_demand[li], cmap.layer_capacity[li])]
        if li < cmap.via_demand.shape[0]:
            grids.append(("via", cmap.via_demand[li], cmap.via_capacity[li]))
        for d, dem, cap in grids:
            ratio = gr._edge_ratio(dem, cap)
            for (gy, gx), v in np.ndenumerate(dem):
                lines.append(f"{layer},{gx},{gy},{d},{int(v)},{int(cap[gy, gx])},"
                             f"{ratio[gy, gx]:.6g}")
        assert gr.congestion_csv(cmap, layer) == "\n".join(lines) + "\n"


def test_routing_graph_rejects_layer_lists_of_wrong_length():
    # a layer with no capacity
    with pytest.raises(ValueError, match="needs 2 entries, one per layer direction, got 1"):
        gr.RoutingGraph(3, 3, 1, 100.0, ("h", "v"), (1,), 1)


@pytest.mark.parametrize("x, y, dirs, via_cap, message", [
    (0, 3, ("h", "v"), 1, "grid dimensions must be positive"),
    (3, 0, ("h", "v"), 1, "grid dimensions must be positive"),
    (3, 3, (), 1, "grid dimensions must be positive"),  # an empty stack
    (3, 3, ("h", "v"), 0, "via capacity must be >= 1"),
], ids=["no-columns", "no-rows", "no-layers", "via-cap-0"])
def test_routing_graph_rejects_an_empty_lattice_and_a_closed_via(x, y, dirs, via_cap, message):
    with pytest.raises(ValueError, match=message):
        gr.RoutingGraph(x, y, 1, 100.0, dirs, (1,) * len(dirs), via_cap)


@pytest.mark.parametrize("entries", [[], [[0], []]], ids=["no-terminals", "empty-terminal"])
def test_route_terminal_sets_rejects_an_empty_entry_set(entries):
    with pytest.raises(gr.RoutingError, match="net 'n0': empty terminal entry set"):
        gr.route_terminal_sets(small_graph(), [("n0", entries)])


@pytest.mark.parametrize("layer", [0, 3, -1])
def test_congestion_csv_rejects_layer_outside_stack(layer):
    cmap = gr.build_congestion_map(small_graph(layers=2))
    with pytest.raises(ValueError, match=rf"layer {layer} outside 1\.\.2"):
        gr.congestion_csv(cmap, layer)
