"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and holding its runtime budget.  Run with ``pytest -s`` to
see the lines as they complete."""

import itertools
import random
import time
from contextlib import contextmanager

import mpmath
import pytest

import routing_oracles as oracle
from conftest import tiny_netlist
from routekit import fabric as fab
from routekit import globalroute as gr
from routekit import metrics
from routekit import netlist as nl
from routekit import placement as pl
from routekit import rent
from routekit.cli import main as cli_main


@contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_analytic_demand_chain():
    with criterion(1, "pin-density/cell-density/demand analytics", 1.0):
        params = rent.RentParams(r=0.75, a=3.0)
        assert rent.cell_density(3.0, params) == 1.0
        assert rent.routing_demand(1.0, params) == 1.0

        rng = random.Random(2024)
        for _ in range(100):
            e = rng.uniform(0.005, 80.0)
            got = rent.routing_demand(rent.cell_density(e, params), params)
            with mpmath.workdps(60):
                g = (mpmath.mpf(e) / 3) ** (1 / mpmath.mpf("0.75"))
                expected = float(g ** mpmath.mpf("0.25"))
            assert abs(got - expected) / expected < 1e-10

        for e in (0.2, 1.0, 3.0, 17.5):
            ratio = (
                rent.routing_demand(rent.cell_density(2 * e, params), params)
                / rent.routing_demand(rent.cell_density(e, params), params)
            )
            assert abs(ratio - 2 ** (1.0 / 3.0)) < 1e-12


def test_criterion_2_multilayer_pin_density():
    with criterion(2, "pin-access layer correction", 1.0):
        for pins, area in ((1000, 100.0), (37, 5.5), (123456, 321.0), (0, 9.0)):
            one = rent.effective_pin_density(rent.PinDensityInput(pins, area, 1))
            five = rent.effective_pin_density(rent.PinDensityInput(pins, area, 5))
            assert five == one / 5  # exact float division by the layer count


def test_criterion_3_router_oracles():
    with criterion(3, "router vs shortest-path and joint-optimum oracles", 10.0):
        rng = random.Random(31337)
        checked = 0
        while checked < 50:
            x, y, layers = rng.randint(2, 6), rng.randint(2, 6), rng.randint(2, 4)
            dirs = tuple(rng.choice("hv") for _ in range(layers))
            caps = tuple(rng.randint(1, 3) for _ in range(layers))
            graph = gr.RoutingGraph(x, y, 1, 100.0, dirs, caps, via_capacity=2)
            a, b = rng.sample(range(x * y * layers), 2)
            expected = oracle.bfs_hops(graph, [a], [b])
            if expected is None:
                continue  # disconnected direction set; not a routing instance
            routes, _ = gr.route_terminal_sets(
                graph, [("n0", [[a], [b]])], gr.RouteParams()
            )
            assert len(routes[0].edges) == expected
            checked += 1

        # two identical nets, capacity-1 corridor, detour through layer 2
        graph = gr.RoutingGraph(4, 2, 1, 100.0, ("h", "v"), (1, 1), via_capacity=4)
        a = graph.node_id(0, 0, 0)
        b = graph.node_id(3, 0, 0)
        routes, cmap = gr.route_terminal_sets(
            graph, [("na", [[a], [b]]), ("nb", [[a], [b]])], gr.RouteParams()
        )
        assert cmap.overflow_edge_count == 0
        paths = oracle.simple_paths(graph, a, b, max_len=12)
        best = oracle.best_joint_cost(graph, paths, paths)
        assert sum(len(r.edges) for r in routes) == best


def test_criterion_4_congestion_trend():
    with criterion(4, "multi-layer access congestion advantage", 600.0):
        sizes = [2000, 2200, 2400, 2600, 2800, 3000, 3200, 3400, 3600, 3800,
                 2000, 2300, 2600, 2900, 3200, 3500, 3800, 4000, 2400, 2800]
        max_ratio = {"tmi": [], "s3dc": []}
        overflow = {"tmi": [], "s3dc": []}
        for i, n in enumerate(sizes):
            design = nl.generate_synthetic(
                nl.SynthesisParams(num_cells=n, rent_exponent=0.75, seed=100 + i)
            )
            for kind in ("tmi", "s3dc"):
                fabric = fab.builtin_fabric(kind)
                bound = fab.bind_masters(design, fabric)
                die = pl.size_die(bound, fabric, 0.6)
                placed = pl.place(
                    bound, fabric, die, seed=i,
                    config=pl.AnnealConfig(moves_per_temp=4000, max_temps=40),
                )
                graph = gr.build_grid(fabric, die, 3)
                _, cmap = gr.route(bound, placed, graph,
                                   gr.RouteParams(max_iters=10))
                rows = gr.demand_resource_ratios(cmap)
                max_ratio[kind].append(max(r.max_edge_ratio for r in rows))
                overflow[kind].append(cmap.overflow_edge_count)
        mean_tmi = sum(max_ratio["tmi"]) / len(sizes)
        mean_s3dc = sum(max_ratio["s3dc"]) / len(sizes)
        assert mean_s3dc < mean_tmi, (mean_s3dc, mean_tmi)
        wins = sum(s <= t for s, t in zip(overflow["s3dc"], overflow["tmi"]))
        assert wins >= 0.9 * len(sizes), f"{wins}/{len(sizes)}"


def test_criterion_5_analytic_demand_ordering():
    with criterion(5, "analytic demand ordering across fabrics", 1.0):
        specs = {k: fab.builtin_fabric(k) for k in ("2d", "tmi", "s3dc")}
        # precondition under default parameters: the multi-layer pin area of
        # the vertical fabric exceeds the monolithic-3D footprint
        assert (specs["s3dc"].footprint_scale * specs["s3dc"].pin_access_layers
                > specs["tmi"].footprint_scale)
        pins, area = 30000, 1000.0
        designs = [
            (k, rent.PinDensityInput(pins, area * s.footprint_scale, s.pin_access_layers))
            for k, s in specs.items()
        ]
        rows = {r.label: r.demand_normalized
                for r in rent.compare_demand(designs, rent.RentParams(), "2d")}
        assert rows["2d"] <= rows["s3dc"] < rows["tmi"], rows


def test_criterion_6_placement_quality():
    with criterion(6, "annealer optimality, monotonicity, invariance", 120.0):
        fabric = fab.builtin_fabric("2d")
        instances = [
            tiny_netlist(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            tiny_netlist(5, [(0, 1, 2), (2, 3), (3, 4), (4, 0)]),
            tiny_netlist(6, [(0, 1), (1, 2, 3), (3, 4), (4, 5), (5, 0)]),
        ]
        hits = total = 0
        for design in instances:
            die = pl.Die(3, 3, 90.0, 1.0)
            nslots, xs, ys = pl._slots(design, die)
            best = min(
                pl.hpwl(design, pl.Placement(
                    {c.id: (xs[s], ys[s]) for c, s in zip(design.cells, perm)}, die))
                for perm in itertools.permutations(range(nslots), len(design.cells))
            )
            for seed in range(34):
                placed = pl.place(design, fabric, die, seed=seed)
                hits += pl.hpwl(design, placed) == best
                total += 1
        assert total >= 100
        assert hits / total >= 0.95, f"{hits}/{total}"

        # annealing never ends above its initial random state
        design = nl.generate_synthetic(nl.SynthesisParams(num_cells=300, seed=77))
        design = fab.bind_masters(design, fabric)
        die = pl.size_die(design, fabric, 0.6)
        for seed in range(5):
            initial = pl.hpwl(design, pl.random_placement(design, fabric, die, seed=seed))
            final = pl.hpwl(design, pl.place(
                design, fabric, die, seed=seed,
                config=pl.AnnealConfig(moves_per_temp=2000, max_temps=30)))
            assert final <= initial

        # exact translation invariance
        d = tiny_netlist(4, [(0, 1), (1, 2, 3)])
        big = pl.Die(30, 30, 90.0, 1.0)
        coords = [(0, 0), (3, 4), (7, 2), (5, 9)]
        base = pl.hpwl(d, pl.Placement(dict(zip([c.id for c in d.cells], coords)), big))
        for dx, dy in ((1, 0), (0, 1), (11, 17)):
            moved = [(x + dx, y + dy) for x, y in coords]
            shifted = pl.hpwl(d, pl.Placement(dict(zip([c.id for c in d.cells], moved)), big))
            assert shifted == base


def test_criterion_7_metric_identities():
    with criterion(7, "power identities, PPA formula, report deltas", 1.0):
        graph = gr.RoutingGraph(12, 10, 10, 100.0, ("h", "v"), (10, 10), via_capacity=4)
        fabric = fab.builtin_fabric("2d")
        edges = [oracle.planar_id(graph, 0, i, y) for y in range(10) for i in range(11)]
        routes = [gr.NetRoute("n0", tuple(edges[:100]))]
        base = metrics.wire_power_mw(routes, graph, fabric, metrics.PowerParams(1.0, 0.8, 0.2))
        for k in (2.0, 3.0, 7.5):
            by_f = metrics.wire_power_mw(routes, graph, fabric, metrics.PowerParams(k, 0.8, 0.2))
            assert abs(by_f - k * base) / (k * base) < 1e-12
            by_a = metrics.wire_power_mw(routes, graph, fabric, metrics.PowerParams(1.0, 0.8, min(1.0, 0.2 * k)))
            assert abs(by_a - min(1.0, 0.2 * k) / 0.2 * base) / base < 1e-12
            by_v = metrics.wire_power_mw(routes, graph, fabric, metrics.PowerParams(1.0, 0.8 * k, 0.2))
            assert abs(by_v - k * k * base) / (k * k * base) < 1e-12

        row = metrics.BenchmarkReport(
            label="a", cell_count=1, clock_freq_ghz=1.0, total_wirelength_mm=1.0,
            wire_power_mw=0.125, pin_power_mw=0.25, internal_power_mw=0.5,
            footprint_um2=10.0)
        assert row.total_power_mw == 0.125 + 0.25 + 0.5

        rows = [
            metrics.BenchmarkReport("base", 1, 1.0, 1.0, 1.0, 0.5, 0.5, 100.0),
            metrics.BenchmarkReport("half", 1, 1.0, 1.0, 0.5, 0.25, 0.25, 50.0),
        ]
        assert metrics.ppa(rows, "base")["half"] == pytest.approx(4.0, rel=1e-12)

        assert metrics.percent_delta(30.69, 99.00) == -69


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "byte-identical pipeline runs", 300.0):
        args = ["run", "--cells", "4096", "--seed", "1", "--fabric", "2d",
                "--label", "det"]
        rc_a = cli_main(args + ["-o", str(tmp_path / "a")])
        rc_b = cli_main(args + ["-o", str(tmp_path / "b")])
        assert rc_a == rc_b
        report_a = (tmp_path / "a/report.csv").read_bytes()
        report_b = (tmp_path / "b/report.csv").read_bytes()
        assert report_a == report_b
        assert (tmp_path / "a/routes.txt").read_bytes() == (tmp_path / "b/routes.txt").read_bytes()


def test_criterion_9_rent_exponent_recovery():
    with criterion(9, "generator exponent recovered by partition fit", 120.0):
        for seed in (1, 2, 3, 4, 5):
            design = nl.generate_synthetic(
                nl.SynthesisParams(num_cells=4096, rent_exponent=0.75, seed=seed)
            )
            fit = rent.fit_rent_exponent(design, seed=0)
            assert 0.70 <= fit.exponent <= 0.80, (seed, fit.exponent)
