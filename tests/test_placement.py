import hashlib
import itertools
import logging
import random
from unittest import mock

import pytest

from conftest import tiny_netlist
from routekit import fabric as fab
from routekit import flow
from routekit import netlist as nl
from routekit import placement as pl

FAB2D = fab.builtin_fabric("2d")


def test_size_die_sixty_unit_cells():
    d = tiny_netlist(60, [])
    die = pl.size_die(d, FAB2D, utilization=0.6)
    assert (die.width, die.height) == (10, 10)
    assert die.area_sites == 100


def test_size_die_full_utilization():
    d = tiny_netlist(60, [])
    die = pl.size_die(d, FAB2D, utilization=1.0)
    # smallest near-square grid covering 60 sites of cells
    assert (die.width, die.height) == (8, 8)
    assert 60 / die.area_sites <= 1.0


def test_size_die_respects_utilization_bound():
    for n in (7, 33, 100, 999):
        d = tiny_netlist(n, [])
        die = pl.size_die(d, FAB2D, utilization=0.6)
        assert n / die.area_sites <= 0.6
        assert abs(die.width - die.height) <= 2


def test_size_die_rejects_empty_netlist():
    d = tiny_netlist(1, [])
    d.cells.clear()
    with pytest.raises(pl.PlacementError):
        pl.size_die(d, FAB2D)


def test_size_die_rejects_bad_utilization():
    d = tiny_netlist(8, [])
    for u in (0.0, -1, 1.5):
        with pytest.raises(pl.PlacementError):
            pl.size_die(d, FAB2D, utilization=u)


def test_size_die_footprint_ratio_s3dc_vs_2d():
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=2000, seed=4))
    areas = {}
    for kind in ("2d", "s3dc"):
        fabric = fab.builtin_fabric(kind)
        bound = fab.bind_masters(d, fabric)
        areas[kind] = pl.size_die(bound, fabric, 0.6).area_um2
    ratio = areas["s3dc"] / areas["2d"]
    # published footprint band 0.09-0.11 with rounding slop
    assert 0.072 <= ratio <= 0.132


# --- HPWL


def place_at(d, coords, die):
    return pl.Placement({f"c{i}": xy for i, xy in enumerate(coords)}, die)


def test_hpwl_two_terminal_net():
    d = tiny_netlist(2, [(0, 1)])
    die = pl.Die(10, 10, 90.0, 1.0)
    assert pl.hpwl(d, place_at(d, [(0, 0), (3, 4)], die)) == 7


def test_hpwl_three_terminal_bounding_box():
    d = tiny_netlist(3, [(0, 1, 2)])
    die = pl.Die(10, 10, 90.0, 1.0)
    assert pl.hpwl(d, place_at(d, [(0, 0), (2, 5), (4, 1)], die)) == 9


def test_hpwl_single_terminal_net():
    d = tiny_netlist(1, [(0,)])
    die = pl.Die(4, 4, 90.0, 1.0)
    assert pl.hpwl(d, place_at(d, [(2, 2)], die)) == 0


def test_hpwl_zero_iff_colocated():
    d = tiny_netlist(2, [(0, 1)])
    die = pl.Die(4, 4, 90.0, 1.0)
    # 1x1 cells cannot legally co-locate, but hpwl is a pure function
    assert pl.hpwl(d, place_at(d, [(1, 1), (1, 1)], die)) == 0
    assert pl.hpwl(d, place_at(d, [(1, 1), (1, 2)], die)) == 1


def test_hpwl_translation_invariance():
    d = tiny_netlist(4, [(0, 1), (1, 2, 3), (0, 3)])
    die = pl.Die(20, 20, 90.0, 1.0)
    coords = [(0, 0), (3, 4), (7, 2), (5, 9)]
    base = pl.hpwl(d, place_at(d, coords, die))
    for dx, dy in ((1, 0), (5, 7), (9, 3)):
        moved = [(x + dx, y + dy) for x, y in coords]
        assert pl.hpwl(d, place_at(d, moved, die)) == base


def test_hpwl_uses_pin_access_offsets():
    # master with pins at opposite corners of a 2x2 cell
    pins = (
        fab.PinDef("p0", "output", ((1, 0, 0),)),
        fab.PinDef("p1", "input", ((1, 1, 1),)),
    )
    m = fab.CellMaster(name="m", width=2, height=2, pins=pins)
    d = nl.Netlist(
        name="t", masters={"m": m},
        cells=[nl.CellInstance("c0", "m"), nl.CellInstance("c1", "m")],
        nets=[nl.Net("n0", [("c0", "p0"), ("c1", "p1")])],
    )
    die = pl.Die(10, 10, 90.0, 1.0)
    placement = pl.Placement({"c0": (0, 0), "c1": (4, 0)}, die)
    # terminal at (0,0) and (4+1, 0+1)
    assert pl.hpwl(d, placement) == 6


def test_hpwl_unplaced_cell_raises():
    d = tiny_netlist(2, [(0, 1)])
    die = pl.Die(4, 4, 90.0, 1.0)
    placement = pl.Placement({"c0": (0, 0)}, die)
    with pytest.raises(pl.PlacementError, match="c1"):
        pl.hpwl(d, placement)


def test_hpwl_is_zero_without_nets_or_cells_and_skips_a_cell_on_no_net():
    die = pl.Die(4, 4, 90.0, 1.0)
    assert pl.hpwl(tiny_netlist(2, []), pl.Placement({}, die)) == 0
    no_cells = nl.Netlist("e", tiny_netlist(1, []).masters, [], [nl.Net("n0", [])])
    assert pl.hpwl(no_cells, pl.Placement({}, die)) == 0
    d = tiny_netlist(3, [(0, 1)])  # c2 is on no net and left unplaced
    assert pl.hpwl(d, place_at(d, [(0, 0), (3, 4)], die)) == 7


# --- annealer


def test_place_deterministic():
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=128, seed=9))
    d = fab.bind_masters(d, FAB2D)
    die = pl.size_die(d, FAB2D, 0.6)
    cfg = pl.AnnealConfig(moves_per_temp=2000, max_temps=20)
    a = pl.place(d, FAB2D, die, seed=3, config=cfg)
    b = pl.place(d, FAB2D, die, seed=3, config=cfg)
    assert a.assignments == b.assignments


@pytest.mark.parametrize("cells, design_seed, kind, seed, moves, max_temps, hpwl, digest", [
    (600, 1, "2d", 1, 2000, 150, 19316,
     "d04e89fec62452d94737f027dff6da86639a3c8194fe616c2164e4e04c3d556d"),
    (600, 1, "tmi", 1, 2000, 150, 14636,
     "faeb252ed582bfc0b765bca3a7501092de8a83f0352771708992f112503d03bb"),
    (600, 1, "s3dc", 1, 2000, 150, 14229,
     "8dc70063664455ec4a2ee4e7688eda325b479512c7642395639dd299cbf02e7d"),
    (1000, 102, "tmi", 2, 4000, 40, 29500,
     "db7d3ef542dd9ea556b049a07728a67318cf0afac605bf3cd229265b4afe225b"),
])
def test_place_output_is_pinned(cells, design_seed, kind, seed, moves, max_temps, hpwl, digest):
    # the benchmark's fabric-sweep and congested-reroute placements, with
    # the analytic start, the move window and the gain stop all in play:
    # the digest is that of the placement.csv that run writes for them
    fabric = fab.builtin_fabric(kind)
    d = fab.bind_masters(
        nl.generate_synthetic(nl.SynthesisParams(num_cells=cells, seed=design_seed)), fabric)
    die = pl.size_die(d, fabric, 0.6)
    placed = pl.place(d, fabric, die, seed=seed,
                      config=pl.AnnealConfig(moves_per_temp=moves, max_temps=max_temps))
    text = "cell,x,y\n" + "".join(f"{c},{x},{y}\n" for c, (x, y) in placed.assignments.items())
    assert pl.hpwl(d, placed) == hpwl
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_place_single_cell():
    d = tiny_netlist(1, [(0,)])
    die = pl.size_die(d, FAB2D, 1.0)
    placed = pl.place(d, FAB2D, die, seed=0)
    assert pl.hpwl(d, placed) == 0


def test_place_rejects_undersized_die():
    d = tiny_netlist(30, [])
    die = pl.Die(4, 4, 90.0, 1.0)
    with pytest.raises(pl.PlacementError, match="slots"):
        pl.place(d, FAB2D, die, seed=0)


def test_place_two_connected_cells_end_adjacent():
    d = tiny_netlist(2, [(0, 1)])
    die = pl.Die(10, 10, 90.0, 1.0)
    placed = pl.place(d, FAB2D, die, seed=0)
    assert pl.hpwl(d, placed) == 1  # unit cells: best separation is one site


def test_place_never_worse_than_initial():
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=200, seed=2))
    d = fab.bind_masters(d, FAB2D)
    die = pl.size_die(d, FAB2D, 0.6)
    for seed in range(5):
        initial = pl.hpwl(d, pl.random_placement(d, FAB2D, die, seed=seed))
        final = pl.hpwl(d, pl.place(d, FAB2D, die, seed=seed,
                                    config=pl.AnnealConfig(moves_per_temp=2000, max_temps=25)))
        assert final <= initial


def test_place_matches_its_declared_initial_state():
    # random_placement(seed) is exactly the state place(seed) starts from
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=64, seed=5))
    d = fab.bind_masters(d, FAB2D)
    die = pl.size_die(d, FAB2D, 0.6)
    frozen = pl.place(d, FAB2D, die, seed=8,
                      config=pl.AnnealConfig(moves_per_temp=1, max_temps=1))
    initial = pl.random_placement(d, FAB2D, die, seed=8)
    # with essentially no moves the annealer returns (near) the initial state
    assert pl.hpwl(d, frozen) <= pl.hpwl(d, initial)


def test_place_legal_on_random_netlists():
    # 100 random netlists spread over the three fabrics
    rng = random.Random(0)
    checked = 0
    for trial in range(34):
        n = rng.randint(20, 80)
        d = nl.generate_synthetic(nl.SynthesisParams(num_cells=n, seed=trial))
        for kind in ("2d", "tmi", "s3dc"):
            fabric = fab.builtin_fabric(kind)
            bound = fab.bind_masters(d, fabric)
            die = pl.size_die(bound, fabric, 0.6)
            placed = pl.place(bound, fabric, die, seed=trial,
                              config=pl.AnnealConfig(moves_per_temp=500, max_temps=10))
            assert set(placed.assignments) == {c.id for c in bound.cells}
            assert pl.illegal_cell(bound, placed) is None
            checked += 1
    assert checked >= 100


def test_place_scores_empty_net_zero():
    # hpwl() scores a net with no terminals 0; the annealer must agree
    # rather than fail on it, and place the rest as if it were absent.
    d = tiny_netlist(3, [(0, 1)])
    die = pl.size_die(d, FAB2D, 0.6)
    plain = pl.place(d, FAB2D, die, seed=4)
    d.nets.append(nl.Net("empty", []))
    placed = pl.place(d, FAB2D, die, seed=4)
    assert placed.assignments == plain.assignments
    assert pl.hpwl(d, placed) == pl.hpwl(d, plain) == 1


def anneal_log(caplog, d, die, cfg):
    with caplog.at_level(logging.DEBUG, logger="routekit.placement"):
        placed = pl.place(d, FAB2D, die, seed=1, config=cfg)
    records = [r for r in caplog.records if r.name == "routekit.placement"]
    assert all(r.levelno == logging.DEBUG for r in records)
    return pl.hpwl(d, placed), records


def test_anneal_logs_start_steps_and_max_temps_stop(caplog):
    # 40 cells, hot for 6 steps: the cost stays above 0, so with no gain
    # stop only max_temps ends the anneal
    d = fab.bind_masters(nl.generate_synthetic(nl.SynthesisParams(num_cells=40, seed=3)), FAB2D)
    cfg = pl.AnnealConfig(moves_per_temp=200, max_temps=6)
    with mock.patch.object(pl, "STOP_GAIN", 0):
        final, records = anneal_log(caplog, d, pl.size_die(d, FAB2D, 0.6), cfg)
    assert records[0].getMessage().startswith("anneal start: T=")
    steps = records[1:-1]
    assert [r.args[0] for r in steps] == list(range(6))
    temps = [r.args[1] for r in steps]
    assert temps[0] == records[0].args[0]
    assert all(b == a * pl.COOLING for a, b in zip(temps, temps[1:]))
    assert all(0 <= r.args[2] <= 200 for r in steps)
    assert steps[-1].args[5] == final  # best-seen cost is the returned HPWL
    assert records[-1].getMessage() == "anneal stopped: max_temps (6) reached"


def test_anneal_logs_zero_cost_stop(caplog):
    # one cell in a one-slot die: the cost is 0, which no step can lower
    cfg = pl.AnnealConfig(moves_per_temp=200, max_temps=50)
    _, records = anneal_log(caplog, tiny_netlist(1, []), pl.Die(1, 1, 90.0, 1.0), cfg)
    assert len(records) == 3  # start, one step, stop
    assert records[-1].getMessage() == "anneal stopped after step 0: best cost is 0"


def test_anneal_stops_at_zero_cost_with_the_start_placement(caplog):
    # 1000 cells whose only net dangles: every placement costs 0, so the
    # anneal stops after step 0, and the best-seen state is the analytic
    # start, which is what max_temps steps of the anneal would return too
    d = tiny_netlist(1000, [(0,)])
    die = pl.size_die(d, FAB2D, 0.6)
    start = pl.place(d, FAB2D, die, seed=1, config=pl.AnnealConfig(max_temps=0))
    with caplog.at_level(logging.DEBUG, logger="routekit.placement"):
        placed = pl.place(d, FAB2D, die, seed=1)
    records = [r.getMessage() for r in caplog.records if r.name == "routekit.placement"]
    assert len(records) == 3  # start, step 0, stop
    assert records[-1] == "anneal stopped after step 0: best cost is 0"
    assert placed.assignments == start.assignments


def test_anneal_with_no_steps_returns_its_analytic_start(caplog):
    # max_temps 0 runs only the start-temperature sample, which puts every
    # move back: the result is the analytic start, and the log holds the
    # start and the max_temps stop
    d = fab.bind_masters(nl.generate_synthetic(nl.SynthesisParams(num_cells=40, seed=3)), FAB2D)
    die = pl.size_die(d, FAB2D, 0.6)
    nslots, xs, ys = pl._slots(d, die)
    net_terms = pl._terminal_offsets(d)
    anchor = random.Random(1).sample(range(nslots), len(d.cells))
    start = pl._analytic_start(anchor, pl._clique_model(net_terms, len(d.cells)),
                               pl._terminal_arrays(net_terms), xs, ys,
                               die.width // pl._slot_shape(d)[0])
    with caplog.at_level(logging.DEBUG, logger="routekit.placement"):
        placed = pl.place(d, FAB2D, die, seed=1, config=pl.AnnealConfig(max_temps=0))
    assert placed.assignments == {c.id: (xs[s], ys[s]) for c, s in zip(d.cells, start)}
    records = [r.getMessage() for r in caplog.records if r.name == "routekit.placement"]
    assert len(records) == 2
    assert records[0].startswith("anneal start: T=")
    assert records[1] == "anneal stopped: max_temps (0) reached"


def test_small_instance_brute_force_optimality():
    d = tiny_netlist(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    die = pl.Die(3, 3, 90.0, 1.0)
    nslots, xs, ys = pl._slots(d, die)
    best = min(
        pl.hpwl(d, pl.Placement({c.id: (xs[s], ys[s]) for c, s in zip(d.cells, perm)}, die))
        for perm in itertools.permutations(range(nslots), len(d.cells))
    )
    hits = 0
    for seed in range(20):
        placed = pl.place(d, FAB2D, die, seed=seed)
        hits += pl.hpwl(d, placed) == best
    assert hits >= 19


def placed_job(fabric: str) -> flow.PlacedJob:
    return flow.place_job(flow.JobSpec(fabric=fabric, cells=64, moves_per_temp=100, max_temps=5))


def test_pin_density_inputs():
    placed = placed_job("2d")
    assert placed.meta["total_pins"] == placed.design.total_terminals
    assert placed.meta["die_area_um2"] == placed.die.area_um2
    assert placed.meta["pin_access_layers"] == 1


def test_pin_density_reports_s3dc_layers():
    assert placed_job("s3dc").meta["pin_access_layers"] == 5
