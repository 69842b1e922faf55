"""Property tests for the annealing placer, on random small netlists.

``routekit.placement._anneal``, run from a given start, must make the same
moves as the frozen reference in ``placement_reference.py``: the same
random draws, in the same order, and so the same assignments.  ``place`` is
run with its analytic start returning the random anchor unchanged, with the
reference's start-temperature rule, with a move window that covers the die
for the whole run and with no gain stop: the parts of ``_anneal`` meant to
differ.  The anchor, draws, kernel and stop rules are then the reference's;
a window that covers the die draws its target slot as the reference does,
and the window's own draw is checked on random grids.
Each run records every call the placer makes on its random number
generator, so a draw that differs shows even where the final placement
happens to agree.  The hypothesis profile is bounded and derandomised, so
every run checks the same examples.  Those short anneals stay hot, so a
cold 300-cell anneal, whose late moves are mostly rejected by the
``exp(-delta / T)`` test, is compared with the reference as well.  The
anneal's first step, on two bench designs and one of 4096 cells, must not end
above its start, and the anneal must stop once a step gains under 1%.

The analytic start is checked against oracles: its conjugate-gradient solve
against a dense solve of an independently built clique Laplacian, its
legaliser against the orders it must keep, and the anneal's start
temperature against the acceptance rate it is solved for.
"""

import logging
import math
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import placement_reference as ref
import pytest
from conftest import tiny_netlist, unit_master
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from routekit import fabric as fab
from routekit import netlist as nl
from routekit import placement as pl

BOUNDED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NPINS = 6


class RecordingRandom(random.Random):
    """A ``random.Random`` that logs every draw the placer makes on it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.calls.append(("getrandbits", k, r))
        return r

    def random(self):
        r = super().random()
        self.calls.append(("random", r))
        return r


def recorded_place(module, *args, **kwargs):
    """``module.place(*args, **kwargs)`` on a recorded generator; returns
    the assignments and the calls made on the generator."""
    made = []

    def factory(seed):
        made.append(RecordingRandom(seed))
        return made[-1]

    with mock.patch.object(module, "random", SimpleNamespace(Random=factory)):
        placed = module.place(*args, **kwargs)
    (rng,) = made
    return placed.assignments, rng.calls


def reference_start_temperature(deltas):
    """The frozen reference's start temperature: twice the mean sampled |delta|."""
    return max(1e-9, 2.0 * sum(deltas) / len(deltas)) if deltas else 1.0


def assert_same_as_reference(design, fabric, die, seed, cfg):
    with mock.patch.object(pl, "_analytic_start", lambda anchor, *_: anchor), \
            mock.patch.object(pl, "_start_temperature", reference_start_temperature), \
            mock.patch.object(pl, "RANGE_START", math.inf), \
            mock.patch.object(pl, "RANGE_TARGET", 0), \
            mock.patch.object(pl, "STOP_GAIN", 0):
        new, new_calls = recorded_place(pl, design, fabric, die, seed=seed, config=cfg)
    old, old_calls = recorded_place(ref, design, fabric, die, seed=seed, config=cfg)
    assert new_calls == old_calls
    assert new == old


@st.composite
def instances(draw):
    """A netlist on one fabric's master (plus a 1x1 master), its die, a seed
    and an annealer config.  Nets have 1 to 6 terminals on random cells and
    pins, so a net may hold two pins of one cell; the die is either full,
    with exactly one slot per cell, or sparse."""
    fabric = fab.builtin_fabric(draw(st.sampled_from(["2d", "tmi", "s3dc"])))
    pins = [(f"p{i}", "output" if i == 0 else "input", 1) for i in range(NPINS)]
    masters = {"m": fab.make_cell_master(fabric, pins, name="m"), "u": unit_master("u", NPINS)}
    n = draw(st.integers(1, 16))
    cells = [nl.CellInstance(f"c{i}", draw(st.sampled_from(["m", "m", "u"]))) for i in range(n)]
    nets = []
    for j in range(draw(st.integers(0, 3 * n))):
        size = draw(st.sampled_from([1, 2, 2, 2, 3, 3, 4, 6]))
        members = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        pin_ids = draw(st.lists(st.integers(0, NPINS - 1), min_size=size, max_size=size))
        nets.append(nl.Net(f"n{j}", [(f"c{c}", f"p{p}") for c, p in zip(members, pin_ids)]))
    design = nl.Netlist("prop", masters, cells, nets)
    if draw(st.booleans()):
        sw, sh = pl._slot_shape(design)
        cols = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        die = pl.Die(cols * sw, n // cols * sh, fabric.site_dim_nm, 1.0)
    else:
        die = pl.size_die(design, fabric, draw(st.floats(0.15, 0.9)))
    cfg = pl.AnnealConfig(
        moves_per_temp=draw(st.sampled_from([1, 2, 7, 60, 400])),
        max_temps=draw(st.integers(0, 25)),
    )
    return design, fabric, die, draw(st.integers(0, 2**16)), cfg


@settings(BOUNDED, max_examples=200)
@given(instance=instances())
def test_place_matches_frozen_reference(instance):
    assert_same_as_reference(*instance)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 979, 1024])
def test_cell_and_slot_draws_are_randrange(m):
    # The reference draws cells with randrange(n) and slots with
    # randrange(nslots); on a die of exactly m slots, holding m cells or
    # about half as many, the placer must consume the same bits in the same
    # calls, so its draws are random.Random(seed).randrange(m) too.
    die = pl.Die(m, 1, 90.0, 1.0)
    cfg = pl.AnnealConfig(moves_per_temp=300, max_temps=3)
    for n in sorted({m, (m + 1) // 2}):
        ring = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n, (i + 5) % n)
                                                       for i in range(0, n, 3)]
        assert_same_as_reference(tiny_netlist(n, ring), fab.builtin_fabric("2d"), die, m, cfg)


# --- the move window


@st.composite
def windows(draw):
    """A slot grid, a window radius from 1 to past the die and a slot."""
    cols, rows = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    w = draw(st.integers(1, max(cols, rows) + 1))
    return cols, rows, w, draw(st.integers(0, cols * rows - 1)), draw(st.integers(0, 2**16))


@settings(BOUNDED, max_examples=300)
@given(window=windows())
def test_window_draw_is_a_clamped_uniform_offset(window):
    cols, rows, w, s1, seed = window
    nslots = cols * rows
    rng = RecordingRandom(seed)
    draw = pl._target_sampler(rng.getrandbits, cols, rows, w)
    got = [draw(s1) for _ in range(50)]
    plain = random.Random(seed)
    if w >= max(cols, rows) - 1:
        # A window that covers the die draws any slot with today's calls.
        assert got == [plain.randrange(nslots) for _ in got]
        assert {k for _, k, _ in rng.calls} == {nslots.bit_length()}
        return
    col, row = s1 % cols, s1 // cols
    for s2 in got:
        assert abs(s2 % cols - col) <= w and abs(s2 // cols - row) <= w
    # dx and then dy as randrange(2w + 1) draws them, the target clamped
    expected = []
    for _ in got:
        dx, dy = plain.randrange(2 * w + 1), plain.randrange(2 * w + 1)
        expected.append(min(max(row + dy - w, 0), rows - 1) * cols
                        + min(max(col + dx - w, 0), cols - 1))
    assert got == expected
    # Every clamped slot of the window is drawn for some pair of offsets.
    offsets = iter([v for dx in range(2 * w + 1) for dy in range(2 * w + 1) for v in (dx, dy)])
    every = pl._target_sampler(lambda _: next(offsets), cols, rows, w)
    reached = {every(s1) for _ in range((2 * w + 1) ** 2)}
    assert reached == {min(max(r, 0), rows - 1) * cols + min(max(c, 0), cols - 1)
                       for r in range(row - w, row + w + 1) for c in range(col - w, col + w + 1)}


def test_anneal_stops_when_a_step_gains_under_stop_gain(caplog):
    # The 600-cell fabric-sweep design on s3dc: the anneal stops on the gain
    # rule long before max_temps, the window radius follows the VPR rule (it
    # passes 1.69, which rounds up) and the result is the best-seen state.
    fabric = fab.builtin_fabric("s3dc")
    design = fab.bind_masters(nl.generate_synthetic(nl.SynthesisParams(num_cells=600, seed=1)),
                              fabric)
    die = pl.size_die(design, fabric, 0.6)
    cfg = pl.AnnealConfig(moves_per_temp=2000, max_temps=150)
    with caplog.at_level(logging.DEBUG, logger="routekit.placement"):
        placed = pl.place(design, fabric, die, seed=1, config=cfg)
    records = [r for r in caplog.records if r.name == "routekit.placement"]
    start, *steps, stop = records
    assert stop.getMessage() == (f"anneal stopped after step {len(steps) - 1}: "
                                 "best cost fell by less than 1%")
    assert len(steps) < 150
    bests = [start.args[1]] + [r.args[5] for r in steps]
    assert all(a - b >= pl.STOP_GAIN * a for a, b in zip(bests[:-2], bests[1:-1]))
    assert bests[-2] - bests[-1] < pl.STOP_GAIN * bests[-2]
    assert pl.hpwl(design, placed) == bests[-1]
    cols = die.width // pl._slot_shape(design)[0]
    side = max(cols, pl._slots(design, die)[0] // cols)
    radius = min(pl.RANGE_START, side)
    for r in steps:
        assert r.args[6] == int(radius + 0.5)
        radius = min(max(radius * (1 - pl.RANGE_TARGET + r.args[2] / r.args[3]), 1), side)


@pytest.mark.parametrize("kind", ["2d", "tmi", "s3dc"])
def test_cold_anneal_matches_frozen_reference(kind, caplog):
    # A sparse 300-cell die annealed until the stop rule: the late steps
    # accept under 5% of their moves, so the draws of the cold
    # exp(-delta / T) test are compared too.
    fabric = fab.builtin_fabric(kind)
    design = fab.bind_masters(nl.generate_synthetic(nl.SynthesisParams(num_cells=300, seed=7)),
                              fabric)
    die = pl.size_die(design, fabric, 0.3)
    cfg = pl.AnnealConfig(moves_per_temp=300, max_temps=150)
    with caplog.at_level(logging.DEBUG, logger="routekit.placement"):
        assert_same_as_reference(design, fabric, die, 5, cfg)
    steps = [r.args for r in caplog.records if r.getMessage().startswith("anneal step")]
    cold = [a for a in steps if a[2] < 0.05 * a[3]]
    assert len(cold) >= 10


@pytest.mark.parametrize("cells, design_seed, seed, moves", [
    (600, 1, 1, 2000),  # the bench's fabric-sweep design
    (1000, 102, 2, 4000),  # the bench's congested-reroute design
    (4096, 1, 1, None),  # run's defaults at 4096 cells
])
def test_first_step_does_not_melt_the_analytic_start(cells, design_seed, seed, moves, caplog):
    # The start temperature and the window refine the analytic start rather
    # than melt it: the first step ends at no higher a cost than the start's.
    fabric = fab.builtin_fabric("tmi")
    design = fab.bind_masters(
        nl.generate_synthetic(nl.SynthesisParams(num_cells=cells, seed=design_seed)), fabric)
    die = pl.size_die(design, fabric, 0.6)
    cfg = pl.AnnealConfig(moves_per_temp=moves, max_temps=1)
    with caplog.at_level(logging.DEBUG, logger="routekit.placement"):
        pl.place(design, fabric, die, seed=seed, config=cfg)
    records = [r for r in caplog.records if r.name == "routekit.placement"]
    start = next(r for r in records if r.getMessage().startswith("anneal start"))
    (step,) = [r for r in records if r.getMessage().startswith("anneal step")]
    assert step.args[4] <= start.args[1]


# --- the analytic start


@st.composite
def clique_systems(draw):
    """Nets of 1 to 6 terminals over n cells (a cell may repeat in a net),
    an anchor weight from the range the analytic start uses and an anchor."""
    n = draw(st.integers(1, 24))
    nets = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=6), max_size=3 * n))
    alpha = pl.ANCHOR_WEIGHT * pl.ANCHOR_GROWTH ** draw(st.integers(0, pl.ANALYTIC_ROUNDS - 1))
    anchor = draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    return n, nets, alpha, np.array(anchor, dtype=float)


@settings(BOUNDED, max_examples=200)
@given(system=clique_systems())
def test_anchored_solve_matches_dense_solve(system):
    n, nets, alpha, anchor = system
    laplacian = np.zeros((n, n))
    for net in nets:
        cells = set(net)
        for a in cells:
            for b in cells - {a}:
                laplacian[a, b] -= 1 / (len(cells) - 1)
                laplacian[a, a] += 1 / (len(cells) - 1)
    expected = np.linalg.solve(laplacian + alpha * np.eye(n), alpha * anchor)
    model = pl._clique_model([[(c, 0, 0) for c in net] for net in nets], n)
    got = pl._anchored_solve(model, alpha, anchor)
    assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)


@settings(BOUNDED, max_examples=300)
@given(data=st.data())
def test_legalize_gives_distinct_slots_in_x_then_y_order(data):
    cols = data.draw(st.integers(1, 8))
    rows = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, cols * rows))
    # few distinct coordinates, so that ties are common
    x = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
    y = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
    slots = pl._legalize(x, y, cols, rows)
    assert len(set(slots.tolist())) == n
    assert all(0 <= s < cols * rows for s in slots)
    col, row = slots % cols, slots // cols
    for a in range(n):
        for b in range(n):
            if (x[a], a) < (x[b], b):
                assert col[a] <= col[b]
            if col[a] == col[b] and y[a] < y[b]:
                assert row[a] < row[b]


@settings(BOUNDED, max_examples=300)
@given(deltas=st.lists(st.integers(0, 5000), min_size=1, max_size=200),
       bump=st.integers(1, 100))
def test_start_temperature_hits_its_acceptance_and_rises_with_the_deltas(deltas, bump):
    t = pl._start_temperature(deltas)
    costs = [d for d in deltas if d]
    if not costs:
        assert t == 1.0
        return
    rate = sum(math.exp(-d / t) for d in costs) / len(costs)
    assert rate == pytest.approx(pl.START_ACCEPTANCE, rel=1e-9)
    assert pl._start_temperature([2 * d for d in deltas]) == 2 * t
    # Raising a cost never lowers T; raising the cheapest one, whose move
    # is the likeliest accepted, raises it.
    for cost, rises in ((max(costs), False), (min(costs), True)):
        raised = deltas[:]
        raised[deltas.index(cost)] += bump
        assert pl._start_temperature(raised) > t if rises else pl._start_temperature(raised) >= t


@settings(BOUNDED, max_examples=100)
@given(instance=instances())
def test_place_is_deterministic_and_never_above_its_random_anchor(instance):
    design, fabric, die, seed, cfg = instance
    placed = pl.place(design, fabric, die, seed=seed, config=cfg)
    assert pl.place(design, fabric, die, seed=seed, config=cfg).assignments == placed.assignments
    assert pl.illegal_cell(design, placed) is None
    start = pl.random_placement(design, fabric, die, seed=seed)
    assert pl.hpwl(design, placed) <= pl.hpwl(design, start)
    # the analytic start's array HPWL agrees with hpwl() on that state
    nslots, xs, ys = pl._slots(design, die)
    anchor = np.array(random.Random(seed).sample(range(nslots), len(design.cells)))
    terminals = pl._terminal_arrays(pl._terminal_offsets(design))
    assert pl._slots_hpwl(anchor, terminals, np.array(xs), np.array(ys)) == pl.hpwl(design, start)
