"""Property tests for the annealing placer, on random small netlists.

``routekit.placement.place`` must make the same moves as the frozen
reference in ``placement_reference.py``: the same random draws, in the same
order, and so the same assignments.  Each run records every call the
placer makes on its random number generator, so a draw that differs shows
even where the final placement happens to agree.  The hypothesis profile is
bounded and derandomised, so every run checks the same examples.
"""

import random
from types import SimpleNamespace
from unittest import mock

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


def assert_same_as_reference(design, fabric, die, seed, cfg):
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
        cooling=draw(st.sampled_from([0.5, 0.9, 0.95])),
        min_accept_rate=draw(st.sampled_from([0.0, 0.01, 0.2, 1.0])),
        max_temps=draw(st.integers(0, 25)),
        restarts=draw(st.integers(1, 3)),
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
    cfg = pl.AnnealConfig(moves_per_temp=300, max_temps=3, min_accept_rate=0.0, restarts=2)
    for n in sorted({m, (m + 1) // 2}):
        ring = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n, (i + 5) % n)
                                                       for i in range(0, n, 3)]
        assert_same_as_reference(tiny_netlist(n, ring), fab.builtin_fabric("2d"), die, m, cfg)
