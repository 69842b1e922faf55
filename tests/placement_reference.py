"""Frozen reference copy of the annealing placer.

``place`` and ``_anneal`` below are verbatim copies of the placer as it
stood before move evaluation moved cells in place, scored two-terminal nets
in closed form and drew cells and slots with ``getrandbits`` rejection.
The live ``routekit.placement.place`` must return exactly what this one
returns: the same moves, the same random draws, the same integer deltas and
so the same assignments.  The helpers (``_slots``, ``_terminal_offsets``,
``AnnealConfig``, ``Placement``) come from the live module.  The schedule
values it once read from ``AnnealConfig`` (at most 40000 moves per step by
default, cooling 0.95, one restart) are
written in as literals, so that the copy does not follow the live constants.
Do not edit or optimise this file.
"""

import math
import random

from routekit.fabric import FabricSpec
from routekit.netlist import Netlist
from routekit.placement import AnnealConfig, Die, Placement, _slots, _terminal_offsets


def place(
    netlist: Netlist,
    fabric: FabricSpec,
    die: Die,
    seed: int = 0,
    config: AnnealConfig | None = None,
) -> Placement:
    """Anneal cells into die slots minimizing total HPWL.

    Deterministic for a fixed seed; the returned placement never has higher
    HPWL than the initial random assignment (best-seen state is kept).
    """
    cfg = config or AnnealConfig()
    nslots, slot_x, slot_y = _slots(netlist, die)
    n = len(netlist.cells)
    net_terms = _terminal_offsets(netlist)
    cell_nets: list[list[int]] = [[] for _ in range(n)]
    for j, terms in enumerate(net_terms):
        for c, _, _ in terms:
            if not cell_nets[c] or cell_nets[c][-1] != j:
                cell_nets[c].append(j)

    moves_per_temp = cfg.moves_per_temp
    if moves_per_temp is None:
        moves_per_temp = min(100 * n, 40000)

    rng = random.Random(seed)
    best_slots: list[int] | None = None
    best_cost = math.inf
    for _ in range(1):
        slots = rng.sample(range(nslots), n)
        cost = _anneal(
            slots, nslots, slot_x, slot_y, net_terms, cell_nets, rng,
            moves_per_temp, 0.95, cfg.max_temps,
        )
        if cost < best_cost:
            best_cost = cost
            best_slots = slots[:]

    assert best_slots is not None
    assignments = {
        c.id: (slot_x[best_slots[i]], slot_y[best_slots[i]])
        for i, c in enumerate(netlist.cells)
    }
    return Placement(assignments=assignments, die=die)


def _anneal(cell_slot, nslots, slot_x, slot_y, net_terms, cell_nets, rng,
            moves_per_temp, cooling, max_temps):
    """One annealing run; leaves ``cell_slot`` at the best-seen assignment
    and returns its cost."""
    n = len(cell_slot)
    slot_cell = [-1] * nslots
    for c, s in enumerate(cell_slot):
        slot_cell[s] = c
    px = [slot_x[s] for s in cell_slot]
    py = [slot_y[s] for s in cell_slot]

    hp = []
    for terms in net_terms:
        xs = [px[c] + dx for c, dx, _ in terms]
        ys = [py[c] + dy for c, _, dy in terms]
        hp.append((max(xs) - min(xs)) + (max(ys) - min(ys)))
    cost = sum(hp)
    best_cost = cost
    best = cell_slot[:]

    rand = rng.random
    randrange = rng.randrange

    def probe(c, s1, c2, s2):
        # HPWL delta and new per-net values with c at s2 (and c2, if any, at s1),
        # computed without touching state.
        nets = cell_nets[c]
        if c2 >= 0:
            nets = list(nets)
            for j in cell_nets[c2]:
                if j not in nets:
                    nets.append(j)
        nx2, ny2 = slot_x[s2], slot_y[s2]
        nx1, ny1 = slot_x[s1], slot_y[s1]
        delta = 0
        new_vals = []
        for j in nets:
            xmin = ymin = 1 << 60
            xmax = ymax = -(1 << 60)
            for cc, dx, dy in net_terms[j]:
                if cc == c:
                    x = nx2 + dx
                    y = ny2 + dy
                elif cc == c2:
                    x = nx1 + dx
                    y = ny1 + dy
                else:
                    x = px[cc] + dx
                    y = py[cc] + dy
                if x < xmin:
                    xmin = x
                if x > xmax:
                    xmax = x
                if y < ymin:
                    ymin = y
                if y > ymax:
                    ymax = y
            v = (xmax - xmin) + (ymax - ymin)
            new_vals.append(v)
            delta += v - hp[j]
        return delta, nets, new_vals

    def commit(c, s1, c2, s2, nets, new_vals):
        cell_slot[c] = s2
        slot_cell[s2] = c
        px[c] = slot_x[s2]
        py[c] = slot_y[s2]
        if c2 >= 0:
            cell_slot[c2] = s1
            slot_cell[s1] = c2
            px[c2] = slot_x[s1]
            py[c2] = slot_y[s1]
        else:
            slot_cell[s1] = -1
        for j, v in zip(nets, new_vals):
            hp[j] = v

    # Calibrate the start temperature from typical move magnitudes.
    deltas = []
    for _ in range(min(200, 20 * n)):
        c = randrange(n)
        s2 = randrange(nslots)
        s1 = cell_slot[c]
        if s1 == s2:
            continue
        d, _, _ = probe(c, s1, slot_cell[s2], s2)
        deltas.append(abs(d))
    t = max(1e-9, 2.0 * sum(deltas) / len(deltas)) if deltas else 1.0

    for _ in range(max_temps):
        accepted = 0
        for _ in range(moves_per_temp):
            c = randrange(n)
            s2 = randrange(nslots)
            s1 = cell_slot[c]
            if s1 == s2:
                continue
            c2 = slot_cell[s2]
            delta, nets, new_vals = probe(c, s1, c2, s2)
            if delta < 0:
                ok = True
            elif delta == 0:
                ok = rand() < 0.5
            else:
                ok = rand() < math.exp(-delta / t)
            if ok:
                commit(c, s1, c2, s2, nets, new_vals)
                cost += delta
                accepted += 1
                if cost < best_cost:
                    best_cost = cost
                    best = cell_slot[:]
        t *= cooling
        if best_cost == 0:
            break

    cell_slot[:] = best
    return best_cost
