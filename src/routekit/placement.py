"""Die sizing and half-perimeter-wirelength placement.

The die is the smallest near-square site grid keeping functional-cell area
at or below the utilization target (default 0.6; the remaining area is
interspersed whitespace).  Cells occupy a uniform slot grid, so any slot
assignment is overlap-free by construction.

Placement itself is simulated annealing over swap/relocate moves with
geometric cooling.  A move takes a random cell to a random slot and swaps it
with the slot's occupant, if any.  It is evaluated in place: the one or two
cells are put at their new positions, each net they touch is rescored (a
two-terminal net in closed form from a per-cell table, a larger one by a
min/max scan of its terminals) into a scratch array, and a rejected move
puts the cells back.  Nets whose terminals all sit on one cell never change
and are not rescored.  A zero-cost move is accepted with probability 0.5 so
plateaus are still explored deterministically from the seeded RNG.  The
annealer logs its start temperature, each temperature step and why it
stopped at DEBUG level on the ``routekit.placement`` logger.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from .fabric import FabricSpec
from .netlist import Netlist
from .rent import PinDensityInput


logger = logging.getLogger(__name__)


class PlacementError(ValueError):
    pass


@dataclass(frozen=True)
class Die:
    width: int  # sites
    height: int  # sites
    site_dim_nm: float
    utilization: float

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise PlacementError("die must be at least 1x1 sites")
        if not 0 < self.utilization <= 1:
            raise PlacementError("utilization must lie in (0, 1]")

    @property
    def area_sites(self) -> int:
        return self.width * self.height

    @property
    def area_um2(self) -> float:
        dim_um = self.site_dim_nm / 1000.0
        return self.area_sites * dim_um * dim_um


@dataclass
class Placement:
    assignments: dict[str, tuple[int, int]]  # cell id -> site origin (x, y)
    die: Die


def _slot_shape(netlist: Netlist) -> tuple[int, int]:
    if not netlist.cells:
        raise PlacementError("cannot place an empty netlist")
    w = max(netlist.masters[c.master].width for c in netlist.cells)
    h = max(netlist.masters[c.master].height for c in netlist.cells)
    return w, h


def size_die(netlist: Netlist, fabric: FabricSpec, utilization: float = 0.6) -> Die:
    """Smallest near-square die with cell area / die area <= utilization."""
    if not 0 < utilization <= 1:
        raise PlacementError("utilization must lie in (0, 1]")
    if not netlist.cells:
        raise PlacementError("cannot size a die for an empty netlist")
    cell_area = sum(netlist.masters[c.master].area_sites for c in netlist.cells)
    target = cell_area / utilization
    width = math.ceil(math.sqrt(target))
    height = math.ceil(target / width)
    # Grow until the uniform slot grid has a slot for every cell.
    sw, sh = _slot_shape(netlist)
    grow_w = True
    while (width // sw) * (height // sh) < len(netlist.cells):
        if grow_w:
            width += 1
        else:
            height += 1
        grow_w = not grow_w
    return Die(width=width, height=height, site_dim_nm=fabric.site_dim_nm, utilization=utilization)


def _slots(netlist: Netlist, die: Die) -> tuple[int, list[int], list[int]]:
    sw, sh = _slot_shape(netlist)
    cols = die.width // sw
    rows = die.height // sh
    if cols * rows < len(netlist.cells):
        raise PlacementError(
            f"die {die.width}x{die.height} holds only {cols * rows} slots "
            f"for {len(netlist.cells)} cells"
        )
    xs = [(s % cols) * sw for s in range(cols * rows)]
    ys = [(s // cols) * sh for s in range(cols * rows)]
    return cols * rows, xs, ys


def _terminal_offsets(netlist: Netlist) -> list[list[tuple[int, int, int]]]:
    """Per net: (cell index, dx, dy) with the pin's first access offset."""
    index = {c.id: i for i, c in enumerate(netlist.cells)}
    nets = []
    for net in netlist.nets:
        terms = []
        for cid, pin in net.terminals:
            master = netlist.master_of(cid)
            _, dx, dy = master.pin(pin).accesses[0]
            terms.append((index[cid], dx, dy))
        nets.append(terms)
    return nets


def hpwl(netlist: Netlist, placement: Placement) -> int:
    """Total half-perimeter wirelength over all nets, in site units.

    A net's terminal sits at its cell origin plus the pin's first access
    offset; the net contributes its bounding-box half perimeter.
    """
    total = 0
    for net in netlist.nets:
        xs: list[int] = []
        ys: list[int] = []
        for cid, pin in net.terminals:
            if cid not in placement.assignments:
                raise PlacementError(f"net {net.id!r} references unplaced cell {cid!r}")
            ox, oy = placement.assignments[cid]
            _, dx, dy = netlist.master_of(cid).pin(pin).accesses[0]
            xs.append(ox + dx)
            ys.append(oy + dy)
        if xs:
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def random_placement(netlist: Netlist, fabric: FabricSpec, die: Die, seed: int = 0) -> Placement:
    """The seeded random slot assignment ``place`` starts from.  ``fabric``
    is unread; it stays so that callers keep the signature of ``place``."""
    rng = random.Random(seed)
    nslots, xs, ys = _slots(netlist, die)
    chosen = rng.sample(range(nslots), len(netlist.cells))
    assignments = {c.id: (xs[s], ys[s]) for c, s in zip(netlist.cells, chosen)}
    return Placement(assignments=assignments, die=die)


MOVES_CAP = 40000  # most moves per temperature step by default
COOLING = 0.95  # temperature factor per step
MIN_ACCEPT_RATE = 0.01  # stop once a step accepts fewer moves than this share


@dataclass
class AnnealConfig:
    moves_per_temp: int | None = None  # default 100 * num_cells, at most MOVES_CAP
    max_temps: int = 150
    restarts: int = 1


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
    ``fabric`` is unread: the bound masters carry its geometry, and the
    argument stays because callers pass it positionally.
    """
    cfg = config or AnnealConfig()
    nslots, slot_x, slot_y = _slots(netlist, die)
    n = len(netlist.cells)
    net_terms = _terminal_offsets(netlist)
    tables = _move_tables(net_terms, n)

    moves_per_temp = cfg.moves_per_temp
    if moves_per_temp is None:
        moves_per_temp = min(100 * n, MOVES_CAP)

    rng = random.Random(seed)
    best_slots: list[int] | None = None
    best_cost = math.inf
    for _ in range(max(1, cfg.restarts)):
        slots = rng.sample(range(nslots), n)
        cost = _anneal(
            slots, nslots, slot_x, slot_y, net_terms, tables, rng,
            moves_per_temp, cfg.max_temps,
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


def _move_tables(net_terms, n):
    """Per-cell tables for scoring the nets a move touches.

    For each cell: its two-terminal nets as ``(net, other cell, ox, oy)``,
    worth ``|px[cell] - px[other] + ox| + |py[cell] - py[other] + oy|``; its
    larger nets as ``(net, first cell, dx, dy, other terminals)``; the set of
    both kinds' ids.  A net whose terminals all sit on one cell (an empty
    net among them) keeps its value under every move and is left out.
    """
    two: list[list[tuple]] = [[] for _ in range(n)]
    multi: list[list[tuple]] = [[] for _ in range(n)]
    for j, terms in enumerate(net_terms):
        cells = {c for c, _, _ in terms}
        if len(cells) < 2:
            continue
        if len(terms) == 2:
            (a, dxa, dya), (b, dxb, dyb) = terms
            two[a].append((j, b, dxa - dxb, dya - dyb))
            two[b].append((j, a, dxb - dxa, dyb - dya))
        else:
            entry = (j, *terms[0], tuple(terms[1:]))
            for c in cells:
                multi[c].append(entry)
    return two, multi, [frozenset(e[0] for e in two[c] + multi[c]) for c in range(n)]


def _anneal(cell_slot, nslots, slot_x, slot_y, net_terms, tables, rng,
            moves_per_temp, max_temps):
    """One annealing run; leaves ``cell_slot`` at the best-seen assignment
    and returns its cost."""
    two, multi, cell_nets = tables
    n = len(cell_slot)
    slot_cell = [-1] * nslots
    for c, s in enumerate(cell_slot):
        slot_cell[s] = c
    px = [slot_x[s] for s in cell_slot]
    py = [slot_y[s] for s in cell_slot]

    hp = [0] * len(net_terms)
    for j, terms in enumerate(net_terms):
        if terms:
            xs = [px[c] + dx for c, dx, _ in terms]
            ys = [py[c] + dy for c, _, dy in terms]
            hp[j] = (max(xs) - min(xs)) + (max(ys) - min(ys))
    nv = hp[:]  # the values of the nets the last probed move touches
    cost = sum(hp)
    best_cost = cost
    # The best-seen state, or None while the current state is it: a copy is
    # taken only when an accepted move leaves that state.
    best = None

    rand = rng.random
    getrandbits = rng.getrandbits
    exp = math.exp
    # Cells and slots are drawn as randrange() draws them: bit_length() random
    # bits, drawn again until the value is in range.
    cell_bits = n.bit_length()
    slot_bits = nslots.bit_length()

    def score(cell, x, y, skip):
        # Rescore the nets of ``cell``, now at (x, y), except those in
        # ``skip``: write their new values into nv, return the HPWL delta.
        delta = 0
        for j, o, ox, oy in two[cell]:
            if j in skip:
                continue
            v = abs(x - px[o] + ox) + abs(y - py[o] + oy)
            nv[j] = v
            delta += v - hp[j]
        for j, cc, dx, dy, rest in multi[cell]:
            if j in skip:
                continue
            xmin = xmax = px[cc] + dx
            ymin = ymax = py[cc] + dy
            for cc, dx, dy in rest:
                tx = px[cc] + dx
                if tx < xmin:
                    xmin = tx
                elif tx > xmax:
                    xmax = tx
                ty = py[cc] + dy
                if ty < ymin:
                    ymin = ty
                elif ty > ymax:
                    ymax = ty
            v = (xmax - xmin) + (ymax - ymin)
            nv[j] = v
            delta += v - hp[j]
        return delta

    def probe(c, c2, x1, y1, x2, y2):
        # Put c at (x2, y2) and c2, if any, at (x1, y1); return the HPWL delta.
        px[c] = x2
        py[c] = y2
        if c2 < 0:
            return score(c, x2, y2, ())
        px[c2] = x1
        py[c2] = y1
        # A net of both cells is scored once, with c's nets.
        return score(c, x2, y2, ()) + score(c2, x1, y1, cell_nets[c])

    # Calibrate the start temperature from typical move magnitudes.
    deltas = []
    for _ in range(min(200, 20 * n)):
        c = getrandbits(cell_bits)
        while c >= n:
            c = getrandbits(cell_bits)
        s2 = getrandbits(slot_bits)
        while s2 >= nslots:
            s2 = getrandbits(slot_bits)
        s1 = cell_slot[c]
        if s1 == s2:
            continue
        c2 = slot_cell[s2]
        x1, y1, x2, y2 = slot_x[s1], slot_y[s1], slot_x[s2], slot_y[s2]
        deltas.append(abs(probe(c, c2, x1, y1, x2, y2)))
        px[c] = x1
        py[c] = y1
        if c2 >= 0:
            px[c2] = x2
            py[c2] = y2
    t = max(1e-9, 2.0 * sum(deltas) / len(deltas)) if deltas else 1.0
    logger.debug("anneal start: T=%.6g, cost %d, %d cells in %d slots, %d moves per step",
                 t, cost, n, nslots, moves_per_temp)

    min_accepted = max(1, int(MIN_ACCEPT_RATE * moves_per_temp))
    for step in range(max_temps):
        accepted = 0
        for _ in range(moves_per_temp):
            c = getrandbits(cell_bits)
            while c >= n:
                c = getrandbits(cell_bits)
            s2 = getrandbits(slot_bits)
            while s2 >= nslots:
                s2 = getrandbits(slot_bits)
            s1 = cell_slot[c]
            if s1 == s2:
                continue
            c2 = slot_cell[s2]
            x1, y1, x2, y2 = slot_x[s1], slot_y[s1], slot_x[s2], slot_y[s2]
            delta = probe(c, c2, x1, y1, x2, y2)
            if delta < 0:
                ok = True
            elif delta == 0:
                ok = rand() < 0.5
            else:
                ok = rand() < exp(-delta / t)
            if ok:
                if best is None and delta >= 0:  # leaving the best-seen state
                    best = cell_slot[:]
                cell_slot[c] = s2
                slot_cell[s2] = c
                for j in cell_nets[c]:
                    hp[j] = nv[j]
                if c2 >= 0:
                    cell_slot[c2] = s1
                    slot_cell[s1] = c2
                    for j in cell_nets[c2]:
                        hp[j] = nv[j]
                else:
                    slot_cell[s1] = -1
                cost += delta
                accepted += 1
                if cost < best_cost:
                    best_cost = cost
                    best = None
            else:
                px[c] = x1
                py[c] = y1
                if c2 >= 0:
                    px[c2] = x2
                    py[c2] = y2
        logger.debug("anneal step %d: T=%.6g, accepted %d of %d, cost %d, best %d",
                     step, t, accepted, moves_per_temp, cost, best_cost)
        t *= COOLING
        if accepted < min_accepted:
            logger.debug("anneal stopped after step %d: %d accepted moves, below %d",
                         step, accepted, min_accepted)
            break
    else:
        logger.debug("anneal stopped: max_temps (%d) reached", max_temps)

    if best is not None:
        cell_slot[:] = best
    return best_cost


def illegal_cell(netlist: Netlist, placement: Placement) -> tuple[str, str] | None:
    """The first cell, in ``placement.assignments`` order, whose footprint
    leaves the die or covers a site of an earlier cell, with the reason;
    None for a legal placement.  One pass marks each cell's sites in an
    occupancy grid."""
    die = placement.die
    owner: list[str | None] = [None] * die.area_sites
    for cid, (x, y) in placement.assignments.items():
        m = netlist.master_of(cid)
        if x < 0 or y < 0 or x + m.width > die.width or y + m.height > die.height:
            return cid, (f"cell {cid!r} at ({x},{y}) does not fit in the "
                         f"{die.width}x{die.height} die")
        for row in range(y * die.width, (y + m.height) * die.width, die.width):
            for site in range(row + x, row + x + m.width):
                if owner[site] is not None:
                    return cid, f"cell {cid!r} overlaps cell {owner[site]!r}"
                owner[site] = cid
    return None


def pin_density_of(placement: Placement, netlist: Netlist, fabric: FabricSpec) -> PinDensityInput:
    """Pin-density inputs for the analytic demand model: connected terminal
    count, die area, and the fabric's pin-access layer count."""
    return PinDensityInput(
        total_pins=netlist.total_terminals,
        die_area_um2=placement.die.area_um2,
        pin_access_layers=fabric.pin_access_layers,
    )
