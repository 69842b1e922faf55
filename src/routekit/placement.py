"""Die sizing and half-perimeter-wirelength placement.

The die is the smallest near-square site grid keeping functional-cell area
at or below the utilization target (default 0.6; the remaining area is
interspersed whitespace).  Cells occupy a uniform slot grid, so any slot
assignment is overlap-free by construction.

Placement is an analytic start followed by a short, cool, range-limited
simulated anneal.

The analytic start (after GORDIAN and SimPL) models each net as a clique
over its distinct cells, edge weight 1/(k - 1), and solves the anchored
quadratic problem ``(L + a I) x = a x_anchor`` for x and for y by conjugate
gradients.  The first anchor is a seeded random slot assignment.  Each round
legalises the solution onto the slot grid (cells cut into columns by x, each
column spread over the rows by y), and that legal state anchors the next
round with a larger weight ``a``.  The start is the lowest-HPWL legal state
seen, the random anchor included.

The anneal makes swap/relocate moves with geometric cooling.  A move takes a
random cell to a slot near its own and swaps it with the slot's occupant, if
any.  The target is drawn from a window of radius w slots around the cell's
slot: a column offset and then a row offset, each uniform in [-w, w], the
target clamped to the slot grid.  The window follows VPR's range limiter
(Betz & Rose, FPL 1997).  Its radius starts at RANGE_START, 3 slots, since
the start is already analytic; after each step it is scaled by
``1 - RANGE_TARGET + accepted share``, with RANGE_TARGET 0.44, and kept
between 1 and the grid's longer side; w is the radius rounded.  A window
that reaches across the die from every slot draws any slot.  The anneal
stops after a step that lowers the best-seen cost by less than STOP_GAIN,
1%, of its value or leaves it at 0, or at the max_temps cap.  Die-wide
moves from an analytic start were only 1-3% accepted, and their anneal ran
18 to 40 steps on the bench designs; windowed moves are accepted 8-27% of
the time, and the gain stop ends the same runs after 7 to 10 steps at lower
HPWL.

A move is evaluated in place: the one or two cells are put at their new
positions and each net they touch is rescored (a two-terminal net in closed
form from a per-cell table, a larger one by a min/max scan of its
terminals) into a scratch array.  A rejected move puts the cells back.
Nets whose terminals all sit on one cell never change and are not
rescored.  A zero-cost move is accepted with probability 0.5 so plateaus are
still explored deterministically from the seeded RNG.

The start temperature is sampled by the first pass of the anneal's step
loop, pass -1.  It makes ``min(200, 20 n)`` cell and target draws from the
start state, in the first window, scores each move and puts it back; a
draw that lands on the cell's own slot is skipped, so fewer costs than
draws may be recorded.  The temperature is the one at which moves of those
costs would be accepted at the rate ``START_ACCEPTANCE``, 2%.  For die-wide
moves that was about the start state's own equilibrium (White, ICCD 1984)
on nine designs of 600 to 4096 cells.  Windowed moves find 11-27% of their
samples improving on the start, so 2% starts the anneal well below that
equilibrium: it refines the analytic start rather than melting it, and its
first step ends 4-15% below the start's cost on those designs.  The
annealer logs its start temperature, each temperature step with its window
radius and why it stopped at DEBUG level on the ``routekit.placement``
logger.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

import numpy as np

from .fabric import FabricSpec
from .netlist import Netlist


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
    offset; the net contributes its bounding-box half perimeter.  A cell
    that no net names may be left unplaced.
    """
    where = placement.assignments
    for net in netlist.nets:
        for cid, _ in net.terminals:
            if cid not in where:
                raise PlacementError(f"net {net.id!r} references unplaced cell {cid!r}")
    # Cell i sits at "slot" i, whose coordinates are its own.
    x, y = np.array([where.get(c.id, (0, 0)) for c in netlist.cells],
                    dtype=np.intp).reshape(-1, 2).T
    return _slots_hpwl(np.arange(len(x)), _terminal_arrays(_terminal_offsets(netlist)), x, y)


def random_placement(netlist: Netlist, fabric: FabricSpec, die: Die, seed: int = 0) -> Placement:
    """The seeded random slot assignment that anchors ``place``'s analytic
    start; ``place`` never ends above its HPWL.
    ``fabric`` is unread; it stays so that callers keep the signature of
    ``place``."""
    rng = random.Random(seed)
    nslots, xs, ys = _slots(netlist, die)
    chosen = rng.sample(range(nslots), len(netlist.cells))
    assignments = {c.id: (xs[s], ys[s]) for c, s in zip(netlist.cells, chosen)}
    return Placement(assignments=assignments, die=die)


MOVES_CAP = 40000  # most moves per temperature step by default
COOLING = 0.95  # temperature factor per step
START_ACCEPTANCE = 0.02  # share of the sampled costly moves the first step would accept
ANALYTIC_ROUNDS = 16  # anchored solves of the analytic start
ANCHOR_WEIGHT = 0.01  # anchor weight of the first solve
ANCHOR_GROWTH = 1.6  # anchor weight factor per round
CG_TOL = 1e-10  # conjugate gradients stop at this residual norm over the right-hand side's
RANGE_START = 3  # the move window's first radius, in slots
RANGE_TARGET = 0.44  # the accepted share at which the window keeps its radius
STOP_GAIN = 0.01  # stop once a step lowers the best-seen cost by less than this share


@dataclass
class AnnealConfig:
    moves_per_temp: int | None = None  # default 100 * num_cells, at most MOVES_CAP
    max_temps: int = 150

    def __post_init__(self):
        if self.moves_per_temp is not None and self.moves_per_temp < 1:
            raise ValueError(f"moves_per_temp must be >= 1, got {self.moves_per_temp}")
        if self.max_temps < 0:
            raise ValueError(f"max_temps must be >= 0, got {self.max_temps}")


def place(
    netlist: Netlist,
    fabric: FabricSpec,
    die: Die,
    seed: int = 0,
    config: AnnealConfig | None = None,
) -> Placement:
    """Place cells into die slots minimizing total HPWL: an analytic start
    from a seeded random anchor, then a cool anneal on the same random stream.

    Deterministic for a fixed seed.  The anchor is ``random_placement(seed)``,
    and each stage keeps its best-seen state, so the result never has higher
    HPWL than that assignment.  ``fabric`` is unread: the bound masters carry
    its geometry, and the argument stays because callers pass it positionally.
    """
    cfg = config or AnnealConfig()
    nslots, slot_x, slot_y = _slots(netlist, die)
    n = len(netlist.cells)
    net_terms = _terminal_offsets(netlist)
    model = _clique_model(net_terms, n)
    terminals = _terminal_arrays(net_terms)
    cols = die.width // _slot_shape(netlist)[0]

    moves_per_temp = cfg.moves_per_temp
    if moves_per_temp is None:
        moves_per_temp = min(100 * n, MOVES_CAP)

    rng = random.Random(seed)
    anchor = rng.sample(range(nslots), n)
    slots = _analytic_start(anchor, model, terminals, slot_x, slot_y, cols)
    _anneal(slots, cols, slot_x, slot_y, net_terms, rng, moves_per_temp, cfg.max_temps)
    assignments = {c.id: (slot_x[s], slot_y[s]) for c, s in zip(netlist.cells, slots)}
    return Placement(assignments=assignments, die=die)


def _clique_model(net_terms, n):
    """The clique net model: a net over k > 1 distinct cells joins each two
    of them with weight 1/(k - 1).  Returns its incidence arrays (cell and
    net of each (net, distinct cell) pair), the net weights and the
    diagonal of the n x n Laplacian L, so that ``L v`` is
    ``diag v - B^T W B v`` for the incidence matrix B."""
    pin_cell: list[int] = []
    pin_net: list[int] = []
    weight: list[float] = []
    for terms in net_terms:
        cells = sorted({c for c, _, _ in terms})
        if len(cells) > 1:
            pin_cell += cells
            pin_net += [len(weight)] * len(cells)
            weight.append(1.0 / (len(cells) - 1))
    pin_cell_a = np.array(pin_cell, dtype=np.intp)
    pin_net_a = np.array(pin_net, dtype=np.intp)
    weight_a = np.array(weight)
    # L's diagonal is a cell's degree: k - 1 edges of weight 1/(k - 1) on
    # each of its nets, so its net count.  B^T W B holds each of its nets'
    # weights on the diagonal as well, so diag adds those for L v to come out.
    diag = (np.bincount(pin_cell_a, minlength=n)
            + np.bincount(pin_cell_a, weights=weight_a[pin_net_a], minlength=n))
    return pin_cell_a, pin_net_a, weight_a, diag


def _anchored_solve(model, alpha, anchor):
    """x solving ``(L + alpha I) x = alpha anchor`` for ``model``'s Laplacian
    L, by conjugate gradients from the anchor until the residual's norm is
    CG_TOL of the right-hand side's."""
    pin_cell, pin_net, weight, diag = model
    n, nnets = len(anchor), len(weight)
    shifted = diag + alpha

    def matvec(v):
        net_sums = np.bincount(pin_net, weights=v[pin_cell], minlength=nnets)
        return shifted * v - np.bincount(pin_cell, weights=(weight * net_sums)[pin_net],
                                         minlength=n)

    b = alpha * anchor
    x = anchor.copy()
    r = b - matvec(x)
    p = r.copy()
    rr = r @ r
    stop = CG_TOL * CG_TOL * (b @ b)
    # n steps solve exactly without rounding; the cap only ends a stalled solve.
    for _ in range(10 * n):
        if rr <= stop:
            break
        ap = matvec(p)
        step = rr / (p @ ap)
        x += step * p
        r -= step * ap
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return x


def _legalize(x, y, cols, rows):
    """Distinct slots for cells at (x, y): the cells, in x order with the
    index breaking ties, are cut into ``cols`` columns of near-equal size;
    each column, in y order, is spread evenly over its ``rows`` rows.  Slot
    ``s`` is column ``s % cols`` of row ``s // cols``, as ``_slots`` numbers
    them; needs ``len(x) <= cols * rows``."""
    n = len(x)
    col = np.empty(n, dtype=np.intp)
    col[np.argsort(x, kind="stable")] = np.arange(n) * cols // n
    order = np.lexsort((y, col))  # by column, then y; lexsort is stable
    size = np.bincount(col, minlength=cols)
    c = col[order]
    rank = np.arange(n) - (np.cumsum(size) - size)[c]
    slots = np.empty(n, dtype=np.intp)
    slots[order] = (2 * rank + 1) * rows // (2 * size[c]) * cols + c
    return slots


def _terminal_arrays(net_terms):
    """The terminals of the nets that have any, net by net, as cell, dx and
    dy arrays, with the index of each net's first terminal."""
    cell, dx, dy = np.array([t for terms in net_terms for t in terms],
                            dtype=np.intp).reshape(-1, 3).T
    sizes = np.array([len(terms) for terms in net_terms if terms], dtype=np.intp)
    return cell, dx, dy, np.cumsum(sizes) - sizes


def _slots_hpwl(slots, terminals, slot_x, slot_y):
    """``hpwl`` of the assignment of cell i to slot ``slots[i]``."""
    cell, dx, dy, first = terminals
    if not len(cell):
        return 0
    x = slot_x[slots][cell] + dx
    y = slot_y[slots][cell] + dy
    return int((np.maximum.reduceat(x, first) - np.minimum.reduceat(x, first)).sum()
               + (np.maximum.reduceat(y, first) - np.minimum.reduceat(y, first)).sum())


def _analytic_start(anchor, model, terminals, slot_x, slot_y, cols):
    """The lowest-HPWL legal state among ``anchor`` (a slot per cell) and
    ANALYTIC_ROUNDS legalised anchored solves, each anchored at the legal
    state before it, the anchor weight growing by ANCHOR_GROWTH a round."""
    slot_x, slot_y = np.array(slot_x), np.array(slot_y)
    rows = len(slot_x) // cols
    slots = np.array(anchor, dtype=np.intp)
    best, best_cost = slots, _slots_hpwl(slots, terminals, slot_x, slot_y)
    alpha = ANCHOR_WEIGHT
    for _ in range(ANALYTIC_ROUNDS):
        x = _anchored_solve(model, alpha, slot_x[slots].astype(float))
        y = _anchored_solve(model, alpha, slot_y[slots].astype(float))
        slots = _legalize(x, y, cols, rows)
        cost = _slots_hpwl(slots, terminals, slot_x, slot_y)
        if cost < best_cost:
            best, best_cost = slots, cost
        alpha *= ANCHOR_GROWTH
    return best.tolist()


def _start_temperature(deltas):
    """The temperature T at which moves of the sampled costs ``deltas``
    would be accepted at the mean rate ``mean(exp(-d / T))`` =
    START_ACCEPTANCE; 1.0 if every cost is 0.  A move of cost 0 is left
    out: its acceptance does not depend on T.  Bisection runs until the
    bounds are adjacent floats, so T is the least float reaching the rate,
    whatever the bracket."""
    costs = [d for d in deltas if d]
    if not costs:
        return 1.0
    target = START_ACCEPTANCE * len(costs)
    # Equal costs d give T = d / scale, so T lies between the smallest and
    # the largest cost's; a factor 2 keeps both bounds clear of rounding.
    scale = -math.log(START_ACCEPTANCE)
    lo, hi = min(costs) / scale / 2, 2 * max(costs) / scale
    while True:
        t = (lo + hi) / 2
        if t in (lo, hi):
            return hi
        if sum(math.exp(-d / t) for d in costs) < target:
            lo = t
        else:
            hi = t


def _move_tables(net_terms, n):
    """Per-cell tables for scoring the nets a move touches.

    For each cell: its two-terminal nets as ``(net, other cell, ox, oy)``,
    worth ``|px[cell] - px[other] + ox| + |py[cell] - py[other] + oy|``; its
    larger nets as ``(net, first cell, dx, dy, other terminals)``; the set
    of the cell's net ids.  A net whose terminals all sit on one
    cell (an empty net among them) keeps its value under every move and is
    left out.
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


def _target_sampler(getrandbits, cols, rows, w):
    """The draw of a move's target slot from its cell's slot ``s1`` on a
    ``cols`` x ``rows`` slot grid, for a window of radius ``w``: a column
    offset and then a row offset, each uniform in [-w, w] as randrange(2w + 1)
    draws it, the target clamped to the grid.  A window that covers the die
    from every slot draws any slot, as randrange(cols * rows) does."""
    nslots = cols * rows
    if w >= max(cols, rows) - 1:
        slot_bits = nslots.bit_length()

        def draw(s1):
            s2 = getrandbits(slot_bits)
            while s2 >= nslots:
                s2 = getrandbits(slot_bits)
            return s2
        return draw

    span = 2 * w
    bits = (span + 1).bit_length()
    # The clamped column, and row start, at each offset position col + dx.
    col_at = [min(max(k - w, 0), cols - 1) for k in range(cols + span)]
    row_at = [min(max(k - w, 0), rows - 1) * cols for k in range(rows + span)]

    def draw(s1):
        dx = getrandbits(bits)
        while dx > span:
            dx = getrandbits(bits)
        dy = getrandbits(bits)
        while dy > span:
            dy = getrandbits(bits)
        return row_at[s1 // cols + dy] + col_at[s1 % cols + dx]
    return draw


def _anneal(cell_slot, cols, slot_x, slot_y, net_terms, rng, moves_per_temp, max_temps):
    """One annealing run on a slot grid ``cols`` wide; leaves ``cell_slot``
    at the best-seen assignment.  Pass -1 of its step loop makes
    ``min(200, 20 n)`` draws, skips those that land on the cell's own slot,
    records each other move's |delta|, puts it back and draws no rand();
    ``_start_temperature`` of those costs is the steps' start."""
    n = len(cell_slot)
    two, multi, cell_nets = _move_tables(net_terms, n)
    nslots = len(slot_x)
    rows = nslots // cols
    slot_cell = [-1] * nslots
    for c, s in enumerate(cell_slot):
        slot_cell[s] = c
    px = [slot_x[s] for s in cell_slot]
    py = [slot_y[s] for s in cell_slot]

    hp = [0] * len(net_terms)  # each net's value, where the tables hold it
    nv = hp[:]  # the values of the nets the last scored move touches
    cost = _slots_hpwl(np.array(cell_slot), _terminal_arrays(net_terms),
                       np.array(slot_x), np.array(slot_y))
    best_cost = cost
    # The best-seen state, or None while the current state is it: a copy is
    # taken only when an accepted move leaves that state.
    best = None

    rand = rng.random
    getrandbits = rng.getrandbits
    exp = math.exp
    # Cells are drawn as randrange() draws them: bit_length() random bits,
    # drawn again until the value is in range; target slots likewise, from
    # the window around the cell's slot.
    cell_bits = n.bit_length()
    side = max(cols, rows)
    radius = min(RANGE_START, side)
    w = int(radius + 0.5)
    target = _target_sampler(getrandbits, cols, rows, w)

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

    # Scoring each cell where it stands writes every net of the tables to nv.
    for c in range(n):
        score(c, px[c], py[c], ())
    hp[:] = nv

    deltas = []
    for step in range(-1, max_temps):
        sampling = step < 0
        best_before = best_cost
        accepted = 0
        for _ in range(min(200, 20 * n) if sampling else moves_per_temp):
            c = getrandbits(cell_bits)
            while c >= n:
                c = getrandbits(cell_bits)
            s1 = cell_slot[c]
            s2 = target(s1)
            if s1 == s2:
                continue
            c2 = slot_cell[s2]
            x1, y1, x2, y2 = slot_x[s1], slot_y[s1], slot_x[s2], slot_y[s2]
            px[c] = x2
            py[c] = y2
            if c2 >= 0:
                px[c2] = x1
                py[c2] = y1
                # A net of both cells is scored once, with c's nets.
                delta = score(c, x2, y2, ()) + score(c2, x1, y1, cell_nets[c])
            else:
                delta = score(c, x2, y2, ())
            if sampling:
                deltas.append(abs(delta))
                ok = False
            elif delta < 0:
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
        if sampling:
            t = _start_temperature(deltas)
            logger.debug("anneal start: T=%.6g, cost %d, %d cells in %d slots, %d moves per step",
                         t, cost, n, nslots, moves_per_temp)
            continue
        logger.debug("anneal step %d: T=%.6g, accepted %d of %d, cost %d, best %d, window %d",
                     step, t, accepted, moves_per_temp, cost, best_cost, w)
        t *= COOLING
        if best_before - best_cost < STOP_GAIN * best_before or best_cost == 0:
            logger.debug("anneal stopped after step %d: best cost %s", step,
                         f"fell by less than {100 * STOP_GAIN:g}%" if best_cost else "is 0")
            break
        radius = min(max(radius * (1 - RANGE_TARGET + accepted / moves_per_temp), 1), side)
        w = int(radius + 0.5)
        target = _target_sampler(getrandbits, cols, rows, w)
    else:
        logger.debug("anneal stopped: max_temps (%d) reached", max_temps)

    if best is not None:
        cell_slot[:] = best


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
