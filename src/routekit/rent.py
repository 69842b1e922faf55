"""Analytic routing-demand model driven by Rent's rule.

The chain is: pin density E (pins per um^2, divided by the number of
pin-access layers N), cell density ``G = (E/A)**(1/r)``, and relative
routing demand ``l = G**(r-0.5)``.  The proportionality constant of the
demand law is fixed at 1, so only demand ratios between designs are
meaningful; ``compare_demand`` normalizes against a chosen baseline.

``fit_rent_exponent`` extracts r from an existing netlist by recursive
bisection, each block cut at the median of the placer's quadratic ordering
of its cells, and a log-log least-squares fit of external-net counts
against block sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import placement as pl


@dataclass(frozen=True)
class RentParams:
    r: float = 0.75  # Rent exponent
    a: float = 3.0  # average terminals per cell

    def __post_init__(self):
        if not 0.5 < self.r < 1.0:
            raise ValueError("Rent exponent must lie in (0.5, 1.0)")
        if not math.isfinite(self.a):
            raise ValueError(f"average terminals per cell must be finite, got {self.a}")
        if self.a <= 0:
            raise ValueError("average terminals per cell must be positive")


@dataclass(frozen=True)
class PinDensityInput:
    total_pins: int
    die_area_um2: float
    pin_access_layers: int  # N

    def __post_init__(self):
        if not math.isfinite(self.die_area_um2):
            raise ValueError(f"die area must be finite, got {self.die_area_um2}")
        if self.die_area_um2 <= 0:
            raise ValueError("die area must be positive")
        if self.pin_access_layers < 1:
            raise ValueError("pin access layer count must be >= 1")
        if self.total_pins < 0:
            raise ValueError("pin count cannot be negative")


@dataclass(frozen=True)
class DemandEstimate:
    effective_pin_density: float  # pins/um^2 after the N-layer correction
    cell_density: float  # cells/um^2
    demand: float  # relative routing demand


def effective_pin_density(inp: PinDensityInput) -> float:
    """Pins per um^2 of effective pin-placement area (die area times N).

    Computed as (pins / area) / N so the N-layer value equals the
    single-layer value divided by N bit-exactly.
    """
    return inp.total_pins / inp.die_area_um2 / inp.pin_access_layers


def cell_density(e: float, params: RentParams) -> float:
    if e < 0:
        raise ValueError("pin density cannot be negative")
    return (e / params.a) ** (1.0 / params.r)


def routing_demand(g: float, params: RentParams) -> float:
    if g < 0:
        raise ValueError("cell density cannot be negative")
    return g ** (params.r - 0.5)


def demand_estimate(inp: PinDensityInput, params: RentParams) -> DemandEstimate:
    e = effective_pin_density(inp)
    g = cell_density(e, params)
    return DemandEstimate(e, g, routing_demand(g, params))


@dataclass(frozen=True)
class DemandRow:
    label: str
    effective_pin_density: float
    cell_density: float
    demand: float
    demand_normalized: float


def compare_demand(
    designs: list[tuple[str, PinDensityInput]],
    params: RentParams,
    baseline_label: str,
) -> list[DemandRow]:
    """Demand of each design divided by the baseline design's demand.
    Labels must be distinct, since they name the rows."""
    estimates: dict[str, DemandEstimate] = {}
    for label, inp in designs:
        if label in estimates:
            raise ValueError(f"label {label!r} names two designs")
        estimates[label] = demand_estimate(inp, params)
    if baseline_label not in estimates:
        raise ValueError(f"baseline {baseline_label!r} not among designs")
    base = estimates[baseline_label].demand
    if base == 0:
        raise ValueError(f"baseline {baseline_label!r} has zero demand")
    return [
        DemandRow(
            label=label,
            effective_pin_density=est.effective_pin_density,
            cell_density=est.cell_density,
            demand=est.demand,
            demand_normalized=est.demand / base,
        )
        for label, est in estimates.items()
    ]


def demand_table_csv(rows: list[DemandRow]) -> str:
    lines = ["label,E_effective,G,l_normalized"]
    for row in rows:
        lines.append(
            f"{row.label},{row.effective_pin_density:.10g},"
            f"{row.cell_density:.10g},{row.demand_normalized:.10g}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rent exponent extraction


@dataclass(frozen=True)
class RentFit:
    exponent: float
    levels: tuple[tuple[float, float], ...]  # (mean block size, mean external nets)


def _external_counts(net_members: list[list[int]], labels: list[int], nblocks: int) -> list[int]:
    ext = [0] * nblocks
    for members in net_members:
        touched = {labels[c] for c in members}
        if len(touched) > 1:
            for b in touched:
                ext[b] += 1
    return ext


MIN_BLOCK = 32  # bisection stops before a block would drop below this many cells


def _bisect(nets: list[list[int]], n: int, rng: random.Random) -> list[int]:
    """The side, 0 or 1, of each of cells 0..n-1 in a low-cut split of the
    nets ``nets`` (each of at least two distinct cells) with ``n // 2`` cells
    on side 0.  Each of the placer's ANALYTIC_ROUNDS anchored solves on the
    clique model is split at its median, and anchors the next round with a
    weight ANCHOR_GROWTH times larger; the first anchor is a random split.
    The round that cuts the fewest nets wins, the first on ties."""
    # the clique model reads each terminal's cell only
    model = pl._clique_model([[(c, 0, 0) for c in net] for net in nets], n)
    side = np.zeros(n)
    side[rng.sample(range(n), n - n // 2)] = 1
    best, best_cut = [], math.inf
    alpha = pl.ANCHOR_WEIGHT
    for _ in range(pl.ANALYTIC_ROUNDS):
        x = pl._anchored_solve(model, alpha, side)
        side = np.ones(n)
        side[np.argsort(x, kind="stable")[:n // 2]] = 0
        labels = side.astype(int).tolist()
        cut = _external_counts(nets, labels, 2)[0]
        if cut < best_cut:
            best, best_cut = labels, cut
        alpha *= pl.ANCHOR_GROWTH
    return best


def fit_rent_exponent(netlist, seed: int = 0) -> RentFit:
    """Measure the Rent exponent of a netlist.

    Blocks are split recursively in halves by ``_bisect``: the quadratic
    ordering of Hall (Management Science, 1970) on the clique model of each
    net's part inside the block, solved as the placer's analytic start
    solves it, and cut at its median.  At each level the mean block size G
    and mean count of boundary-crossing nets E are recorded, and r is the
    slope of the least-squares line through (log G, log E).  Deterministic
    for a fixed seed.  The netlist needs four bisection levels at least.
    """
    n = len(netlist.cells)
    if n < 16 * MIN_BLOCK:
        raise ValueError(f"netlist too small to fit (need >= {16 * MIN_BLOCK} cells)")
    index = {c.id: i for i, c in enumerate(netlist.cells)}
    net_members = [sorted({index[cid] for cid, _ in net.terminals}) for net in netlist.nets]
    rng = random.Random(seed)

    blocks: list[list[int]] = [list(range(n))]
    labels, pos = [0] * n, list(range(n))  # each cell's block and index in it
    points: list[tuple[float, float]] = []
    while min(len(b) for b in blocks) >= 2 * MIN_BLOCK:
        parts: list[list[list[int]]] = [[] for _ in blocks]
        for members in net_members:
            for b in {labels[c] for c in members}:
                part = [pos[c] for c in members if labels[c] == b]
                if len(part) > 1:
                    parts[b].append(part)
        nxt: list[list[int]] = []
        for block, nets in zip(blocks, parts):
            side = _bisect(nets, len(block), rng)
            nxt += [[c for c, s in zip(block, side) if s == half] for half in (0, 1)]
        blocks = nxt
        for b, block in enumerate(blocks):
            for i, c in enumerate(block):
                labels[c], pos[c] = b, i
        ext = _external_counts(net_members, labels, len(blocks))
        mean_g = n / len(blocks)
        mean_e = sum(ext) / len(blocks)
        if mean_e > 0:
            points.append((mean_g, mean_e))

    if len(points) < 2:
        raise ValueError("not enough bipartition levels to fit an exponent")
    logg = np.log([p[0] for p in points])
    loge = np.log([p[1] for p in points])
    slope, _ = np.polyfit(logg, loge, 1)
    return RentFit(exponent=float(slope), levels=tuple(points))
