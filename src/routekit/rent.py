"""Analytic routing-demand model driven by Rent's rule.

The chain is: pin density E (pins per um^2, divided by the number of
pin-access layers N), cell density ``G = (E/A)**(1/r)``, and relative
routing demand ``l = G**(r-0.5)``.  The proportionality constant of the
demand law is fixed at 1, so only demand ratios between designs are
meaningful; ``compare_demand`` normalizes against a chosen baseline.

``fit_rent_exponent`` extracts r from an existing netlist by recursive
min-cut bipartitioning and a log-log least-squares fit of external-net
counts against block sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx
import numpy as np


@dataclass(frozen=True)
class RentParams:
    r: float = 0.75  # Rent exponent
    a: float = 3.0  # average terminals per cell

    def __post_init__(self):
        if not 0.5 < self.r < 1.0:
            raise ValueError("Rent exponent must lie in (0.5, 1.0)")
        if self.a <= 0:
            raise ValueError("average terminals per cell must be positive")


@dataclass(frozen=True)
class PinDensityInput:
    total_pins: int
    die_area_um2: float
    pin_access_layers: int  # N

    def __post_init__(self):
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
    if e == 0:
        return 0.0
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


def _clique_graph(netlist) -> tuple[nx.Graph, list[list[int]]]:
    index = {c.id: i for i, c in enumerate(netlist.cells)}
    graph = nx.Graph()
    graph.add_nodes_from(range(len(netlist.cells)))
    net_members: list[list[int]] = []
    for net in netlist.nets:
        members = sorted({index[cid] for cid, _ in net.terminals})
        net_members.append(members)
        k = len(members)
        if k < 2:
            continue
        w = 1.0 / (k - 1)
        for i in range(k):
            for j in range(i + 1, k):
                a, b = members[i], members[j]
                if graph.has_edge(a, b):
                    graph[a][b]["weight"] += w
                else:
                    graph.add_edge(a, b, weight=w)
    return graph, net_members


def _external_counts(net_members: list[list[int]], labels: list[int], nblocks: int) -> list[int]:
    ext = [0] * nblocks
    for members in net_members:
        touched = {labels[c] for c in members}
        if len(touched) > 1:
            for b in touched:
                ext[b] += 1
    return ext


MIN_BLOCK = 32  # bisection stops before a block would drop below this many cells


def fit_rent_exponent(netlist, seed: int = 0) -> RentFit:
    """Measure the Rent exponent of a netlist.

    Blocks are split recursively with Kernighan-Lin min-cut bisection (10
    passes from one seeded start) on the clique-expanded connectivity graph.
    At each level the mean block size G and mean count of boundary-crossing
    nets E are recorded, and r is the slope of the least-squares line
    through (log G, log E).  Deterministic for a fixed seed.
    """
    n = len(netlist.cells)
    if n < 4 * MIN_BLOCK:
        raise ValueError(f"netlist too small to fit (need >= {4 * MIN_BLOCK} cells)")
    graph, net_members = _clique_graph(netlist)
    rng = random.Random(seed)

    blocks: list[list[int]] = [list(range(n))]
    points: list[tuple[float, float]] = []
    while True:
        if min(len(b) for b in blocks) < 2 * MIN_BLOCK:
            break
        nxt: list[list[int]] = []
        for block in blocks:
            sub = graph.subgraph(block)
            half_a, half_b = nx.community.kernighan_lin_bisection(
                sub, max_iter=10, weight="weight", seed=rng.randrange(2**32)
            )
            nxt.append(sorted(half_a))
            nxt.append(sorted(half_b))
        blocks = nxt
        labels = [0] * n
        for b, block in enumerate(blocks):
            for c in block:
                labels[c] = b
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
