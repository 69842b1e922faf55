"""Wirelength, power, footprint, and PPA benchmarking.

Power uses the standard switching decomposition: every component is
``activity * f * V^2 * C`` (wire and pin capacitance) or
``activity * f * E_toggle`` (cell-internal energy), so only comparisons
between fabrics are meaningful, not absolute sign-off numbers.
The PPA figure of merit is clock frequency divided by (total power times
footprint), normalized against a baseline design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fabric import CellEnergyEntry
from .globalroute import NetRoute, RoutingGraph
from .netlist import Netlist


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class PowerParams:
    clock_freq_ghz: float = 1.0
    supply_voltage: float = 0.8
    switching_activity: float = 0.2

    def __post_init__(self):
        if self.clock_freq_ghz <= 0 or self.supply_voltage <= 0:
            raise MetricsError("frequency and supply voltage must be positive")
        if not 0.0 < self.switching_activity <= 1.0:
            raise MetricsError("switching activity must lie in (0, 1]")


def total_wirelength_mm(routes: list[NetRoute], graph: RoutingGraph,
                        via_length_um: float = 0.0) -> float:
    """Sum of routed edge lengths: planar edges span one gcell, via edges
    contribute the configured via length (0 by default)."""
    planar = 0
    vias = 0
    for route in routes:
        for e in route.edges:
            if e >= graph.via_base:
                vias += 1
            else:
                planar += 1
    return (planar * graph.gcell_um + vias * via_length_um) / 1000.0


def _edge_cap_ff(graph: RoutingGraph, eid: int, via_length_um: float) -> float:
    if graph.fabric is None:
        raise MetricsError("graph carries no fabric; wire RC is unknown")
    kind, li, _, _ = graph.edge_info(eid)
    if kind == "via":
        return via_length_um * graph.fabric.layers[li].cap_per_um
    return graph.gcell_um * graph.fabric.layers[li].cap_per_um


def wire_power_mw(routes: list[NetRoute], graph: RoutingGraph, power: PowerParams,
                  via_length_um: float = 0.0) -> float:
    """Switching power of routed interconnect in mW.

    Linear in activity and frequency, quadratic in supply voltage.
    """
    total_cap_ff = 0.0
    for route in routes:
        for e in route.edges:
            total_cap_ff += _edge_cap_ff(graph, e, via_length_um)
    v = power.supply_voltage
    return power.switching_activity * power.clock_freq_ghz * v * v * total_cap_ff * 1e-3


def cell_powers_mw(netlist: Netlist, energy_table: dict[str, CellEnergyEntry],
                   power: PowerParams) -> tuple[float, float]:
    """(pin power, internal power) in mW.

    Pin power charges the input-pin capacitance of every connected input
    terminal; internal power charges each cell's per-toggle energy.  Every
    master referenced by the netlist must have an energy entry.
    """
    for cell in netlist.cells:
        if cell.master not in energy_table:
            raise MetricsError(f"no energy entry for master {cell.master!r}")

    pin_cap_ff = 0.0
    for net in netlist.nets:
        for cid, pin_name in net.terminals:
            cell = netlist.cell(cid)
            if netlist.masters[cell.master].pin(pin_name).direction == "input":
                pin_cap_ff += energy_table[cell.master].pin_cap_ff
    internal_fj = sum(energy_table[c.master].internal_fj for c in netlist.cells)

    a = power.switching_activity
    f = power.clock_freq_ghz
    v = power.supply_voltage
    pin_mw = a * f * v * v * pin_cap_ff * 1e-3
    internal_mw = a * f * internal_fj * 1e-3
    return pin_mw, internal_mw


@dataclass
class BenchmarkReport:
    """One row of a cross-technology comparison table."""

    label: str
    cell_count: int
    clock_freq_ghz: float
    total_wirelength_mm: float
    wire_power_mw: float
    pin_power_mw: float
    internal_power_mw: float
    footprint_um2: float
    footprint_norm: float = 1.0
    density_norm: float = 1.0
    ppa_norm: float = 1.0

    @property
    def total_power_mw(self) -> float:
        return self.wire_power_mw + self.pin_power_mw + self.internal_power_mw


def ppa(rows: list[BenchmarkReport], baseline_label: str) -> dict[str, float]:
    """Normalized frequency / (power * footprint) per row; baseline is 1.0."""
    by_label = {r.label: r for r in rows}
    if baseline_label not in by_label:
        raise MetricsError(f"baseline {baseline_label!r} not among report rows")
    for r in rows:
        if r.total_power_mw <= 0 or r.footprint_um2 <= 0:
            raise MetricsError(f"row {r.label!r}: power and footprint must be positive")
    base = by_label[baseline_label]
    base_fom = base.clock_freq_ghz / (base.total_power_mw * base.footprint_um2)
    return {
        r.label: (r.clock_freq_ghz / (r.total_power_mw * r.footprint_um2)) / base_fom
        for r in rows
    }


def normalize_rows(rows: list[BenchmarkReport], baseline_label: str) -> None:
    """Fill footprint_norm, density_norm, and ppa_norm against the baseline."""
    by_label = {r.label: r for r in rows}
    if baseline_label not in by_label:
        raise MetricsError(f"baseline {baseline_label!r} not among report rows")
    base = by_label[baseline_label]
    fom = ppa(rows, baseline_label)
    for r in rows:
        r.footprint_norm = r.footprint_um2 / base.footprint_um2
        r.density_norm = base.footprint_um2 / r.footprint_um2
        r.ppa_norm = fom[r.label]


def percent_delta(value: float, base: float) -> int:
    """Signed integer percent change vs. a baseline value."""
    if base == 0:
        raise MetricsError("cannot take a percent delta against zero")
    return int(round((value - base) / base * 100.0))


_DELTA_COLUMNS = (
    "total_wirelength_mm",
    "wire_power_mw",
    "pin_power_mw",
    "internal_power_mw",
    "total_power_mw",
    "footprint_um2",
)


def report_records(rows: list[BenchmarkReport], baseline_label: str) -> list[dict]:
    """Rows as plain records with normalized columns and percent deltas."""
    normalize_rows(rows, baseline_label)
    base = {r.label: r for r in rows}[baseline_label]
    records = []
    for r in rows:
        rec = {
            "label": r.label,
            "cell_count": r.cell_count,
            "clock_freq_ghz": r.clock_freq_ghz,
            "total_wirelength_mm": r.total_wirelength_mm,
            "wire_power_mw": r.wire_power_mw,
            "pin_power_mw": r.pin_power_mw,
            "internal_power_mw": r.internal_power_mw,
            "total_power_mw": r.total_power_mw,
            "footprint_um2": r.footprint_um2,
            "footprint_norm": r.footprint_norm,
            "density_norm": r.density_norm,
            "ppa_norm": r.ppa_norm,
        }
        for col in _DELTA_COLUMNS:
            rec[f"{col}_delta_pct"] = percent_delta(rec[col], getattr(base, col))
        records.append(rec)
    return records


def fmt(value) -> str:
    """A CSV cell: floats with 10 significant digits, everything else as str."""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def emit_report_csv(rows: list[BenchmarkReport], baseline_label: str) -> str:
    records = report_records(rows, baseline_label)
    cols = list(records[0].keys())
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(fmt(rec[c]) for c in cols))
    return "\n".join(lines) + "\n"


def emit_report_json(rows: list[BenchmarkReport], baseline_label: str) -> str:
    records = report_records(rows, baseline_label)
    return json.dumps({"baseline": baseline_label, "rows": records},
                      indent=2, sort_keys=True) + "\n"
