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
import math
from dataclasses import dataclass

from .fabric import DEFAULT_SUPPLY_V, CellEnergyEntry, FabricSpec
from .globalroute import NetRoute, RoutingGraph
from .netlist import Netlist


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class PowerParams:
    clock_freq_ghz: float = 1.0
    supply_voltage: float = DEFAULT_SUPPLY_V
    switching_activity: float = 0.2

    def __post_init__(self):
        for name in ("clock_freq_ghz", "supply_voltage"):
            if not math.isfinite(getattr(self, name)):
                raise MetricsError(f"{name} must be finite, got {getattr(self, name)}")
        if self.clock_freq_ghz <= 0:
            raise MetricsError(f"clock_freq_ghz must be > 0, got {self.clock_freq_ghz}")
        if self.supply_voltage <= 0:
            raise MetricsError(f"supply_voltage must be > 0, got {self.supply_voltage}")
        if not 0.0 < self.switching_activity <= 1.0:
            raise MetricsError(
                f"switching_activity must lie in (0, 1], got {self.switching_activity}")


def total_wirelength_mm(routes: list[NetRoute], graph: RoutingGraph) -> float:
    """Sum of routed edge lengths: planar edges span one gcell, and via
    edges have zero length, as the router models them."""
    planar = sum(e < graph.via_base for route in routes for e in route.edges)
    return planar * graph.gcell_um / 1000.0


def wire_power_mw(routes: list[NetRoute], graph: RoutingGraph, fabric: FabricSpec,
                  power: PowerParams) -> float:
    """Switching power of routed interconnect in mW, on the layers of the
    ``fabric`` that ``graph`` was built from.  Vias have zero length, so
    only planar edges add capacitance.

    Linear in activity and frequency, quadratic in supply voltage.
    """
    caps = [graph.gcell_um * layer.cap_per_um for layer in fabric.layers]
    total_cap_ff = 0.0
    for route in routes:
        for e in route.edges:
            if e < graph.via_base:
                total_cap_ff += caps[graph.planar_layer(e)]
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


@dataclass(frozen=True)
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

    @property
    def total_power_mw(self) -> float:
        return self.wire_power_mw + self.pin_power_mw + self.internal_power_mw


def ppa(rows: list[BenchmarkReport], baseline_label: str) -> dict[str, float]:
    """Normalized frequency / (power * footprint) per row; baseline is 1.0.
    Labels must be distinct, since they name the rows."""
    by_label: dict[str, BenchmarkReport] = {}
    for r in rows:
        if r.label in by_label:
            raise MetricsError(f"label {r.label!r} names two report rows")
        by_label[r.label] = r
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


def percent_delta(value: float, base: float) -> int | None:
    """Signed integer percent change vs. a baseline value; 0 between equal
    values, zero included.  None for another value against a zero baseline,
    where the change has no value."""
    if value == base:
        return 0
    if base == 0:
        return None
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
    """Rows as plain records with columns normalized against the baseline
    row (footprint, density = 1 / footprint, PPA) and percent deltas."""
    fom = ppa(rows, baseline_label)
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
            "footprint_norm": r.footprint_um2 / base.footprint_um2,
            "density_norm": base.footprint_um2 / r.footprint_um2,
            "ppa_norm": fom[r.label],
        }
        for col in _DELTA_COLUMNS:
            rec[f"{col}_delta_pct"] = percent_delta(rec[col], getattr(base, col))
        records.append(rec)
    return records


def fmt(value) -> str:
    """A CSV cell: empty for None, floats with 10 significant digits,
    everything else as str."""
    if value is None:
        return ""
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
