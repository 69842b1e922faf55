"""One place-and-route job: ``run_job(JobSpec(...))``.

``JobSpec`` is the one definition of the run options: each field gives an
option's name, type, default, the stage that reads it and its help text, and
the command line derives its flags and ``--config`` checks from them.
Library functions are called through their module attributes (``pl.place``,
``gr.route``, ...), so that a caller may wrap them, as the benchmark's
per-layer tracing does.
"""

import inspect
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import fabric as fab
from . import globalroute as gr
from . import metrics, netlist as nl, placement as pl, rent


class JobError(ValueError):
    """A job's options or inputs are unusable."""


def _option(default, stage: str, help: str):
    return field(default=default, metadata={"stage": stage, "help": help})


def base_type(hint) -> type:
    """``T`` for a field type ``T`` or ``T | None``."""
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


def checked(name: str, value, hint):
    """``value`` if it has type ``hint`` (``T`` or ``T | None``), else JobError.
    An int passes for a float and is returned as one, unless it is too large
    for one; a bool is no number."""
    kind = base_type(hint)
    nullable = type(None) in typing.get_args(hint)
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        expected = f"null or {kind.__name__}" if nullable else kind.__name__
        raise JobError(f"key {name!r} must be {expected}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise JobError(f"key {name!r} is too large for a float") from None


def fabric_file(token: str) -> Path | None:
    """The fabric config file ``token`` if it exists, else None once
    ``token`` is checked to name a builtin fabric kind."""
    path = Path(token)
    if path.is_file():
        return path
    fab.normalize_kind(token)
    return None


# The options whose range a later stage checks, each with that stage's check,
# so that a value out of range fails before the first stage runs.
RANGE_CHECKS = {
    "fabric": fabric_file,
    "cells": lambda v: v is None or nl.SynthesisParams(v),
    "rent": lambda v: nl.SynthesisParams(nl.MIN_GENERATED_CELLS, rent_exponent=v),
    "pins": lambda v: nl.SynthesisParams(nl.MIN_GENERATED_CELLS, avg_pins_per_cell=v),
    "utilization": lambda v: pl.Die(1, 1, 1.0, v),
    "moves_per_temp": lambda v: pl.AnnealConfig(moves_per_temp=v),
    "max_temps": lambda v: pl.AnnealConfig(max_temps=v),
    "gcell": gr.check_gcell_size,
    "max_iters": lambda v: gr.RouteParams(max_iters=v),
    "freq": lambda v: metrics.PowerParams(clock_freq_ghz=v),
    "activity": lambda v: metrics.PowerParams(switching_activity=v),
}


@dataclass(frozen=True)
class JobSpec:
    """The options of one (design x fabric x seed) job; ``seed`` seeds both
    the netlist generator and the placer.  Every field is type-checked,
    those in ``RANGE_CHECKS`` are range-checked and a given label is checked
    by ``check_label``, each error naming its key."""

    fabric: str = _option("2d", "place", "2d | tmi | s3dc | path to a fabric config")
    netlist: str | None = _option(None, "netlist", "netlist file to ingest")
    cells: int | None = _option(None, "generate", "generate a synthetic netlist of this size")
    rent: float = _option(nl.SynthesisParams.rent_exponent, "generate", "Rent exponent")
    pins: float = _option(nl.SynthesisParams.avg_pins_per_cell, "generate", "pins per cell")
    seed: int = _option(nl.SynthesisParams.seed, "generate", "seed of generation and placement")
    utilization: float = _option(inspect.signature(pl.size_die).parameters["utilization"].default,
                                 "place", "die utilization")
    moves_per_temp: int | None = _option(
        pl.AnnealConfig.moves_per_temp, "place",
        f"annealer moves per temperature (default: 100 per cell, at most {pl.MOVES_CAP})")
    max_temps: int = _option(pl.AnnealConfig.max_temps, "place", "annealer temperature steps")
    label: str | None = _option(None, "place", "report label (default: <fabric>:<netlist>)")
    gcell: int = _option(3, "route", "gcell size in sites")
    max_iters: int = _option(gr.RouteParams.max_iters, "route", "rip-up-and-reroute iterations")
    freq: float = _option(metrics.PowerParams.clock_freq_ghz, "report", "clock frequency in GHz")
    activity: float = _option(metrics.PowerParams.switching_activity, "report",
                              "switching activity")

    def __post_init__(self):
        for name, hint in typing.get_type_hints(JobSpec).items():
            object.__setattr__(self, name, checked(name, getattr(self, name), hint))
        for name, check in RANGE_CHECKS.items():
            try:
                check(getattr(self, name))
            except ValueError as exc:
                raise JobError(f"key {name!r}: {exc}") from None
        if self.label is not None:
            check_label(self.label)


@dataclass(frozen=True)
class PlacedJob:
    """A placed design and the run_meta.json fields that placement knows."""

    fabric: fab.FabricSpec
    design: nl.Netlist
    die: pl.Die
    placement: pl.Placement
    meta: dict


@dataclass(frozen=True)
class JobResult:
    """A routed job, its run_meta.json fields and, from ``run_job``, its
    report row."""

    placed: PlacedJob
    graph: gr.RoutingGraph
    routes: list[gr.NetRoute]
    congestion: gr.CongestionMap
    meta: dict
    report: metrics.BenchmarkReport | None = None


def read_input(path: Path) -> str:
    """The text of input file ``path``, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise JobError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_fabric(token: str) -> fab.FabricSpec:
    """The fabric config file ``token`` if it exists, else a builtin fabric."""
    path = fabric_file(token)
    if path is None:
        return fab.builtin_fabric(token)
    try:
        return fab.load_fabric(read_input(path))
    except fab.FabricConfigError as exc:
        raise JobError(f"{path}: {exc}") from exc


def read_netlist(path: Path) -> nl.Netlist:
    if not path.is_file():
        raise JobError(f"netlist file not found: {path}")
    try:
        return nl.parse_netlist(read_input(path), name=path.stem)
    except nl.NetlistParseError as exc:
        raise JobError(f"{path}: {exc}") from exc


def load_design(spec: JobSpec) -> nl.Netlist:
    """The netlist file ``spec.netlist`` or a netlist of ``spec.cells``
    generated cells, checked consistent; exactly one of the two must be set."""
    if bool(spec.netlist) == (spec.cells is not None):
        raise JobError("provide exactly one netlist source: --netlist or --cells")
    if spec.netlist:
        return read_netlist(Path(spec.netlist))
    design = nl.generate_synthetic(nl.SynthesisParams(
        num_cells=spec.cells, rent_exponent=spec.rent, avg_pins_per_cell=spec.pins, seed=spec.seed,
    ))
    # parse_netlist has checked a file by the same rules, at their line and column.
    for error in nl.validate(design):
        raise JobError(f"netlist invalid: {error}")
    return design


def check_label(label: str) -> str:
    """``label``, which the CSV tables write as a bare field: it must be one
    nonempty line with no comma."""
    if not label:
        raise JobError("key 'label' is empty; a report row needs a name")
    if "," in label or label.splitlines() != [label]:
        raise JobError(f"label {label!r} holds a comma or a line break; a CSV field "
                       f"cannot hold it")
    return label


def place_job(spec: JobSpec) -> PlacedJob:
    fabric = load_fabric(spec.fabric)
    design = load_design(spec)
    label = check_label(f"{fabric.kind.value}:{design.name}") if spec.label is None else spec.label
    design = fab.bind_masters(design, fabric)
    die = pl.size_die(design, fabric, spec.utilization)
    config = pl.AnnealConfig(moves_per_temp=spec.moves_per_temp, max_temps=spec.max_temps)
    placement = pl.place(design, fabric, die, seed=spec.seed, config=config)
    meta = {
        "label": label,
        "fabric": spec.fabric,
        "die_width": die.width,
        "die_height": die.height,
        "utilization": die.utilization,
        **asdict(rent.PinDensityInput(design.total_terminals, die.area_um2,
                                      fabric.pin_access_layers)),
        "hpwl_sites": pl.hpwl(design, placement),
        "seed": spec.seed,
    }
    return PlacedJob(fabric, design, die, placement, meta)


def route_job(placed: PlacedJob, spec: JobSpec) -> JobResult:
    graph = gr.build_grid(placed.fabric, placed.die, spec.gcell)
    routes, cmap = gr.route(placed.design, placed.placement, graph,
                            gr.RouteParams(max_iters=spec.max_iters))
    meta = {**placed.meta, "gcell": spec.gcell, "overflow_edges": cmap.overflow_edge_count,
            "congested": cmap.congested}
    return JobResult(placed, graph, routes, cmap, meta)


def run_job(spec: JobSpec) -> JobResult:
    result = route_job(place_job(spec), spec)
    fabric, design = result.placed.fabric, result.placed.design
    power = metrics.PowerParams(clock_freq_ghz=spec.freq, supply_voltage=fabric.supply_voltage,
                                switching_activity=spec.activity)
    energy = {m: fabric.cell_energy.get(m, fab.DEFAULT_CELL_ENERGY) for m in design.masters}
    pin_mw, internal_mw = metrics.cell_powers_mw(design, energy, power)
    report = metrics.BenchmarkReport(
        label=result.meta["label"],
        cell_count=len(design.cells),
        clock_freq_ghz=power.clock_freq_ghz,
        total_wirelength_mm=metrics.total_wirelength_mm(result.routes, result.graph),
        wire_power_mw=metrics.wire_power_mw(result.routes, result.graph, fabric, power),
        pin_power_mw=pin_mw,
        internal_power_mw=internal_mw,
        footprint_um2=result.placed.die.area_um2,
    )
    meta = {**result.meta, "freq_ghz": power.clock_freq_ghz,
            "activity": power.switching_activity}
    return replace(result, meta=meta, report=report)
