"""Command-line pipeline driver.

Subcommands::

    gen      write a synthetic netlist
    place    size the die and place a netlist
    route    globally route a placed netlist
    run      full pipeline: ingest/generate -> place -> route -> report
    analyze  analytic routing-demand comparison from run directories
    compare  merge run reports into one normalized table

Exit codes: 0 success, 2 usage or input error, 3 completed with routing
overflow (all artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fabric as fab
from . import globalroute as gr
from . import metrics, netlist as nl, placement as pl, rent

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONGESTED = 3

# Run options as key: (type, default).  A None default makes the key
# nullable; an int is accepted where a float is expected.
_RUN_OPTIONS = {
    "seed": (int, 0),
    "utilization": (float, 0.6),
    "gcell": (int, 3),
    "freq": (float, 1.0),
    "activity": (float, 0.2),
    "max_iters": (int, 40),
    "label": (str, None),
    "fabric": (str, "2d"),
    "netlist": (str, None),
    "cells": (int, None),
    "rent": (float, 0.75),
    "pins": (float, 3.0),
    "seq_fraction": (float, 0.0),
    "moves_per_temp": (int, None),
    "max_temps": (int, 150),
}


class CliError(Exception):
    pass


def _load_fabric(token: str) -> fab.FabricSpec:
    path = Path(token)
    if path.is_file():
        return fab.load_fabric(path.read_text())
    return fab.builtin_fabric(token)


def _read_netlist(path: str) -> nl.Netlist:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"netlist file not found: {path}")
    try:
        return nl.parse_netlist(p.read_text(), name=p.stem)
    except nl.NetlistParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _check_option(path: str, key: str, value) -> None:
    kind, default = _RUN_OPTIONS[key]
    if value is None and default is None:
        return
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = kind.__name__ if default is not None else f"null or {kind.__name__}"
        raise CliError(f"{path}: key {key!r} must be {expected}, got {json.dumps(value)}")


def _merged_options(args: argparse.Namespace) -> dict:
    opts = {key: default for key, (_, default) in _RUN_OPTIONS.items()}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise CliError(f"config file not found: {args.config}")
        try:
            loaded = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise CliError(f"{args.config}: expected a JSON object")
        unknown = set(loaded) - set(opts)
        if unknown:
            raise CliError(f"{args.config}: unknown keys {sorted(unknown)}")
        for key, value in loaded.items():
            _check_option(args.config, key, value)
        opts.update(loaded)
    for key in opts:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def cmd_gen(args: argparse.Namespace) -> int:
    params = nl.SynthesisParams(
        num_cells=args.cells,
        rent_exponent=args.rent,
        avg_pins_per_cell=args.pins,
        sequential_fraction=args.seq_fraction,
        seed=args.seed,
    )
    design = nl.generate_synthetic(params)
    _write(Path(args.output), nl.serialize_netlist(design))
    return EXIT_OK


def _place_pipeline(opts: dict):
    fabric = _load_fabric(opts["fabric"])
    if opts["netlist"]:
        design = _read_netlist(opts["netlist"])
    elif opts["cells"]:
        design = nl.generate_synthetic(nl.SynthesisParams(
            num_cells=int(opts["cells"]),
            rent_exponent=float(opts["rent"]),
            avg_pins_per_cell=float(opts["pins"]),
            sequential_fraction=float(opts["seq_fraction"]),
            seed=int(opts["seed"]),
        ))
    else:
        raise CliError("provide exactly one netlist source: --netlist or --cells")
    report = nl.validate(design)
    for entry in report.errors:
        raise CliError(f"netlist invalid: {entry.message}")
    design = fab.bind_masters(design, fabric)
    die = pl.size_die(design, fabric, float(opts["utilization"]))
    cfg = pl.AnnealConfig(
        moves_per_temp=opts["moves_per_temp"],
        max_temps=int(opts["max_temps"]),
    )
    placed = pl.place(design, fabric, die, seed=int(opts["seed"]), config=cfg)
    return fabric, design, die, placed


def _placement_csv(placed: pl.Placement) -> str:
    lines = ["cell,x,y"]
    for cid, (x, y) in placed.assignments.items():
        lines.append(f"{cid},{x},{y}")
    return "\n".join(lines) + "\n"


def _place_meta(opts: dict, fabric, design, die, placed) -> dict:
    """The run_meta.json fields that 'place' knows."""
    return {
        "label": opts["label"] or f"{fabric.kind.value}:{design.name}",
        "fabric": opts["fabric"],
        "die_width": die.width,
        "die_height": die.height,
        "die_area_um2": die.area_um2,
        "utilization": die.utilization,
        "total_pins": design.total_terminals,
        "pin_access_layers": fabric.pin_access_layers,
        "hpwl_sites": pl.hpwl(design, placed),
        "seed": int(opts["seed"]),
    }


def _route_meta(opts: dict, cmap) -> dict:
    """The run_meta.json fields that routing adds."""
    return {
        "gcell": int(opts["gcell"]),
        "overflow_edges": cmap.overflow_edge_count,
        "congested": cmap.congested,
    }


def _write_meta(out: Path, meta: dict) -> None:
    _write(out / "run_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_place(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    fabric, design, die, placed = _place_pipeline(opts)
    out = Path(args.output)
    _write(out / "placement.csv", _placement_csv(placed))
    _write(out / "netlist.net", nl.serialize_netlist(design))
    _write_meta(out, _place_meta(opts, fabric, design, die, placed))
    return EXIT_OK


def _load_run_dir(path: Path):
    meta_path = path / "run_meta.json"
    if not meta_path.is_file():
        raise CliError(f"missing placement artifacts in {path} (no run_meta.json)")
    meta = json.loads(meta_path.read_text())
    return meta


def _route_pipeline(fabric, design, die, placed, opts: dict):
    graph = gr.build_grid(fabric, die, int(opts["gcell"]))
    params = gr.RouteParams(max_iters=int(opts["max_iters"]))
    routes, cmap = gr.route(design, placed, graph, params)
    return graph, routes, cmap


def _routes_txt(routes) -> str:
    lines = ["net,edge_list"]
    for r in routes:
        lines.append(f"{r.net_id}," + " ".join(str(e) for e in r.edges))
    return "\n".join(lines) + "\n"


def _emit_route_artifacts(out: Path, graph, routes, cmap) -> None:
    _write(out / "routes.txt", _routes_txt(routes))
    for layer in range(1, graph.layers + 1):
        _write(out / f"congestion_L{layer}.csv", gr.congestion_csv(cmap, layer))
    ratio_lines = ["layer,demand,capacity,aggregate_ratio,max_edge_ratio"]
    for row in gr.demand_resource_ratios(cmap):
        ratio_lines.append(
            f"{row.layer},{row.demand},{row.capacity},"
            f"{metrics.fmt(row.aggregate_ratio)},{metrics.fmt(row.max_edge_ratio)}"
        )
    _write(out / "layer_ratios.csv", "\n".join(ratio_lines) + "\n")


def cmd_route(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    run_dir = Path(args.rundir)
    meta = _load_run_dir(run_dir)
    if not (run_dir / "placement.csv").is_file():
        raise CliError(f"missing placement.csv in {run_dir}")
    fabric = _load_fabric(meta["fabric"])
    design = fab.bind_masters(_read_netlist(str(run_dir / "netlist.net")), fabric)
    die = pl.Die(meta["die_width"], meta["die_height"], fabric.site_dim_nm, meta["utilization"])
    assignments = {}
    for line in (run_dir / "placement.csv").read_text().splitlines()[1:]:
        cid, x, y = line.split(",")
        assignments[cid] = (int(x), int(y))
    placed = pl.Placement(assignments=assignments, die=die)
    graph, routes, cmap = _route_pipeline(fabric, design, die, placed, opts)
    _emit_route_artifacts(run_dir, graph, routes, cmap)
    _write_meta(run_dir, {**meta, **_route_meta(opts, cmap)})
    return EXIT_CONGESTED if cmap.overflow_edge_count else EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    out = Path(args.output)
    fabric, design, die, placed = _place_pipeline(opts)
    graph, routes, cmap = _route_pipeline(fabric, design, die, placed, opts)

    power = metrics.PowerParams(
        clock_freq_ghz=float(opts["freq"]),
        supply_voltage=fabric.supply_voltage,
        switching_activity=float(opts["activity"]),
    )
    energy = {
        m: fabric.cell_energy.get(m, fab.DEFAULT_CELL_ENERGY) for m in design.masters
    }
    pin_mw, internal_mw = metrics.cell_powers_mw(design, energy, power)
    meta = _place_meta(opts, fabric, design, die, placed)
    label = meta["label"]
    row = metrics.BenchmarkReport(
        label=label,
        cell_count=len(design.cells),
        clock_freq_ghz=power.clock_freq_ghz,
        total_wirelength_mm=metrics.total_wirelength_mm(routes, graph),
        wire_power_mw=metrics.wire_power_mw(routes, graph, power),
        pin_power_mw=pin_mw,
        internal_power_mw=internal_mw,
        footprint_um2=die.area_um2,
    )

    _write(out / "placement.csv", _placement_csv(placed))
    _write(out / "netlist.net", nl.serialize_netlist(design))
    _emit_route_artifacts(out, graph, routes, cmap)
    _write(out / "report.csv", metrics.emit_report_csv([row], label))
    _write(out / "report.json", metrics.emit_report_json([row], label))
    _write_meta(out, {
        **meta,
        **_route_meta(opts, cmap),
        "freq_ghz": power.clock_freq_ghz,
        "activity": power.switching_activity,
    })
    return EXIT_CONGESTED if cmap.overflow_edge_count else EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    designs = []
    for d in args.rundirs:
        meta = _load_run_dir(Path(d))
        designs.append((
            meta["label"],
            rent.PinDensityInput(
                total_pins=meta["total_pins"],
                die_area_um2=meta["die_area_um2"],
                pin_access_layers=meta["pin_access_layers"],
            ),
        ))
    baseline = args.baseline or designs[0][0]
    params = rent.RentParams(r=args.rent, a=args.pins)
    try:
        rows = rent.compare_demand(designs, params, baseline)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    csv_text = rent.demand_table_csv(rows)
    if args.output:
        _write(Path(args.output), csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for d in args.rundirs:
        report_path = Path(d) / "report.json"
        if not report_path.is_file():
            raise CliError(f"missing report.json in {d}")
        data = json.loads(report_path.read_text())
        for rec in data["rows"]:
            rows.append(metrics.BenchmarkReport(
                label=rec["label"],
                cell_count=rec["cell_count"],
                clock_freq_ghz=rec["clock_freq_ghz"],
                total_wirelength_mm=rec["total_wirelength_mm"],
                wire_power_mw=rec["wire_power_mw"],
                pin_power_mw=rec["pin_power_mw"],
                internal_power_mw=rec["internal_power_mw"],
                footprint_um2=rec["footprint_um2"],
            ))
    baseline = args.baseline or rows[0].label
    try:
        csv_text = metrics.emit_report_csv(rows, baseline)
        json_text = metrics.emit_report_json(rows, baseline)
    except metrics.MetricsError as exc:
        raise CliError(str(exc)) from exc
    if args.output:
        out = Path(args.output)
        _write(out / "report.csv", csv_text)
        _write(out / "report.json", json_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fabric", help="2d | tmi | s3dc | path to a fabric config")
    p.add_argument("--netlist", help="netlist file to ingest")
    p.add_argument("--cells", type=int, help="generate a synthetic netlist of this size")
    p.add_argument("--rent", type=float, help="Rent exponent for generation (default 0.75)")
    p.add_argument("--pins", type=float, help="average pins per cell (default 3)")
    p.add_argument("--seq-fraction", dest="seq_fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--utilization", type=float, help="die utilization (default 0.6)")
    p.add_argument("--gcell", type=int, help="gcell size in sites (default 3)")
    p.add_argument("--freq", type=float, help="clock frequency in GHz (default 1.0)")
    p.add_argument("--activity", type=float, help="switching activity (default 0.2)")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--moves-per-temp", dest="moves_per_temp", type=int)
    p.add_argument("--max-temps", dest="max_temps", type=int)
    p.add_argument("--label")
    p.add_argument("--config", help="JSON config file; flags override its keys")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic netlist")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--rent", type=float, default=0.75)
    p.add_argument("--pins", type=float, default=3.0)
    p.add_argument("--seq-fraction", dest="seq_fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("place", help="size a die and place a netlist")
    _add_run_options(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("route", help="route a placed run directory")
    _add_run_options(p)
    p.add_argument("rundir", help="directory produced by 'place'")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("run", help="full place-route-report pipeline")
    _add_run_options(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="analytic demand comparison of run dirs")
    p.add_argument("rundirs", nargs="+")
    p.add_argument("--baseline")
    p.add_argument("--rent", type=float, default=0.75)
    p.add_argument("--pins", type=float, default=3.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="merge run reports against a baseline")
    p.add_argument("rundirs", nargs="+")
    p.add_argument("--baseline")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, fab.FabricConfigError, nl.NetlistParseError, ValueError,
            gr.RoutingError, metrics.MetricsError) as exc:
        print(f"routekit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
