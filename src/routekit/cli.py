"""Command-line pipeline driver.

Subcommands::

    gen      write a synthetic netlist
    place    size the die and place a netlist
    route    globally route a placed netlist
    run      full pipeline: ingest/generate -> place -> route -> report
    analyze  analytic routing-demand comparison from run directories
    compare  merge run reports into one normalized table

The run flags of ``gen``, ``place``, ``route`` and ``run`` are the fields of
``flow.JobSpec`` that the subcommand reads.  ``--config`` names a JSON object
of any JobSpec fields; flags override its keys.

Exit codes: 0 success, 2 usage or input error, 3 completed with routing
overflow (all artifacts are still written).

A command runs with the cyclic garbage collector off, and ``main`` turns it
back on only if it was on when called.  The pipeline's objects are freed by
reference counting: the cycles a command leaves do not grow with the design,
while the collector's scans of the router's and placer's many live objects
cost a few percent of a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
import typing
from pathlib import Path

from . import fabric as fab
from . import flow
from . import globalroute as gr
from . import metrics, netlist as nl, placement as pl, rent

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONGESTED = 3


def _inputs(cls) -> dict:
    """Type hints of the fields of dataclass ``cls`` that have no default."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING}


def _check_keys(where: str, data, hints: dict) -> dict:
    """``data``, required to be a JSON object with a value of type ``hints[k]`` at each k;
    a float value must be finite (Python's ``json`` reads ``NaN`` and ``Infinity``), and
    a ``label`` must pass ``flow.check_label``."""
    if not isinstance(data, dict):
        raise flow.JobError(f"{where}: expected a JSON object, got {json.dumps(data)}")
    for key, hint in hints.items():
        if key not in data:
            raise flow.JobError(f"{where}: missing key {key!r}")
        try:
            value = flow.checked(key, data[key], hint)
            if key == "label":
                flow.check_label(value)
        except flow.JobError as exc:
            raise flow.JobError(f"{where}: {exc}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise flow.JobError(f"{where}: key {key!r} must be finite, got {value!r}")
    return data


def _read_json(path: Path, hints: dict) -> dict:
    """The JSON object in ``path``, checked by ``_check_keys``."""
    text = flow.read_input(path)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise flow.JobError(f"{path}: invalid JSON ({exc})") from exc
    return _check_keys(str(path), data, hints)


def _spec(args: argparse.Namespace) -> flow.JobSpec:
    """The JobSpec of ``--config``, if given, with the flags given on top."""
    hints = typing.get_type_hints(flow.JobSpec)
    flags = {name: getattr(args, name) for name in hints if hasattr(args, name)}
    if not getattr(args, "config", None):
        return flow.JobSpec(**flags)
    loaded = _read_json(Path(args.config), {})
    unknown = set(loaded) - set(hints)
    if unknown:
        raise flow.JobError(f"{args.config}: unknown keys {sorted(unknown)}")
    try:
        spec = flow.JobSpec(**loaded)
    except flow.JobError as exc:
        raise flow.JobError(f"{args.config}: {exc}") from exc
    return dataclasses.replace(spec, **flags)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_placed(out: Path, placed: flow.PlacedJob) -> None:
    _write(out / "placement.csv", "cell,x,y\n" + "".join(
        f"{cid},{x},{y}\n" for cid, (x, y) in placed.placement.assignments.items()))
    _write(out / "netlist.net", nl.serialize_netlist(placed.design))


def _write_routed(out: Path, result: flow.JobResult) -> int:
    """Writes the routing artifacts and run_meta.json; returns the exit code."""
    _write(out / "routes.txt", "net,edge_list\n" + "".join(
        f"{r.net_id}," + " ".join(map(str, r.edges)) + "\n" for r in result.routes))
    for layer in range(1, result.graph.layers + 1):
        _write(out / f"congestion_L{layer}.csv", gr.congestion_csv(result.congestion, layer))
    ratio_lines = ["layer,demand,capacity,aggregate_ratio,max_edge_ratio"]
    for row in gr.demand_resource_ratios(result.congestion):
        ratio_lines.append(
            f"{row.layer},{row.demand},{row.capacity},"
            f"{metrics.fmt(row.aggregate_ratio)},{metrics.fmt(row.max_edge_ratio)}"
        )
    _write(out / "layer_ratios.csv", "\n".join(ratio_lines) + "\n")
    _write_meta(out, result.meta)
    return EXIT_CONGESTED if result.meta["overflow_edges"] else EXIT_OK


def _write_meta(out: Path, meta: dict) -> None:
    _write(out / "run_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_gen(args: argparse.Namespace) -> int:
    _write(Path(args.output), nl.serialize_netlist(flow.load_design(_spec(args))))
    return EXIT_OK


def cmd_place(args: argparse.Namespace) -> int:
    placed = flow.place_job(_spec(args))
    out = Path(args.output)
    _write_placed(out, placed)
    _write_meta(out, placed.meta)
    return EXIT_OK


def _read_placement(csv_path: Path, design: nl.Netlist, die: pl.Die) -> pl.Placement:
    """The placement in ``csv_path``: the header ``cell,x,y``, then every
    design cell on exactly one line, and legal by ``pl.illegal_cell``.  Each
    error names its line."""
    header, *rows = flow.read_input(csv_path).splitlines() or [""]
    if header != "cell,x,y":
        raise flow.JobError(f"{csv_path}: line 1: expected the header 'cell,x,y', "
                            f"got {header!r}")
    lines: dict[str, int | None] = {cell.id: None for cell in design.cells}
    assignments = {}
    for lineno, line in enumerate(rows, start=2):
        where = f"{csv_path}: line {lineno}:"
        try:
            cid, x, y = line.split(",")
            x, y = int(x), int(y)
        except ValueError:
            raise flow.JobError(f"{where} expected 'cell,x,y' with integer x and y, "
                                f"got {line!r}") from None
        if cid not in lines:
            raise flow.JobError(f"{where} unknown cell {cid!r}")
        if lines[cid] is not None:
            raise flow.JobError(f"{where} cell {cid!r} is placed twice")
        lines[cid] = lineno
        assignments[cid] = (x, y)
    for cid, lineno in lines.items():
        if lineno is None:
            raise flow.JobError(f"{csv_path}: cell {cid!r} has no line")
    placement = pl.Placement(assignments, die)
    illegal = pl.illegal_cell(design, placement)
    if illegal:
        cid, message = illegal
        raise flow.JobError(f"{csv_path}: line {lines[cid]}: {message}")
    return placement


def _load_placed(run_dir: Path) -> flow.PlacedJob:
    """The PlacedJob that 'place' wrote to ``run_dir``."""
    meta_path = run_dir / "run_meta.json"
    meta = _read_json(meta_path, {"fabric": str, "die_width": int,
                                  "die_height": int, "utilization": float})
    try:
        fabric = flow.load_fabric(meta["fabric"])
        die = pl.Die(meta["die_width"], meta["die_height"], fabric.site_dim_nm,
                     meta["utilization"])
    except ValueError as exc:
        raise flow.JobError(f"{meta_path}: {exc}") from exc
    design = fab.bind_masters(flow.read_netlist(run_dir / "netlist.net"), fabric)
    placement = _read_placement(run_dir / "placement.csv", design, die)
    return flow.PlacedJob(fabric, design, die, placement, meta)


def cmd_route(args: argparse.Namespace) -> int:
    run_dir = Path(args.rundir)
    return _write_routed(run_dir, flow.route_job(_load_placed(run_dir), _spec(args)))


def cmd_run(args: argparse.Namespace) -> int:
    result = flow.run_job(_spec(args))
    out = Path(args.output)
    _write_placed(out, result.placed)
    label = result.report.label
    _write(out / "report.csv", metrics.emit_report_csv([result.report], label))
    _write(out / "report.json", metrics.emit_report_json([result.report], label))
    return _write_routed(out, result)


def cmd_analyze(args: argparse.Namespace) -> int:
    density = _inputs(rent.PinDensityInput)
    designs = []
    for d in args.rundirs:
        meta_path = Path(d) / "run_meta.json"
        meta = _read_json(meta_path, {"label": str, **density})
        try:
            designs.append((meta["label"], rent.PinDensityInput(**{k: meta[k] for k in density})))
        except ValueError as exc:
            raise flow.JobError(f"{meta_path}: {exc}") from exc
    baseline = args.baseline or designs[0][0]
    rows = rent.compare_demand(designs, rent.RentParams(r=args.rent, a=args.pins), baseline)
    csv_text = rent.demand_table_csv(rows)
    if args.output:
        _write(Path(args.output), csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    columns = _inputs(metrics.BenchmarkReport)
    rows = []
    for d in args.rundirs:
        report_path = Path(d) / "report.json"
        data = _read_json(report_path, {"rows": list})
        for i, rec in enumerate(data["rows"]):
            _check_keys(f"{report_path}: rows[{i}]", rec, columns)
            rows.append(metrics.BenchmarkReport(**{k: rec[k] for k in columns}))
    if not rows:
        raise flow.JobError("no report rows to compare")
    baseline = args.baseline or rows[0].label
    csv_text = metrics.emit_report_csv(rows, baseline)
    json_text = metrics.emit_report_json(rows, baseline)
    if args.output:
        out = Path(args.output)
        _write(out / "report.csv", csv_text)
        _write(out / "report.json", json_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(flow.JobSpec)
    # Each job subcommand takes a flag for every JobSpec field of its stages.
    for name, func, help, stages in (
        ("gen", cmd_gen, "generate a synthetic netlist", ("generate",)),
        ("place", cmd_place, "size a die and place a netlist", ("netlist", "generate", "place")),
        ("route", cmd_route, "route a placed run directory", ("route",)),
        ("run", cmd_run, "full place-route-report pipeline",
         ("netlist", "generate", "place", "route", "report")),
    ):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for f in dataclasses.fields(flow.JobSpec):
            if f.metadata["stage"] in stages:
                default = "" if f.default is None else f" (default: {f.default})"
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               type=flow.base_type(hints[f.name]), default=argparse.SUPPRESS,
                               required=name == "gen" and f.name == "cells",
                               help=f.metadata["help"] + default)
        if name != "gen":
            p.add_argument("--config", help="JSON object of JobSpec fields; flags override it")
        if name == "route":
            p.add_argument("rundir", help="directory produced by 'place'")
        else:
            p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="analytic demand comparison of run dirs")
    p.add_argument("rundirs", nargs="+")
    p.add_argument("--baseline")
    p.add_argument("--rent", type=float, default=rent.RentParams.r)
    p.add_argument("--pins", type=float, default=rent.RentParams.a)
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ValueError, gr.RoutingError) as exc:
        print(f"routekit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
