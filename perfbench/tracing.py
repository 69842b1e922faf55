"""Per-layer tracing of routekit from outside the program.

``Tracer.install`` replaces the public functions of routekit's modules that
``routekit.cli`` calls through (``gr.route``, ``pl.place``, ...) with timing
wrappers, and attaches a DEBUG handler to the ``routekit.globalroute``
logger to timestamp the router's "reroute iteration" and "overflow
stagnant" records.  ``uninstall`` restores everything.  The untraced run of
the benchmark never installs it.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict

# (module, function, metric): the time spent in the function is added to the
# metric.  metrics.report_s sums every reporting function.
WRAPPED = (
    ("netlist", "parse_netlist", "netlist.parse_s"),
    ("netlist", "validate", "netlist.validate_s"),
    ("netlist", "serialize_netlist", "netlist.serialize_s"),
    ("fabric", "bind_masters", "fabric.bind_s"),
    ("placement", "size_die", "placement.size_die_s"),
    ("placement", "place", "placement.place_s"),
    ("placement", "hpwl", "placement.hpwl_s"),
    ("globalroute", "build_grid", "globalroute.build_grid_s"),
    ("globalroute", "terminal_gcells", "globalroute.terminal_gcells_s"),
    ("globalroute", "route", "globalroute.route_s"),
    ("globalroute", "congestion_csv", "globalroute.congestion_csv_s"),
    ("globalroute", "demand_resource_ratios", "globalroute.demand_ratios_s"),
    ("metrics", "total_wirelength_mm", "metrics.report_s"),
    ("metrics", "wire_power_mw", "metrics.report_s"),
    ("metrics", "cell_powers_mw", "metrics.report_s"),
    ("metrics", "emit_report_csv", "metrics.report_s"),
    ("metrics", "emit_report_json", "metrics.report_s"),
    ("rent", "compare_demand", "rent.compare_demand_s"),
)

COUNTS = (
    "netlist.terminals",
    "globalroute.reroute_iters",
    "globalroute.nets_rerouted",
    "globalroute.nets_routed",
    "globalroute.stop_stagnation",
    "globalroute.overflow_edges",
    "globalroute.via_demand",
    "globalroute.grid_nodes",
)

UNITS = {
    **{metric: "s" for _, _, metric in WRAPPED},
    **{name: "count" for name in COUNTS},
    "globalroute.first_pass_s": "s",
    "globalroute.reroute_s": "s",
    "placement.cells_per_s": "1/s",
    "placement.hpwl_ratio": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.flow_s": "s",
    "trace.overhead_s": "s",
}


class _RouterLog(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("reroute iteration"):
            self.tracer.reroute_marks.append(time.perf_counter())
            self.tracer.values["globalroute.nets_rerouted"] += record.args[2]
        elif record.msg.startswith("overflow stagnant"):
            self.tracer.values["globalroute.stop_stagnation"] += 1


class Tracer:
    """Spans around routekit's module functions for one traced round."""

    def __init__(self, rk):
        self.rk = rk  # the imported routekit package
        self.values: dict[str, float] = defaultdict(float)
        self.depth = 0
        self.children_s = 0.0  # wrapped calls made directly by cli.main
        self.reroute_marks: list[float] = []
        self.placements: list[tuple] = []  # (design, fabric, die, seed, placed)
        self._saved: list[tuple] = []
        self._handler = _RouterLog(self)
        self._level = logging.NOTSET

    def _wrap(self, fn, metric: str):
        def traced(*args, **kwargs):
            depth = self.depth
            self.depth += 1
            start = time.perf_counter()
            marks = len(self.reroute_marks)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.depth = depth
                self.values[metric] += end - start
                if depth == 1:
                    self.children_s += end - start
            self._observe(metric, args, kwargs, result, start, end, marks)
            return result
        return traced

    def _observe(self, metric, args, kwargs, result, start, end, marks) -> None:
        v = self.values
        if metric == "netlist.parse_s":
            v["netlist.terminals"] += result.total_terminals
        elif metric == "placement.place_s":
            design, fabric, die = args[:3]
            v["placement.cells"] += len(design.cells)
            self.placements.append((design, fabric, die, kwargs.get("seed", 0), result))
        elif metric == "globalroute.build_grid_s":
            v["globalroute.grid_nodes"] += result.x * result.y * result.layers
        elif metric == "globalroute.terminal_gcells_s":
            v["globalroute.nets_routed"] += 1
        elif metric == "globalroute.route_s":
            _, cmap = result
            v["globalroute.overflow_edges"] += cmap.overflow_edge_count
            v["globalroute.via_demand"] += int(cmap.via_demand.sum())
            mine = self.reroute_marks[marks:]
            split = mine[0] if mine else end
            v["globalroute.first_pass_s"] += split - start
            v["globalroute.reroute_s"] += end - split
            v["globalroute.reroute_iters"] += len(mine)

    def install(self) -> None:
        for module, name, metric in WRAPPED:
            mod = getattr(self.rk, module)
            fn = getattr(mod, name)
            self._saved.append((mod, name, fn))
            setattr(mod, name, self._wrap(fn, metric))
        log = logging.getLogger("routekit.globalroute")
        self._level = log.level
        log.setLevel(logging.DEBUG)
        log.addHandler(self._handler)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
        log = logging.getLogger("routekit.globalroute")
        log.removeHandler(self._handler)
        log.setLevel(self._level)

    def call_main(self, argv: list[str]) -> int:
        """``routekit.cli.main`` as a traced top-level span."""
        self.depth = 1
        start = time.perf_counter()
        try:
            return self.rk.cli.main(argv)
        finally:
            self.values["cli.main_s"] += time.perf_counter() - start
            self.depth = 0

    def metrics(self, flow_s: float) -> dict[str, float]:
        """Per-layer values of the round; call after ``uninstall``."""
        v = self.values
        out = {name: float(v[name]) for name in UNITS}
        out["cli.self_s"] = v["cli.main_s"] - self.children_s
        out["placement.cells_per_s"] = (v["placement.cells"] / v["placement.place_s"]
                                        if v["placement.place_s"] else 0.0)
        pl = self.rk.placement
        final = start = 0
        for design, fabric, die, seed, placed in self.placements:
            final += pl.hpwl(design, placed)
            start += pl.hpwl(design, pl.random_placement(design, fabric, die, seed=seed))
        out["placement.hpwl_ratio"] = final / start if start else 0.0
        out["trace.flow_s"] = flow_s
        return out
