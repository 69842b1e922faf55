"""Checks of routekit's run artifacts, made apart from the program.

Only the inputs of a run come from routekit: the netlist the benchmark
generated, and the fabric's layer stack and cell library (layer directions
and capacities, cell footprints, pin access offsets).  Every quantity a run
reports is recomputed here with plain Python arithmetic and compared with
the artifact.  A disagreement raises ``CheckError`` naming the file and the
first mismatch.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
from pathlib import Path

# Via stacks carry one signal per gcell on fabrics with exclusive stacks
# (s3dc) and four elsewhere, as routekit's README documents.
EXCLUSIVE_VIA_CAPACITY = 1
SHARED_VIA_CAPACITY = 4
REL_TOL = 1e-9


class CheckError(Exception):
    pass


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Grid:
    """Edge-id arithmetic of routekit's routing lattice, from its documented
    layout: node id ``(layer*Y + y)*X + x`` with 0-based layers; planar edges
    packed layer by layer, an 'h' edge at (x, y) joining x and x+1 with id
    ``y*(X-1) + x`` and a 'v' edge joining y and y+1 with id ``y*X + x``;
    then one via edge per gcell and layer pair, id ``(layer*Y + y)*X + x``,
    joining ``layer`` and ``layer+1``."""

    def __init__(self, x: int, y: int, dirs: list[str]):
        self.x, self.y, self.dirs = x, y, dirs
        self.layers = len(dirs)
        self.pbase = []
        eid = 0
        for d in dirs:
            self.pbase.append(eid)
            eid += (x - 1) * y if d == "h" else x * (y - 1)
        self.via_base = eid
        self.num_edges = eid + x * y * (self.layers - 1)

    def node(self, gx: int, gy: int, layer0: int) -> int:
        return (layer0 * self.y + gy) * self.x + gx

    def planar_id(self, layer0: int, gx: int, gy: int) -> int:
        width = self.x - 1 if self.dirs[layer0] == "h" else self.x
        return self.pbase[layer0] + gy * width + gx

    def via_id(self, layer0: int, gx: int, gy: int) -> int:
        return self.via_base + (layer0 * self.y + gy) * self.x + gx

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not 0 <= eid < self.num_edges:
            raise CheckError(f"edge id {eid} outside a grid of {self.num_edges} edges")
        if eid >= self.via_base:
            lower = eid - self.via_base  # equals the node id of the lower end
            return lower, lower + self.x * self.y
        layer0 = bisect.bisect_right(self.pbase, eid) - 1
        rel = eid - self.pbase[layer0]
        if self.dirs[layer0] == "h":
            a = self.node(rel % (self.x - 1), rel // (self.x - 1), layer0)
            return a, a + 1
        a = self.node(rel % self.x, rel // self.x, layer0)
        return a, a + self.x


def _find(parent: dict, a: int) -> int:
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        parent[a], a = root, parent[a]
    return root


def read_routes(path: Path) -> dict[str, list[int]]:
    if not path.is_file():
        raise CheckError("missing routes.txt")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "net,edge_list":
        raise CheckError("routes.txt: bad header")
    routes: dict[str, list[int]] = {}
    for line in lines[1:]:
        net_id, _, edges = line.partition(",")
        if net_id in routes:
            raise CheckError(f"routes.txt: net {net_id} listed twice")
        routes[net_id] = [int(e) for e in edges.split()]
    return routes


def check_placement(run_dir: Path, design, meta: dict) -> dict[str, tuple[int, int]]:
    """Every cell once, inside the die, no two overlapping; HPWL as reported."""
    placed: dict[str, tuple[int, int]] = {}
    for row in _rows(run_dir / "placement.csv"):
        if row["cell"] in placed:
            raise CheckError(f"placement.csv: cell {row['cell']} placed twice")
        placed[row["cell"]] = (int(row["x"]), int(row["y"]))
    cells = {c.id: design.masters[c.master] for c in design.cells}
    if set(placed) != set(cells):
        raise CheckError(f"placement.csv: {len(placed)} cells placed, design has {len(cells)}")
    width, height = meta["die_width"], meta["die_height"]
    used: set[tuple[int, int]] = set()
    for cid, (x, y) in placed.items():
        m = cells[cid]
        if x < 0 or y < 0 or x + m.width > width or y + m.height > height:
            raise CheckError(f"placement.csv: cell {cid} at ({x},{y}) leaves the {width}x{height} die")
        for sx in range(x, x + m.width):
            for sy in range(y, y + m.height):
                if (sx, sy) in used:
                    raise CheckError(f"placement.csv: cell {cid} overlaps another at site ({sx},{sy})")
                used.add((sx, sy))
    total = 0
    for net in design.nets:
        xs, ys = [], []
        for cid, pin in net.terminals:
            _, dx, dy = cells[cid].pin(pin).accesses[0]
            xs.append(placed[cid][0] + dx)
            ys.append(placed[cid][1] + dy)
        total += max(xs) - min(xs) + max(ys) - min(ys)
    if total != meta["hpwl_sites"]:
        raise CheckError(f"run_meta.json: hpwl_sites {meta['hpwl_sites']}, recomputed {total}")
    return placed


def check_routes(routes: dict[str, list[int]], design, placed, grid: Grid, gcell: int) -> None:
    """Each multi-terminal net's edges form one connected node set that holds
    an access node of every terminal; single-terminal nets have no edges."""
    if set(routes) != {n.id for n in design.nets}:
        raise CheckError("routes.txt: net set differs from the netlist")
    masters = {c.id: design.masters[c.master] for c in design.cells}
    for net in design.nets:
        edges = routes[net.id]
        if len(net.terminals) < 2:
            if edges:
                raise CheckError(f"routes.txt: single-terminal net {net.id} has edges")
            continue
        access_sets = []
        for cid, pin in net.terminals:
            ox, oy = placed[cid]
            nodes = set()
            for layer, dx, dy in masters[cid].pin(pin).accesses:
                if not 1 <= layer <= grid.layers:
                    raise CheckError(f"pin {cid}.{pin}: access layer {layer} outside the stack")
                gx = min((ox + dx) // gcell, grid.x - 1)
                gy = min((oy + dy) // gcell, grid.y - 1)
                nodes.add(grid.node(gx, gy, layer - 1))
            access_sets.append(nodes)
        if not edges:
            if not set.intersection(*access_sets):
                raise CheckError(f"routes.txt: net {net.id} has no edges but its terminals share no access node")
            continue
        parent: dict[int, int] = {}
        for e in edges:
            a, b = grid.endpoints(e)
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
        roots = {_find(parent, n) for n in parent}
        if len(roots) != 1:
            raise CheckError(f"routes.txt: net {net.id} splits into {len(roots)} pieces")
        for k, nodes in enumerate(access_sets):
            if not nodes & parent.keys():
                raise CheckError(f"routes.txt: net {net.id} misses terminal {net.terminals[k]}")


def check_run(run_dir: Path, design, fabric, gcell: int, exit_code: int) -> dict:
    """All checks of one ``run`` directory; returns its quality numbers.

    ``design`` is the netlist bound to ``fabric`` (routekit.bind_masters)."""
    meta_path = run_dir / "run_meta.json"
    if not meta_path.is_file():
        raise CheckError("missing run_meta.json")
    meta = json.loads(meta_path.read_text())
    placed = check_placement(run_dir, design, meta)

    dirs = [layer.direction for layer in fabric.layers]
    grid = Grid(-(-meta["die_width"] // gcell), -(-meta["die_height"] // gcell), dirs)
    routes = read_routes(run_dir / "routes.txt")
    check_routes(routes, design, placed, grid, gcell)

    usage = [0] * grid.num_edges
    for edges in routes.values():
        for e in edges:
            usage[e] += 1
    planar_edges = sum(usage[:grid.via_base])
    via_edges = sum(usage[grid.via_base:])

    # Congestion maps: one row per edge, demand equal to the recount.
    via_cap = EXCLUSIVE_VIA_CAPACITY if fabric.via_stack_exclusive else SHARED_VIA_CAPACITY
    seen = bytearray(grid.num_edges)
    overflow = via_overflow = 0
    per_layer = []  # (planar demand, planar capacity, max demand/capacity)
    for li in range(grid.layers):
        name = f"congestion_L{li + 1}.csv"
        dem_sum = cap_sum = 0
        worst = 0.0
        for row in _rows(run_dir / name):
            gx, gy, d = int(row["x"]), int(row["y"]), row["dir"]
            if int(row["layer"]) != li + 1:
                raise CheckError(f"{name}: row for layer {row['layer']}")
            if d == "via":
                eid, cap = grid.via_id(li, gx, gy), via_cap
            elif d == dirs[li]:
                eid, cap = grid.planar_id(li, gx, gy), fabric.layers[li].capacity
            else:
                raise CheckError(f"{name}: direction {d} on a '{dirs[li]}' layer")
            if seen[eid]:
                raise CheckError(f"{name}: edge ({d},{gx},{gy}) listed twice")
            seen[eid] = 1
            dem = int(row["demand"])
            if dem != usage[eid]:
                raise CheckError(f"{name}: demand {dem} at ({d},{gx},{gy}), routes.txt uses it {usage[eid]} times")
            if int(row["capacity"]) != cap:
                raise CheckError(f"{name}: capacity {row['capacity']} at ({d},{gx},{gy}), expected {cap}")
            if dem > cap:
                overflow += 1
                via_overflow += d == "via"
            if d != "via":
                dem_sum += dem
                cap_sum += cap
                if dem:
                    worst = max(worst, dem / cap)
        per_layer.append((dem_sum, cap_sum, worst))
    if not all(seen):
        raise CheckError(f"congestion maps cover {sum(seen)} of {grid.num_edges} edges")

    ratios = _rows(run_dir / "layer_ratios.csv")
    if len(ratios) != grid.layers:
        raise CheckError(f"layer_ratios.csv: {len(ratios)} rows for {grid.layers} layers")
    for li, (row, (dem_sum, cap_sum, worst)) in enumerate(zip(ratios, per_layer)):
        if (int(row["layer"]), int(row["demand"]), int(row["capacity"])) != (li + 1, dem_sum, cap_sum):
            raise CheckError(f"layer_ratios.csv: layer {li + 1} reads {dict(row)}, "
                             f"recounted demand {dem_sum} capacity {cap_sum}")
        if not _close(float(row["aggregate_ratio"]), dem_sum / cap_sum):
            raise CheckError(f"layer_ratios.csv: layer {li + 1} aggregate_ratio {row['aggregate_ratio']}")
        if not _close(float(row["max_edge_ratio"]), worst):
            raise CheckError(f"layer_ratios.csv: layer {li + 1} max_edge_ratio "
                             f"{row['max_edge_ratio']}, recomputed {worst}")

    if meta.get("overflow_edges") != overflow:
        raise CheckError(f"run_meta.json: overflow_edges {meta.get('overflow_edges')}, recounted {overflow}")
    if exit_code != (3 if overflow else 0):
        raise CheckError(f"exit code {exit_code} with {overflow} overflowed edges")

    report = _rows(run_dir / "report.csv")
    wirelength = planar_edges * gcell * fabric.site_dim_nm / 1000.0 / 1000.0
    if len(report) != 1 or not _close(float(report[0]["total_wirelength_mm"]), wirelength):
        raise CheckError(f"report.csv: total_wirelength_mm differs from {planar_edges} planar "
                         f"edges x gcell ({wirelength:.10g} mm)")
    # CongestionMap.congested looks at planar layers only, so a run whose
    # overflowed edges are all vias reads "congested": false.  That known
    # fault is reported apart from other wrong outputs.
    known_fault = None
    if meta.get("congested") != (overflow > 0):
        msg = f"run_meta.json: congested {meta.get('congested')} with {overflow} overflowed edges"
        if meta.get("congested") is not False or overflow != via_overflow:
            raise CheckError(msg)
        known_fault = msg + ", all of them vias"
    return {
        "known_fault": known_fault,
        "label": meta["label"],
        "hpwl_sites": meta["hpwl_sites"],
        "route_demand_edges": planar_edges + via_edges,
        "max_edge_ratio": max(worst for _, _, worst in per_layer),
        "overflow_edges": overflow,
        "wirelength_mm": float(report[0]["total_wirelength_mm"]),
    }


def check_analyze(path: Path, metas: list[dict], rent_r: float, rent_a: float,
                  baseline: str) -> None:
    """``analyze`` rows against the closed-form chain E = pins/(N*area),
    G = (E/A)^(1/r), l = G^(r-0.5), normalised to the baseline's l."""
    chain = {}
    for meta in metas:
        e = meta["total_pins"] / (meta["pin_access_layers"] * meta["die_area_um2"])
        g = (e / rent_a) ** (1.0 / rent_r)
        chain[meta["label"]] = (e, g, g ** (rent_r - 0.5))
    rows = _rows(path)
    if [r["label"] for r in rows] != [m["label"] for m in metas]:
        raise CheckError(f"{path.name}: labels {[r['label'] for r in rows]}")
    base = chain[baseline][2]
    for row in rows:
        e, g, demand = chain[row["label"]]
        got = (float(row["E_effective"]), float(row["G"]), float(row["l_normalized"]))
        want = (e, g, demand / base)
        if not all(_close(a, b) for a, b in zip(got, want)):
            raise CheckError(f"{path.name}: {row['label']} reads {got}, closed form gives {want}")


def check_compare(summary_dir: Path, runs: list[dict]) -> None:
    """The merged report lists every run with its own wirelength, and s3dc
    is no more congested than tmi."""
    rows = _rows(summary_dir / "report.csv")
    if [r["label"] for r in rows] != [q["label"] for q in runs]:
        raise CheckError(f"compare report.csv: labels {[r['label'] for r in rows]}")
    for row, q in zip(rows, runs):
        if not _close(float(row["total_wirelength_mm"]), q["wirelength_mm"]):
            raise CheckError(f"compare report.csv: {q['label']} wirelength {row['total_wirelength_mm']}")
    by_label = {q["label"]: q for q in runs}
    if "tmi" in by_label and "s3dc" in by_label:
        tmi, s3dc = by_label["tmi"], by_label["s3dc"]
        if s3dc["overflow_edges"] > tmi["overflow_edges"] or s3dc["max_edge_ratio"] > tmi["max_edge_ratio"]:
            raise CheckError(f"s3dc ({s3dc['overflow_edges']} overflowed, worst ratio {s3dc['max_edge_ratio']}) "
                             f"is more congested than tmi ({tmi['overflow_edges']}, {tmi['max_edge_ratio']})")
