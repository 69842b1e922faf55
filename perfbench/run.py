#!/usr/bin/env python3
"""Place-and-route benchmark for routekit.

One workload, from the root of a checkout:

    python3 perfbench/run.py --workload fabric-sweep --seed 1 --seconds 40 --trace 0

Every workload, each in a fresh process, printed as a table:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

routekit is imported from the checkout's ``src/``.  A job is one
``routekit.cli.main`` call, made in-process; one thread runs one job at a
time in a closed loop.  A run repeats whole rounds of its workload's jobs
until ``--seconds`` have passed and checks every job's artifacts after each
round.  Times are rescaled to a reference host speed (see hostspeed.py).
With ``--trace 1`` the rounds alternate between untraced and traced
(see tracing.py) and the per-layer metrics are reported instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from hostspeed import Sampler
from tracing import UNITS as TRACE_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

GCELL = 3  # routekit's default gcell size, in sites
RENT_R, RENT_A = 0.75, 3.0  # the Rent parameters 'analyze' defaults to
SETUP_REPS = 5
SETUP_PERIOD_S = 0.01  # set-up steps last tenths of a second: sample them more often
# Criterion 4's light annealer: cheap placement that leaves tmi congested.
LIGHT_ANNEAL = ("--moves-per-temp", "4000", "--max-temps", "40")


@dataclass(frozen=True)
class Design:
    name: str
    cells: int
    seed: int


@dataclass(frozen=True)
class Job:
    name: str  # output directory and report label
    design: str
    fabric: str
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    designs: tuple[Design, ...]
    jobs: tuple[Job, ...]
    sweep: bool = False  # follow the runs with 'analyze' and 'compare'


WORKLOADS = {
    # The paper's comparison: one design on every fabric, with a fixed
    # annealer effort, so placement does most of the work.
    "fabric-sweep": Workload(
        designs=(Design("sweep", 600, 1),),
        jobs=tuple(Job(f, "sweep", f, ("--seed", "1", "--moves-per-temp", "2000"))
                   for f in ("2d", "tmi", "s3dc")),
        sweep=True,
    ),
    # A congested tmi design (criterion 4's design seed 102 with placement
    # seed 2): all 40 rip-up-and-reroute iterations run and do most of the
    # work.
    "congested-reroute": Workload(
        designs=(Design("c102", 1000, 102),),
        jobs=(Job("tmi", "c102", "tmi", ("--seed", "2", *LIGHT_ANNEAL)),),
    ),
    # A larger uncongested design on 2d and s3dc: the router's first pass
    # does most of the routing, including s3dc's multi-layer pin access.
    "open-first-pass": Workload(
        designs=(Design("open", 1600, 100),),
        jobs=tuple(Job(f, "open", f, ("--seed", "0", *LIGHT_ANNEAL)) for f in ("2d", "s3dc")),
    ),
}

END_TO_END_UNITS = {
    "flow_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hpwl_sites": "sites",
    "route_demand_edges": "edges",
    "max_edge_ratio": "ratio",
}


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def import_routekit():
    """Import routekit from the checkout's src/; returns the package and the
    import's rescaled time."""
    src = ROOT / "src"
    if not (src / "routekit" / "__init__.py").is_file():
        _log(f"no routekit package under {src}")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sampler = Sampler(SETUP_PERIOD_S)
    sampler.timed(importlib.import_module, "routekit.cli")
    import routekit
    if Path(routekit.__file__).resolve().parent != (src / "routekit").resolve():
        _log(f"imported routekit from {routekit.__file__}, not from {src}")
        sys.exit(2)
    return routekit, sampler.rescaled()


def set_up(rk, wl: Workload, wdir: Path) -> tuple[dict, dict, float]:
    """Generate and serialise the workload's netlists ``SETUP_REPS`` times.

    Returns the netlist objects, their files and the median rescaled time of
    one repetition."""
    nl = rk.netlist
    designs, paths = {}, {}

    def generate() -> None:
        for d in wl.designs:
            design = nl.generate_synthetic(nl.SynthesisParams(num_cells=d.cells, seed=d.seed))
            paths[d.name] = wdir / "netlists" / f"{d.name}.net"
            paths[d.name].parent.mkdir(parents=True, exist_ok=True)
            paths[d.name].write_text(nl.serialize_netlist(design))
            designs[d.name] = design

    times = []
    for _ in range(SETUP_REPS):
        sampler = Sampler(SETUP_PERIOD_S)
        sampler.timed(generate)
        times.append(sampler.rescaled())
    return designs, paths, statistics.median(times)


def _timed(call, argv: list[str], sampler: Sampler) -> tuple[float, int | None]:
    sampler.resume()
    try:
        code = call(argv)
    except Exception:
        traceback.print_exc()
        code = None
    finally:
        elapsed = sampler.pause()
    return elapsed, code


def run_round(wl: Workload, order: list[Job], wdir: Path, paths: dict, call,
              sampler: Sampler) -> tuple[float, dict]:
    """One round of CLI calls, each timed by ``sampler``; returns the summed
    wall time of the calls and their exit codes."""
    flow = 0.0
    codes = {}
    for job in order:
        argv = ["run", "--netlist", str(paths[job.design]), "--fabric", job.fabric,
                "--label", job.name, "-o", str(wdir / job.name), *job.flags]
        elapsed, codes[job.name] = _timed(call, argv, sampler)
        flow += elapsed
    if wl.sweep:
        dirs = [str(wdir / job.name) for job in wl.jobs]
        for name, argv in (
            ("analyze", ["analyze", *dirs, "--baseline", "2d", "-o", str(wdir / "analyze.csv")]),
            ("compare", ["compare", *dirs, "--baseline", "2d", "-o", str(wdir / "summary")]),
        ):
            elapsed, codes[name] = _timed(call, argv, sampler)
            flow += elapsed
    return flow, codes


class Verdicts:
    """Checks every job of each round; counts failed jobs and wrong outputs."""

    def __init__(self, rk, wl: Workload, wdir: Path, designs: dict):
        self.wl = wl
        self.wdir = wdir
        self.fabrics = {j.fabric: rk.fabric.builtin_fabric(j.fabric) for j in wl.jobs}
        self.bound = {j.name: rk.fabric.bind_masters(designs[j.design], self.fabrics[j.fabric])
                      for j in wl.jobs}
        self.digests: dict[str, tuple[str, str]] = {}
        self.attempted = self.failed = self.wrong = 0
        self.quality: list[dict] = []

    def _fail(self, job: str, msg: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        _log(f"{job}: {msg}")

    def check(self, codes: dict) -> None:
        quality = []
        for job in self.wl.jobs:
            self.attempted += 1
            run_dir = self.wdir / job.name
            code = codes[job.name]
            if code not in (0, 3):
                self._fail(job.name, f"exit code {code}", wrong=False)
                continue
            try:
                q = checks.check_run(run_dir, self.bound[job.name], self.fabrics[job.fabric],
                                     GCELL, code)
                digest = (checks.digest(run_dir / "routes.txt"), checks.digest(run_dir / "report.csv"))
                if self.digests.setdefault(job.name, digest) != digest:
                    raise checks.CheckError("routes.txt or report.csv differs from the first round")
            except checks.CheckError as exc:
                self._fail(job.name, str(exc), wrong=True)
                continue
            if q["known_fault"]:
                self._fail(job.name, q["known_fault"], wrong=False)
            quality.append(q)
        if self.wl.sweep:
            self._check_sweep(codes, quality)
        if not self.quality:
            self.quality = quality

    def _check_sweep(self, codes: dict, quality: list[dict]) -> None:
        metas = []
        for job in self.wl.jobs:
            path = self.wdir / job.name / "run_meta.json"
            metas.append(json.loads(path.read_text()) if path.is_file() else None)
        for name in ("analyze", "compare"):
            self.attempted += 1
            if codes[name] != 0:
                self._fail(name, f"exit code {codes[name]}", wrong=False)
                continue
            if None in metas or len(quality) != len(self.wl.jobs):
                self._fail(name, "a run it reads failed", wrong=False)
                continue
            try:
                if name == "analyze":
                    checks.check_analyze(self.wdir / "analyze.csv", metas, RENT_R, RENT_A, "2d")
                else:
                    checks.check_compare(self.wdir / "summary", quality)
            except checks.CheckError as exc:
                self._fail(name, str(exc), wrong=True)

    def quality_metrics(self) -> dict[str, float]:
        q = self.quality
        if not q:
            return {}
        return {
            "hpwl_sites": float(sum(r["hpwl_sites"] for r in q)),
            "route_demand_edges": float(sum(r["route_demand_edges"] for r in q)),
            "max_edge_ratio": sum(r["max_edge_ratio"] for r in q) / len(q),
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    rk, import_s = import_routekit()
    wdir = OUT / name
    shutil.rmtree(wdir, ignore_errors=True)
    designs, paths, gen_s = set_up(rk, wl, wdir)
    verdicts = Verdicts(rk, wl, wdir, designs)
    # The seed fixes the order of the runs within every round of this run.
    order = random.Random(seed).sample(wl.jobs, len(wl.jobs))

    flows: list[float] = []  # rescaled call time of each untraced round
    traced_flows: list[float] = []  # the same, traced rounds
    walls: list[float] = []  # wall time of each untraced round
    layer_rounds: list[dict] = []
    # Start a round only if it should end within the run's time.
    start = time.perf_counter()
    round_s = 0.0
    while (not flows or (trace and not traced_flows)
           or time.perf_counter() - start + round_s <= seconds):
        began = time.perf_counter()
        tracer = Tracer(rk) if trace and len(flows) > len(traced_flows) else None
        sampler = Sampler()
        if tracer:
            tracer.install()
            try:
                wall, codes = run_round(wl, order, wdir, paths, tracer.call_main, sampler)
            finally:
                tracer.uninstall()
            traced_flows.append(sampler.rescaled())
            layer_rounds.append(tracer.metrics(wall))
        else:
            wall, codes = run_round(wl, order, wdir, paths, rk.cli.main, sampler)
            flows.append(sampler.rescaled())
            walls.append(wall)
        _log(f"{name}: round {len(flows) + len(traced_flows)}"
             f"{' (traced)' if tracer else ''}: {wall:.3f} s wall, "
             f"{sampler.rescaled():.3f} s rescaled, {len(sampler.speeds)} speed samples")
        verdicts.check(codes)
        round_s = time.perf_counter() - began

    _log(f"{name}: median round {statistics.median(walls):.3f} s wall, "
         f"{statistics.median(flows):.3f} s rescaled")
    if trace:
        values = {m: statistics.median(r[m] for r in layer_rounds) for m in TRACE_UNITS}
        values["trace.overhead_s"] = statistics.median(traced_flows) - statistics.median(flows)
        units = TRACE_UNITS
    else:
        values = {
            "flow_s": statistics.median(flows),
            "setup_s": import_s + gen_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **verdicts.quality_metrics(),
        }
        units = END_TO_END_UNITS
    return {
        "correct": verdicts.wrong == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units if m in values},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process; prints one table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']} jobs, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        status |= not result["correct"]
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
