#!/usr/bin/env python3
"""Self-test of the benchmark's checks, in seconds, on a tiny design.

    python3 perfbench/selftest.py

Runs a 64-cell design through 'run' on every fabric, then 'analyze' and
'compare', and requires every check to pass.  Then it requires the checks
to reject two broken copies of a run: routes.txt with one edge removed from
a multi-terminal net, and a congestion map with one demand cell altered.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import shutil
import sys

import run


def _rejected(label: str, broken_dir, verdicts, job, code: int) -> bool:
    try:
        run.checks.check_run(broken_dir, verdicts.bound[job.name],
                             verdicts.fabrics[job.fabric], run.GCELL, code)
    except run.checks.CheckError as exc:
        print(f"selftest: {label}: rejected ({exc})")
        return True
    print(f"selftest: {label}: NOT rejected")
    return False


def main() -> int:
    rk, _ = run.import_routekit()
    wl = run.Workload(
        designs=(run.Design("tiny", 64, 5),),
        jobs=tuple(run.Job(f, "tiny", f, ("--seed", "1", "--moves-per-temp", "300"))
                   for f in ("2d", "tmi", "s3dc")),
        sweep=True,
    )
    wdir = run.OUT / "selftest"
    shutil.rmtree(wdir, ignore_errors=True)
    designs, paths, _ = run.set_up(rk, wl, wdir)
    verdicts = run.Verdicts(rk, wl, wdir, designs)
    _, codes = run.run_round(wl, wl.jobs, wdir, paths, rk.cli.main, run.Sampler())
    verdicts.check(codes)
    ok = verdicts.failed == 0
    print(f"selftest: real output: {verdicts.attempted} jobs, {verdicts.failed} failed")

    job = wl.jobs[0]
    src = wdir / job.name
    routes = run.checks.read_routes(src / "routes.txt")
    net_id = next(n for n, edges in routes.items() if len(edges) > 1)

    broken = wdir / "edge-removed"
    shutil.copytree(src, broken)
    routes[net_id] = routes[net_id][1:]
    (broken / "routes.txt").write_text(
        "net,edge_list\n"
        + "".join(f"{n}," + " ".join(map(str, e)) + "\n" for n, e in routes.items()))
    ok &= _rejected(f"routes.txt without one edge of net {net_id}", broken, verdicts, job, codes[job.name])

    broken = wdir / "demand-altered"
    shutil.copytree(src, broken)
    path = broken / "congestion_L1.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = str(int(fields[4]) + 1)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    ok &= _rejected("congestion_L1.csv with one demand cell altered", broken, verdicts, job, codes[job.name])

    print("selftest: PASS" if ok else "selftest: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
