"""What the benchmark under perfbench/ relies on from routekit.

perfbench/tracing.py reads two of the router's DEBUG records: it counts
rerouted nets from the third argument of "reroute iteration" records and
stops on the "overflow stagnant" prefix.  perfbench/selftest.py runs the
benchmark's checks on a tiny design.
"""

import logging
import subprocess
import sys
from pathlib import Path

from routekit import globalroute as gr

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_router_log_records_match_tracing():
    # one capacity-1 via shared by two nets: the overflow never clears, so
    # the router reroutes until the stagnation rule stops it
    graph = gr.RoutingGraph(1, 1, 2, 1, 100.0, ("h", "v"), (10, 10), via_capacity=1)
    log = logging.getLogger("routekit.globalroute")
    handler = _Records()
    level = log.level
    log.setLevel(logging.DEBUG)
    log.addHandler(handler)
    try:
        gr.route_terminal_sets(graph, [("na", [[0], [1]]), ("nb", [[0], [1]])],
                               gr.RouteParams(stagnation_min_nets=0))
    finally:
        log.removeHandler(handler)
        log.setLevel(level)

    reroutes = [r for r in handler.records if r.msg.startswith("reroute iteration")]
    assert reroutes
    for n, record in enumerate(reroutes, start=1):
        assert record.msg == "reroute iteration %d: %d overflowed edges, %d nets"
        assert len(record.args) == 3
        assert all(type(a) is int for a in record.args)
        assert record.args == (n, 1, 1)  # (iteration, overflowed edges, nets)
    assert any(r.msg.startswith("overflow stagnant") for r in handler.records)
