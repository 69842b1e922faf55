"""What the benchmark under perfbench/ relies on from routekit.

perfbench/tracing.py reads two of the router's DEBUG records: it counts
rerouted nets from the third argument of "reroute iteration" records, takes
the first such record's time as the end of the first pass, and counts the
"overflow stagnant" prefix.  It also times routekit's module
functions by replacing the module attributes the pipeline calls through.
perfbench/selftest.py runs the benchmark's checks on a tiny design.
"""

import logging
import subprocess
import sys
from pathlib import Path

import routekit.cli
from routekit import globalroute as gr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


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


def test_router_log_records_match_tracing(monkeypatch):
    # one capacity-1 via shared by two nets: the overflow never clears, so
    # the router reroutes until the stagnation rule, here with a budget of
    # two fruitless reroutes, stops it
    monkeypatch.setattr(gr, "STAGNATION_NETS", 2)
    graph = gr.RoutingGraph(1, 1, 1, 100.0, ("h", "v"), (10, 10), via_capacity=1)
    log = logging.getLogger("routekit.globalroute")
    handler = _Records()
    level = log.level
    log.setLevel(logging.DEBUG)
    log.addHandler(handler)
    try:
        gr.route_terminal_sets(graph, [("na", [[0], [1]]), ("nb", [[0], [1]])])
    finally:
        log.removeHandler(handler)
        log.setLevel(level)

    first = [r for r in handler.records if r.msg.startswith("first pass")]
    assert [r.msg for r in first] == ["first pass: %d nets, %d searches, %d heap pops"]
    assert first[0].args == (2, 2, 4)  # (nets, searches, heap pops)
    reroutes = [r for r in handler.records if r.msg.startswith("reroute iteration")]
    assert reroutes
    for n, record in enumerate(reroutes, start=1):
        assert record.msg == ("reroute iteration %d: %d overflowed edges, %d nets, "
                              "%d searches and %d heap pops in the pass before")
        assert all(type(a) is int for a in record.args)
        # (iteration, overflowed edges, nets, and the previous pass's
        # searches and heap pops); tracing reads the nets at index 2
        assert record.args == ((n, 1, 1, 2, 4) if n == 1 else (n, 1, 1, 1, 2))
    assert any(r.msg.startswith("overflow stagnant") for r in handler.records)


def test_tracer_sees_every_wrapped_function(tmp_path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    net = tmp_path / "n.net"
    tracer = tracing.Tracer(routekit)
    tracer.install()
    try:
        # gen validates the design it generates; run reads one that parsing checked.
        assert tracer.call_main(["gen", "--cells", "64", "--seed", "5", "-o", str(net)]) == 0
        assert tracer.call_main(["run", "--netlist", str(net), "--fabric", "tmi", "--seed", "1",
                                 "--moves-per-temp", "300", "-o", str(tmp_path / "run")]) in (0, 3)
        assert tracer.call_main(["analyze", str(tmp_path / "run"),
                                 "-o", str(tmp_path / "analyze.csv")]) == 0
    finally:
        tracer.uninstall()
    values = tracer.metrics(flow_s=0.0)
    for module, name, metric in tracing.WRAPPED:
        assert values[metric] > 0, f"{module}.{name} was not called through its module"
    assert 0 < values["placement.hpwl_ratio"] <= 1
