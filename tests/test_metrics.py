import copy
import json

import pytest

from conftest import tiny_netlist
from routekit import fabric as fab
from routekit import globalroute as gr
from routekit import metrics


def graph_1um_gcells(layers=2):
    # gcell_size * site_dim = 1000 nm = 1 um per planar edge
    return gr.RoutingGraph(
        10, 10, layers, 10, 100.0, tuple("hv"[i % 2] for i in range(layers)),
        tuple([10] * layers), via_capacity=4, fabric=fab.builtin_fabric("2d"),
    )


def route_with_edges(graph, n):
    edges = [graph.planar_edge(0, i, 0) for i in range(n)]
    return gr.NetRoute(net_id="n0", edges=tuple(edges))


def test_wirelength_ten_unit_edges():
    graph = graph_1um_gcells()
    routes = [route_with_edges(graph, 9), gr.NetRoute("n1", (graph.planar_edge(0, 0, 1),))]
    assert metrics.total_wirelength_mm(routes, graph) == pytest.approx(0.01)


def test_wirelength_empty():
    assert metrics.total_wirelength_mm([], graph_1um_gcells()) == 0.0


def test_wirelength_vias_default_zero_length():
    graph = graph_1um_gcells()
    routes = [gr.NetRoute("n0", (graph.via_edge(0, 0, 0),))]
    assert metrics.total_wirelength_mm(routes, graph) == 0.0


def test_wire_power_hand_value():
    # 100 um at 0.2 fF/um, 1 GHz, 0.8 V, activity 0.2 -> 2.56 uW
    graph = gr.RoutingGraph(
        12, 10, 2, 10, 100.0, ("h", "v"), (10, 10), via_capacity=4,
        fabric=fab.builtin_fabric("2d"),
    )
    edges = [graph.planar_edge(0, i, y) for y in range(10) for i in range(11)]
    routes = [gr.NetRoute("n0", tuple(edges[:100]))]
    power = metrics.PowerParams(clock_freq_ghz=1.0, supply_voltage=0.8, switching_activity=0.2)
    got = metrics.wire_power_mw(routes, graph, power)
    assert got == pytest.approx(2.56e-3, rel=1e-12)


def test_wire_power_linear_in_frequency_and_activity():
    graph = graph_1um_gcells()
    routes = [route_with_edges(graph, 7)]
    base = metrics.wire_power_mw(routes, graph, metrics.PowerParams(1.0, 0.8, 0.2))
    assert metrics.wire_power_mw(routes, graph, metrics.PowerParams(2.0, 0.8, 0.2)) == pytest.approx(2 * base, rel=1e-12)
    assert metrics.wire_power_mw(routes, graph, metrics.PowerParams(1.0, 0.8, 0.4)) == pytest.approx(2 * base, rel=1e-12)


def test_wire_power_quadratic_in_voltage():
    graph = graph_1um_gcells()
    routes = [route_with_edges(graph, 7)]
    base = metrics.wire_power_mw(routes, graph, metrics.PowerParams(1.0, 0.8, 0.2))
    quad = metrics.wire_power_mw(routes, graph, metrics.PowerParams(1.0, 1.6, 0.2))
    assert quad == pytest.approx(4 * base, rel=1e-12)


def test_cell_powers_zero_without_entries_error():
    d = tiny_netlist(2, [(0, 1)])
    with pytest.raises(metrics.MetricsError, match="'u'"):
        metrics.cell_powers_mw(d, {}, metrics.PowerParams())


def test_cell_powers_internal_hand_value():
    d = tiny_netlist(1, [])
    table = {"u": fab.CellEnergyEntry(internal_fj=1.0, pin_cap_ff=0.0)}
    pin, internal = metrics.cell_powers_mw(d, table, metrics.PowerParams(1.0, 0.8, 0.2))
    assert pin == 0.0
    assert internal == pytest.approx(2e-4, rel=1e-12)  # 0.2 uW


def test_cell_powers_count_connected_inputs_only():
    # net (c0.p0 -> c1.p1): one input terminal; c2 unconnected
    d = tiny_netlist(3, [(0, 1)])
    table = {"u": fab.CellEnergyEntry(internal_fj=0.0, pin_cap_ff=2.0)}
    power = metrics.PowerParams(1.0, 1.0, 0.5)
    pin, internal = metrics.cell_powers_mw(d, table, power)
    # 0.5 * 1e9 Hz * 1 V^2 * 2 fF = 1 uW = 1e-3 mW
    assert pin == pytest.approx(1e-3, rel=1e-12)
    assert internal == 0.0


def make_row(label, freq=1.0, wire=1.0, pin=1.0, internal=1.0, footprint=100.0, cells=10):
    return metrics.BenchmarkReport(
        label=label, cell_count=cells, clock_freq_ghz=freq,
        total_wirelength_mm=1.0, wire_power_mw=wire, pin_power_mw=pin,
        internal_power_mw=internal, footprint_um2=footprint,
    )


def test_total_power_is_exact_sum():
    row = make_row("a", wire=0.1, pin=0.25, internal=0.375)
    assert row.total_power_mw == 0.1 + 0.25 + 0.375


def test_ppa_identity():
    rows = [make_row("base"), make_row("same")]
    fom = metrics.ppa(rows, "base")
    assert fom["base"] == 1.0
    assert fom["same"] == 1.0


def test_ppa_half_power_half_footprint():
    rows = [make_row("base"),
            make_row("better", wire=0.5, pin=0.25, internal=0.75, footprint=50.0)]
    fom = metrics.ppa(rows, "base")
    assert fom["better"] == pytest.approx(4.0, rel=1e-12)


def test_ppa_reference_hand_values():
    # frequency 0.89x, power 1/3, footprint 1/11 -> 29.37x
    rows = [make_row("base"),
            make_row("x", freq=0.89, wire=1.0 / 3, pin=0.0, internal=0.0, footprint=100.0 / 11)]
    rows[0] = make_row("base", wire=1.0, pin=0.0, internal=0.0)
    fom = metrics.ppa(rows, "base")
    assert fom["x"] == pytest.approx(0.89 * 3 * 11, rel=1e-12)
    # published-table style recomputation: (1.7/1.9) / ((1.16/3.40) * 0.11)
    rows = [make_row("b2", freq=1.9, wire=3.40, pin=0.0, internal=0.0, footprint=1.0),
            make_row("v2", freq=1.7, wire=1.16, pin=0.0, internal=0.0, footprint=0.11)]
    fom = metrics.ppa(rows, "b2")
    assert fom["v2"] == pytest.approx((1.7 / 1.9) / ((1.16 / 3.40) * 0.11), rel=1e-12)


def test_ppa_rejects_zero_power():
    rows = [make_row("base"), make_row("bad", wire=0.0, pin=0.0, internal=0.0)]
    with pytest.raises(metrics.MetricsError):
        metrics.ppa(rows, "base")


def test_ppa_rejects_repeated_label():
    # rows x, x, b: each x row would read the figure of merit of the last x
    rows = [make_row("x"), make_row("x", wire=0.25, pin=0.25, internal=0.5), make_row("b")]
    for table in (metrics.ppa, metrics.report_records):
        with pytest.raises(metrics.MetricsError, match="label 'x'"):
            table(rows, "b")


def test_ppa_scale_invariance_in_power():
    # multiplying every row's power by one constant leaves normalized PPA unchanged
    rows_b = [make_row("base", wire=7.0, pin=7.0, internal=7.0),
              make_row("x", wire=14.0, pin=7.0, internal=7.0, footprint=30.0)]
    rows_c = [make_row("base", wire=5.0, pin=5.0, internal=5.0),
              make_row("x", wire=10.0, pin=5.0, internal=5.0, footprint=30.0)]
    fom_b = metrics.ppa(rows_b, "base")
    fom_c = metrics.ppa(rows_c, "base")
    assert fom_b["x"] == pytest.approx(fom_c["x"], rel=1e-12)


def test_percent_delta_published_pair():
    assert metrics.percent_delta(30.69, 99.00) == -69


def test_percent_delta_identity_and_sign():
    assert metrics.percent_delta(5.0, 5.0) == 0
    assert metrics.percent_delta(7.5, 5.0) == 50


def test_report_single_row_deltas_zero():
    rows = [make_row("only")]
    recs = metrics.report_records(rows, "only")
    assert all(v == 0 for k, v in recs[0].items() if k.endswith("_delta_pct"))
    assert recs[0]["footprint_norm"] == 1.0
    assert recs[0]["ppa_norm"] == 1.0


def test_report_density_is_reciprocal_footprint():
    rows = [make_row("base"), make_row("dense", footprint=10.0)]
    recs = metrics.report_records(rows, "base")
    assert recs[1]["footprint_norm"] == pytest.approx(0.1)
    assert recs[1]["density_norm"] == pytest.approx(10.0)


def test_emit_report_leaves_rows_unchanged():
    rows = [make_row("base"), make_row("x", wire=0.5, footprint=40.0, freq=1.2)]
    before = copy.deepcopy(rows)
    metrics.emit_report_csv(rows, "x")
    metrics.emit_report_json(rows, "x")
    assert rows == before


def test_csv_and_json_encode_identical_values():
    rows = [make_row("base"), make_row("x", wire=0.5, footprint=40.0, freq=1.2)]
    csv_text = metrics.emit_report_csv(rows, "base")
    json_rows = json.loads(metrics.emit_report_json(rows, "base"))["rows"]
    header, *lines = csv_text.strip().splitlines()
    cols = header.split(",")
    for line, rec in zip(lines, json_rows):
        for col, cell in zip(cols, line.split(",")):
            v = rec[col]
            if isinstance(v, str):
                assert cell == v
            else:
                assert float(cell) == pytest.approx(float(v), rel=1e-9)


def test_power_params_validation():
    with pytest.raises(metrics.MetricsError):
        metrics.PowerParams(clock_freq_ghz=0)
    with pytest.raises(metrics.MetricsError):
        metrics.PowerParams(switching_activity=0.0)
    with pytest.raises(metrics.MetricsError):
        metrics.PowerParams(switching_activity=1.5)
