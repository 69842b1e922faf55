import dataclasses
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import routekit
from routekit import flow, globalroute as gr, netlist as nl, placement as pl, rent
from routekit.cli import main

FAST = ["--moves-per-temp", "500", "--max-temps", "10"]


def run_cli(*args):
    return main([str(a) for a in args])


def gen_netlist(path, cells=96, seed=1):
    assert run_cli("gen", "--cells", cells, "--seed", seed, "-o", path) == 0
    return path


def test_gen_writes_parseable_netlist(tmp_path):
    out = gen_netlist(tmp_path / "n.net")
    d = nl.parse_netlist(out.read_text())
    assert len(d.cells) == 96


def test_gen_rejects_tiny_design(tmp_path, capsys):
    rc = run_cli("gen", "--cells", 4, "-o", tmp_path / "n.net")
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_gen_deterministic(tmp_path):
    a = gen_netlist(tmp_path / "a.net", seed=3).read_bytes()
    b = gen_netlist(tmp_path / "b.net", seed=3).read_bytes()
    assert a == b


RUN_ARTIFACTS = [
    "report.csv", "report.json", "placement.csv", "routes.txt",
    "run_meta.json", "layer_ratios.csv", "netlist.net",
]


def test_run_emits_all_artifacts(tmp_path):
    net = gen_netlist(tmp_path / "n.net")
    rc = run_cli("run", "--fabric", "2d", "--netlist", net, "--seed", 1,
                 "--label", "2d", "-o", tmp_path / "out", *FAST)
    assert rc in (0, 3)
    for name in RUN_ARTIFACTS:
        assert (tmp_path / "out" / name).is_file(), name
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    for layer in range(1, 9):
        assert (tmp_path / "out" / f"congestion_L{layer}.csv").is_file()
    assert meta["pin_access_layers"] == 1


def test_run_reports_are_deterministic(tmp_path):
    net = gen_netlist(tmp_path / "n.net")
    for sub in ("a", "b"):
        rc = run_cli("run", "--fabric", "s3dc", "--netlist", net, "--seed", 5,
                     "--label", "x", "-o", tmp_path / sub, *FAST)
        assert rc in (0, 3)
    assert (tmp_path / "a/report.csv").read_bytes() == (tmp_path / "b/report.csv").read_bytes()
    assert (tmp_path / "a/routes.txt").read_bytes() == (tmp_path / "b/routes.txt").read_bytes()


def test_run_congested_exits_3_with_artifacts(tmp_path):
    # a starved fabric: one track per edge on M1-M4, M5-M8 blocked
    cfg = tmp_path / "tight.fab"
    cfg.write_text("kind 2d\n" + "".join(f"layer {i} cap {int(i <= 4)}\n" for i in range(1, 9)))
    net = gen_netlist(tmp_path / "n.net", cells=256)
    rc = run_cli("run", "--fabric", cfg, "--netlist", net, "--seed", 1,
                 "--label", "tight", "-o", tmp_path / "out", *FAST)
    assert rc == 3
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["overflow_edges"] > 0
    for name in RUN_ARTIFACTS:
        assert (tmp_path / "out" / name).is_file(), name


def test_run_s3dc_routable_exits_clean(tmp_path):
    net = gen_netlist(tmp_path / "n.net", cells=128)
    rc = run_cli("run", "--fabric", "s3dc", "--netlist", net, "--seed", 1,
                 "--label", "s3dc", "-o", tmp_path / "out", *FAST)
    assert rc == 0
    ratios = (tmp_path / "out" / "layer_ratios.csv").read_text().strip().splitlines()[1:]
    assert all(float(line.split(",")[4]) <= 1.0 for line in ratios)


def test_run_requires_exactly_one_netlist_source(tmp_path, capsys):
    rc = run_cli("run", "--fabric", "2d", "-o", tmp_path / "out")
    assert rc == 2
    assert "netlist source" in capsys.readouterr().err


def test_run_missing_netlist_file(tmp_path, capsys):
    rc = run_cli("run", "--fabric", "2d", "--netlist", tmp_path / "ghost.net",
                 "-o", tmp_path / "out")
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_run_bad_netlist_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("master M pins A\ncell c1 M\nnet n1 c9.A\n")
    rc = run_cli("run", "--fabric", "2d", "--netlist", bad, "-o", tmp_path / "out")
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "c9" in err


@pytest.mark.parametrize("fabric", ["2d", "tmi"])
def test_run_with_zero_wirelength_exits_0_with_zero_deltas(tmp_path, fabric):
    # both nets route over vias only, so the run's own baseline has no wire
    net = tmp_path / "n.net"
    net.write_text("master M pins i1 o\ncell c1 M\ncell c2 M\n"
                   "net n1 c1.o c2.i1\nnet n2 c2.o c1.i1\n")
    assert run_cli("run", "--netlist", net, "--fabric", fabric, "-o", tmp_path / "out") == 0
    (row,) = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert row["total_wirelength_mm"] == 0
    deltas = {k: v for k, v in row.items() if k.endswith("_delta_pct")}
    assert len(deltas) == 6 and set(deltas.values()) == {0}


def test_compare_leaves_a_delta_against_a_zero_baseline_empty(tmp_path):
    # on 2d both nets route over vias only, so the baseline has no wire;
    # on s3dc they do not
    net = tmp_path / "n.net"
    net.write_text("master M pins i1 o\ncell c1 M\ncell c2 M\n"
                   "net n1 c1.o c2.i1\nnet n2 c2.o c1.i1\n")
    for kind in ("2d", "s3dc"):
        assert run_cli("run", "--netlist", net, "--fabric", kind, "-o", tmp_path / kind) == 0
    out = tmp_path / "cmp"
    assert run_cli("compare", tmp_path / "2d", tmp_path / "s3dc", "--baseline", "2d:n",
                   "-o", out) == 0
    base, row = json.loads((out / "report.json").read_text())["rows"]
    assert base["wire_power_mw"] == 0 < row["wire_power_mw"]
    assert row["total_wirelength_mm_delta_pct"] is row["wire_power_mw_delta_pct"] is None
    assert type(row["footprint_um2_delta_pct"]) is int
    header, _, line = (out / "report.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), line.split(",")))
    assert cells["wire_power_mw_delta_pct"] == cells["total_wirelength_mm_delta_pct"] == ""
    assert cells["footprint_um2_delta_pct"] == str(row["footprint_um2_delta_pct"])


@pytest.mark.parametrize("text, where", [
    ("master M pins A OUT\ncell a,b M\ncell c2 M\nnet n1 a,b.OUT c2.A\n", "line 2, col 6"),
    ("master M pins A OUT\ncell c1 M\ncell c2 M\nnet n,1 c1.OUT c2.A\n", "line 4, col 5"),
])
def test_place_rejects_an_id_with_a_comma_at_its_place(tmp_path, capsys, text, where):
    # placement.csv and routes.txt separate their fields with commas
    net = tmp_path / "n.net"
    net.write_text(text)
    assert run_cli("place", "--netlist", net, "-o", tmp_path / "out") == 2
    assert f"{where}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("netlist_name, label", [
    ("n.net", "x,y"), ("n.net", "x\ny"), ("a,b.net", None),
])
@pytest.mark.parametrize("command", ["place", "run"])
def test_label_with_a_comma_or_line_break_exits_2_before_placement(
        tmp_path, capsys, command, netlist_name, label):
    net = gen_netlist(tmp_path / netlist_name)
    flags = ["--label", label] if label is not None else []
    with mock.patch.object(pl, "place", side_effect=AssertionError("placement ran")):
        assert run_cli(command, "--netlist", net, *flags, "-o", tmp_path / "out") == 2
    assert "routekit: error: label " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def make_runs(tmp_path, fabrics=("2d", "tmi", "s3dc")):
    net = gen_netlist(tmp_path / "n.net", cells=128)
    dirs = []
    for kind in fabrics:
        out = tmp_path / kind
        rc = run_cli("run", "--fabric", kind, "--netlist", net, "--seed", 1,
                     "--label", kind, "-o", out, *FAST)
        assert rc in (0, 3)
        dirs.append(out)
    return dirs


def test_analyze_baseline_normalized(tmp_path, capsys):
    dirs = make_runs(tmp_path)
    rc = run_cli("analyze", *dirs, "--baseline", "2d")
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "label,E_effective,G,l_normalized"
    rows = {line.split(",")[0]: float(line.split(",")[3]) for line in lines[1:]}
    assert rows["2d"] == 1.0
    assert rows["tmi"] > 1.0
    assert rows["s3dc"] > 1.0


def test_analyze_multilayer_reduces_demand(tmp_path, capsys):
    dirs = make_runs(tmp_path, fabrics=("tmi", "s3dc"))
    rc = run_cli("analyze", *dirs, "--baseline", "tmi")
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    rows = {line.split(",")[0]: float(line.split(",")[3]) for line in lines}
    assert rows["s3dc"] < rows["tmi"]


def test_analyze_missing_artifacts_exits_2(tmp_path, capsys):
    rc = run_cli("analyze", tmp_path / "nope")
    assert rc == 2
    assert "run_meta" in capsys.readouterr().err


def test_analyze_missing_baseline_exits_2(tmp_path, capsys):
    dirs = make_runs(tmp_path, fabrics=("2d",))
    capsys.readouterr()
    assert run_cli("analyze", *dirs, "--baseline", "zzz") == 2
    assert "baseline 'zzz' not among designs" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_analyze_non_finite_pins_exits_2_naming_it(tmp_path, capsys, value):
    dirs = make_runs(tmp_path, fabrics=("2d",))
    capsys.readouterr()
    assert run_cli("analyze", *dirs, "--pins", value) == 2
    assert f"average terminals per cell must be finite, got {value}" in capsys.readouterr().err


def test_analyze_writes_csv_file(tmp_path):
    dirs = make_runs(tmp_path, fabrics=("2d",))
    out = tmp_path / "demand.csv"
    assert run_cli("analyze", *dirs, "-o", out) == 0
    assert out.read_text().startswith("label,")


def test_compare_merges_reports(tmp_path):
    dirs = make_runs(tmp_path)
    out = tmp_path / "cmp"
    rc = run_cli("compare", *dirs, "--baseline", "2d", "-o", out)
    assert rc == 0
    data = json.loads((out / "report.json").read_text())
    rows = {r["label"]: r for r in data["rows"]}
    assert rows["2d"]["footprint_norm"] == 1.0
    assert rows["2d"]["ppa_norm"] == 1.0
    assert rows["tmi"]["footprint_norm"] == pytest.approx(0.5, abs=0.05)
    assert rows["s3dc"]["footprint_norm"] == pytest.approx(0.111, abs=0.02)
    assert rows["s3dc"]["total_wirelength_mm_delta_pct"] < 0


def test_compare_missing_baseline_exits_2(tmp_path, capsys):
    dirs = make_runs(tmp_path, fabrics=("2d",))
    rc = run_cli("compare", *dirs, "--baseline", "zzz")
    assert rc == 2


@pytest.mark.parametrize("command", ["compare", "analyze"])
def test_repeated_label_exits_2_naming_it(tmp_path, capsys, command):
    # two runs of one netlist on one fabric share their label
    (first,) = make_runs(tmp_path, fabrics=("2d",))
    second = shutil.copytree(first, tmp_path / "again")
    capsys.readouterr()
    assert run_cli(command, first, second) == 2
    assert "label '2d'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["place", "run"])
def test_empty_label_exits_2_before_placement(tmp_path, capsys, command):
    # an empty label is refused, not replaced by the default one
    net = gen_netlist(tmp_path / "n.net")
    with mock.patch.object(pl, "place", side_effect=AssertionError("placement ran")):
        assert run_cli(command, "--netlist", net, "--label", "", "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "routekit: error: key 'label' is empty; a report row needs a name\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name", [("compare", "report.json"),
                                           ("analyze", "run_meta.json")])
def test_read_empty_label_exits_2_naming_the_key_and_the_file(tmp_path, capsys, command, name):
    (run,) = make_runs(tmp_path, fabrics=("2d",))
    path = run / name
    data = json.loads(path.read_text())
    (data["rows"][0] if command == "compare" else data)["label"] = ""
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(command, run, "-o", tmp_path / "table") == 2
    where = f"{path}: rows[0]" if command == "compare" else str(path)
    assert capsys.readouterr().err == (
        f"routekit: error: {where}: key 'label' is empty; a report row needs a name\n")
    assert not (tmp_path / "table").exists()


@pytest.mark.parametrize("label", ["2d,x", "2d\nx"])
@pytest.mark.parametrize("command, name", [("compare", "report.json"),
                                           ("analyze", "run_meta.json")])
def test_read_label_with_a_comma_or_line_break_exits_2_naming_the_file(
        tmp_path, capsys, command, name, label):
    # the label read back goes into a CSV field as it is
    (run,) = make_runs(tmp_path, fabrics=("2d",))
    path = run / name
    data = json.loads(path.read_text())
    (data["rows"][0] if command == "compare" else data)["label"] = label
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(command, run, "-o", tmp_path / "table") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"routekit: error: {path}: ")
    assert f"label {label!r} holds a comma or a line break" in err
    assert not (tmp_path / "table").exists()


def test_config_file_with_flag_override(tmp_path):
    net = gen_netlist(tmp_path / "n.net")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "fabric": "s3dc", "seed": 9, "utilization": 0.6, "label": "fromcfg",
        "moves_per_temp": 500, "max_temps": 10,
    }))
    out = tmp_path / "out"
    rc = run_cli("run", "--config", cfg, "--netlist", net, "--label", "cli-wins", "-o", out)
    assert rc in (0, 3)
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["label"] == "cli-wins"  # flag overrides config
    assert meta["seed"] == 9  # config fills unset flags
    assert meta["pin_access_layers"] == 5


def test_config_rejects_unknown_keys(tmp_path, capsys):
    net = gen_netlist(tmp_path / "n.net")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fabrik": "2d"}))
    rc = run_cli("run", "--config", cfg, "--netlist", net, "-o", tmp_path / "out")
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"seed": 1.5}, "seed"),
    ({"utilization": "0.6"}, "utilization"),
    ({"max_temps": True}, "max_temps"),
    ({"label": 7}, "label"),
])
def test_config_rejects_mistyped_values(tmp_path, capsys, config, key):
    net = gen_netlist(tmp_path / "n.net")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    rc = run_cli("run", "--config", cfg, "--netlist", net, "-o", tmp_path / "out")
    assert rc == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--gcell", 3]])
def test_config_value_out_of_range_names_the_file(tmp_path, capsys, flags):
    # checked as the file's own value, before a flag overrides it, as a
    # value of the wrong type is
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gcell": 0}))
    with mock.patch.object(nl, "generate_synthetic", side_effect=AssertionError("a stage ran")):
        assert run_cli("run", "--config", cfg, "--cells", 200, *flags, "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"routekit: error: {cfg}: key 'gcell': gcell_size must be >= 1, got 0\n")


def test_config_rejects_a_value_too_large_for_a_float(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"utilization": 10**400}))
    with mock.patch.object(nl, "generate_synthetic", side_effect=AssertionError("a stage ran")):
        assert run_cli("run", "--config", cfg, "--cells", 200, "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"routekit: error: {cfg}: key 'utilization' is too large for a float\n")


def test_gen_rejects_a_cell_count_too_large(tmp_path, capsys):
    assert run_cli("gen", "--cells", 10**400, "-o", tmp_path / "n.net") == 2
    assert capsys.readouterr().err == (
        f"routekit: error: key 'cells': num_cells must be <= {nl.MAX_GENERATED_CELLS}\n")


def test_config_rejects_a_cell_count_too_large(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cells": 10**400}))
    with mock.patch.object(nl, "generate_synthetic", side_effect=AssertionError("a stage ran")):
        assert run_cli("run", "--config", cfg, "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"routekit: error: {cfg}: key 'cells': num_cells must be <= {nl.MAX_GENERATED_CELLS}\n")


def test_config_with_an_integer_past_the_digit_limit_names_the_file(tmp_path, capsys):
    # json.loads refuses integers of more than 4300 digits with a ValueError
    cfg = tmp_path / "c.json"
    cfg.write_text('{"cells": 1' + "0" * 5000 + "}")
    assert run_cli("run", "--config", cfg, "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"routekit: error: {cfg}: invalid JSON (")


def test_config_accepts_int_for_float_and_null_for_nullable(tmp_path):
    net = gen_netlist(tmp_path / "n.net")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"utilization": 1, "label": None, "cells": None,
                               "moves_per_temp": 500, "max_temps": 10}))
    out = tmp_path / "out"
    rc = run_cli("run", "--config", cfg, "--netlist", net, "--seed", 1, "-o", out)
    assert rc in (0, 3)
    assert '"utilization": 1.0' in (out / "run_meta.json").read_text()


def test_config_rejects_removed_parallel_key(tmp_path, capsys):
    net = gen_netlist(tmp_path / "n.net")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"parallel": False}))
    rc = run_cli("run", "--config", cfg, "--netlist", net, "-o", tmp_path / "out")
    assert rc == 2
    assert "unknown keys ['parallel']" in capsys.readouterr().err


def test_place_then_route_pipeline(tmp_path):
    net = gen_netlist(tmp_path / "n.net", cells=128)
    out = tmp_path / "flow"
    rc = run_cli("place", "--fabric", "2d", "--netlist", net, "--seed", 2,
                 "-o", out, *FAST)
    assert rc == 0
    assert (out / "placement.csv").is_file()
    assert (out / "run_meta.json").is_file()
    rc = run_cli("route", out)
    assert rc in (0, 3)
    assert (out / "routes.txt").is_file()
    assert (out / "congestion_L1.csv").is_file()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["gcell"] == 3
    assert meta["congested"] == (meta["overflow_edges"] > 0)
    assert rc == (3 if meta["overflow_edges"] else 0)
    assert meta["seed"] == 2 and meta["fabric"] == "2d"


def test_route_missing_placement_exits_2(tmp_path, capsys):
    rc = run_cli("route", tmp_path / "void")
    assert rc == 2


def test_utilization_flag_reaches_die(tmp_path):
    net = gen_netlist(tmp_path / "n.net")
    for util, sub in ((0.6, "a"), (0.9, "b")):
        rc = run_cli("run", "--fabric", "2d", "--netlist", net, "--seed", 1,
                     "--utilization", util, "-o", tmp_path / sub, *FAST)
        assert rc in (0, 3)
    ma = json.loads((tmp_path / "a/run_meta.json").read_text())
    mb = json.loads((tmp_path / "b/run_meta.json").read_text())
    assert ma["die_area_um2"] > mb["die_area_um2"]
    assert ma["utilization"] == 0.6


def test_place_then_route_reproduces_run(tmp_path):
    net = gen_netlist(tmp_path / "n.net", cells=128)
    opts = ["--fabric", "s3dc", "--netlist", net, "--seed", 4, "--label", "x", *FAST]
    assert run_cli("run", *opts, "-o", tmp_path / "run") in (0, 3)
    assert run_cli("place", *opts, "-o", tmp_path / "split") == 0
    assert run_cli("route", tmp_path / "split") in (0, 3)
    names = ["placement.csv", "netlist.net", "routes.txt", "layer_ratios.csv"]
    names += [p.name for p in (tmp_path / "run").glob("congestion_L*.csv")]
    assert len(names) == 4 + 13
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == \
            (tmp_path / "run" / name).read_bytes(), name

    spec = flow.JobSpec(fabric="s3dc", netlist=str(net), seed=4, label="x",
                        moves_per_temp=500, max_temps=10)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert flow.run_job(spec).meta == json.loads((tmp_path / "run/run_meta.json").read_text())


@pytest.mark.parametrize("value", [1.5, True, "3", None])
def test_job_spec_rejects_mistyped_fields(value):
    with pytest.raises(flow.JobError, match="'gcell'"):
        flow.JobSpec(gcell=value)


def test_job_spec_stores_int_for_float_as_float():
    assert type(flow.JobSpec(utilization=1).utilization) is float


@pytest.mark.parametrize("argv", [
    ["place", "--gcell", "9", "--netlist", "n.net", "-o", "out"],
    ["place", "--max-iters", "1", "--netlist", "n.net", "-o", "out"],
    ["place", "--freq", "5", "--netlist", "n.net", "-o", "out"],
    ["route", "--fabric", "s3dc", "dir"],
    ["route", "--cells", "999", "dir"],
    ["route", "--utilization", "0.1", "dir"],
    ["route", "--seed", "2", "dir"],
    ["gen", "--cells", "64", "--fabric", "2d", "-o", "n.net"],
    ["gen", "--cells", "64", "--utilization", "0.5", "-o", "n.net"],
    ["gen", "--cells", "64", "--config", "c.json", "-o", "n.net"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _placed_dir(tmp_path):
    net = gen_netlist(tmp_path / "n.net", cells=64)
    out = tmp_path / "placed"
    assert run_cli("place", "--netlist", net, "-o", out, *FAST) == 0
    return out


@pytest.mark.parametrize("command, edit, message", [
    ("analyze", lambda m: {"label": "x"}, "missing key 'total_pins'"),
    ("analyze", lambda m: [1], "expected a JSON object"),
    ("analyze", lambda m: {**m, "pin_access_layers": "1"}, "'pin_access_layers' must be int"),
    ("route", lambda m: {k: v for k, v in m.items() if k != "fabric"}, "missing key 'fabric'"),
    ("route", lambda m: {k: v for k, v in m.items() if k != "die_width"},
     "missing key 'die_width'"),
    ("route", lambda m: {**m, "die_height": 2.5}, "'die_height' must be int"),
])
def test_malformed_run_meta_exits_2_naming_file_and_key(tmp_path, capsys, command, edit, message):
    out = _placed_dir(tmp_path)
    path = out / "run_meta.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert run_cli(command, out) == 2
    err = capsys.readouterr().err
    assert "run_meta.json" in err and message in err


@pytest.mark.parametrize("report, message", [
    ({"baseline": "2d"}, "missing key 'rows'"),
    ({"rows": {}}, "'rows' must be list"),
    ({"rows": [7]}, "rows[0]: expected a JSON object"),
    ({"rows": [{"label": "2d"}]}, "rows[0]: missing key 'cell_count'"),
])
def test_malformed_report_json_exits_2_naming_file_and_key(tmp_path, capsys, report, message):
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert run_cli("compare", tmp_path) == 2
    err = capsys.readouterr().err
    assert "report.json" in err and message in err


@pytest.mark.parametrize("edit, message", [
    # Python's json reads NaN and Infinity; neither is a number a run can have
    ({"die_area_um2": float("nan")}, "key 'die_area_um2' must be finite, got nan"),
    ({"die_area_um2": float("inf")}, "key 'die_area_um2' must be finite, got inf"),
    ({"die_area_um2": 0}, "die area must be positive"),
    ({"total_pins": -5}, "pin count cannot be negative"),
    ({"die_area_um2": 10**400}, "key 'die_area_um2' is too large for a float"),
])
def test_analyze_rejects_run_meta_values_naming_the_file(tmp_path, capsys, edit, message):
    out = _placed_dir(tmp_path)
    path = out / "run_meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    capsys.readouterr()
    assert run_cli("analyze", out) == 2
    assert capsys.readouterr().err == f"routekit: error: {path}: {message}\n"


@pytest.mark.parametrize("edit, message", [
    ({"utilization": 0}, "utilization must lie in (0, 1]"),
    ({"die_width": 0}, "die must be at least 1x1 sites"),
    ({"fabric": "bogus"}, "unknown fabric kind: 'bogus'"),
    ({"utilization": 10**400}, "key 'utilization' is too large for a float"),
])
def test_route_rejects_run_meta_values_naming_the_file(tmp_path, capsys, edit, message):
    out = _placed_dir(tmp_path)
    path = out / "run_meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    capsys.readouterr()
    assert run_cli("route", out) == 2
    assert capsys.readouterr().err == f"routekit: error: {path}: {message}\n"


def test_compare_rejects_a_non_finite_report_value_naming_the_file(tmp_path, capsys):
    row = {"label": "2d", "cell_count": 64, "clock_freq_ghz": 1.0, "total_wirelength_mm": 1.0,
           "wire_power_mw": 1.0, "pin_power_mw": 1.0, "internal_power_mw": 1.0,
           "footprint_um2": float("nan")}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"rows": [row]}))
    assert run_cli("compare", tmp_path) == 2
    assert capsys.readouterr().err == (
        f"routekit: error: {path}: rows[0]: key 'footprint_um2' must be finite, got nan\n")


def test_compare_rejects_a_report_value_too_large_for_a_float(tmp_path, capsys):
    row = {"label": "2d", "cell_count": 64, "clock_freq_ghz": 1.0, "total_wirelength_mm": 1.0,
           "wire_power_mw": 1.0, "pin_power_mw": 1.0, "internal_power_mw": 1.0,
           "footprint_um2": 10**400}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"rows": [row]}))
    assert run_cli("compare", tmp_path) == 2
    assert capsys.readouterr().err == (
        f"routekit: error: {path}: rows[0]: key 'footprint_um2' is too large for a float\n")


def test_compare_without_rows_exits_2(tmp_path, capsys):
    (tmp_path / "report.json").write_text(json.dumps({"rows": []}))
    assert run_cli("compare", tmp_path) == 2
    assert "no report rows" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", ["c5;1;2", "c5,1,x", "c5,1"])
def test_route_names_bad_placement_line(tmp_path, capsys, bad_line):
    out = _placed_dir(tmp_path)
    path = out / "placement.csv"
    lines = path.read_text().splitlines()
    lines[5] = bad_line
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("route", out) == 2
    err = capsys.readouterr().err
    assert "placement.csv: line 6:" in err and repr(bad_line) in err


@pytest.mark.parametrize("edit, got", [
    (lambda ls: ls.__setitem__(0, "foo,bar,baz"), "'foo,bar,baz'"),
    (lambda ls: ls.pop(0), "'c0,"),
    (lambda ls: ls.clear(), "''"),
], ids=["wrong", "missing", "empty-file"])
def test_route_requires_placement_header(tmp_path, capsys, edit, got):
    out = _placed_dir(tmp_path)
    path = out / "placement.csv"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert run_cli("route", out) == 2
    err = capsys.readouterr().err
    assert "placement.csv: line 1: expected the header 'cell,x,y', got " + got in err


def _not_utf8(path):
    path.write_bytes(b"\xff" + path.read_bytes())
    return path


@pytest.mark.parametrize("kind", ["netlist", "fabric", "config", "run_meta", "placement"])
def test_input_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, kind):
    net = gen_netlist(tmp_path / "n.net", cells=64)
    if kind in ("run_meta", "placement"):
        out = _placed_dir(tmp_path)
        bad = _not_utf8(out / ("run_meta.json" if kind == "run_meta" else "placement.csv"))
        argv = ["route", out]
    else:
        bad = {"netlist": net, "fabric": tmp_path / "f.fab", "config": tmp_path / "c.json"}[kind]
        (tmp_path / "f.fab").write_text("kind tmi\n")
        (tmp_path / "c.json").write_text("{}")
        _not_utf8(bad)
        argv = ["run", "--netlist", net, "--fabric", tmp_path / "f.fab", *FAST,
                "-o", tmp_path / "out"]
        if kind == "config":
            argv += ["--config", bad]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        f"routekit: error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n")


def test_run_config_with_invalid_json_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"seed": 1,}')
    assert run_cli("run", "--config", cfg, "--cells", 64, "-o", tmp_path / "out") == 2
    assert f"routekit: error: {cfg}: invalid JSON (" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_without_output_prints_the_csv_it_writes(tmp_path, capsys):
    dirs = make_runs(tmp_path, fabrics=("2d", "tmi"))
    assert run_cli("compare", *dirs, "-o", tmp_path / "cmp") == 0
    capsys.readouterr()
    assert run_cli("compare", *dirs) == 0
    assert capsys.readouterr().out == (tmp_path / "cmp" / "report.csv").read_text()


def test_run_with_every_h_layer_blocked_exits_2_with_no_route(tmp_path, capsys):
    # no layer carries x travel, so no net spanning two columns can route
    cfg = tmp_path / "no_h.fab"
    cfg.write_text("kind 2d\n" + "".join(f"layer {i} cap 0\n" for i in (1, 3, 5, 7)))
    assert run_cli("run", "--fabric", cfg, "--cells", 64, *FAST, "-o", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("routekit: error: net ") and "no route exists" in err
    assert not (tmp_path / "out" / "routes.txt").exists()


@pytest.mark.parametrize("flags, config", [
    (["--cells", 500], None),
    ([], {"cells": 500}),
])
def test_run_rejects_two_netlist_sources(tmp_path, capsys, flags, config):
    net = gen_netlist(tmp_path / "n.net", cells=64)
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        flags = [*flags, "--config", tmp_path / "c.json"]
    capsys.readouterr()
    assert run_cli("run", "--netlist", net, *flags, "-o", tmp_path / "out", *FAST) == 2
    assert "provide exactly one netlist source" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _set_line(lines, i, cell=None, xy=None):
    cid, x, y = lines[i].split(",")
    lines[i] = f"{cell or cid},{xy or f'{x},{y}'}"


@pytest.mark.parametrize("edit, lineno, message", [
    (lambda ls: _set_line(ls, 5, xy="100000,100000"), 6, "does not fit in the"),
    (lambda ls: _set_line(ls, 5, xy="-40,0"), 6, "does not fit in the"),
    (lambda ls: ls.append(ls[5]), 66, "is placed twice"),
    (lambda ls: _set_line(ls, 5, cell="ghost"), 6, "unknown cell 'ghost'"),
    (lambda ls: _set_line(ls, 6, xy=ls[5].split(",", 1)[1]), 7, "overlaps cell"),
], ids=["out-of-die", "negative", "duplicate", "unknown", "overlap"])
def test_route_rejects_inconsistent_placement(tmp_path, capsys, edit, lineno, message):
    out = _placed_dir(tmp_path)
    path = out / "placement.csv"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("route", out) == 2
    err = capsys.readouterr().err
    cid = lines[lineno - 1].split(",")[0]
    assert f"placement.csv: line {lineno}:" in err and repr(cid) in err and message in err


def test_route_rejects_missing_placement_line(tmp_path, capsys):
    out = _placed_dir(tmp_path)
    path = out / "placement.csv"
    lines = path.read_text().splitlines()
    cid = lines.pop(5).split(",")[0]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("route", out) == 2
    assert f"placement.csv: cell {cid!r} has no line" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, key", [
    ("route", "--max-iters", -1, "max_iters"),
    ("run", "--max-iters", -1, "max_iters"),
    ("run", "--moves-per-temp", 0, "moves_per_temp"),
    ("run", "--max-temps", -1, "max_temps"),
])
def test_out_of_range_run_option_exits_2_naming_it(tmp_path, capsys, command, flag, value, key):
    out = _placed_dir(tmp_path)
    if command == "run":
        out = tmp_path / "run"
        target = ["--netlist", tmp_path / "n.net", *FAST, "-o", out]
    else:
        target = [out]
    capsys.readouterr()
    assert run_cli(command, *target, flag, value) == 2
    assert f"{key} must be >= " in capsys.readouterr().err
    assert not (out / "routes.txt").exists()


@pytest.mark.parametrize("flag, value, key, message", [
    ("--utilization", 0, "utilization", "utilization must lie in (0, 1]"),
    ("--moves-per-temp", 0, "moves_per_temp", "moves_per_temp must be >= 1, got 0"),
    ("--max-temps", -1, "max_temps", "max_temps must be >= 0, got -1"),
    ("--gcell", 0, "gcell", "gcell_size must be >= 1, got 0"),
    ("--max-iters", -1, "max_iters", "max_iters must be >= 0, got -1"),
    ("--freq", -1, "freq", "clock_freq_ghz must be > 0, got -1.0"),
    ("--activity", 1.5, "activity", "switching_activity must lie in (0, 1], got 1.5"),
    # a non-finite number fails as well, rather than in a later stage or in the artifacts
    ("--freq", "nan", "freq", "clock_freq_ghz must be finite, got nan"),
    ("--freq", "inf", "freq", "clock_freq_ghz must be finite, got inf"),
    ("--pins", "inf", "pins", "avg_pins_per_cell must be finite, got inf"),
])
def test_out_of_range_run_option_fails_before_any_stage(tmp_path, capsys, flag, value, key,
                                                        message):
    # generating the design is the first stage; it must not start
    with mock.patch.object(nl, "generate_synthetic", side_effect=AssertionError("a stage ran")):
        assert run_cli("run", "--cells", 200, flag, value, "-o", tmp_path / "out") == 2
    assert f"routekit: error: key {key!r}: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Every run option must change an artifact that a later stage reads, and not
# only its own echo in run_meta.json.  A new JobSpec field fails the test
# until it is given a value here or exempted with a reason.
# The annealer runs long enough that its best state is not its start, so that
# moves_per_temp and max_temps change the placement.  At gcell 4 the reroute
# passes still gain on the first, so that max_iters changes the routing kept.
GUARD_BASE = {"fabric": "tmi", "cells": 200, "moves_per_temp": 100, "max_temps": 20,
              "gcell": 4, "max_iters": 5, "label": "x"}  # a congested job
GUARD_VALUES = {"fabric": "s3dc", "rent": 0.6, "pins": 4.0, "seed": 2, "utilization": 0.5,
                "moves_per_temp": 200, "max_temps": 2, "gcell": 6, "max_iters": 1,
                "freq": 2.0, "activity": 0.1}
GUARD_EXEMPT = {"netlist", "cells", "label"}  # the design source and the report's name
META_ECHO = {"fabric": "fabric", "seed": "seed", "utilization": "utilization", "gcell": "gcell",
             "freq": "freq_ghz", "activity": "activity"}


def _flags(options):
    return [a for k, v in options.items() for a in (f"--{k.replace('_', '-')}", v)]


def _guard_artifacts(out, echo):
    names = ["placement.csv", "routes.txt", "report.csv"]
    names += sorted(p.name for p in out.glob("congestion_L*.csv"))
    meta = json.loads((out / "run_meta.json").read_text())
    meta.pop(echo, None)
    return {name: (out / name).read_text() for name in names}, meta


@pytest.fixture(scope="module")
def guard_base_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("guard")
    assert run_cli("run", *_flags(GUARD_BASE), "-o", out) == 3
    return out


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(flow.JobSpec)
                                  if f.name not in GUARD_EXEMPT])
def test_every_run_option_changes_what_a_later_stage_reads(tmp_path, guard_base_dir, name):
    out = tmp_path / "out"
    assert run_cli("run", *_flags({**GUARD_BASE, name: GUARD_VALUES[name]}), "-o", out) in (0, 3)
    echo = META_ECHO.get(name)
    assert _guard_artifacts(out, echo) != _guard_artifacts(guard_base_dir, echo)


@pytest.mark.parametrize("params", [pl.AnnealConfig, gr.RouteParams])
def test_every_stage_parameter_is_a_run_option(params):
    # A parameter that no run option sets is a knob only tests can turn.
    options = {f.name for f in dataclasses.fields(flow.JobSpec)}
    assert {f.name for f in dataclasses.fields(params)} <= options


def test_rent_fit_runs_without_networkx():
    # A None entry in sys.modules makes any import of networkx fail.
    src = str(Path(routekit.__file__).resolve().parents[1])
    code = (f"import sys; sys.modules['networkx'] = None; sys.path.insert(0, {src!r}); "
            "from routekit import netlist as nl, rent; "
            "d = nl.generate_synthetic(nl.SynthesisParams(num_cells=16 * rent.MIN_BLOCK)); "
            "print(rent.fit_rent_exponent(d).exponent)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    design = nl.generate_synthetic(nl.SynthesisParams(num_cells=16 * rent.MIN_BLOCK))
    assert float(proc.stdout) == rent.fit_rent_exponent(design).exponent
