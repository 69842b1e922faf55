import json

import pytest

from routekit import netlist as nl
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
    # a starved fabric: one track per edge everywhere
    cfg = tmp_path / "tight.fab"
    cfg.write_text("kind 2d\n" + "".join(f"layer {i} cap 1\n" for i in range(1, 9)))
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


def test_config_accepts_int_for_float_and_null_for_nullable(tmp_path):
    net = gen_netlist(tmp_path / "n.net")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"utilization": 1, "label": None, "cells": None,
                               "moves_per_temp": 500, "max_temps": 10}))
    out = tmp_path / "out"
    rc = run_cli("run", "--config", cfg, "--netlist", net, "--seed", 1, "-o", out)
    assert rc in (0, 3)
    assert json.loads((out / "run_meta.json").read_text())["utilization"] == 1.0


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
    rc = run_cli("route", "--seed", 2, out)
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
