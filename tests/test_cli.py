import dataclasses
import json
import pickle
import shutil

import pytest

from routekit import flow, netlist as nl
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


def test_analyze_missing_baseline_exits_2(tmp_path, capsys):
    dirs = make_runs(tmp_path, fabrics=("2d",))
    capsys.readouterr()
    assert run_cli("analyze", *dirs, "--baseline", "zzz") == 2
    assert "baseline 'zzz' not among designs" in capsys.readouterr().err


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


# Every run option must change an artifact that a later stage reads, and not
# only its own echo in run_meta.json.  A new JobSpec field fails the test
# until it is given a value here or exempted with a reason.
GUARD_BASE = {"fabric": "tmi", "cells": 200, "moves_per_temp": 100, "max_temps": 5,
              "gcell": 6, "max_iters": 5, "label": "x"}  # a congested job
GUARD_VALUES = {"fabric": "s3dc", "rent": 0.6, "pins": 4.0, "seed": 2, "utilization": 0.5,
                "moves_per_temp": 200, "max_temps": 10, "gcell": 4, "max_iters": 1,
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
