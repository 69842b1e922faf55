from pathlib import Path

import pytest

from routekit import fabric as fab
from routekit import netlist as nl
from routekit.cli import main


def test_builtin_2d_defaults():
    spec = fab.builtin_fabric("2d")
    assert spec.pin_access_layers == 1
    assert spec.footprint_scale == 1.0
    assert len(spec.layers) == 8
    assert not spec.via_stack_exclusive


def test_builtin_tmi_defaults():
    spec = fab.builtin_fabric("tmi")
    assert spec.pin_access_layers == 1
    assert spec.footprint_scale == pytest.approx(0.5)
    assert len(spec.layers) == 8


def test_builtin_s3dc_defaults():
    spec = fab.builtin_fabric("s3dc")
    assert spec.pin_access_layers == 5
    assert spec.via_stack_exclusive
    assert len(spec.layers) == 13
    assert spec.access_layer_ids == (2, 3, 4, 5, 6)
    # footprint lands in the published 0.10-0.11 band and keeps
    # footprint * access layers above the monolithic-3D footprint
    assert 0.09 <= spec.footprint_scale <= 0.115
    assert spec.footprint_scale * spec.pin_access_layers > 0.5


@pytest.mark.parametrize("kind, scale, n, exclusive", [
    ("2d", 1.0, 1, False),
    ("tmi", 0.5, 1, False),
    ("s3dc", 0.1111111111111111, 5, True),
])
def test_builtin_derived_values(kind, scale, n, exclusive):
    spec = fab.builtin_fabric(kind)
    assert spec.footprint_scale == scale
    assert spec.pin_access_layers == n
    assert spec.via_stack_exclusive is exclusive


def test_builtin_is_referentially_transparent():
    assert fab.builtin_fabric("s3dc") == fab.builtin_fabric("s3dc")
    assert fab.builtin_fabric("2d") == fab.builtin_fabric(fab.FabricKind.PLANAR_2D)


def test_layer_indices_contiguous_and_alternating():
    spec = fab.builtin_fabric("s3dc")
    for i, layer in enumerate(spec.layers, start=1):
        assert layer.index == i
        assert layer.direction == ("h" if i % 2 == 1 else "v")


def test_kind_aliases():
    # each kind has one name, in any case and with surrounding spaces
    assert fab.normalize_kind(" TMI ") is fab.FabricKind.TMI
    assert fab.normalize_kind("S3dc") is fab.FabricKind.S3DC
    assert fab.normalize_kind(fab.FabricKind.PLANAR_2D) is fab.FabricKind.PLANAR_2D
    for token in ("quantum", "Planar2D", "skybridge", "t-mi", "s 3dc"):
        with pytest.raises(fab.FabricConfigError, match="unknown fabric kind"):
            fab.normalize_kind(token)


# --- cell masters


def test_s3dc_nand3_access_layers():
    counts = fab.NAND3_ACCESS_COUNTS[fab.FabricKind.S3DC]
    master = fab.make_cell_master(
        fab.builtin_fabric("s3dc"),
        [("A", "input", counts["A"]), ("B", "input", counts["B"]),
         ("C", "input", counts["C"]), ("OUT", "output", counts["OUT"])],
        name="NAND3",
    )
    pin_a = master.pin("A")
    assert len(pin_a.accesses) == 5
    assert len({layer for layer, _, _ in pin_a.accesses}) == 5
    # accesses of one pin share a nanowire position
    assert len({(x, y) for _, x, y in pin_a.accesses}) == 1
    # cell-wide the full set of pin-access layers is used
    used = {layer for pin in master.pins for layer, _, _ in pin.accesses}
    assert used == {2, 3, 4, 5, 6}


def test_tmi_nand3_pin_b_two_accesses_on_m1():
    counts = fab.NAND3_ACCESS_COUNTS[fab.FabricKind.TMI]
    master = fab.make_cell_master(
        fab.builtin_fabric("tmi"),
        [("A", "input", counts["A"]), ("B", "input", counts["B"]),
         ("C", "input", counts["C"]), ("OUT", "output", counts["OUT"])],
        name="NAND3",
    )
    pin_b = master.pin("B")
    assert len(pin_b.accesses) == 2
    assert all(layer == 1 for layer, _, _ in pin_b.accesses)


def test_planar_masters_keep_every_access_on_m1():
    counts = fab.NAND3_ACCESS_COUNTS[fab.FabricKind.PLANAR_2D]
    master = fab.make_cell_master(
        fab.builtin_fabric("2d"), [(p, "input", c) for p, c in counts.items()], name="NAND3"
    )
    assert all(layer == 1 for pin in master.pins for layer, _, _ in pin.accesses)


def test_single_pin_master_access_at_center():
    master = fab.make_cell_master(fab.builtin_fabric("2d"), [("P", "input", 1)], name="tap")
    (layer, x, y) = master.pin("P").accesses[0]
    assert layer == 1
    # even dimensions have no exact center site; the access sits on one of
    # the innermost sites
    assert abs(x - (master.width - 1) / 2) <= 0.5
    assert abs(y - (master.height - 1) / 2) <= 0.5


def test_footprints_track_technology():
    for kind, sites in (("2d", 16), ("tmi", 8), ("s3dc", 9)):
        master = fab.make_cell_master(fab.builtin_fabric(kind), [("P", "input", 1)])
        assert master.area_sites == sites


def test_master_rejects_access_outside_cell():
    with pytest.raises(fab.FabricConfigError, match="outside"):
        fab.CellMaster(
            name="bad", width=2, height=2,
            pins=(fab.PinDef("p", "input", ((1, 5, 0),)),),
        )


def test_pin_requires_access():
    with pytest.raises(fab.FabricConfigError):
        fab.PinDef("p", "input", ())


def test_bind_masters_rebuilds_geometry():
    d = nl.parse_netlist("master NAND3 pins A B C OUT\ncell c1 NAND3\n")
    spec = fab.builtin_fabric("s3dc")
    bound = fab.bind_masters(d, spec)
    master = bound.masters["NAND3"]
    assert (master.width, master.height) == (3, 3)
    assert master.pin("A").direction == "input"
    assert master.pin("OUT").direction == "output"
    assert len(master.pin("A").accesses) == 5  # s3dc's input access count
    # original untouched
    assert d.masters["NAND3"].width == 1


# --- config loading


def test_load_empty_config_equals_builtin():
    assert fab.load_fabric("kind 2D\n") == fab.builtin_fabric("2d")


def test_load_overrides_one_layer_capacity():
    spec = fab.load_fabric("kind s3dc\nlayer 5 cap 12\n")
    base = fab.builtin_fabric("s3dc")
    assert spec.layers[4].capacity == 12
    assert [l.capacity for l in spec.layers[:4]] == [l.capacity for l in base.layers[:4]]
    assert spec.layers[4].direction == base.layers[4].direction


def test_load_appends_contiguous_layer():
    spec = fab.load_fabric("kind 2d\nlayer 9 dir h cap 6\n")
    assert len(spec.layers) == 9
    assert spec.layers[8].capacity == 6


def test_load_rejects_layer_gap():
    with pytest.raises(fab.FabricConfigError, match="contiguity"):
        fab.load_fabric("kind 2d\nlayer 12 cap 5\n")


def test_load_rejects_negative_capacity():
    with pytest.raises(fab.FabricConfigError, match="negative capacity"):
        fab.load_fabric("kind 2d\nlayer 3 cap -2\n")


def test_load_rejects_unknown_kind():
    with pytest.raises(fab.FabricConfigError, match="unknown fabric kind"):
        fab.load_fabric("kind warpcore\n")


def test_load_requires_kind():
    with pytest.raises(fab.FabricConfigError, match="kind"):
        fab.load_fabric("vdd 0.9\n")


def test_load_rejects_multilayer_pins_on_planar():
    with pytest.raises(fab.FabricConfigError,
                       match="^line 2: 2d fabric requires pin_access_layers == 1$"):
        fab.load_fabric("kind 2d\naccess_layers 1 2\n")


def test_load_cellpower_table():
    spec = fab.load_fabric("kind 2d\ncellpower NAND3 1.2 0.08\n")
    entry = spec.cell_energy["NAND3"]
    assert entry.internal_fj == pytest.approx(1.2)
    assert entry.pin_cap_ff == pytest.approx(0.08)


def test_load_vdd_and_site():
    spec = fab.load_fabric("kind tmi\nvdd 0.72\nsite 80\n")
    assert spec.supply_voltage == pytest.approx(0.72)
    assert spec.site_dim_nm == pytest.approx(80)


def test_load_site_scales_footprint():
    assert fab.load_fabric("kind tmi\nsite 80\n").footprint_scale == 8 * 80**2 / (16 * 90**2)


def test_load_access_layers_state_n():
    spec = fab.load_fabric("kind s3dc\naccess_layers 2 3 4\n")
    assert spec.access_layer_ids == (2, 3, 4)
    assert spec.pin_access_layers == 3
    assert fab.load_fabric("kind s3dc\n").pin_access_layers == 5


def test_load_custom_access_layers():
    spec = fab.load_fabric("kind s3dc\naccess_layers 3 4 5 6 7\n")
    assert spec.access_layer_ids == (3, 4, 5, 6, 7)
    assert spec.pin_access_layers == 5


def test_bind_masters_uses_fabric_access_layers():
    d = nl.parse_netlist("master M pins A B OUT\ncell c1 M\ncell c2 M\nnet n1 c1.OUT c2.A\n")
    for text, expected in (
        ("kind s3dc\naccess_layers 7 8 9\n", {7, 8, 9}),
        ("kind 2d\naccess_layers 2\n", {2}),
    ):
        bound = fab.bind_masters(d, fab.load_fabric(text))
        used = {layer for pin in bound.masters["M"].pins for layer, _, _ in pin.accesses}
        assert used == expected, text


def test_load_reports_line_numbers():
    with pytest.raises(fab.FabricConfigError, match="line 2"):
        fab.load_fabric("kind 2d\nlayer x cap 5\n")


@pytest.mark.parametrize("text, lineno", [
    ("kind 2d\nlayer 12 cap 5\nvdd 0.8\n", 2),
    ("kind 2d\nlayer 0 cap 5\nvdd 0.8\n", 2),
    ("kind 2d\nlayer 3 dir x\nlayer 3 cap 5\n", 2),
    ("kind 2d\naccess_layers 9\nvdd 0.8\n", 2),
    ("kind 2d\naccess_layers 1 2\nvdd 0.8\n", 2),
    ("kind 2d\naccess_layers\nvdd 0.8\n", 2),
    ("kind s3dc\naccess_layers 2 2 2 2 2\nvdd 0.8\n", 2),  # access layers are distinct
    ("kind 2d\nvdd 0.8 0.9\n", 2),
    ("kind 2d\nsite 40 x\n", 2),
    ("kind 2d extra\n", 1),
    ("kind 2d\ncellpower M 1 0.1 900 junk\n", 2),
    ("kind 2d\nvdd 0.8\nkind s3dc\n", 3),
    # values that nothing read: track pitch, wire resistance, drive resistance
    ("kind 2d\nlayer 3 pitch 20\n", 2),
    ("kind 2d\nlayer 3 r 2.0\n", 2),
    ("kind 2d\ncellpower M 1 0.1 900\n", 2),
    # physical values must be finite and positive (cellpower values >= 0)
    ("kind 2d\nlayer 2 c -1\n", 2),
    ("kind 2d\nlayer 2 c nan\n", 2),
    ("kind 2d\nvdd nan\n", 2),
    ("kind 2d\nvdd inf\n", 2),
    ("kind 2d\nsite nan\n", 2),
    ("kind 2d\ncellpower M nan 0.1\n", 2),
    # every directive is given once, layer once per index
    ("kind 2d\nvdd 0.8\nvdd 0.7\n", 3),
    ("kind 2d\nsite 40\nsite 40\n", 3),
    ("kind 2d\nlayer 3 cap 4\nlayer 4 cap 4\nlayer 3 c 0.3\n", 4),
    ("kind 2d\naccess_layers 1\nvdd 0.8\naccess_layers 2\n", 4),
    ("kind 2d\ncellpower M 1 0.1\ncellpower N 1 0.1\ncellpower M 2 0.1\n", 4),
    # an unknown directive, and a layer attribute without its value
    ("kind 2d\nfrob 1\n", 2),
    ("kind 2d\nlayer 3 dir\n", 2),
])
def test_fabric_config_errors_name_their_line(tmp_path, capsys, text, lineno):
    with pytest.raises(fab.FabricConfigError, match=f"^line {lineno}: "):
        fab.load_fabric(text)
    cfg = tmp_path / "bad.fab"
    cfg.write_text(text)
    assert main(["run", "--fabric", str(cfg), "--cells", "16", "-o", str(tmp_path / "out")]) == 2
    assert f"{cfg}: line {lineno}: " in capsys.readouterr().err


def test_comments_and_blank_lines_do_not_change_a_config():
    bare = "kind s3dc\nlayer 3 cap 4\naccess_layers 2 3\nvdd 0.7\n"
    commented = ("# an s3dc variant\n\nkind s3dc\n   \n# fewer tracks on M3\n"
                 "layer 3 cap 4  # trailing\n\n\naccess_layers 2 3\n\t\nvdd 0.7\n# end\n")
    assert fab.load_fabric(commented) == fab.load_fabric(bare)
    assert fab.load_fabric(bare) != fab.builtin_fabric("s3dc")


def test_readme_fabric_config_block_loads():
    # the README's example config stays in step with the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\nFabric config", 1)[1].split("```\n")[1]
    spec = fab.load_fabric(block)
    assert spec.kind is fab.FabricKind.S3DC
    assert set(spec.cell_energy) == {"NAND3"}
