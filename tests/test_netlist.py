import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routekit import netlist as nl

MINIMAL = """\
# two NAND3s wired output to input
master NAND3 pins A B C OUT
cell c1 NAND3
cell c2 NAND3 seq
net n1 c1.OUT c2.A
"""


def test_parse_minimal():
    d = nl.parse_netlist(MINIMAL)
    assert len(d.cells) == 2
    assert len(d.nets) == 1
    assert d.nets[0].terminals == [("c1", "OUT"), ("c2", "A")]
    assert d.cells[1].is_sequential
    assert not d.cells[0].is_sequential


def test_parse_infers_driver_from_output_pin():
    d = nl.parse_netlist(MINIMAL)
    assert d.nets[0].driver == 0
    assert d.masters["NAND3"].pin("OUT").direction == "output"
    assert d.masters["NAND3"].pin("A").direction == "input"


def test_parse_unresolved_cell_reports_name():
    text = MINIMAL + "net n2 c3.A c1.B\n"
    with pytest.raises(nl.NetlistParseError, match="c3"):
        nl.parse_netlist(text)


def test_parse_unknown_pin_reports_pin():
    text = MINIMAL + "net n2 c1.NOPE c2.B\n"
    with pytest.raises(nl.NetlistParseError, match="NOPE"):
        nl.parse_netlist(text)


def test_parse_duplicate_cell_id():
    text = "master M pins A\ncell c1 M\ncell c1 M\n"
    with pytest.raises(nl.NetlistParseError, match="duplicate cell"):
        nl.parse_netlist(text)


def test_parse_duplicate_net_id():
    text = MINIMAL + "net n1 c1.A c2.B\n"
    with pytest.raises(nl.NetlistParseError, match="duplicate net"):
        nl.parse_netlist(text)


def test_parse_syntax_error_carries_line_and_column():
    text = "master NAND3 pins A B\nfrobnicate x\n"
    with pytest.raises(nl.NetlistParseError) as err:
        nl.parse_netlist(text)
    assert err.value.line == 2
    assert err.value.column == 1


def test_parse_repeated_terminal_rejected():
    text = "master M pins A B\ncell c1 M\nnet n1 c1.A c1.A\n"
    with pytest.raises(nl.NetlistParseError, match="repeats terminal"):
        nl.parse_netlist(text)


def test_parse_order_independent_sections():
    shuffled = """\
net n1 c1.OUT c2.A
cell c2 NAND3 seq
cell c1 NAND3
master NAND3 pins A B C OUT
"""
    a = nl.parse_netlist(MINIMAL)
    b = nl.parse_netlist(shuffled)
    assert a.nets[0].terminals == b.nets[0].terminals
    assert {c.id for c in a.cells} == {c.id for c in b.cells}


def test_roundtrip_structural_equality():
    d = nl.parse_netlist(MINIMAL)
    again = nl.parse_netlist(nl.serialize_netlist(d))
    assert again == d


def test_roundtrip_generated(synth_1024):
    text = nl.serialize_netlist(synth_1024)
    again = nl.parse_netlist(text, name=synth_1024.name)
    assert again == synth_1024
    assert nl.serialize_netlist(again) == text


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cells=st.integers(nl.MIN_GENERATED_CELLS, 400),
       rent_exponent=st.floats(0.51, 0.99),
       pins_per_cell=st.floats(2.0, 6.0),
       sequential_fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_roundtrip_property(cells, rent_exponent, pins_per_cell, sequential_fraction, seed):
    d = nl.generate_synthetic(nl.SynthesisParams(
        num_cells=cells, rent_exponent=rent_exponent, avg_pins_per_cell=pins_per_cell,
        sequential_fraction=sequential_fraction, seed=seed,
    ))
    assert nl.parse_netlist(nl.serialize_netlist(d), name=d.name) == d


def test_validate_clean_netlist_is_empty():
    assert nl.validate(nl.parse_netlist(MINIMAL)) == []


def test_validate_passes_dangling_net():
    # the router reports dangling nets (test_route_skips_dangling_nets)
    d = nl.parse_netlist(MINIMAL + "net n2 c1.B\n")
    assert nl.validate(d) == []


def test_validate_flags_duplicate_net_id():
    d = nl.parse_netlist(MINIMAL)
    d.nets.append(nl.Net(id="n1", terminals=[("c1", "A"), ("c2", "B")]))
    assert any("duplicate net id" in e for e in nl.validate(d))


def test_validate_flags_unknown_references():
    d = nl.parse_netlist(MINIMAL)
    d.nets.append(nl.Net(id="nx", terminals=[("ghost", "A")]))
    d.cells.append(nl.CellInstance(id="c9", master="ghostmaster"))
    msgs = " | ".join(nl.validate(d))
    assert "ghost" in msgs and "ghostmaster" in msgs


def test_validate_flags_bad_driver_index():
    d = nl.parse_netlist(MINIMAL)
    d.nets[0].driver = 5
    assert any("driver index" in e for e in nl.validate(d))


# --- synthetic generator


def test_generator_rejects_tiny_designs():
    with pytest.raises(ValueError):
        nl.SynthesisParams(num_cells=4)


def test_generator_rejects_bad_rent_exponent():
    for r in (0.5, 1.0, 0.2, 1.4):
        with pytest.raises(ValueError):
            nl.SynthesisParams(num_cells=64, rent_exponent=r)


def test_generator_deterministic():
    p = nl.SynthesisParams(num_cells=256, seed=42)
    a = nl.serialize_netlist(nl.generate_synthetic(p))
    b = nl.serialize_netlist(nl.generate_synthetic(p))
    assert a == b


def test_generator_seed_changes_output():
    a = nl.generate_synthetic(nl.SynthesisParams(num_cells=256, seed=1))
    b = nl.generate_synthetic(nl.SynthesisParams(num_cells=256, seed=2))
    assert nl.serialize_netlist(a) != nl.serialize_netlist(b)


def test_generator_terminal_budget(synth_1024):
    total = synth_1024.total_terminals
    target = 1024 * 3.0
    assert abs(total - target) / target <= 0.05


def test_generator_no_dangling_nets(synth_1024):
    assert all(len(net.terminals) >= 2 for net in synth_1024.nets)


def test_generator_net_arity_capped(synth_1024):
    assert max(len(net.terminals) for net in synth_1024.nets) <= nl.MAX_NET_ARITY


def test_generator_single_driver_per_net(synth_1024):
    for net in synth_1024.nets:
        outs = [t for t in net.terminals if t[1] == "o"]
        assert len(outs) <= 1
        if outs:
            assert net.driver == 0
            assert net.terminals[0][1] == "o"


def test_generator_validates_clean(synth_1024):
    assert len(nl.validate(synth_1024)) == 0


def test_generator_sequential_fraction():
    d = nl.generate_synthetic(
        nl.SynthesisParams(num_cells=2048, sequential_fraction=0.3, seed=5)
    )
    frac = sum(c.is_sequential for c in d.cells) / len(d.cells)
    assert 0.2 < frac < 0.4


@pytest.mark.slow
def test_generator_parses_at_benchmark_scale():
    # Scale target comparable to a mid-size production core.
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=52380, seed=7))
    text = nl.serialize_netlist(d)
    again = nl.parse_netlist(text)
    assert len(again.cells) == 52380
