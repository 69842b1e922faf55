import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routekit import netlist as nl

MINIMAL = """\
# two NAND3s wired output to input
master NAND3 pins A B C OUT
cell c1 NAND3
cell c2 NAND3
net n1 c1.OUT c2.A
"""


def test_parse_minimal():
    d = nl.parse_netlist(MINIMAL)
    assert len(d.cells) == 2
    assert len(d.nets) == 1
    assert d.nets[0].terminals == [("c1", "OUT"), ("c2", "A")]


def test_parse_infers_driver_from_output_pin():
    d = nl.parse_netlist(MINIMAL)
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


def test_parse_rejects_a_fourth_cell_token():
    text = "master NAND3 pins A OUT\ncell u2 NAND3 seq\n"
    with pytest.raises(nl.NetlistParseError, match="unexpected token 'seq'") as err:
        nl.parse_netlist(text)
    assert (err.value.line, err.value.column) == (2, 15)


def test_parse_repeated_terminal_rejected():
    text = "master M pins A B\ncell c1 M\nnet n1 c1.A c1.A\n"
    with pytest.raises(nl.NetlistParseError, match="repeats terminal"):
        nl.parse_netlist(text)


def test_parse_order_independent_sections():
    shuffled = """\
net n1 c1.OUT c2.A
cell c2 NAND3
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
       seed=st.integers(0, 2**16))
def test_roundtrip_property(cells, rent_exponent, pins_per_cell, seed):
    d = nl.generate_synthetic(nl.SynthesisParams(
        num_cells=cells, rent_exponent=rent_exponent, avg_pins_per_cell=pins_per_cell, seed=seed,
    ))
    assert nl.parse_netlist(nl.serialize_netlist(d), name=d.name) == d


CONSISTENT = "master M pins A B OUT\ncell c1 M\ncell c2 M\nnet n1 c1.OUT c2.A\n"


@pytest.mark.parametrize("line, message, column", [
    ("cell a,b M", "cell id 'a,b' holds a comma", 6),
    ("cell a.b M", "cell id 'a.b' holds a dot", 6),
    ("cell c1 M", "duplicate cell id 'c1'", 6),
    ("cell c3 X", "cell 'c3' references unknown master 'X'", 6),
    ("net n,2 c1.OUT c2.B", "net id 'n,2' holds a comma", 5),
    ("net n1 c1.OUT c2.B", "duplicate net id 'n1'", 5),
    ("net n2 c1.OUT c9.B", "net 'n2' references unknown cell 'c9'", 15),
    ("net n2 c1.OUT c2.Q", "net 'n2': master 'M' has no pin 'Q'", 15),
    ("net n2 c1.OUT c2.B c1.OUT", "net 'n2' repeats terminal c1.OUT", 20),
], ids=["cell-comma", "cell-dot", "cell-repeated", "master-unknown", "net-comma", "net-repeated",
        "cell-unknown", "pin-unknown", "terminal-repeated"])
def test_each_rule_is_parsed_at_its_place_and_validated_alike(line, message, column):
    # one netlist with one error, as text and built in code
    with pytest.raises(nl.NetlistParseError) as err:
        nl.parse_netlist(CONSISTENT + line + "\n")
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line 5, col {column}: {message}", 5, column)
    built = nl.parse_netlist(CONSISTENT)
    directive, ident, *rest = line.split()
    if directive == "cell":
        built.cells.append(nl.CellInstance(id=ident, master=rest[0]))
    else:
        built.nets.append(nl.Net(id=ident, terminals=[tuple(t.split(".")) for t in rest]))
    assert nl.validate(built) == [message]


@pytest.mark.parametrize("line, message, column", [
    ("master N A B", "expected 'master <name> pins <p1> ...'", 1),
    ("master M pins A", "duplicate master 'M'", 8),
    ("cell c3", "expected 'cell <id> <master>'", 1),
    ("net n2", "net needs an id and at least one terminal", 1),
    ("net n2 c1.OUT c2A", "terminal 'c2A' must be <cell>.<pin>", 15),
], ids=["master-no-pins", "master-repeated", "cell-no-master", "net-no-terminal",
        "terminal-no-dot"])
def test_each_syntax_error_is_reported_at_its_token(line, message, column):
    with pytest.raises(nl.NetlistParseError) as err:
        nl.parse_netlist(CONSISTENT + line + "\n")
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line 5, col {column}: {message}", 5, column)


def test_parse_repeated_master_pin_is_named_at_the_repeat():
    with pytest.raises(nl.NetlistParseError) as err:
        nl.parse_netlist("master M pins A B A\n")
    assert (str(err.value), err.value.line, err.value.column) == (
        "line 1, col 19: master 'M' repeats pin 'A'", 1, 19)


def test_validate_flags_net_without_terminals():
    # the text format cannot hold such a net: the parser rejects its syntax
    built = nl.parse_netlist(CONSISTENT)
    built.nets.append(nl.Net(id="n2", terminals=[]))
    assert nl.validate(built) == ["net 'n2' has no terminals"]


def test_readme_netlist_block_parses():
    # the README's example netlist stays in step with the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\nNetlist (", 1)[1].split("```\n")[1]
    d = nl.parse_netlist(block)
    assert [c.id for c in d.cells] == ["u1", "u2"]
    assert d.nets[0].terminals == [("u1", "OUT"), ("u2", "A")]
    assert nl.validate(d) == []


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


def test_cell_lookup_sees_cells_replaced_in_place():
    d = nl.parse_netlist("master M pins i1 o\ncell a M\ncell b M\nnet n a.o b.i1\n")
    assert d.cell("a") is d.cells[0]
    d.cells[0] = nl.CellInstance("z", "M")
    assert d.cell("z") is d.cells[0]
    assert d.cell("b") is d.cells[1]
    with pytest.raises(KeyError):
        d.cell("a")


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


@pytest.mark.parametrize("cells, seed, digest", [
    (600, 1, "c881a3f2db648963cda2ffdc40bce81d6efe6113ed048b80049d072221acab58"),
    (1000, 102, "7b6396e3f1e715f73f5c35bdae790d41f6120997a70753c4cc7af785ed6bca47"),
    (1600, 100, "963dd951e4fc6f5e4527c7ee70d3ae8105c83632f67c5c18af7084d81ad64346"),
])
def test_generator_output_is_pinned(cells, seed, digest):
    # the benchmark's three designs, which it regenerates on every run
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=cells, seed=seed))
    assert hashlib.sha256(nl.serialize_netlist(d).encode()).hexdigest() == digest


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
            assert net.terminals[0][1] == "o"


def test_generator_validates_clean(synth_1024):
    assert len(nl.validate(synth_1024)) == 0


@pytest.mark.slow
def test_generator_parses_at_benchmark_scale():
    # Scale target comparable to a mid-size production core.
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=52380, seed=7))
    text = nl.serialize_netlist(d)
    again = nl.parse_netlist(text)
    assert len(again.cells) == 52380
