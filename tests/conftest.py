import pytest

from routekit import netlist as nl
from routekit.fabric import CellMaster, FabricKind, PinDef

# Measured pin-access counts for a reference NAND3 in each technology.
NAND3_ACCESS_COUNTS = {
    FabricKind.TMI: {"A": 3, "B": 2, "C": 3, "OUT": 3},
    FabricKind.S3DC: {"A": 5, "B": 5, "C": 5, "OUT": 4},
    FabricKind.PLANAR_2D: {"A": 5, "B": 6, "C": 5, "OUT": 4},
}


def unit_master(name: str = "u", npins: int = 4) -> CellMaster:
    """1x1-site master with pin p0 (output) and p1.. (inputs), all at (0,0)."""
    pins = tuple(
        PinDef(f"p{i}", "input" if i else "output", ((1, 0, 0),)) for i in range(npins)
    )
    return CellMaster(name=name, width=1, height=1, pins=pins)


def tiny_netlist(ncells: int, nets_spec, npins: int = 4) -> nl.Netlist:
    """Netlist of 1x1 cells; nets_spec lists tuples of cell indices."""
    m = unit_master("u", npins)
    cells = [nl.CellInstance(id=f"c{i}", master="u") for i in range(ncells)]
    nets = [
        nl.Net(id=f"n{j}", terminals=[(f"c{c}", f"p{p}") for p, c in enumerate(members)])
        for j, members in enumerate(nets_spec)
    ]
    return nl.Netlist(name="tiny", masters={"u": m}, cells=cells, nets=nets)


@pytest.fixture(scope="session")
def synth_1024():
    return nl.generate_synthetic(nl.SynthesisParams(num_cells=1024, seed=11))
