"""Technology models: routing-layer stacks and LEF-style cell abstractions.

Three fabrics are modeled:

* ``2d``   - conventional planar CMOS; pins sit on M1, 8 routing layers.
* ``tmi``  - transistor-level monolithic 3D; cells shrink to roughly half
  the planar footprint but pins remain confined to M1.
* ``s3dc`` - Skybridge-3D-CMOS; vertically composed cells expose pin
  accesses on several metal layers, vertical hops ride single-signal
  via stacks, and four overhead layers (M10-M13) sit above the
  nine intra-cell layers.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field, replace


class FabricKind(str, enum.Enum):
    PLANAR_2D = "2d"
    TMI = "tmi"
    S3DC = "s3dc"


_KIND_ALIASES = {
    "2d": FabricKind.PLANAR_2D,
    "planar2d": FabricKind.PLANAR_2D,
    "planar_2d": FabricKind.PLANAR_2D,
    "tmi": FabricKind.TMI,
    "t-mi": FabricKind.TMI,
    "transistormonolithic3d": FabricKind.TMI,
    "s3dc": FabricKind.S3DC,
    "skybridge": FabricKind.S3DC,
    "skybridges3dc": FabricKind.S3DC,
}

# Per-fabric defaults.  Gcell-edge capacity is deliberately equal across
# fabrics so congestion differences come from pin density and layer count,
# not from hand-tuned track budgets.
DEFAULT_EDGE_CAPACITY = 10
DEFAULT_VIA_CAPACITY = 4
DEFAULT_CAP_FF_PER_UM = 0.2
DEFAULT_RES_OHM_PER_UM = 2.0
DEFAULT_SUPPLY_V = 0.8

_LAYER_COUNT = {FabricKind.PLANAR_2D: 8, FabricKind.TMI: 8, FabricKind.S3DC: 13}
_SITE_DIM_NM = {FabricKind.PLANAR_2D: 90.0, FabricKind.TMI: 90.0, FabricKind.S3DC: 40.0}
_TRACK_PITCH_NM = {FabricKind.PLANAR_2D: 45.0, FabricKind.TMI: 45.0, FabricKind.S3DC: 20.0}
_CELL_SITES = {FabricKind.PLANAR_2D: (8, 2), FabricKind.TMI: (8, 1), FabricKind.S3DC: (3, 3)}
_ACCESS_LAYER_IDS = {
    FabricKind.PLANAR_2D: (1,),
    FabricKind.TMI: (1,),
    FabricKind.S3DC: (2, 3, 4, 5, 6),
}
_ACCESS_COUNT = {
    FabricKind.PLANAR_2D: {"input": 5, "output": 4},
    FabricKind.TMI: {"input": 3, "output": 3},
    FabricKind.S3DC: {"input": 5, "output": 4},
}

# Measured pin-access counts for a reference NAND3 in each technology.
NAND3_ACCESS_COUNTS = {
    FabricKind.TMI: {"A": 3, "B": 2, "C": 3, "OUT": 3},
    FabricKind.S3DC: {"A": 5, "B": 5, "C": 5, "OUT": 4},
    FabricKind.PLANAR_2D: {"A": 5, "B": 6, "C": 5, "OUT": 4},
}


def _footprint_scale(kind: FabricKind) -> float:
    w, h = _CELL_SITES[kind]
    w0, h0 = _CELL_SITES[FabricKind.PLANAR_2D]
    s = _SITE_DIM_NM[kind]
    s0 = _SITE_DIM_NM[FabricKind.PLANAR_2D]
    return (w * h * s * s) / (w0 * h0 * s0 * s0)


class FabricConfigError(ValueError):
    """Raised for malformed fabric config text or inconsistent specs."""


@dataclass(frozen=True)
class RoutingLayer:
    """One metal layer of the inter-cell routing stack (index is 1-based)."""

    index: int
    direction: str  # 'h' or 'v' preferred routing direction
    pitch_nm: float
    capacity: int  # routing tracks per gcell edge; 0 blocks the layer
    cap_per_um: float  # fF/um
    res_per_um: float  # ohm/um

    def __post_init__(self):
        if self.index < 1:
            raise FabricConfigError(f"layer index must be >= 1, got {self.index}")
        if self.direction not in ("h", "v"):
            raise FabricConfigError(f"layer {self.index}: direction must be 'h' or 'v'")
        if self.pitch_nm <= 0:
            raise FabricConfigError(f"layer {self.index}: pitch must be positive")
        if self.capacity < 0:
            raise FabricConfigError(f"layer {self.index}: negative capacity")


@dataclass(frozen=True)
class CellEnergyEntry:
    """Per-master characterization data used by the power model."""

    master: str
    internal_fj: float  # internal energy per output toggle
    pin_cap_ff: float  # capacitance of one input pin
    drive_res_ohm: float

    def __post_init__(self):
        if min(self.internal_fj, self.pin_cap_ff, self.drive_res_ohm) < 0:
            raise FabricConfigError(f"cellpower {self.master}: values must be >= 0")


DEFAULT_CELL_ENERGY = CellEnergyEntry("default", internal_fj=1.0, pin_cap_ff=0.1, drive_res_ohm=1000.0)


@dataclass(frozen=True)
class FabricSpec:
    """A technology: its routing stack plus pin-access and sizing rules."""

    kind: FabricKind
    layers: tuple[RoutingLayer, ...]
    pin_access_layers: int  # N: number of layers carrying pin accesses
    footprint_scale: float  # cell area relative to the planar baseline
    supply_voltage: float
    via_stack_exclusive: bool  # one signal per via stack (coaxial hop rule)
    site_dim_nm: float
    access_layer_ids: tuple[int, ...]
    cell_energy: dict[str, CellEnergyEntry] = field(default_factory=dict)

    def __post_init__(self):
        for i, layer in enumerate(self.layers, start=1):
            if layer.index != i:
                raise FabricConfigError(
                    f"layer indices must be contiguous from 1; found {layer.index} at position {i}"
                )
        if self.pin_access_layers < 1:
            raise FabricConfigError("pin_access_layers must be >= 1")
        if self.kind in (FabricKind.PLANAR_2D, FabricKind.TMI) and self.pin_access_layers != 1:
            raise FabricConfigError(f"{self.kind.value} fabric requires pin_access_layers == 1")
        if self.kind is FabricKind.S3DC and not self.via_stack_exclusive:
            raise FabricConfigError("s3dc fabric requires exclusive via stacks")
        if len(self.access_layer_ids) != self.pin_access_layers:
            raise FabricConfigError("access_layer_ids must list exactly pin_access_layers layers")
        top = len(self.layers)
        for lid in self.access_layer_ids:
            if not 1 <= lid <= top:
                raise FabricConfigError(f"access layer {lid} outside stack of {top} layers")
        if self.supply_voltage <= 0 or self.site_dim_nm <= 0 or self.footprint_scale <= 0:
            raise FabricConfigError("supply_voltage, site_dim_nm, footprint_scale must be positive")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def cell_sites(self) -> tuple[int, int]:
        """Standard-cell footprint in sites (width, height)."""
        return _CELL_SITES[self.kind]


@dataclass(frozen=True)
class PinDef:
    """A logical pin and its physical access points: (layer, dx, dy) in sites."""

    name: str
    direction: str  # 'input' or 'output'
    accesses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not self.accesses:
            raise FabricConfigError(f"pin {self.name}: needs at least one access point")
        if self.direction not in ("input", "output"):
            raise FabricConfigError(f"pin {self.name}: direction must be input or output")


@dataclass(frozen=True)
class CellMaster:
    """LEF-like cell abstraction: footprint and pin accesses."""

    name: str
    width: int  # sites
    height: int  # sites
    pins: tuple[PinDef, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise FabricConfigError(f"master {self.name}: degenerate footprint")
        for pin in self.pins:
            for layer, dx, dy in pin.accesses:
                if not (0 <= dx < self.width and 0 <= dy < self.height):
                    raise FabricConfigError(
                        f"master {self.name}: pin {pin.name} access ({dx},{dy}) outside "
                        f"{self.width}x{self.height} cell"
                    )
                if layer < 1:
                    raise FabricConfigError(f"master {self.name}: access layer must be >= 1")

    def pin(self, name: str) -> PinDef:
        for p in self.pins:
            if p.name == name:
                return p
        raise KeyError(f"master {self.name} has no pin {name}")

    @property
    def area_sites(self) -> int:
        return self.width * self.height


def normalize_kind(token: str | FabricKind) -> FabricKind:
    if isinstance(token, FabricKind):
        return token
    try:
        return _KIND_ALIASES[token.strip().lower()]
    except KeyError:
        raise FabricConfigError(f"unknown fabric kind: {token!r}") from None


def builtin_fabric(kind: str | FabricKind) -> FabricSpec:
    """Default FabricSpec for a technology; same kind always yields an equal spec."""
    kind = normalize_kind(kind)
    layers = tuple(
        RoutingLayer(
            index=i,
            direction="h" if i % 2 == 1 else "v",
            pitch_nm=_TRACK_PITCH_NM[kind],
            capacity=DEFAULT_EDGE_CAPACITY,
            cap_per_um=DEFAULT_CAP_FF_PER_UM,
            res_per_um=DEFAULT_RES_OHM_PER_UM,
        )
        for i in range(1, _LAYER_COUNT[kind] + 1)
    )
    access_ids = _ACCESS_LAYER_IDS[kind]
    return FabricSpec(
        kind=kind,
        layers=layers,
        pin_access_layers=len(access_ids),
        footprint_scale=_footprint_scale(kind),
        supply_voltage=DEFAULT_SUPPLY_V,
        via_stack_exclusive=(kind is FabricKind.S3DC),
        site_dim_nm=_SITE_DIM_NM[kind],
        access_layer_ids=access_ids,
    )


def default_access_count(kind: FabricKind, direction: str) -> int:
    return _ACCESS_COUNT[kind]["output" if direction == "output" else "input"]


def _site_order(width: int, height: int) -> list[tuple[int, int]]:
    # Sites sorted center-outward so the first access of the first pin lands
    # at the cell center and later accesses spread deterministically.
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    sites = [(x, y) for y in range(height) for x in range(width)]
    sites.sort(key=lambda s: ((s[0] - cx) ** 2 + (s[1] - cy) ** 2, s[1], s[0]))
    return sites


def make_cell_master(
    fabric: str | FabricKind | FabricSpec,
    pin_spec: list[tuple[str, str, int]],
    name: str = "cell",
) -> CellMaster:
    """Build a cell abstraction with technology-appropriate pin accesses.

    ``fabric`` is a FabricSpec or a kind, which stands for its builtin spec;
    the pins use that spec's access layers.  ``pin_spec`` lists (pin_name,
    direction, access_count).  Planar and monolithic-3D masters put every
    access on the single access layer (M1 by default), spread across the
    cell.  S3DC masters keep each pin's accesses on one nanowire position and
    distribute them vertically across the fabric's pin-access layers.
    """
    if not isinstance(fabric, FabricSpec):
        fabric = builtin_fabric(fabric)
    kind = fabric.kind
    width, height = _CELL_SITES[kind]
    order = _site_order(width, height)
    nsites = len(order)
    npins = max(1, len(pin_spec))
    access_ids = fabric.access_layer_ids

    pins = []
    for p, (pname, direction, count) in enumerate(pin_spec):
        if count < 1:
            raise FabricConfigError(f"pin {pname}: access_count must be >= 1")
        accesses = []
        if kind is FabricKind.S3DC:
            x, y = order[p % nsites]
            for a in range(count):
                accesses.append((access_ids[a % len(access_ids)], x, y))
        else:
            for a in range(count):
                x, y = order[(p + a * npins) % nsites]
                accesses.append((access_ids[0], x, y))
        # Collapse duplicates while keeping first-seen order stable.
        seen: dict[tuple[int, int, int], None] = {}
        for acc in accesses:
            seen.setdefault(acc, None)
        pins.append(PinDef(name=pname, direction=direction, accesses=tuple(seen)))
    return CellMaster(name=name, width=width, height=height, pins=tuple(pins))


def bind_masters(netlist, fabric: FabricSpec):
    """Return a copy of ``netlist`` whose masters carry this fabric's geometry.

    Pin names and directions are preserved; footprints and access points are
    rebuilt with the fabric's defaults and its access layers.
    """
    rebuilt = {}
    for mname, master in netlist.masters.items():
        spec = [
            (pin.name, pin.direction, default_access_count(fabric.kind, pin.direction))
            for pin in master.pins
        ]
        rebuilt[mname] = make_cell_master(fabric, spec, name=mname)
    return dataclasses.replace(netlist, masters=rebuilt)


def load_fabric(text: str) -> FabricSpec:
    """Parse fabric config text into a FabricSpec.

    Format (one directive per line, ``#`` comments)::

        kind s3dc
        layer 5 dir h pitch 20 cap 12 c 0.2 r 2.0
        pin_layers 5
        access_layers 2 3 4 5 6
        vdd 0.8
        site 40
        cellpower NAND3 1.2 0.08 900

    Unspecified fields fall back to the builtin defaults for the declared
    kind.  ``layer`` lines may partially override an existing layer or append
    the next index; gaps are rejected.
    """
    kind = None
    layer_overrides: dict[int, dict[str, float | str]] = {}
    pin_layers = None
    access_ids = None
    vdd = None
    site = None
    energy: dict[str, CellEnergyEntry] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        key = toks[0].lower()
        try:
            if key == "kind":
                kind = normalize_kind(toks[1])
            elif key == "layer":
                idx = int(toks[1])
                ov = layer_overrides.setdefault(idx, {})
                i = 2
                while i + 1 < len(toks):
                    k, v = toks[i].lower(), toks[i + 1]
                    if k == "dir":
                        ov["direction"] = v.lower()
                    elif k == "pitch":
                        ov["pitch_nm"] = float(v)
                    elif k == "cap":
                        ov["capacity"] = int(v)
                    elif k == "c":
                        ov["cap_per_um"] = float(v)
                    elif k == "r":
                        ov["res_per_um"] = float(v)
                    else:
                        raise FabricConfigError(f"unknown layer attribute {toks[i]!r}")
                    i += 2
                if i != len(toks):
                    raise FabricConfigError("layer attributes must be key/value pairs")
            elif key == "pin_layers":
                pin_layers = int(toks[1])
            elif key == "access_layers":
                access_ids = tuple(int(t) for t in toks[1:])
            elif key == "vdd":
                vdd = float(toks[1])
            elif key == "site":
                site = float(toks[1])
            elif key == "cellpower":
                energy[toks[1]] = CellEnergyEntry(
                    master=toks[1],
                    internal_fj=float(toks[2]),
                    pin_cap_ff=float(toks[3]),
                    drive_res_ohm=float(toks[4]),
                )
            else:
                raise FabricConfigError(f"unknown directive {toks[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FabricConfigError):
                raise FabricConfigError(f"line {lineno}: {exc}") from None
            raise FabricConfigError(f"line {lineno}: malformed {key!r} directive") from None

    if kind is None:
        raise FabricConfigError("config must declare a fabric kind")

    base = builtin_fabric(kind)
    layers = {layer.index: layer for layer in base.layers}
    for idx in sorted(layer_overrides):
        if idx < 1 or idx > max(layers) + 1:
            raise FabricConfigError(
                f"layer {idx} breaks contiguity (stack currently ends at {max(layers)})"
            )
        current = layers.get(idx)
        if current is None:
            current = RoutingLayer(
                index=idx,
                direction="h" if idx % 2 == 1 else "v",
                pitch_nm=_TRACK_PITCH_NM[kind],
                capacity=DEFAULT_EDGE_CAPACITY,
                cap_per_um=DEFAULT_CAP_FF_PER_UM,
                res_per_um=DEFAULT_RES_OHM_PER_UM,
            )
        layers[idx] = replace(current, **layer_overrides[idx])

    n = pin_layers if pin_layers is not None else base.pin_access_layers
    if access_ids is None:
        if n == base.pin_access_layers:
            access_ids = base.access_layer_ids
        else:
            start = base.access_layer_ids[0]
            access_ids = tuple(range(start, start + n))
    return FabricSpec(
        kind=kind,
        layers=tuple(layers[i] for i in sorted(layers)),
        pin_access_layers=n,
        footprint_scale=base.footprint_scale,
        supply_voltage=vdd if vdd is not None else base.supply_voltage,
        via_stack_exclusive=base.via_stack_exclusive,
        site_dim_nm=site if site is not None else base.site_dim_nm,
        access_layer_ids=access_ids,
        cell_energy=energy,
    )
