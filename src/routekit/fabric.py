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
import math
from dataclasses import dataclass, field, replace


class FabricKind(str, enum.Enum):
    PLANAR_2D = "2d"
    TMI = "tmi"
    S3DC = "s3dc"


# Per-fabric defaults.  Every layer holds DEFAULT_EDGE_CAPACITY tracks per
# gcell edge, whatever the gcell's size in nm.  At the default 3-site gcell
# that is a 27 nm pitch on 2d and tmi and a 12 nm pitch on s3dc, so s3dc gets
# 2.25x the tracks per um (README, "Notes on modeling scope").
DEFAULT_EDGE_CAPACITY = 10
DEFAULT_VIA_CAPACITY = 4
DEFAULT_CAP_FF_PER_UM = 0.2
DEFAULT_SUPPLY_V = 0.8

_LAYER_COUNT = {FabricKind.PLANAR_2D: 8, FabricKind.TMI: 8, FabricKind.S3DC: 13}
_SITE_DIM_NM = {FabricKind.PLANAR_2D: 90.0, FabricKind.TMI: 90.0, FabricKind.S3DC: 40.0}
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


class FabricConfigError(ValueError):
    """Raised for malformed fabric config text or inconsistent specs."""


@dataclass(frozen=True)
class RoutingLayer:
    """One metal layer of the inter-cell routing stack (index is 1-based)."""

    index: int
    direction: str  # 'h' or 'v' preferred routing direction
    capacity: int  # routing tracks per gcell edge; 0 blocks the layer
    cap_per_um: float  # fF/um

    def __post_init__(self):
        if self.index < 1:
            raise FabricConfigError(f"layer index must be >= 1, got {self.index}")
        if self.direction not in ("h", "v"):
            raise FabricConfigError(f"layer {self.index}: direction must be 'h' or 'v'")
        if self.capacity < 0:
            raise FabricConfigError(f"layer {self.index}: negative capacity")
        if not 0 < self.cap_per_um < math.inf:
            raise FabricConfigError(
                f"layer {self.index}: wire capacitance must be finite and positive")


@dataclass(frozen=True)
class CellEnergyEntry:
    """Per-master characterization data used by the power model."""

    internal_fj: float  # internal energy per output toggle
    pin_cap_ff: float  # capacitance of one input pin

    def __post_init__(self):
        if not (0 <= self.internal_fj < math.inf and 0 <= self.pin_cap_ff < math.inf):
            raise FabricConfigError("cellpower values must be finite and >= 0")


DEFAULT_CELL_ENERGY = CellEnergyEntry(internal_fj=1.0, pin_cap_ff=0.1)


@dataclass(frozen=True)
class FabricSpec:
    """A technology: its routing stack plus pin-access and sizing rules."""

    kind: FabricKind
    layers: tuple[RoutingLayer, ...]
    supply_voltage: float
    site_dim_nm: float
    access_layer_ids: tuple[int, ...]
    cell_energy: dict[str, CellEnergyEntry] = field(default_factory=dict)

    def __post_init__(self):
        for i, layer in enumerate(self.layers, start=1):
            if layer.index != i:
                raise FabricConfigError(f"layer {layer.index} breaks contiguity: expected layer {i}")
        if not self.access_layer_ids:
            raise FabricConfigError("a fabric needs at least one pin-access layer")
        for i, lid in enumerate(self.access_layer_ids):
            if lid in self.access_layer_ids[:i]:
                raise FabricConfigError(f"access layer {lid} is listed twice")
        if self.kind in (FabricKind.PLANAR_2D, FabricKind.TMI) and self.pin_access_layers != 1:
            raise FabricConfigError(f"{self.kind.value} fabric requires pin_access_layers == 1")
        top = len(self.layers)
        for lid in self.access_layer_ids:
            if not 1 <= lid <= top:
                raise FabricConfigError(f"access layer {lid} outside stack of {top} layers")
        if not (0 < self.supply_voltage < math.inf and 0 < self.site_dim_nm < math.inf):
            raise FabricConfigError("supply_voltage and site_dim_nm must be finite and positive")

    @property
    def pin_access_layers(self) -> int:
        """N: the number of layers carrying pin accesses."""
        return len(self.access_layer_ids)

    @property
    def via_capacity(self) -> int:
        """Signals per via edge: 1 for S3DC's single-signal (coaxial) via
        stacks, ``DEFAULT_VIA_CAPACITY`` elsewhere."""
        return 1 if self.kind is FabricKind.S3DC else DEFAULT_VIA_CAPACITY

    @property
    def via_stack_exclusive(self) -> bool:
        """One signal per via stack."""
        return self.via_capacity == 1

    @property
    def footprint_scale(self) -> float:
        """Cell area relative to a planar cell on the planar site."""
        w, h = _CELL_SITES[self.kind]
        w0, h0 = _CELL_SITES[FabricKind.PLANAR_2D]
        s = self.site_dim_nm
        s0 = _SITE_DIM_NM[FabricKind.PLANAR_2D]
        return (w * h * s * s) / (w0 * h0 * s0 * s0)


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
    """The kind named ``2d``, ``tmi`` or ``s3dc``, ignoring case and surrounding spaces."""
    try:
        return FabricKind(token.strip().lower())
    except ValueError:
        raise FabricConfigError(f"unknown fabric kind: {token!r}") from None


def _default_layer(index: int) -> RoutingLayer:
    """Layer ``index`` of a builtin stack: odd layers run 'h', even layers 'v'."""
    return RoutingLayer(
        index=index,
        direction="h" if index % 2 == 1 else "v",
        capacity=DEFAULT_EDGE_CAPACITY,
        cap_per_um=DEFAULT_CAP_FF_PER_UM,
    )


def builtin_fabric(kind: str | FabricKind) -> FabricSpec:
    """Default FabricSpec for a technology; same kind always yields an equal spec."""
    kind = normalize_kind(kind)
    return FabricSpec(
        kind=kind,
        layers=tuple(_default_layer(i) for i in range(1, _LAYER_COUNT[kind] + 1)),
        supply_voltage=DEFAULT_SUPPLY_V,
        site_dim_nm=_SITE_DIM_NM[kind],
        access_layer_ids=_ACCESS_LAYER_IDS[kind],
    )


def _site_order(width: int, height: int) -> list[tuple[int, int]]:
    # Sites sorted center-outward so the first access of the first pin lands
    # at the cell center and later accesses spread deterministically.
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    sites = [(x, y) for y in range(height) for x in range(width)]
    sites.sort(key=lambda s: ((s[0] - cx) ** 2 + (s[1] - cy) ** 2, s[1], s[0]))
    return sites


def make_cell_master(
    fabric: FabricSpec,
    pin_spec: list[tuple[str, str, int]],
    name: str = "cell",
) -> CellMaster:
    """Build a cell abstraction with technology-appropriate pin accesses.

    The pins use ``fabric``'s access layers.  ``pin_spec`` lists (pin_name,
    direction, access_count).  Planar and monolithic-3D masters put every
    access on the single access layer (M1 by default), spread across the
    cell.  S3DC masters keep each pin's accesses on one nanowire position and
    distribute them vertically across the fabric's pin-access layers.
    """
    kind = fabric.kind
    width, height = _CELL_SITES[kind]
    order = _site_order(width, height)
    nsites = len(order)
    npins = len(pin_spec)
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
    counts = _ACCESS_COUNT[fabric.kind]
    rebuilt = {}
    for mname, master in netlist.masters.items():
        spec = [(pin.name, pin.direction, counts[pin.direction]) for pin in master.pins]
        rebuilt[mname] = make_cell_master(fabric, spec, name=mname)
    return dataclasses.replace(netlist, masters=rebuilt)


def load_fabric(text: str) -> FabricSpec:
    """Parse fabric config text into a FabricSpec.

    Format (one directive per line, ``#`` comments)::

        kind s3dc
        layer 5 dir h cap 12 c 0.2
        access_layers 2 3 4 5 6
        vdd 0.8
        site 40
        cellpower NAND3 1.2 0.08

    Unspecified fields fall back to the builtin defaults for the declared
    kind.  Each directive is given once (``layer`` once per index,
    ``cellpower`` once per master).  A ``layer`` line overrides the given
    attributes of a builtin layer or appends the next index; gaps are
    rejected.  Values must be finite, with ``c``, ``vdd`` and ``site``
    positive and ``cellpower`` values >= 0.  ``access_layers`` lists
    distinct pin-access layers, so N is its length; without it the kind's
    builtin access layers apply.  The cell footprint follows ``site``.
    Every error but a missing ``kind`` names its line.
    """
    first: dict[str, int] = {}  # directive ('layer <index>', 'cellpower <master>') -> line
    overrides: dict[int, tuple[int, RoutingLayer]] = {}  # index -> (line, layer)
    access_ids = None
    changes: list[tuple[int, str, float]] = []  # (line, FabricSpec field, value)
    energy: dict[str, CellEnergyEntry] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        key = toks[0].lower()
        try:
            directive = key
            if key in ("layer", "cellpower"):  # given once per index or master
                directive = f"{key} {int(toks[1]) if key == 'layer' else toks[1]}"
            if directive in first:
                raise FabricConfigError(f"{directive} already declared on line {first[directive]}")
            first[directive] = lineno
            if key == "kind":
                (token,) = toks[1:]
                kind = normalize_kind(token)
            elif key == "layer":
                idx = int(toks[1])
                ov: dict[str, float | str] = {}
                i = 2
                while i + 1 < len(toks):
                    k, v = toks[i].lower(), toks[i + 1]
                    if k == "dir":
                        ov["direction"] = v.lower()
                    elif k == "cap":
                        ov["capacity"] = int(v)
                    elif k == "c":
                        ov["cap_per_um"] = float(v)
                    else:
                        raise FabricConfigError(f"unknown layer attribute {toks[i]!r}")
                    i += 2
                if i != len(toks):
                    raise FabricConfigError("layer attributes must be key/value pairs")
                overrides[idx] = (lineno, replace(_default_layer(idx), **ov))
            elif key == "access_layers":
                access_ids = tuple(int(t) for t in toks[1:])
            elif key in ("vdd", "site"):
                (value,) = toks[1:]
                name = "supply_voltage" if key == "vdd" else "site_dim_nm"
                changes.append((lineno, name, float(value)))
            elif key == "cellpower":
                master, internal_fj, pin_cap_ff = toks[1:]
                energy[master] = CellEnergyEntry(float(internal_fj), float(pin_cap_ff))
            else:
                raise FabricConfigError(f"unknown directive {toks[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FabricConfigError):
                raise FabricConfigError(f"line {lineno}: {exc}") from None
            raise FabricConfigError(f"line {lineno}: malformed {key!r} directive") from None

    if "kind" not in first:
        raise FabricConfigError("config must declare a fabric kind")

    base = builtin_fabric(kind)
    layers = {layer.index: layer for layer in base.layers}
    # Each step below can fail only on the directive of line ``lineno``.
    try:
        for idx, (lineno, layer) in sorted(overrides.items()):
            if idx > len(layers) + 1:
                raise FabricConfigError(
                    f"layer {idx} breaks contiguity: expected layer {len(layers) + 1}")
            layers[idx] = layer
        spec = replace(base, layers=tuple(layers[i] for i in sorted(layers)), cell_energy=energy)
        for lineno, name, value in changes:
            spec = replace(spec, **{name: value})
        lineno = first.get("access_layers")
        return spec if access_ids is None else replace(spec, access_layer_ids=access_ids)
    except FabricConfigError as exc:
        raise FabricConfigError(f"line {lineno}: {exc}") from None
