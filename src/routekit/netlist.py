"""Gate-level netlist model: text format, validation, and synthetic generation.

The text format is line oriented and order independent::

    # comment
    master NAND3 pins A B C OUT
    cell u1 NAND3
    cell u2 NAND3 seq
    net n1 u1.OUT u2.A

Pin direction is inferred from the pin name: ``o``, ``out``, ``q``, ``y``
and ``z`` (case-insensitive) are outputs, everything else is an input.

The synthetic generator builds connectivity top-down over a balanced
bisection tree so that the external-net count of every block tracks
``A * G**r`` (Rent's rule).  Multi-terminal nets follow a geometric arity
distribution with mean 3, truncated at 16 terminals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .fabric import CellMaster, PinDef

OUTPUT_PIN_NAMES = {"o", "out", "q", "y", "z"}
MAX_NET_ARITY = 16
MIN_GENERATED_CELLS = 8


class NetlistParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class CellInstance:
    id: str
    master: str
    is_sequential: bool = False


@dataclass
class Net:
    id: str
    terminals: list[tuple[str, str]]  # (cell id, pin name)


@dataclass
class Netlist:
    name: str
    masters: dict[str, CellMaster]
    cells: list[CellInstance]
    nets: list[Net]
    _cell_index: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def cell(self, cell_id: str) -> CellInstance:
        if len(self._cell_index) != len(self.cells):
            self._cell_index.clear()
            self._cell_index.update((c.id, i) for i, c in enumerate(self.cells))
        return self.cells[self._cell_index[cell_id]]

    def master_of(self, cell_id: str) -> CellMaster:
        return self.masters[self.cell(cell_id).master]

    @property
    def total_terminals(self) -> int:
        return sum(len(net.terminals) for net in self.nets)


def _pin_direction(name: str) -> str:
    return "output" if name.lower() in OUTPUT_PIN_NAMES else "input"


def _unbound_master(name: str, pin_names: list[str]) -> CellMaster:
    # Placeholder geometry: bind_masters() swaps in fabric-specific footprints.
    pins = tuple(
        PinDef(name=p, direction=_pin_direction(p), accesses=((1, 0, 0),)) for p in pin_names
    )
    return CellMaster(name=name, width=1, height=1, pins=pins)


def parse_netlist(text: str, name: str = "netlist") -> Netlist:
    masters: dict[str, CellMaster] = {}
    cells: list[CellInstance] = []
    cell_ids: dict[str, int] = {}
    net_lines: list[tuple[int, list[tuple[str, int]]]] = []
    net_ids: dict[str, int] = {}

    def tokens_with_cols(line: str) -> list[tuple[str, int]]:
        out = []
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            out.append((tok, col + 1))
            col += len(tok)
        return out

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = tokens_with_cols(line)
        if not toks:
            continue
        key = toks[0][0]
        if key == "master":
            if len(toks) < 4 or toks[2][0] != "pins":
                raise NetlistParseError("expected 'master <name> pins <p1> ...'", lineno, toks[0][1])
            mname = toks[1][0]
            if mname in masters:
                raise NetlistParseError(f"duplicate master {mname!r}", lineno, toks[1][1])
            pin_names = [t[0] for t in toks[3:]]
            if len(set(pin_names)) != len(pin_names):
                raise NetlistParseError(f"master {mname!r} repeats a pin name", lineno, toks[3][1])
            masters[mname] = _unbound_master(mname, pin_names)
        elif key == "cell":
            if len(toks) not in (3, 4):
                raise NetlistParseError("expected 'cell <id> <master> [seq]'", lineno, toks[0][1])
            cid = toks[1][0]
            if cid in cell_ids:
                raise NetlistParseError(f"duplicate cell id {cid!r}", lineno, toks[1][1])
            seq = False
            if len(toks) == 4:
                if toks[3][0] != "seq":
                    raise NetlistParseError(f"unexpected token {toks[3][0]!r}", lineno, toks[3][1])
                seq = True
            cell_ids[cid] = lineno
            cells.append(CellInstance(id=cid, master=toks[2][0], is_sequential=seq))
        elif key == "net":
            if len(toks) < 3:
                raise NetlistParseError("net needs an id and at least one terminal", lineno, toks[0][1])
            nid = toks[1][0]
            if nid in net_ids:
                raise NetlistParseError(f"duplicate net id {nid!r}", lineno, toks[1][1])
            net_ids[nid] = lineno
            net_lines.append((lineno, toks[1:]))
        else:
            raise NetlistParseError(f"unknown directive {key!r}", lineno, toks[0][1])

    # Resolution pass: sections may arrive in any order, so references are
    # checked only after the whole file is read.
    for cell in cells:
        if cell.master not in masters:
            line = cell_ids[cell.id]
            raise NetlistParseError(
                f"cell {cell.id!r} references undeclared master {cell.master!r}", line
            )

    by_id = {c.id: c for c in cells}
    nets: list[Net] = []
    for lineno, toks in net_lines:
        nid = toks[0][0]
        terminals: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for tok, col in toks[1:]:
            if "." not in tok:
                raise NetlistParseError(f"terminal {tok!r} must be <cell>.<pin>", lineno, col)
            cid, pin = tok.split(".", 1)
            cell = by_id.get(cid)
            if cell is None:
                raise NetlistParseError(f"net {nid!r} references unknown cell {cid!r}", lineno, col)
            master = masters[cell.master]
            if all(p.name != pin for p in master.pins):
                raise NetlistParseError(
                    f"net {nid!r}: master {master.name!r} has no pin {pin!r}", lineno, col
                )
            if (cid, pin) in seen:
                raise NetlistParseError(f"net {nid!r} repeats terminal {tok!r}", lineno, col)
            seen.add((cid, pin))
            terminals.append((cid, pin))
        nets.append(Net(id=nid, terminals=terminals))

    return Netlist(name=name, masters=masters, cells=cells, nets=nets)


def serialize_netlist(netlist: Netlist) -> str:
    lines = []
    for master in netlist.masters.values():
        lines.append(f"master {master.name} pins " + " ".join(p.name for p in master.pins))
    for cell in netlist.cells:
        suffix = " seq" if cell.is_sequential else ""
        lines.append(f"cell {cell.id} {cell.master}{suffix}")
    for net in netlist.nets:
        terms = " ".join(f"{c}.{p}" for c, p in net.terminals)
        lines.append(f"net {net.id} {terms}")
    return "\n".join(lines) + "\n"


def validate(netlist: Netlist) -> list[str]:
    """The structural errors of a netlist, such as one built in code: a
    repeated cell or net id, an unknown master, cell or pin, a net without
    terminals or with a repeated one.  Empty for a consistent netlist.  A
    dangling (single-terminal) net is no error: ``globalroute.route`` skips
    it with a warning."""
    errors = []
    seen_cells: set[str] = set()
    for cell in netlist.cells:
        if cell.id in seen_cells:
            errors.append(f"duplicate cell id {cell.id!r}")
        seen_cells.add(cell.id)
        if cell.master not in netlist.masters:
            errors.append(f"cell {cell.id!r} references unknown master {cell.master!r}")

    by_id = {c.id: c for c in netlist.cells}
    seen_nets: set[str] = set()
    for net in netlist.nets:
        if net.id in seen_nets:
            errors.append(f"duplicate net id {net.id!r}")
        seen_nets.add(net.id)
        if not net.terminals:
            errors.append(f"net {net.id!r} has no terminals")
            continue
        seen_terms: set[tuple[str, str]] = set()
        for cid, pin in net.terminals:
            cell = by_id.get(cid)
            if cell is None:
                errors.append(f"net {net.id!r} references unknown cell {cid!r}")
                continue
            master = netlist.masters.get(cell.master)
            if master is not None and all(p.name != pin for p in master.pins):
                errors.append(f"net {net.id!r}: no pin {pin!r} on master {cell.master!r}")
            if (cid, pin) in seen_terms:
                errors.append(f"net {net.id!r} repeats terminal {cid}.{pin}")
            seen_terms.add((cid, pin))
    return errors


@dataclass(frozen=True)
class SynthesisParams:
    num_cells: int
    rent_exponent: float = 0.75
    avg_pins_per_cell: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.num_cells < MIN_GENERATED_CELLS:
            raise ValueError(
                f"num_cells must be >= {MIN_GENERATED_CELLS} for meaningful Rent statistics"
            )
        if not 0.5 < self.rent_exponent < 1.0:
            raise ValueError("rent_exponent must lie in (0.5, 1.0)")
        if self.avg_pins_per_cell < 2:
            raise ValueError("avg_pins_per_cell must be >= 2")


def _sample_arity(rng: random.Random) -> int:
    # 2 + Geometric(1/2): mean 3 terminals, hard-truncated at MAX_NET_ARITY.
    arity = 2
    while arity < MAX_NET_ARITY and rng.random() < 0.5:
        arity += 1
    return arity


def generate_synthetic(params: SynthesisParams) -> Netlist:
    """Generate a netlist whose partition statistics follow Rent's rule.

    Cells are leaves of a balanced bisection tree.  Splitting a block of G
    cells, the number of nets spanning the two halves is chosen so each
    half's external-net count approaches ``A * (G/2)**r``; terminals of
    inherited nets diffuse to either half in proportion to its size.
    Deterministic for a fixed parameter set.
    """
    n = params.num_cells
    r = params.rent_exponent

    def construct(amp: float) -> list[list[int]]:
        rng = random.Random(params.seed)
        net_cells: list[list[int]] = []  # per net: cell indices hosting terminals

        def build(lo: int, hi: int, pending: list[tuple[int, int]]) -> None:
            g = hi - lo
            if g == 1:
                # Multiple pending terminals of one net collapse onto a
                # single pin here; the net keeps >= 2 cells because its
                # creation split put terminals on both sides of a cut.
                for net_idx, _ in pending:
                    net_cells[net_idx].append(lo)
                return
            mid = lo + g // 2
            gl, gr = mid - lo, hi - mid
            p_left = gl / g
            left: list[tuple[int, int]] = []
            right: list[tuple[int, int]] = []
            for net_idx, k in pending:
                kl = 0
                for _ in range(k):
                    if rng.random() < p_left:
                        kl += 1
                if kl:
                    left.append((net_idx, kl))
                if k - kl:
                    right.append((net_idx, k - kl))
            need_l = amp * gl**r - len(left)
            need_r = amp * gr**r - len(right)
            for _ in range(max(0, int(round((need_l + need_r) / 2.0)))):
                arity = _sample_arity(rng)
                kl, kr = 1, 1
                for _ in range(arity - 2):
                    if rng.random() < p_left:
                        kl += 1
                    else:
                        kr += 1
                net_idx = len(net_cells)
                net_cells.append([])
                left.append((net_idx, kl))
                right.append((net_idx, kr))
            build(lo, mid, left)
            build(mid, hi, right)

        build(0, n, [])
        return net_cells

    # Creation counts clip at zero when small blocks over-inherit, which
    # biases the terminal total by an (r-dependent) few percent.  Regenerate
    # with a rescaled amplitude until the total lands on num_cells * A; the
    # rescale shifts the Rent intercept, not the exponent.  The response is
    # noisy, so the update is damped and the best construction is kept.
    target_total = n * params.avg_pins_per_cell
    amp = params.avg_pins_per_cell
    net_cells: list[list[int]] | None = None
    best_err = float("inf")
    for _ in range(5):
        candidate = construct(amp)
        ratio = sum(len(hosts) for hosts in candidate) / target_total
        err = abs(ratio - 1.0)
        if err < best_err:
            best_err = err
            net_cells = candidate
        if err <= 0.01:
            break
        amp /= ratio**0.7
    assert net_cells is not None

    # One output pin per cell; the first net to claim a cell's output drives
    # that net, every other terminal lands on a fresh input pin.  A driven
    # net lists its driver first.
    driven_by: list[int | None] = [None] * n
    driver_cell: list[int | None] = [None] * len(net_cells)
    for net_idx, hosts in enumerate(net_cells):
        for c in hosts:
            if driven_by[c] is None:
                driven_by[c] = net_idx
                driver_cell[net_idx] = c
                break

    input_count = [0] * n
    net_terminals: list[list[tuple[int, str]]] = []
    for net_idx, hosts in enumerate(net_cells):
        terms: list[tuple[int, str]] = []
        driver_done = False
        for c in hosts:
            if not driver_done and driver_cell[net_idx] == c:
                terms.append((c, "o"))
                driver_done = True
            else:
                input_count[c] += 1
                terms.append((c, f"i{input_count[c]}"))
        if driver_done and terms[0][1] != "o":
            di = next(i for i, t in enumerate(terms) if t[1] == "o")
            terms[0], terms[di] = terms[di], terms[0]
        net_terminals.append(terms)

    masters: dict[str, CellMaster] = {}
    for k in sorted(set(input_count)):
        name = f"g{k}"
        masters[name] = _unbound_master(name, ["o"] + [f"i{i}" for i in range(1, k + 1)])

    cells = [CellInstance(id=f"c{i}", master=f"g{input_count[i]}") for i in range(n)]
    nets = [
        Net(id=f"n{j}", terminals=[(f"c{c}", pin) for c, pin in terms])
        for j, terms in enumerate(net_terminals)
    ]
    name = f"synth{n}_r{params.rent_exponent:g}_s{params.seed}"
    return Netlist(name=name, masters=masters, cells=cells, nets=nets)
