"""Gate-level netlist model: text format, validation, and synthetic generation.

The text format is line oriented and order independent::

    # comment
    master NAND3 pins A B C OUT
    cell u1 NAND3
    cell u2 NAND3
    net n1 u1.OUT u2.A

A cell or net id holds no comma, and a cell id no dot, since a terminal
splits at its first dot.  An error names its line and column.
Pin direction is inferred from the pin name: ``o``, ``out``, ``q``, ``y``
and ``z`` (case-insensitive) are outputs, everything else is an input.

The synthetic generator builds connectivity top-down over a balanced
bisection tree so that the external-net count of every block tracks
``A * G**r`` (Rent's rule).  Multi-terminal nets follow a geometric arity
distribution with mean 3, truncated at 16 terminals.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
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
        """The cell named ``cell_id``; KeyError if there is none.  The id
        index is rebuilt whenever it misses or names another cell, so edits
        to ``cells`` in place are seen."""
        try:
            c = self.cells[self._cell_index[cell_id]]
            if c.id == cell_id:
                return c
        except (KeyError, IndexError):
            pass
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
    """The netlist in ``text``.  A syntax error, or the first error that
    ``validate`` would list, raises NetlistParseError at the line and column
    of the cell id, net id or terminal that it names."""
    masters: dict[str, CellMaster] = {}
    cells: list[CellInstance] = []
    nets: list[Net] = []
    # The line of each cell and net, and its tokens after the directive.
    at: dict[str, list[tuple[int, list[tuple[str, int]]]]] = {"cell": [], "net": []}

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
            pin_names: list[str] = []
            for pin, col in toks[3:]:
                if pin in pin_names:
                    raise NetlistParseError(f"master {mname!r} repeats pin {pin!r}", lineno, col)
                pin_names.append(pin)
            masters[mname] = _unbound_master(mname, pin_names)
        elif key == "cell":
            if len(toks) < 3:
                raise NetlistParseError("expected 'cell <id> <master>'", lineno, toks[0][1])
            if len(toks) > 3:
                raise NetlistParseError(f"unexpected token {toks[3][0]!r}", lineno, toks[3][1])
            at[key].append((lineno, toks[1:2]))
            cells.append(CellInstance(id=toks[1][0], master=toks[2][0]))
        elif key == "net":
            if len(toks) < 3:
                raise NetlistParseError("net needs an id and at least one terminal", lineno, toks[0][1])
            terminals = []
            for tok, col in toks[2:]:
                cid, dot, pin = tok.partition(".")
                if not dot:
                    raise NetlistParseError(f"terminal {tok!r} must be <cell>.<pin>", lineno, col)
                terminals.append((cid, pin))
            at[key].append((lineno, toks[1:]))
            nets.append(Net(id=toks[1][0], terminals=terminals))
        else:
            raise NetlistParseError(f"unknown directive {key!r}", lineno, toks[0][1])

    netlist = Netlist(name=name, masters=masters, cells=cells, nets=nets)
    # Sections come in any order, so references are checked after the last line.
    for message, (directive, i, k) in _errors(netlist):
        lineno, toks = at[directive][i]
        raise NetlistParseError(message, lineno, toks[k][1])
    return netlist


def serialize_netlist(netlist: Netlist) -> str:
    lines = []
    for master in netlist.masters.values():
        lines.append(f"master {master.name} pins " + " ".join(p.name for p in master.pins))
    for cell in netlist.cells:
        lines.append(f"cell {cell.id} {cell.master}")
    for net in netlist.nets:
        terms = " ".join(f"{c}.{p}" for c, p in net.terminals)
        lines.append(f"net {net.id} {terms}")
    return "\n".join(lines) + "\n"


def _errors(netlist: Netlist) -> Iterator[tuple[str, tuple[str, int, int]]]:
    """Each consistency error of ``netlist``, cell errors first, with where it
    is: ``("cell", i, 0)`` for cell i, ``("net", i, 0)`` for the id of net i
    and ``("net", i, k)`` for its k-th terminal, counting from 1."""
    by_id: dict[str, CellInstance] = {}
    for i, cell in enumerate(netlist.cells):
        if "," in cell.id:
            yield f"cell id {cell.id!r} holds a comma", ("cell", i, 0)
        if "." in cell.id:
            yield f"cell id {cell.id!r} holds a dot", ("cell", i, 0)
        if cell.id in by_id:
            yield f"duplicate cell id {cell.id!r}", ("cell", i, 0)
        by_id.setdefault(cell.id, cell)
        if cell.master not in netlist.masters:
            yield f"cell {cell.id!r} references unknown master {cell.master!r}", ("cell", i, 0)

    net_ids: set[str] = set()
    for i, net in enumerate(netlist.nets):
        if "," in net.id:
            yield f"net id {net.id!r} holds a comma", ("net", i, 0)
        if net.id in net_ids:
            yield f"duplicate net id {net.id!r}", ("net", i, 0)
        net_ids.add(net.id)
        if not net.terminals:
            yield f"net {net.id!r} has no terminals", ("net", i, 0)
        seen: set[tuple[str, str]] = set()
        for k, (cid, pin) in enumerate(net.terminals, start=1):
            cell = by_id.get(cid)
            if cell is None:
                yield f"net {net.id!r} references unknown cell {cid!r}", ("net", i, k)
                continue
            master = netlist.masters.get(cell.master)
            if master is not None and all(p.name != pin for p in master.pins):
                yield f"net {net.id!r}: master {cell.master!r} has no pin {pin!r}", ("net", i, k)
            if (cid, pin) in seen:
                yield f"net {net.id!r} repeats terminal {cid}.{pin}", ("net", i, k)
            seen.add((cid, pin))


def validate(netlist: Netlist) -> list[str]:
    """The consistency errors of a netlist, such as one built in code: an id
    that holds a comma, a cell id that holds a dot, a repeated cell or net
    id, an unknown master, cell or pin, a net without terminals or with a
    repeated one.  Empty for a consistent netlist.  A dangling
    (single-terminal) net is no error: ``globalroute.route`` skips it with a
    warning."""
    return [message for message, _ in _errors(netlist)]


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
        if not math.isfinite(self.avg_pins_per_cell):
            raise ValueError(f"avg_pins_per_cell must be finite, got {self.avg_pins_per_cell}")
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

    # One output pin per cell: a net's driver is its first host whose output
    # no earlier net claimed, and every other terminal lands on a fresh input
    # pin.  A net's hosts are distinct cells.  A driven net lists its driver
    # first.
    claimed = [False] * n
    input_count = [0] * n
    net_terminals: list[list[tuple[int, str]]] = []
    for hosts in net_cells:
        terms: list[tuple[int, str]] = []
        di = -1
        for c in hosts:
            if di < 0 and not claimed[c]:
                claimed[c] = True
                di = len(terms)
                terms.append((c, "o"))
            else:
                input_count[c] += 1
                terms.append((c, f"i{input_count[c]}"))
        if di > 0:
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
