"""routekit: placement, global routing, and routability analysis for
planar CMOS, transistor-level monolithic 3D, and Skybridge-3D-CMOS fabrics."""

from .fabric import (
    CellEnergyEntry,
    CellMaster,
    FabricKind,
    FabricSpec,
    PinDef,
    RoutingLayer,
    bind_masters,
    builtin_fabric,
    load_fabric,
    make_cell_master,
)
from .globalroute import (
    CongestionMap,
    NetRoute,
    RouteParams,
    RoutingGraph,
    build_grid,
    demand_resource_ratios,
    route,
    terminal_gcells,
)
from .flow import JobResult, JobSpec, place_job, route_job, run_job
from .metrics import BenchmarkReport, PowerParams
from .netlist import (
    Net,
    CellInstance,
    Netlist,
    SynthesisParams,
    generate_synthetic,
    parse_netlist,
    serialize_netlist,
    validate,
)
from .placement import Die, Placement, hpwl, place, size_die
from .rent import (
    DemandEstimate,
    PinDensityInput,
    RentParams,
    cell_density,
    compare_demand,
    effective_pin_density,
    fit_rent_exponent,
    routing_demand,
)

__version__ = "0.1.0"
