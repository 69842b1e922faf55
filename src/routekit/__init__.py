"""routekit: placement, global routing, and routability analysis for
planar CMOS, transistor-level monolithic 3D, and Skybridge-3D-CMOS fabrics."""
