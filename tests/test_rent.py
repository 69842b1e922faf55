import math
import random

import mpmath
import pytest

from routekit import netlist as nl
from routekit import rent

P = rent.RentParams(r=0.75, a=3.0)


def mp_demand(e, r, a):
    """Arbitrary-precision evaluation of the pin-density -> demand chain."""
    with mpmath.workdps(60):
        g = (mpmath.mpf(e) / mpmath.mpf(a)) ** (1 / mpmath.mpf(r))
        return float(g ** (mpmath.mpf(r) - mpmath.mpf("0.5")))


def test_effective_pin_density_single_layer():
    assert rent.effective_pin_density(rent.PinDensityInput(1000, 100.0, 1)) == 10.0


def test_effective_pin_density_five_layers():
    assert rent.effective_pin_density(rent.PinDensityInput(1000, 100.0, 5)) == 2.0


def test_effective_pin_density_zero_pins():
    assert rent.effective_pin_density(rent.PinDensityInput(0, 100.0, 5)) == 0.0


def test_effective_pin_density_is_exact_division():
    a = rent.effective_pin_density(rent.PinDensityInput(12345, 77.0, 5))
    b = rent.effective_pin_density(rent.PinDensityInput(12345, 77.0, 1))
    assert a == b / 5


def test_pin_density_input_rejects_bad_values():
    with pytest.raises(ValueError):
        rent.PinDensityInput(10, 0.0, 1)
    with pytest.raises(ValueError):
        rent.PinDensityInput(10, 1.0, 0)
    with pytest.raises(ValueError):
        rent.PinDensityInput(-1, 1.0, 1)
    # a die area of nan gave nan densities and inf gave zeros
    for area in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"die area must be finite, got {area}"):
            rent.PinDensityInput(10, area, 1)


def test_cell_density_unity_at_average_pins():
    assert rent.cell_density(3.0, P) == 1.0


def test_cell_density_zero():
    assert rent.cell_density(0.0, P) == 0.0


def test_cell_density_high_precision():
    expected = float((mpmath.mpf(2) / 3) ** (mpmath.mpf(4) / 3))
    got = rent.cell_density(2.0, P)
    assert abs(got - expected) / expected < 1e-12


def test_routing_demand_unit_density():
    assert rent.routing_demand(1.0, P) == 1.0


def test_routing_demand_closed_form():
    assert rent.routing_demand(16.0, P) == pytest.approx(2.0, abs=1e-12)


def test_routing_demand_monotone():
    xs = [rent.routing_demand(g, P) for g in (0.5, 1, 2, 4, 8)]
    assert xs == sorted(xs)


def test_rent_params_reject_shallow_exponent():
    for r in (0.5, 0.49, 1.0):
        with pytest.raises(ValueError):
            rent.RentParams(r=r)


def test_demand_composition_matches_oracle():
    est = rent.demand_estimate(rent.PinDensityInput(2000, 1000.0, 1), P)
    expected = mp_demand(2.0, 0.75, 3.0)
    assert abs(est.demand - expected) / expected < 1e-12


def test_demand_random_inputs_against_oracle():
    rng = random.Random(99)
    for _ in range(100):
        e = rng.uniform(0.01, 50.0)
        r = rng.uniform(0.55, 0.95)
        a = rng.uniform(1.0, 6.0)
        params = rent.RentParams(r=r, a=a)
        got = rent.routing_demand(rent.cell_density(e, params), params)
        expected = mp_demand(e, r, a)
        assert abs(got - expected) / expected < 1e-10


def test_scale_invariance():
    base = rent.demand_estimate(rent.PinDensityInput(300, 50.0, 1), P)
    for k in (2, 10, 1000):
        scaled = rent.demand_estimate(rent.PinDensityInput(300 * k, 50.0 * k, 1), P)
        assert scaled.demand == pytest.approx(base.demand, rel=1e-12)


def test_demand_decreases_with_access_layers():
    demands = [
        rent.demand_estimate(rent.PinDensityInput(1000, 100.0, n), P).demand
        for n in (1, 2, 3, 5, 8)
    ]
    assert all(a > b for a, b in zip(demands, demands[1:]))


def test_compare_demand_self_baseline():
    designs = [("a", rent.PinDensityInput(100, 10.0, 1)),
               ("b", rent.PinDensityInput(100, 10.0, 1))]
    rows = rent.compare_demand(designs, P, "a")
    assert rows[0].demand_normalized == 1.0
    assert rows[1].demand_normalized == 1.0


def test_compare_demand_halved_area():
    designs = [("base", rent.PinDensityInput(900, 90.0, 1)),
               ("half", rent.PinDensityInput(900, 45.0, 1))]
    rows = rent.compare_demand(designs, P, "base")
    assert rows[1].demand_normalized == pytest.approx(2 ** (1 / 3), rel=1e-12)


def test_compare_demand_multilayer_small_area():
    # tenth of the area but five access layers: same 2x effective density
    designs = [("base", rent.PinDensityInput(900, 90.0, 1)),
               ("vert", rent.PinDensityInput(900, 9.0, 5))]
    rows = rent.compare_demand(designs, P, "base")
    assert rows[1].demand_normalized == pytest.approx(2 ** (1 / 3), rel=1e-12)


def test_compare_demand_ordering_follows_pin_density():
    designs = [("a", rent.PinDensityInput(500, 100.0, 1)),
               ("b", rent.PinDensityInput(900, 100.0, 1)),
               ("c", rent.PinDensityInput(700, 100.0, 1))]
    rows = rent.compare_demand(designs, P, "a")
    by_density = sorted(rows, key=lambda r: r.effective_pin_density)
    by_demand = sorted(rows, key=lambda r: r.demand_normalized)
    assert [r.label for r in by_density] == [r.label for r in by_demand]


def test_compare_demand_missing_baseline():
    with pytest.raises(ValueError, match="baseline 'zzz'"):
        rent.compare_demand([("a", rent.PinDensityInput(1, 1.0, 1))], P, "zzz")


def test_compare_demand_rejects_repeated_label():
    designs = [("x", rent.PinDensityInput(1, 1.0, 1)), ("x", rent.PinDensityInput(2, 1.0, 1))]
    with pytest.raises(ValueError, match="label 'x'"):
        rent.compare_demand(designs, P, "x")


def test_demand_table_csv_shape():
    rows = rent.compare_demand(
        [("a", rent.PinDensityInput(100, 10.0, 1)),
         ("b", rent.PinDensityInput(200, 10.0, 1))], P, "a")
    text = rent.demand_table_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "label,E_effective,G,l_normalized"
    assert lines[1].startswith("a,") and lines[1].endswith(",1")
    assert len(lines) == 3


# --- exponent extraction


def test_fit_recovers_planted_exponent():
    # Tight recovery holds from ~4096 cells (see the acceptance suite);
    # at 1024 this is a sanity band, dominated by top-cut variance.
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=1024, rent_exponent=0.75, seed=3))
    fit = rent.fit_rent_exponent(d, seed=0)
    assert 0.55 <= fit.exponent <= 0.92
    assert len(fit.levels) >= 3


def test_fit_is_deterministic(synth_1024):
    a = rent.fit_rent_exponent(synth_1024, seed=0)
    b = rent.fit_rent_exponent(synth_1024, seed=0)
    assert a.exponent == b.exponent
    assert a.levels == b.levels


def test_fit_levels_decrease_geometrically(synth_1024):
    fit = rent.fit_rent_exponent(synth_1024, seed=0)
    sizes = [g for g, _ in fit.levels]
    for a, b in zip(sizes, sizes[1:]):
        assert a == pytest.approx(2 * b)


def test_fit_rejects_small_netlists():
    d = nl.generate_synthetic(nl.SynthesisParams(num_cells=64, seed=0))
    with pytest.raises(ValueError, match="too small"):
        rent.fit_rent_exponent(d)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
def test_fit_tells_exponents_apart(seed):
    # Criterion 9 checks r = 0.75 alone; a fit that returns about 0.75 for
    # every netlist would pass it.  Four 4096-cell fits, about 7 s in all.
    def fit(r):
        design = nl.generate_synthetic(nl.SynthesisParams(num_cells=4096, rent_exponent=r,
                                                          seed=seed))
        return rent.fit_rent_exponent(design, seed=0).exponent

    low, high = fit(0.6), fit(0.9)
    assert low < 0.70 and high > 0.77, (low, high)
