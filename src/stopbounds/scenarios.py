"""Built-in scenario matrix used by the certification suite and the docs.

Thirteen discrete scenarios span constant, affine and square-root
boundaries, the four increment families, and the three schedule kinds; a
few deliberately request bounds whose provisos fail so that flagged rows
stay exercised.  Brownian, overshoot and identity cases live here too.
"""

from __future__ import annotations

from .geometry import affine_region, constant_region, halfspace_region, power_region
from .harness import BrownianBundle, ScenarioBundle
from .moments import bernoulli_affine, exponential, point_mass, product, uniform_interval
from .schedules import arithmetic, geometric, naturals


def certification_matrix(n_runs: int = 100_000):
    """The scenario matrix with the theorem tags each scenario certifies."""
    rows = []

    def add(name, spec, region, schedule, tags, overshoot=None):
        rows.append({
            "bundle": ScenarioBundle(name, spec, region, schedule, n_runs=n_runs),
            "tags": tags,
            "overshoot_level": overshoot,
        })

    base = ("T8-lower", "T10-upper", "T14-hyperplane", "T-UseWald-lower")
    nat_extra = ("T13-samplemean-naturals", "T16-chenlorden-I", "T16-chenlorden-II",
                 "T16-chenlorden-III", "T17-gradient", "vipformula")
    bounded_extra = ("T11-upper-bounded", "T15-hyperplane-bounded",
                     "T18-concentration", "T19-concentration-hyperplane")

    # constant boundaries
    add("const-pointmass-naturals", point_mass(1.0),
        constant_region(5.0, "le", "continuity"), naturals(),
        base + nat_extra + bounded_extra)
    add("const-bernoulli-naturals", bernoulli_affine(0, 1, 0.5),
        constant_region(5.0, "le", "continuity"), naturals(),
        base + nat_extra + bounded_extra)
    add("const-bernoulli-arith", bernoulli_affine(0, 1, 0.5),
        constant_region(5.0, "le", "continuity"), arithmetic(2, 2),
        base + bounded_extra + ("T12-samplemean", "T-try88-bounded"))
    add("const-uniform-geometric", uniform_interval(0.0, 1.0),
        constant_region(6.0, "le", "continuity"), geometric(1, 2.0),
        base + ("T11-upper-bounded", "T15-hyperplane-bounded",
                "T18-concentration", "T19-concentration-hyperplane"))
    add("const-exponential-naturals", exponential(1.0),
        constant_region(5.0, "le", "continuity"), naturals(),
        base + nat_extra + ("T11-upper-bounded", "T15-hyperplane-bounded",
                            "Lorden-T6", "Lorden-T7"),
        overshoot=5.0)
    add("const-bernoulli-stopping", bernoulli_affine(0, 1, 0.5),
        constant_region(5.0, "ge", "stopping"), naturals(),
        base + nat_extra + bounded_extra + ("Lorden-T6",), overshoot=5.0)

    # affine boundaries
    add("affine-bernoulli-naturals", bernoulli_affine(0, 1, 0.25),
        affine_region(0.5, -1.0, "ge", "continuity"), naturals(),
        base + nat_extra + bounded_extra)
    add("affine-uniform-arith", uniform_interval(0.0, 0.5),
        affine_region(0.5, -1.5, "ge", "continuity"), arithmetic(2, 2),
        base + bounded_extra + ("T12-samplemean", "T-try88-bounded"))
    add("affine-pointmass-arith", point_mass(0.5),
        affine_region(0.25, 2.0, "le", "continuity"), arithmetic(1, 3),
        base + ("T11-upper-bounded", "T15-hyperplane-bounded",
                "T18-concentration", "T19-concentration-hyperplane"))

    # square-root boundaries; the reciprocal ray rule is strictly convex
    # here, so the Wald-style lower bound is inapplicable
    sqrt_base = ("T8-lower", "T10-upper", "T14-hyperplane")
    add("sqrt-pointmass-naturals", point_mass(1.0),
        power_region(2.0, 0.5, "le", "continuity"), naturals(),
        sqrt_base + ("T16-chenlorden-I", "T16-chenlorden-II", "T16-chenlorden-III",
                     "T17-gradient", "vipformula", "T11-upper-bounded",
                     "T15-hyperplane-bounded", "T18-concentration",
                     "T19-concentration-hyperplane"))
    add("sqrt-bernoulli-naturals", bernoulli_affine(0, 1, 0.5),
        power_region(2.0, 0.5, "le", "continuity"), naturals(),
        sqrt_base + ("T-UseWald-lower", "T16-chenlorden-I", "T16-chenlorden-II",
                     "T16-chenlorden-III", "T17-gradient", "vipformula",
                     "T11-upper-bounded", "T15-hyperplane-bounded",
                     "T18-concentration", "T19-concentration-hyperplane"))
    add("sqrt-exponential-naturals", exponential(1.0),
        power_region(2.0, 0.5, "le", "continuity"), naturals(),
        sqrt_base + ("T16-chenlorden-I", "T16-chenlorden-II", "T17-gradient",
                     "vipformula", "T15-hyperplane-bounded"))
    add("sqrt-uniform-geometric", uniform_interval(0.0, 1.0),
        power_region(2.0, 0.5, "le", "continuity"), geometric(1, 2.0),
        sqrt_base + ("T11-upper-bounded", "T15-hyperplane-bounded",
                     "T18-concentration", "T19-concentration-hyperplane"))
    return rows


def brownian_cases(n_runs: int = 30_000):
    """Continuous-time cases: drift-only exactness plus a diffusive passage."""
    return [
        {
            "bundle": BrownianBundle("brown-drift-only",
                                     constant_region(4.0, "le", "continuity"),
                                     drift=0.5, diffusion=0.0, dt=1.0 / 128.0,
                                     n_runs=256, horizon=64.0),
            "tags": ("Brown1", "Brown3", "Brown4"),
        },
        {
            "bundle": BrownianBundle("brown-diffusive",
                                     constant_region(4.0, "le", "continuity"),
                                     drift=0.5, diffusion=1.0, dt=0.01,
                                     n_runs=n_runs, horizon=400.0),
            "tags": ("Brown1", "Brown3", "Brown4"),
        },
        {
            "bundle": BrownianBundle("brown-stopping-line",
                                     affine_region(1.0, 10.0, "ge", "stopping"),
                                     drift=2.0, diffusion=1.0, dt=0.02,
                                     n_runs=20_000, horizon=400.0),
            "tags": ("Brown2-lower", "Brown2-upper"),
        },
    ]


def identity_cases():
    """Scenarios for the generalized equality/inequality validators."""
    wald_scenarios = [
        {"name": "wald-bernoulli-threshold",
         "spec": bernoulli_affine(0, 1, 0.5),
         "region": constant_region(5.0, "ge", "stopping"),
         "schedule": naturals()},
        {"name": "wald-exponential-threshold",
         "spec": exponential(1.0),
         "region": constant_region(5.0, "le", "continuity"),
         "schedule": naturals()},
        {"name": "wald-uniform-geometric",
         "spec": uniform_interval(0.0, 1.0),
         "region": constant_region(6.0, "ge", "stopping"),
         "schedule": geometric(1, 2.0)},
    ]
    lp_scenario = {
        "name": "lp-product-bernoulli",
        "spec": product([bernoulli_affine(0, 1, 0.5), bernoulli_affine(0, 1, 0.5)]),
        "region": halfspace_region([1.0, 1.0], 0.0, 8.0, "ge", "stopping"),
        "schedule": naturals(),
    }
    return {"wald": wald_scenarios, "lp": lp_scenario}
