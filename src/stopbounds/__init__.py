"""Bounds on expected stopping times of i.i.d. walks and Brownian motion.

The package represents stopping rules geometrically: a walk continues while
the pair (sample size, running sum) stays in a continuity region, or stops
on first entry of a stopping region.  Convexity of the region closure turns
moment information about the increments into computable upper and lower
bounds on the expected stopping time, and every bound ships with a Monte
Carlo certification harness.
"""

from .bounds import (
    ALL_TAGS,
    THEOREMS,
    AssumptionCheck,
    BoundReport,
    Premises,
    concentration_upper_bound,
    gradient_upper_bound,
    hyperplane_vertex_upper_bound,
    lorden_hyperplane_upper_bound,
    overshoot_upper_bound,
    sample_mean_upper_bound,
    slab_optimization_upper_bound,
    stopping_region_lower_bound,
    wald_lower_bound,
)
from .geometry import (
    EmptySliceError,
    GradientDomainError,
    Hyperplane,
    NonConvexityError,
    NoRayExitError,
    Region,
    affine_region,
    constant_region,
    halfspace_region,
    hyperplane_slice_distance,
    log_exit_gradient,
    mean_ray_crossing,
    power_region,
    ray_entry_and_exit,
    ray_exit_time,
    slice_distance,
    supporting_hyperplane,
)
from .harness import BrownianBundle, ScenarioBundle, bound_report, brownian_report, certify
from .moments import (
    DistributionSpec,
    MomentProfile,
    ParameterError,
    analytic_moments,
    bernoulli_affine,
    exponential,
    gaussian,
    point_mass,
    product,
    sample,
    sample_block,
    stream_for_run,
    uniform_interval,
)
from .optimize import (
    ProvisoViolatedError,
    Slab,
    max_concave_over_box,
    max_time_in_region,
    vertex_fraction_max,
)
from .schedules import (
    SampleSchedule,
    ScheduleAudit,
    arithmetic,
    audit_assumptions,
    explicit,
    gap_supremum,
    geometric,
    naturals,
    tau_index,
)
from .simulate import (
    AllTruncatedError,
    PathSample,
    SimulationEstimate,
    discrete_paths,
    replay_run,
    run_brownian,
    run_discrete,
    validate_convex_mean,
    validate_identity,
    validate_perspective,
)

__version__ = "0.1.0"
