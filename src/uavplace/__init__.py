"""3D placement of a single aerial base station maximizing covered users.

The package splits into: the air-to-ground link budget (``channel``),
coverage-radius and altitude optimization for one threshold (``radius``),
exact horizontal placement over classed users (``placement``), the three
altitude-selection strategies (``algorithms``), a seeded Monte Carlo harness
(``sim``), and the command-line front end (``cli``).
"""

from .algorithms import (
    AlgorithmResult,
    AltitudeGrid,
    exhaustive_search,
    lq_place,
    mwa_altitude,
    mwa_place,
)
from .channel import (
    URBAN,
    Environment,
    QosClass,
    RadioConfig,
    loss_threshold,
    los_probability,
    mean_path_loss,
    sort_classes,
)
from .errors import InfeasibleThresholdError, InputError
from .placement import (
    GEOM_SLACK,
    PlacementSolution,
    User,
    evaluate_center,
    solve_exact,
)
from .radius import (
    AltitudeBracket,
    OptimalPoint,
    altitude_bracket,
    coverage_radius,
    coverage_radius_profile,
    optimal_elevation,
    optimal_pair,
)
from .sim import (
    CdfSeries,
    Scenario,
    SweepPoint,
    TrialRecord,
    cdf,
    generate_users,
    run_trials,
    sweep_rho,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmResult",
    "AltitudeBracket",
    "AltitudeGrid",
    "CdfSeries",
    "Environment",
    "GEOM_SLACK",
    "InfeasibleThresholdError",
    "InputError",
    "OptimalPoint",
    "PlacementSolution",
    "QosClass",
    "RadioConfig",
    "Scenario",
    "SweepPoint",
    "TrialRecord",
    "URBAN",
    "User",
    "altitude_bracket",
    "cdf",
    "coverage_radius",
    "coverage_radius_profile",
    "evaluate_center",
    "exhaustive_search",
    "generate_users",
    "loss_threshold",
    "los_probability",
    "lq_place",
    "mean_path_loss",
    "mwa_altitude",
    "mwa_place",
    "optimal_elevation",
    "optimal_pair",
    "run_trials",
    "solve_exact",
    "sort_classes",
    "sweep_rho",
]
