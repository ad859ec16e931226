"""Point configurations with small Riesz energy near compact sets, and
quantitative equidistribution diagnostics for Newtonian equilibria."""

__version__ = "0.1.0"

from .errors import (
    CoincidentPointsError,
    InfeasiblePointError,
    MissingHolderDataError,
    RieszPointsError,
    SetDefinitionError,
    UnsupportedOracleError,
)
from .kernel import KernelSpec
from .sets import (
    CompactSetModel,
    ball,
    box,
    distance_to_set,
    parse_set_definition,
    project_to_set,
    sample_candidates,
    sphere_surface,
    union_of_balls,
)
from .measures import (
    PointConfig,
    discrete_energy,
    discrete_potential,
    read_points_csv,
    write_points_csv,
)
from .configurations import (
    FeketeRun,
    FeketeSearchParams,
    fekete_search_run,
    leja_sequence,
    random_config,
)
from .discrepancy import (
    DiscrepancyReport,
    EquilibriumOracle,
    TestFunction,
    closeness_m_E,
    equilibrium_oracle,
    moment_distance,
    phi_for_potential,
    radial_hat,
    sup_potential_deficit,
    discrepancy_bound,
    potential_error,
)

__all__ = [
    # errors
    "CoincidentPointsError",
    "InfeasiblePointError",
    "MissingHolderDataError",
    "RieszPointsError",
    "SetDefinitionError",
    "UnsupportedOracleError",
    # kernel
    "KernelSpec",
    # sets
    "CompactSetModel",
    "ball",
    "box",
    "distance_to_set",
    "parse_set_definition",
    "project_to_set",
    "sample_candidates",
    "sphere_surface",
    "union_of_balls",
    # measures
    "PointConfig",
    "discrete_energy",
    "discrete_potential",
    "read_points_csv",
    "write_points_csv",
    # configurations
    "FeketeRun",
    "FeketeSearchParams",
    "fekete_search_run",
    "leja_sequence",
    "random_config",
    # discrepancy
    "DiscrepancyReport",
    "EquilibriumOracle",
    "TestFunction",
    "closeness_m_E",
    "equilibrium_oracle",
    "moment_distance",
    "phi_for_potential",
    "radial_hat",
    "sup_potential_deficit",
    "discrepancy_bound",
    "potential_error",
]
