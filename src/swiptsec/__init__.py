"""Secrecy and reliable rate regions for multi-user wiretap interference
channels whose receivers split power between detection and harvesting."""

from .linalg import (DimensionMismatchError, NonFiniteError,
                     NotPositiveDefiniteError, inv_quadratic_form, log2_det,
                     rank_one_update_sum)
from .metrics import (EmptySubsetError, EnergyVector, RateTuple,
                      TooManyUsersError, eve_rate_chain, eve_sum_rate,
                      harvested_energies, harvested_energy, legitimate_rate,
                      legitimate_rates, secrecy_corner,
                      subset_constraints_satisfied)
from .model import (ConfigError, DecodingOrder, EnergyModel,
                    InvalidPermutationError, OperatingPoint, SystemConfig,
                    Weights, config_from_dict, config_to_dict,
                    config_violations, load_scenario, save_scenario,
                    validate_config)
from .region import (BoundaryPoint, EmptyInputError, NoFeasiblePointError,
                     OracleResult, RegionBoundary, hull_height,
                     oracle_grid_search, render_rates, sweep, time_share_hull)
from .solver import (RELIABLE, SECURE, GpInstance, InfeasibleAnchorError,
                     InfeasibleError, NonPositiveAnchorError,
                     NonPositiveTermError, NumericalFailureError, Posynomial,
                     SolveReport, build_gp, condense, iterate,
                     posynomial, solve_gp)

__version__ = "0.1.0"
