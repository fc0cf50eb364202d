"""Secrecy and reliable rate regions for multi-user wiretap interference
channels whose receivers split power between detection and harvesting."""

from .linalg import inv_quadratic_form, log2_det, rank_one_update_sum
from .metrics import (EnergyVector, eve_rate_chain, eve_sum_rate,
                      harvested_energies, legitimate_rates, secrecy_corner,
                      subset_constraints_satisfied)
from .model import (ConfigError, DecodingOrder, EnergyModel, InfeasibleError,
                    NumericalFailureError, OperatingPoint, SystemConfig,
                    Weights, config_from_dict, config_to_dict, load_scenario,
                    save_scenario)
from .region import (BoundaryPoint, OracleResult, RegionBoundary, hull_height,
                     oracle_grid_search, render_rates, sweep, time_share_hull)
from .solver import (RELIABLE, SECURE, GpInstance, Posynomial, SolveReport,
                     build_gp, condense, iterate, solve_gp)

__version__ = "0.1.0"
