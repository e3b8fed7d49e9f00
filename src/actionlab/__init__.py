"""actionlab: a Monte Carlo laboratory for variational calculus on laws of
continuous semi-martingales.

The package simulates candidate laws, evaluates Lagrangian actions, applies
adapted path-space perturbations and space maps with their
exact characteristic formulas, and statistically certifies or refutes the
martingale condition behind the least action principle, together with its
symmetry invariants, on concrete constructions (pinned diffusions, entropic
bridges, coupled forward-backward systems, a decaying vortex flow).
"""

from .paths import (TimeGrid, SemimartingaleModel, PathEnsemble, LawRecipe,
                    simulate, estimate_characteristics, adaptedness_probe,
                    export_paths_csv, SimulationError, RankDeficiencyError)
from .shifts import (AdaptedShift, MaterializedShift, materialize, h_norm_sq,
                     h_dist_sq, delay_pn, endpoint_qn, endpoint_rn, stop_truncate,
                     stop_norm_sq, GridCompatibilityError, EndpointError)
from .lagrangians import Lagrangian, ActionEstimate, action, path_actions, \
    el_process
from .transform import SpaceTimeMap, push_shift, lift
from .diagnostics import (MartingaleReport, martingale_test, el_certify,
                          variational_derivative,
                          drift_representation_check, NoetherFamily,
                          noether_invariant, el_constancy, PowerError)
from .bridge import (BridgeProblem, sinkhorn_bridge, bridge_to_model,
                     gaussian_marginal, delta_marginal, FbsdeSpec,
                     FbsdeRecipe, fbsde_simulate, navier_stokes_residual)
from . import catalog

__version__ = "0.1.0"
