"""Monotone variational inequality solvers built on target-corrected
mirror descent: a dual update preconditioned by a target-point mechanism,
landmark-algorithm presets expressed through one design tuple, and
geometric ensembles of mirror maps with a verified single-run reduction.
"""

from .errors import (ConfigurationError, DomainError, TargetMDError,
                     TargetResolutionError)
from .problems import (FeasibleSet, Tridiagonal, VIProblem, box,
                       check_monotonicity, estimate_lipschitz, library_problem,
                       natural_residual, project_simplex, simplex, whole_space)
from .geometry import (MirrorGeometry, bregman, entropy_geometry,
                       euclidean_geometry, softmax,
                       weighted_quadratic_geometry)
from .targets import (ClosedForm, ClosedFormGap, MirrorOfS, ResolventSolve,
                      SplitPair, TargetSpec, affine_box_split, preset_bnn,
                      preset_dmd_calibrated, preset_dr, preset_eg, preset_fb,
                      preset_fbf, preset_ppa, preset_vanilla_md,
                      resolve_target)
from .dynamics import (RunRecord, SolverState, dual_rate, flow,
                       initial_state, lyapunov_series, primal_vector_field,
                       relaxed_condition_value, run_discrete, run_dmd,
                       run_higher_order, run_vanilla_dmd, state_from_dual,
                       violation_band)
from .ensemble import (EnsembleMember, make_members, run_ensemble,
                       synthesized_geometry, verify_ensemble_reduction)
from .checks import run_condition_checks
from .config import ExperimentConfig, MemberConfig, echo_config, load_config, parse_config

__version__ = "0.1.0"
