"""Zeroth-order optimization toolkit built around low-rank gradient estimation.

Core pieces: dense ParamSet containers (linalg), seed-replay perturbation
sampling (sampling), the perturbation core and CGE (estimators), the lazy
subspace optimizer and its momentum variant (optimizers), an independent
subspace-method oracle (subspace), synthetic test problems (problems), and a
benchmark/verification CLI (cli).
"""

from .estimators import EvaluationError, cge, lge_scalar
from .linalg import (
    LayerShape,
    ParamSet,
    frobenius_norm,
    numeric_rank,
    top_singular_values,
)
from .optimizers import (
    LozoState,
    MomentumState,
    OptimizerConfig,
    RunRecord,
    StepError,
    iter_run,
    lozo_step,
    project_momentum,
    run,
    state_footprint,
    vanilla_lge_step,
    zo_sgd_step,
)
from .problems import (
    LossOracle,
    ProblemSpec,
    gradient_rank_profile,
    make_logistic,
    make_planted_low_rank,
    make_problem,
    make_quadratic,
    make_tiny_mlp,
)
from .sampling import (
    SamplerKind,
    derive_seed,
    sample_gaussian,
    sample_v,
)
from .subspace import SubspaceState, least_squares_projection, run_subspace_method

__version__ = "0.1.0"
