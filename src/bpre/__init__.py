"""Simulation and exact analysis of subcritical branching processes in iid
random environments: survival asymptotics, conditioned lineage counts,
environment selection under conditioning, quasistationary distributions,
the survival-conditioned chain, and the log-mean random walk statistics
that drive all of it.
"""

__version__ = "0.1.0"

from .environment import (
    EnvironmentModel,
    EnvSequence,
    builtin_model,
    draw_env,
    env_expectation,
    is_ref,
    ss_ref,
    tilt,
    ws_ref,
)
from .errors import (
    BpreError,
    ConditioningStarvationError,
    CrossCheckError,
    DegenerateTiltError,
    NonLatticeError,
    NotSubcriticalError,
    PopulationCapError,
    ValidationError,
)
from .lfexact import (
    QuenchedSurvival,
    iterate_F,
    lf_minorant,
    quenched_survival,
)
from .offspring import (
    FiniteSupport,
    LinearFractional,
    OffspringLaw,
    lf_from_moments,
    moments,
    pgf,
    sample,
)
from .regime import RegimeReport, classify, solve_alpha, solve_gamma_tilde
from .simcore import (
    EstimateWithCI,
    alpha_k_curve,
    annealed_survival,
    conditional_env_survival,
    conditional_lineage_counts,
    inclusion_exclusion_check,
    joint_survival,
)
from .rwalk import (
    WalkPath,
    WalkStats,
    ln_tail,
    ln_tail_exact,
    occupation_tail,
    reflected_sum_check,
    walk_stats,
)
from .limits import (
    EnvPosterior,
    QKernelRow,
    QProcessRun,
    YaglomEstimate,
    env_posterior,
    functional_residual,
    qprocess_kernel,
    qprocess_run,
    yaglom,
)
