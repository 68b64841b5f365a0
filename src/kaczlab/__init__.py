"""Randomized block Kaczmarz solvers with extrapolated stepsizes.

The package splits into the dense kernel (:mod:`kaczlab.linalg`), the row
sampling machinery (:mod:`kaczlab.sampling`), stepsize policies and the
Chebyshev toolkit (:mod:`kaczlab.stepsize`), the iteration kernels
(:mod:`kaczlab.kernels`), the lockstep engine that runs one or many trials
(:mod:`kaczlab.engine`), solver configuration, run records and the
Monte-Carlo harness (:mod:`kaczlab.solver`), conditioning analysis
(:mod:`kaczlab.analysis`), problem generators (:mod:`kaczlab.problems`),
the JSON kind registries (:mod:`kaczlab.kinds`), and the command-line
harness (:mod:`kaczlab.cli`).
"""

from .analysis import (
    ConditioningReport,
    PavingQuality,
    RatePrediction,
    block_lambda_max,
    build_conditioning_report,
    build_W,
    paving_quality,
    predict_rates,
)
from .errors import (
    BadBlockCountError,
    BadDimensionsError,
    BadIntervalError,
    BadSpectrumError,
    ConfigMismatchError,
    InconsistentSystemError,
    KaczlabError,
    MissingSpectrumError,
    NonPositiveConditioningError,
    NotNormalizedError,
    NotSquareError,
    NotSymmetricError,
    TooLargeError,
    ZeroRowError,
)
from .linalg import (
    LinearSystem,
    RowScaling,
    SolutionProjector,
    SpectralSummary,
    least_squares_min_norm,
    normalize_rows,
    project_onto_solution_set,
    spectral_norm_sq,
    sym_eigenvalues,
)
from .problems import (
    CoherentRows,
    GaussianNormalized,
    OrthonormalBlocks,
    ProblemRecipe,
    RankDeficient,
    aligned_partition,
    generate_problem,
    parse_recipe,
)
from .sampling import (
    Partition,
    Paving,
    SamplingSpec,
    UniformSubset,
    build_random_paving,
    enumerate_supports,
    frobenius_partition,
    full_batch,
    membership_probability,
    partition_spec,
    paving_from_json,
    paving_to_json,
    sample_block,
)
from .solver import (
    IterationEvent,
    MonteCarloSummary,
    SolverConfig,
    SolverTrace,
    basic_kaczmarz_step,
    block_projection_step,
    config_from_dict,
    config_to_dict,
    rbk_step,
    run_monte_carlo,
    run_solver,
    split_seed,
)
from .stepsize import (
    Adaptive,
    AdaptiveStep,
    ChebyshevPD,
    ChebyshevSchedule,
    ChebyshevSingular,
    ClassicConstant,
    ExtrapolatedConstant,
    StepsizePolicy,
    WeightScheme,
    adaptive_alpha,
    chebyshev_eval,
    chebyshev_roots,
    chebyshev_schedule_pd,
    chebyshev_schedule_singular,
    constant_extrapolated_alpha,
    explicit_weights,
    identity_permutation,
    min_deviation_bound,
    random_permutation,
    row_norm_sq_weights,
    stable_permutation,
    uniform_weights,
)

__version__ = "0.1.0"
