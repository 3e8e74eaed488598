"""Spectral regularization learning with random feature approximation."""

__version__ = "0.1.0"

from .features import (
    FeatureMap,
    MemoryBudgetError,
    feature_matrix,
    sample_feature_map,
)
from .filters import (
    AuditReport,
    DivergenceError,
    Heavyball,
    Landweber,
    SpectralCutoff,
    SpectralFilter,
    Tikhonov,
    audit_filter,
    make_filter,
    qualification_sufficient,
)
from .estimator import (
    Moments,
    RfModel,
    assemble_empirical_operators,
    fit_iterative,
    fit_spectral,
    load_model,
    mse,
    predict,
    save_model,
)
from .diagnostics import (
    DesignerKernel,
    DesignerProblem,
    compute_f_star,
    effective_dimension,
    excess_risk_exact,
    krr_gram_fit,
    krr_predict,
    make_designer_problem,
    proof_bounds,
    sample_dataset,
)
from .harness import (
    ExperimentPlan,
    default_heatmap_plan,
    default_rate_plan,
    ingest_csv_dataset,
    lambda_schedule,
    m_schedule,
    run_heatmap,
    run_plateau_check,
    run_rate_sweep,
    trial_seed,
)
