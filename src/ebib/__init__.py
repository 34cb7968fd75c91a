"""Empirical-Bayes hyperparameter selection by maximum marginal likelihood,
with oracle and posterior-merging diagnostics."""

from .errors import (
    AccuracyError,
    CapabilityError,
    CapacityError,
    DegenerateOracleError,
    DomainError,
    EbibError,
    EstimationError,
    InsufficientDataError,
    NonDifferentiableError,
    SamplerError,
)
from .models import (
    BayesLasso,
    Dataset,
    GaussMixtureKnownK,
    GPriorParams,
    GPriorRegression,
    IndepNormalRegression,
    MarkovDirichlet,
    MixtureParams,
    NormalMean,
    OverfittedMixture,
    RegressionParams,
    load_counts_csv,
    load_dataset_csv,
)

__version__ = "0.1.0"
