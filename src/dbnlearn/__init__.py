"""Dynamic Bayesian network structure and parameter learning toolkit."""

from .core import (
    ConfigError, Cpt, CycleError, DbnError, DbnStructure, Domain, FactoredCpt, FamilySpec,
    LinearGaussian, Logistic, NoisyOr, ParameterSet, Parent, TrajectoryDataset,
    configuration_index, is_acyclic, parents_of, topological_order,
)
from .acyclicity import h_expm_and_grad, threshold_and_repair
from .scoring import (
    BgeHyper, CountTable, DirichletPrior, FamilyScorer,
    bde_family_score, bge_family_score, count_transitions, dump_scores, family_score,
    fit_linear_gaussian, information_criterion, loglik_cpt, loglik_gaussian, mle_cpt,
)
from .simulate import (
    FAVORABLE_REGIME, HIGH_DIMENSIONAL_REGIME, EdgeProbs, GeneratorConfig,
    RegimeSpec, regime_datasets, sample_random_dbn, sample_trajectories,
)
from .learn import (
    BoundedConfig, ContinuousConfig, LearnerReport, SearchConfig,
    bounded_oneshot, continuous_oneshot, exact_search, hill_climb, run_learner,
)
from .evaluate import (
    BenchmarkResult, EdgeUniverse, EvalReport, auroc, holdout_loglik,
    run_benchmark, shd, temporal_split,
)

__version__ = "0.1.0"
