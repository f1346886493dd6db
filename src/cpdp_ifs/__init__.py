"""Cross-project defect prediction with imbalanced feature sets.

Defect data sets published by different groups rarely share a metric set, so a
classifier trained on one project cannot be applied to another directly. This
package maps every instance onto a fixed 16-indicator profile of its own
feature distribution, which makes source and target projects comparable no
matter how many metrics each one ships with. It also provides the
feature-intersection baseline, a hybrid OR-fused predictor, and the
nonparametric comparison machinery (Wilcoxon signed-rank, Cliff's delta,
defect-proportion-ratio analysis) used to evaluate them.
"""

from cpdp_ifs.corpus import (
    DatasetSummary,
    FeatureSchema,
    Project,
    intersect_features,
    load_arff,
    load_csv,
    summarize,
)
from cpdp_ifs.learner import LearnerParams, Model, apply_threshold, predict_proba, train
from cpdp_ifs.predictors import (
    Method,
    PredictionOutcome,
    enumerate_pairs,
    run_cpdp_pure,
    run_ifs_min,
    run_ifs_our,
    run_mix,
)
from cpdp_ifs.preprocess import PreprocessConfig, log_filter, zscore
from cpdp_ifs.profiles import INDICATOR_NAMES, characterize_instance, characterize_project
from cpdp_ifs.stats import (
    ComparisonResult,
    ConfusionMatrix,
    cliffs_delta,
    dpr,
    pearson,
    prf,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonResult",
    "ConfusionMatrix",
    "DatasetSummary",
    "FeatureSchema",
    "INDICATOR_NAMES",
    "LearnerParams",
    "Method",
    "Model",
    "PredictionOutcome",
    "PreprocessConfig",
    "Project",
    "apply_threshold",
    "characterize_instance",
    "characterize_project",
    "cliffs_delta",
    "dpr",
    "enumerate_pairs",
    "intersect_features",
    "load_arff",
    "load_csv",
    "log_filter",
    "pearson",
    "predict_proba",
    "prf",
    "run_cpdp_pure",
    "run_ifs_min",
    "run_ifs_our",
    "run_mix",
    "summarize",
    "train",
    "wilcoxon_signed_rank",
    "zscore",
]
