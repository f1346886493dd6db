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

import importlib

__version__ = "0.1.0"

# Each exported name and its module. A name is imported on first use
# (PEP 562), so importing the package, or only its numpy-free modules,
# loads no numpy.
_EXPORTS = {
    "config": ("LearnerParams", "Method", "PreprocessConfig"),
    "corpus": (
        "DatasetSummary", "FeatureSchema", "Project", "dpr", "intersect_features", "load_arff",
        "load_csv", "summarize",
    ),
    "learner": ("Model", "apply_threshold", "predict_proba", "train"),
    "predictors": (
        "PredictionOutcome", "enumerate_pairs", "run_cpdp_pure", "run_ifs_min", "run_ifs_our",
        "run_mix",
    ),
    "preprocess": ("log_filter", "zscore"),
    "profiles": ("INDICATOR_NAMES", "characterize_instance", "characterize_project"),
    "stats": (
        "ComparisonResult", "ConfusionMatrix", "cliffs_delta", "pearson", "prf",
        "wilcoxon_signed_rank",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
