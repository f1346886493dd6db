"""Cross-project defect prediction with imbalanced feature sets.

Defect data sets published by different groups rarely share a metric set, so a
classifier trained on one project cannot be applied to another directly. This
package maps every instance onto a fixed 16-indicator profile of its own
feature distribution, which makes source and target projects comparable no
matter how many metrics each one ships with. It also provides the
feature-intersection baseline, a hybrid OR-fused predictor, and the
nonparametric comparison machinery (Wilcoxon signed-rank, Cliff's delta,
defect-proportion-ratio analysis) used to evaluate them.

Each name is imported from the module that defines it: ``config`` (config
types and reader), ``corpus`` (data sets, schemas, DPR), ``preprocess``,
``profiles``, ``learner``, ``predictors`` (the four prediction routes),
``stats``, ``experiment`` (run and report) and ``cli``. Importing the package
loads none of them.
"""

__version__ = "0.1.0"
