"""Robust Wasserstein distances with adversarial Mahalanobis ground metrics.

The package computes transport distances whose ground metric is chosen
adversarially from a constrained family (elementwise p-norm ball, KL ball
around a reference, doubly stochastic KL ball), all with closed-form inner
maximizers. On top of the distances sit a label-embedding training loss, a
linear softmax classifier trained with it, and file/CLI plumbing. The loss
gradient is ``lambda_beta (f - mean f)``, with ``f`` the oracle's row
log-potential: the gradient of the ``lambda_beta``-smoothed surrogate, not
an exact gradient of the reported value. At the defaults, on random 5-label
problems, its median relative error against central differences of that
value is 0.23.
"""

from .classifier import (
    EvalMetrics,
    SoftmaxModel,
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    evaluate,
    load_model,
    save_model,
    sgd_train,
)
from .data_io import (
    Dataset,
    load_dataset,
    load_embedding_file,
    load_embeddings,
    make_grouping,
    save_features,
    save_labels,
)
from .frank_wolfe import FWConfig, RotResult, rot_distance
from .measures import (
    DiscreteMeasure,
    FeatureGrouping,
    TransportPlan,
    displacement_second_moment,
    make_measure,
)
from .metric_solvers import (
    AdversarialMetric,
    DSConfig,
    KLConfig,
    MetricSolverConfig,
    PNormConfig,
    adversarial_value,
    feature_selection_objective,
    feature_weights,
)
from .rot_loss import (
    LabelSpace,
    rot_loss,
    rot_loss_gradient,
)
from .sinkhorn import SinkhornConfig, SinkhornConvergenceError

__version__ = "0.1.0"

__all__ = [
    "AdversarialMetric",
    "Dataset",
    "DiscreteMeasure",
    "DSConfig",
    "EvalMetrics",
    "FeatureGrouping",
    "FWConfig",
    "KLConfig",
    "LabelSpace",
    "MetricSolverConfig",
    "PNormConfig",
    "RotResult",
    "SinkhornConfig",
    "SinkhornConvergenceError",
    "SoftmaxModel",
    "TrainConfig",
    "TrainingDivergedError",
    "TrainResult",
    "TransportPlan",
    "adversarial_value",
    "displacement_second_moment",
    "evaluate",
    "feature_selection_objective",
    "feature_weights",
    "load_dataset",
    "load_embedding_file",
    "load_embeddings",
    "load_model",
    "make_grouping",
    "make_measure",
    "rot_distance",
    "rot_loss",
    "rot_loss_gradient",
    "save_features",
    "save_labels",
    "save_model",
    "sgd_train",
]
