"""Unsupervised clustering of precomputed embeddings.

Three stages: multi-head clustering heads trained with a composite
pointwise-MI + cross-entropy objective over adaptive nearest neighbors,
NMI-maximizing consensus over all head labelings, and one round of
self-training on the consensus pseudo-labels.
"""

from .ensemble import anmi, cspa, mcla, supra_consensus
from .errors import ClusterensError, ConfigError, LoadError, StageError, TrainingError
from .featstore import (
    EmbeddingMatrix,
    NormStats,
    SynthSpec,
    apply_standardizer,
    fit_standardizer,
    gen_synthetic,
    load_features,
    save_features,
)
from .heads import HeadBank, TrainConfig, TrainReport, predict_labeling, train_heads
from .labeling import Labeling, canonicalize, load_labeling, save_labeling
from .metrics import MetricsReport, ari, clustering_accuracy, evaluate, hungarian, nmi
from .neighbors import (
    NeighborSets,
    NeighborStats,
    build_neighbor_sets,
    ground_truth_neighbors,
    neighbor_accuracy,
    sweep_neighbor_sets,
)
from .selftrain import Classifier, SelfTrainConfig, predict, self_train

__version__ = "0.1.0"

__all__ = [
    "ClusterensError", "ConfigError", "LoadError", "StageError", "TrainingError",
    "EmbeddingMatrix", "NormStats", "SynthSpec",
    "apply_standardizer", "fit_standardizer", "gen_synthetic",
    "load_features", "save_features",
    "Labeling", "canonicalize", "load_labeling", "save_labeling",
    "NeighborSets", "NeighborStats", "build_neighbor_sets",
    "ground_truth_neighbors", "neighbor_accuracy", "sweep_neighbor_sets",
    "HeadBank", "TrainConfig", "TrainReport", "train_heads", "predict_labeling",
    "anmi", "cspa", "mcla", "supra_consensus",
    "MetricsReport", "ari", "clustering_accuracy", "evaluate", "hungarian", "nmi",
    "Classifier", "SelfTrainConfig", "self_train", "predict",
    "__version__",
]
