"""From-scratch ML stack used by the attack pipeline.

Implements everything the paper's §VI and §VIII-D need without
scikit-learn: Random Forest (the chosen classifier), kNN, multinomial
logistic regression and a small CNN (the Table VIII baselines), DTW
(the correlation attack's similarity), plus metrics and
cross-validation utilities.
"""

from .base import Classifier, LabelEncoder, check_fit_inputs
from .crossval import (cross_validate, k_fold_indices, train_test_split,
                       tune_knn_k)
from .dtw import (dtw_alignment, dtw_distance, dtw_distance_batch,
                  similarity_score, similarity_score_batch)
from .forest import RandomForest
from .knn import KNearestNeighbors
from .logistic import (BinaryLogisticRegression, LogisticRegression, softmax)
from .metrics import (ClassScores, accuracy, classification_report,
                      confusion_matrix, macro_f_score, per_class_scores,
                      weighted_accuracy, weighted_f_score)
from .neural import ConvNet
from .persistence import (forest_from_dict, forest_to_dict, tree_from_dict,
                          tree_to_dict)
from .tables import ForestTable, TreeTable
from .tree import DecisionTree

__all__ = [
    "BinaryLogisticRegression", "ClassScores", "Classifier", "ConvNet",
    "DecisionTree", "ForestTable", "KNearestNeighbors", "LabelEncoder",
    "LogisticRegression", "RandomForest", "TreeTable", "accuracy",
    "check_fit_inputs",
    "classification_report", "confusion_matrix", "cross_validate",
    "dtw_alignment", "dtw_distance", "dtw_distance_batch",
    "forest_from_dict", "forest_to_dict",
    "k_fold_indices", "macro_f_score", "per_class_scores",
    "similarity_score", "similarity_score_batch", "softmax",
    "train_test_split", "tree_from_dict", "tree_to_dict",
    "tune_knn_k", "weighted_accuracy", "weighted_f_score",
]
